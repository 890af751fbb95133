//! Diagnostic equivalence of the deadlock engine: the JSONL rendering
//! of every diagnostic over a fixed corpus is pinned by FNV-1a digest,
//! so a change to the engine's internals (CFG layout, fixpoint order,
//! handshake pruning) that alters one byte of any finding fails here.
//!
//! The corpus, one pinned digest per group:
//!
//! * every named workload, printed and re-parsed with its `SourceMap`
//!   (the full `analyze_spec` battery, so spans are exercised);
//! * the five DL tampers of each workload, builder-built and re-parsed;
//! * the medical (Designs 1–3) and fig2 Model 1–4 refinements, through
//!   the refined-candidate gate (`RC` and `DL` families with the
//!   arbiters' handshake wiring), plus one architecture tamper per `RC`
//!   code and each DL tamper grafted onto the medical Design1
//!   refinements;
//! * the seed-11 synth64 Model1 refinement, clean and with each DL
//!   tamper grafted on;
//! * 20 seeded `SynthSpec`s and their five tampers each.
//!
//! The corpus must contain `DL01`–`DL05` and an `RC` code, so the pins
//! cannot all be empty reports.

use std::collections::BTreeSet;

use modref::analyze::{
    analyze_spec, deadlock_lints, render_json_lines, sort_canonical, Diagnostic,
};
use modref::core::api::Codesign;
use modref::core::{refine, ImplModel, Refined};
use modref::graph::AccessGraph;
use modref::partition::{Allocation, Partition};
use modref::spec::parser::parse_with_spans;
use modref::spec::printer::print;
use modref::spec::Spec;
use modref::workloads::{
    fig2_partition, fig2_spec, medical_allocation, medical_partition, medical_spec, named_spec,
    Design, SynthConfig, SynthSpec, WORKLOAD_NAMES,
};
use modref_rng::Rng;

mod tampers;
use tampers::TAMPERS;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One corpus group: every case's rendering, concatenated in order.
#[derive(Default)]
struct Group {
    text: String,
    codes: BTreeSet<&'static str>,
}

impl Group {
    fn add(&mut self, label: &str, diags: &[Diagnostic]) {
        self.codes.extend(diags.iter().map(|d| d.code));
        self.text.push_str(&render_json_lines(diags, label));
    }

    /// DL family alone, builder-built spec (no positions).
    fn add_dl(&mut self, label: &str, spec: &Spec) {
        let mut diags = deadlock_lints(spec, None, &[]);
        sort_canonical(&mut diags);
        self.add(label, &diags);
    }

    /// Full battery over the printed-and-reparsed spec (positions).
    fn add_parsed(&mut self, label: &str, spec: &Spec) {
        let (parsed, map) = parse_with_spans(&print(spec)).expect("printed spec parses");
        self.add(label, &analyze_spec(&parsed, &map));
    }

    /// The refined-candidate gate, as `explore --verify` runs it.
    fn add_refined(
        &mut self,
        label: &str,
        spec: &Spec,
        alloc: &Allocation,
        part: &Partition,
        tamper: impl Fn(&mut Refined),
    ) {
        let graph = AccessGraph::derive(spec);
        let cd = Codesign::from_spec(spec.clone());
        for model in ImplModel::ALL {
            let mut refined = refine(spec, &graph, alloc, part, model).expect("refines");
            tamper(&mut refined);
            self.add(&format!("{label}/{model}"), &cd.lint_refined(&refined));
        }
    }
}

/// The perfbench `synth64_traces` spec shape.
const SYNTH64: SynthConfig = SynthConfig {
    leaves: 64,
    vars: 64,
    stmts_per_leaf: 6,
    fanout: 3,
    loop_percent: 30,
};

fn corpus() -> Vec<(&'static str, Group)> {
    let mut groups = Vec::new();

    let mut g = Group::default();
    for name in WORKLOAD_NAMES {
        g.add_parsed(name, &named_spec(name).expect("known workload"));
    }
    groups.push(("workloads", g));

    let mut built = Group::default();
    let mut parsed = Group::default();
    for name in WORKLOAD_NAMES {
        let base = named_spec(name).expect("known workload");
        for (code, tamper, _) in TAMPERS {
            let bad = tamper(&base);
            built.add_dl(&format!("{name}+{code}"), &bad);
            parsed.add_parsed(&format!("{name}+{code}"), &bad);
        }
    }
    groups.push(("workload_tampers", built));
    groups.push(("workload_tampers_parsed", parsed));

    let spec = medical_spec();
    let alloc = medical_allocation();
    let mut g = Group::default();
    for design in Design::ALL {
        let part = medical_partition(&spec, &alloc, design);
        g.add_refined(&format!("medical/{design:?}"), &spec, &alloc, &part, |_| {});
    }
    let fig2 = fig2_spec();
    let part = fig2_partition(&fig2, &alloc);
    g.add_refined("fig2", &fig2, &alloc, &part, |_| {});
    groups.push(("refined", g));

    // One architecture tamper per RC code on medical Design1.
    let part = medical_partition(&spec, &alloc, Design::Design1);
    let mut g = Group::default();
    g.add_refined("rc01", &spec, &alloc, &part, |r| {
        r.architecture.arbiters.clear()
    });
    g.add_refined("rc02", &spec, &alloc, &part, |r| {
        if let Some(mut ghost) = r.plan.memories.first().cloned() {
            ghost.name = "Ghost".into();
            r.plan.memories.push(ghost);
        }
    });
    g.add_refined("rc03", &spec, &alloc, &part, |r| {
        r.architecture
            .buses
            .iter_mut()
            .for_each(|b| b.slaves.clear())
    });
    g.add_refined("rc04", &spec, &alloc, &part, |r| {
        r.architecture
            .buses
            .iter_mut()
            .for_each(|b| b.data_bits = 1)
    });
    // Each DL tamper grafted onto the refined medical Design1 spec, so
    // the deadlock family runs on refined structure with the arbiters'
    // handshake wiring.
    for (code, tamper, _) in TAMPERS {
        g.add_refined(&format!("medical+{code}"), &spec, &alloc, &part, |r| {
            r.spec = tamper(&r.spec)
        });
    }
    groups.push(("refined_tampers", g));

    let synth = SynthSpec::generate(11, &SYNTH64);
    let alloc = Allocation::proc_plus_asic();
    let part = synth.partition(&alloc, 0);
    let graph = synth.graph();
    let refined = refine(&synth.spec, &graph, &alloc, &part, ImplModel::Model1).expect("refines");
    let mut g = Group::default();
    let cd = Codesign::from_spec(synth.spec.clone());
    g.add("synth64/Model1", &cd.lint_refined(&refined));
    for (code, tamper, _) in TAMPERS {
        let bad = Refined {
            spec: tamper(&refined.spec),
            ..refined.clone()
        };
        g.add(&format!("synth64/Model1+{code}"), &cd.lint_refined(&bad));
    }
    groups.push(("synth64_model1", g));

    let mut rng = Rng::seed_from_u64(0x00d1_e9e0);
    let mut g = Group::default();
    for _ in 0..20 {
        let seed = rng.gen_range(0..1u64 << 48);
        let config = SynthConfig {
            leaves: rng.gen_range(2..9usize),
            vars: rng.gen_range(2..8usize),
            stmts_per_leaf: rng.gen_range(1..6usize),
            fanout: rng.gen_range(2..4usize),
            loop_percent: rng.gen_range(0..60u32),
        };
        let clean = SynthSpec::generate(seed, &config).spec;
        g.add_dl(&format!("synth{seed}"), &clean);
        for (code, tamper, _) in TAMPERS {
            g.add_dl(&format!("synth{seed}+{code}"), &tamper(&clean));
        }
    }
    groups.push(("synth_random", g));
    groups
}

/// Digests recorded before the worklist fixpoint and the path-free CFG.
const PINNED: [(&str, u64); 7] = [
    ("workloads", 9966355351450221477),
    ("workload_tampers", 1953146585703168297),
    ("workload_tampers_parsed", 17204500494680144667),
    ("refined", 16398494977753834789),
    ("refined_tampers", 4035991823580502205),
    ("synth64_model1", 6622398319503785776),
    ("synth_random", 4005824773165633075),
];

#[test]
fn diagnostics_match_the_pinned_digests() {
    let groups = corpus();
    let mut codes = BTreeSet::new();
    let mut got = Vec::new();
    for (name, g) in &groups {
        codes.extend(g.codes.iter().copied());
        got.push((*name, fnv1a(g.text.as_bytes())));
    }
    for code in ["DL01", "DL02", "DL03", "DL04", "DL05"] {
        assert!(codes.contains(code), "corpus lacks {code}: {codes:?}");
    }
    assert!(
        codes.iter().any(|c| c.starts_with("RC")),
        "corpus lacks an RC code: {codes:?}"
    );
    assert_eq!(got, PINNED, "digest table (name, fnv1a) changed");
}
