//! Cost of the static analysis pipeline — the price `modref lint` and
//! the `explore --verify` static gate pay per specification.
//!
//! Two figures per workload, recorded to `BENCH_static_analysis.json`:
//!
//! * **analyze_ns** — the full `analyze_spec` battery (structural,
//!   dataflow, race and deadlock families, sorted and deduplicated);
//! * **deadlock_ns** — the `DL01`–`DL05` deadlock/liveness analysis
//!   alone (interval fixpoint + wait-dependency greatest fixpoint),
//!   the part the verify gate added.
//!
//! A synthetic scaling row (leaf count doubling from 8 to 64) checks
//! the analysis stays far below simulation cost as designs grow — the
//! gate is only worth running before the simulator if it is orders of
//! magnitude cheaper.
//!
//! The `refined` rows time what `explore --verify` actually gates: the
//! medical Design1 Model 1–4 refinements and the seed-11 synth64 Model1
//! refinement (the perfbench `synth64_traces` shape), each with
//!
//! * **lint_refined_ns** — the whole refined-candidate gate
//!   (`Codesign::lint_refined`: `RC01`–`RC04` plus `DL01`–`DL05` with
//!   the arbiters' handshake wiring);
//! * **deadlock_ns** — `deadlock_lints` alone, inferred handshakes only.

use modref_bench::best_time_ns;
use modref_bench::harness::Criterion;
use modref_bench::record::{self, fixed, obj, text, uint, Value};
use modref_bench::{criterion_group, criterion_main};

use modref_analyze::{analyze_spec, deadlock_lints};
use modref_core::api::Codesign;
use modref_core::{refine, ImplModel, Refined};
use modref_graph::AccessGraph;
use modref_partition::Allocation;
use modref_spec::{SourceMap, Spec};
use modref_workloads::{
    medical_allocation, medical_partition, medical_spec, named_spec, Design, SynthConfig,
    SynthSpec, WORKLOAD_NAMES,
};

struct Row {
    name: String,
    behaviors: usize,
    analyze_ns: f64,
    deadlock_ns: f64,
}

fn measure(name: &str, spec: &Spec) -> Row {
    let map = SourceMap::new();
    let (batches, iters) = (5, 32);
    analyze_spec(spec, &map); // warm up off the clock
    Row {
        name: name.to_string(),
        behaviors: spec.behaviors().count(),
        analyze_ns: best_time_ns(batches, iters, || analyze_spec(spec, &map)),
        deadlock_ns: best_time_ns(batches, iters, || deadlock_lints(spec, None, &[])),
    }
}

struct RefinedRow {
    name: String,
    lines: usize,
    lint_refined_ns: f64,
    deadlock_ns: f64,
}

fn measure_refined(name: &str, cd: &Codesign, refined: &Refined) -> RefinedRow {
    let (batches, iters) = (5, 8);
    cd.lint_refined(refined); // warm up off the clock
    RefinedRow {
        name: name.to_string(),
        lines: modref_spec::printer::print(&refined.spec).lines().count(),
        lint_refined_ns: best_time_ns(batches, iters, || cd.lint_refined(refined)),
        deadlock_ns: best_time_ns(batches, iters, || deadlock_lints(&refined.spec, None, &[])),
    }
}

/// The refined candidates the verify gate sees: medical Design1 under
/// Models 1–4, and synth64 (seed 11) under Model1.
fn refined_rows() -> Vec<RefinedRow> {
    let mut rows = Vec::new();
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design1);
    let cd = Codesign::from_spec(spec.clone());
    for model in ImplModel::ALL {
        let refined = refine(&spec, &graph, &alloc, &part, model).expect("medical refines");
        rows.push(measure_refined(&format!("medical_{model}"), &cd, &refined));
    }
    let synth = SynthSpec::generate(
        11,
        &SynthConfig {
            leaves: 64,
            vars: 64,
            stmts_per_leaf: 6,
            fanout: 3,
            loop_percent: 30,
        },
    );
    let alloc = Allocation::proc_plus_asic();
    let part = synth.partition(&alloc, 0);
    let refined = refine(
        &synth.spec,
        &synth.graph(),
        &alloc,
        &part,
        ImplModel::Model1,
    )
    .expect("synth64 refines");
    let cd = Codesign::from_spec(synth.spec.clone());
    rows.push(measure_refined("synth64_Model1", &cd, &refined));
    rows
}

fn bench_static_analysis(c: &mut Criterion) {
    // Harness-timed view (respects MODREF_BENCH_MS) over the shipped
    // workloads.
    let mut group = c.benchmark_group("static_analysis");
    for name in WORKLOAD_NAMES {
        let spec = named_spec(name).expect("known workload");
        let map = SourceMap::new();
        group.bench_function(format!("analyze/{name}"), |b| {
            b.iter(|| analyze_spec(&spec, &map))
        });
        group.bench_function(format!("deadlock/{name}"), |b| {
            b.iter(|| deadlock_lints(&spec, None, &[]))
        });
    }
    group.finish();

    // The recorded comparison: fixed schedule, best-of-batches.
    let mut rows: Vec<Row> = WORKLOAD_NAMES
        .iter()
        .map(|name| measure(name, &named_spec(name).expect("known workload")))
        .collect();
    for leaves in [8usize, 16, 32, 64] {
        let config = SynthConfig {
            leaves,
            vars: leaves,
            stmts_per_leaf: 6,
            fanout: 3,
            loop_percent: 30,
        };
        let spec = SynthSpec::generate(0xbeef, &config).spec;
        rows.push(measure(&format!("synth{leaves}"), &spec));
    }

    for row in &rows {
        eprintln!(
            "{:>10}: {:>3} behaviors, analyze {:>9.1} ns, deadlock family {:>9.1} ns",
            row.name, row.behaviors, row.analyze_ns, row.deadlock_ns
        );
    }
    let refined = refined_rows();
    for row in &refined {
        eprintln!(
            "{:>14}: {:>5} lines, lint_refined {:>10.1} ns, deadlock family {:>10.1} ns",
            row.name, row.lines, row.lint_refined_ns, row.deadlock_ns
        );
    }
    let rows = rows.iter().map(|row| {
        obj([
            ("workload", text(&row.name)),
            ("behaviors", uint(row.behaviors)),
            ("analyze_ns", fixed(row.analyze_ns, 1)),
            ("deadlock_ns", fixed(row.deadlock_ns, 1)),
        ])
    });
    let refined = refined.iter().map(|row| {
        obj([
            ("workload", text(&row.name)),
            ("lines", uint(row.lines)),
            ("lint_refined_ns", fixed(row.lint_refined_ns, 1)),
            ("deadlock_ns", fixed(row.deadlock_ns, 1)),
        ])
    });
    record::write(
        "static_analysis",
        &obj([
            ("bench", text("static_analysis")),
            ("rows", Value::Arr(rows.collect())),
            ("refined", Value::Arr(refined.collect())),
        ]),
    );
}

criterion_group!(benches, bench_static_analysis);
criterion_main!(benches);
