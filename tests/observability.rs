//! Observability integration: a traced exploration of the medical system
//! emits well-formed JSONL with non-trivial cache-hit counters, and —
//! the determinism guard — aggregated metrics are identical whether the
//! exploration ran on one thread or many. The explore/verify sharing
//! counters are exact too, and so is the clustering work counter, which
//! pins the incremental merge loop's O(n²) pair-score bound. The
//! simulator's `sim.*` work counters on the medical refinements are
//! pinned exactly, so a kernel change that alters the schedule or the
//! micro-step count fails here rather than in a wall-time bench, and so
//! is the static gate's dead-wait evaluation count.

use std::sync::{Mutex, MutexGuard, PoisonError};

use modref::core::api::{Codesign, ExploreOpts, VerifyOpts};
use modref::core::{refine, ImplModel};
use modref::graph::AccessGraph;
use modref::obs::{self, ClockMode, Event};
use modref::partition::algorithms::HierarchicalClustering;
use modref::sim::{SimConfig, SimKernel, SimResult, Simulator};
use modref::workloads::{
    fig2_spec, medical_allocation, medical_partition, medical_spec, Design, SynthConfig, SynthSpec,
};

/// The recorder is process-global; tests that flip it must not overlap.
static RECORDER: Mutex<()> = Mutex::new(());

fn hold() -> MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn explore_medical(seeds: u64, threads: usize) {
    let cd = Codesign::from_spec(medical_spec());
    let result = cd
        .explore(&ExploreOpts::new().with_seeds(seeds).with_threads(threads))
        .expect("exploration succeeds");
    assert!(!result.points.is_empty());
}

fn counter_value(trace: &obs::Trace, name: &str) -> u64 {
    trace
        .events
        .iter()
        .find_map(|e| match e {
            Event::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
        .unwrap_or_else(|| panic!("counter `{name}` missing from trace"))
}

#[test]
fn traced_explore_emits_wellformed_jsonl_with_cache_hits() {
    let _l = hold();
    obs::init(ClockMode::Wall);
    explore_medical(2, 2);
    let trace = obs::shutdown();

    // The JSONL sink round-trips the whole trace exactly.
    let text = obs::jsonl::write(&trace);
    assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    let back = obs::jsonl::parse(&text).expect("trace parses back");
    assert_eq!(trace.events, back.events);

    // Span structure: one explore root with per-seed job children under it.
    let explore_id = trace
        .events
        .iter()
        .find_map(|e| match e {
            Event::Span { name, id, .. } if name == "explore" => Some(*id),
            _ => None,
        })
        .expect("explore span recorded");
    let jobs = trace
        .events
        .iter()
        .filter(|e| {
            matches!(e, Event::Span { name, parent, .. }
                if name == "explore.job" && *parent == explore_id)
        })
        .count();
    assert!(jobs >= 5, "expected >=5 explore jobs, saw {jobs}");

    // The warm lifetime table makes cache hits real work saved, not an
    // artifact: every job starts from the pre-computed leaf lifetimes.
    let hits = counter_value(&trace, "lifetime.hit");
    let misses = counter_value(&trace, "lifetime.miss");
    assert!(hits > 0, "expected non-zero lifetime cache hits");
    assert!(misses > 0, "warm-up itself must count misses");
    assert!(counter_value(&trace, "cache.move_evals") > 0);
    assert!(counter_value(&trace, "anneal.moves") > 0);

    // The report renderer accepts the trace and summarizes it.
    let rendered = obs::report::render(&trace);
    assert!(rendered.contains("explore"), "{rendered}");
    assert!(rendered.contains("lifetime.hit"), "{rendered}");
}

/// Determinism guard: under the logical clock, the aggregated metrics of
/// a 1-thread and a 4-thread exploration are bit-identical — counters
/// commute, durations are zero, and ids never leak into aggregation.
#[test]
fn aggregated_metrics_identical_across_thread_counts() {
    let _l = hold();

    let metrics_of = |threads: usize| {
        obs::init(ClockMode::Logical);
        explore_medical(2, threads);
        let trace = obs::shutdown();
        trace
            .events
            .into_iter()
            .filter(|e| match e {
                Event::Counter { .. } | Event::Hist { .. } => true,
                // The thread-count gauge *should* differ between runs;
                // every other gauge must match.
                Event::Gauge { name, .. } => name != "explore.threads",
                _ => false,
            })
            .collect::<Vec<_>>()
    };

    let single = metrics_of(1);
    let multi = metrics_of(4);
    assert!(
        single
            .iter()
            .any(|e| matches!(e, Event::Counter { name, value }
            if name == "lifetime.hit" && *value > 0)),
        "sanity: the runs did real work"
    );
    assert_eq!(
        single, multi,
        "aggregated metrics must not depend on thread count"
    );
}

/// Explore and verify evaluate each distinct partition once: on medical
/// with 8 seeds, 19 candidates hold 16 distinct partitions and 9 front
/// candidates hold 6, so 3 × 4 rate pairs and 3 × 4 verify records are
/// answered by another candidate's evaluation, at any thread count.
#[test]
fn sharing_counters_are_exact() {
    let _l = hold();
    let cd = Codesign::from_spec(medical_spec());
    for threads in [1, 2] {
        obs::init(ClockMode::Logical);
        let out = cd
            .explore(&ExploreOpts::new().with_seeds(8).with_threads(threads))
            .expect("exploration succeeds");
        cd.verify(&out, &VerifyOpts::new().with_threads(threads))
            .expect("verification runs");
        let trace = obs::shutdown();
        assert_eq!(
            counter_value(&trace, "explore.rate_shared"),
            12,
            "{threads} thread(s)"
        );
        assert_eq!(
            counter_value(&trace, "verify.shared"),
            12,
            "{threads} thread(s)"
        );
    }
}

/// Pair scores the incremental clustering computes for `n` leaves down
/// to `target` clusters: every pair once, then the survivor of each merge
/// against the k − 2 other clusters left after merging k.
fn expected_pair_evals(n: u64, target: u64) -> u64 {
    let t = target.max(1);
    n * (n - 1) / 2 + (t + 1..=n).map(|k| k - 2).sum::<u64>()
}

/// `clustering.pair_evals` is deterministic, so it gates the O(n²) bound
/// exactly instead of a wall time: n(n−1)/2 + Σ_{k=t+1..n}(k−2).
#[test]
fn clustering_pair_evals_are_exact() {
    let _l = hold();
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
    for (label, spec) in [
        ("medical", medical_spec()),
        ("fig2", fig2_spec()),
        ("synth64", synth.spec),
    ] {
        let graph = AccessGraph::derive(&spec);
        let n = spec.leaves().len() as u64;
        for target in 1..=4 {
            obs::init(ClockMode::Logical);
            let clusters = HierarchicalClustering::new().clusters(&spec, &graph, target as usize);
            let trace = obs::shutdown();
            assert_eq!(clusters.len() as u64, target.min(n), "{label}");
            assert_eq!(
                counter_value(&trace, "clustering.pair_evals"),
                expected_pair_evals(n, target),
                "{label}, target {target}"
            );
        }
    }
    // n = 64, t = 2: 2016 initial scores + 1953 rescores.
    assert_eq!(expected_pair_evals(64, 2), 3969);
}

/// The simulator's work counters on the medical Design1 refinements,
/// pinned exactly: `[steps, rounds, cond_evals, wakeups, dispatches]`.
/// The default (compiled) kernel publishes them as `sim.instrs`,
/// `sim.rounds`, `sim.cond_evals`, `sim.wakeups` and `sim.dispatches`;
/// the event-driven interpreter must count the same, since fused
/// branches charge every step they skip.
#[test]
fn sim_counters_are_exact() {
    let _l = hold();
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design1);
    let pinned = [
        (ImplModel::Model1, [20735, 2417, 2986, 2391, 2423]),
        (ImplModel::Model2, [17731, 2417, 2762, 2391, 2427]),
        (ImplModel::Model3, [16719, 2337, 2312, 2311, 2351]),
        (ImplModel::Model4, [33827, 4801, 5074, 4775, 4815]),
    ];
    let counts = |r: &SimResult| {
        let s = &r.sched;
        [r.steps, s.rounds, s.cond_evals, s.wakeups, s.dispatches]
    };
    for (model, want) in pinned {
        let refined = refine(&spec, &graph, &alloc, &part, model)
            .expect("medical refines")
            .spec;
        obs::init(ClockMode::Logical);
        let compiled = Simulator::new(&refined).run().expect("completes");
        let trace = obs::shutdown();
        let published = [
            counter_value(&trace, "sim.instrs"),
            counter_value(&trace, "sim.rounds"),
            counter_value(&trace, "sim.cond_evals"),
            counter_value(&trace, "sim.wakeups"),
            counter_value(&trace, "sim.dispatches"),
        ];
        assert_eq!(published, want, "{model}: published sim.* counters");
        assert_eq!(counts(&compiled), want, "{model}: compiled kernel");
        let event = Simulator::with_config(
            &refined,
            SimConfig {
                kernel: SimKernel::EventDriven,
                ..SimConfig::default()
            },
        )
        .run()
        .expect("completes");
        assert_eq!(counts(&event), want, "{model}: event-driven kernel");
    }
}

/// The static gate's dead-wait fixpoint on the medical Design1
/// refinements, pinned exactly: `analyze.dl.wait_evals` counts each
/// wait-condition evaluation, once per wait plus once per widening of
/// an entity the wait reads after that (Model1 has 112 waits, Model2
/// 199, Model3 227, Model4 214). In a traced verify, every gate call is
/// a `lint_refined` span with its model, nested under its `verify.job`.
#[test]
fn dl_wait_evals_are_exact_and_the_gate_has_a_span() {
    let _l = hold();
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design1);
    let cd = Codesign::from_spec(spec.clone());
    let pinned = [
        (ImplModel::Model1, 114),
        (ImplModel::Model2, 203),
        (ImplModel::Model3, 232),
        (ImplModel::Model4, 220),
    ];
    for (model, want) in pinned {
        let refined = refine(&spec, &graph, &alloc, &part, model).expect("medical refines");
        obs::init(ClockMode::Logical);
        assert!(cd.lint_refined(&refined).is_empty(), "{model}: clean");
        let trace = obs::shutdown();
        assert_eq!(
            counter_value(&trace, "analyze.dl.wait_evals"),
            want,
            "{model}: analyze.dl.wait_evals"
        );
    }

    obs::init(ClockMode::Logical);
    let out = cd
        .explore(&ExploreOpts::new().with_seeds(2))
        .expect("exploration succeeds");
    cd.verify(&out, &VerifyOpts::new())
        .expect("verification runs");
    let trace = obs::shutdown();
    let mut jobs = Vec::new();
    let mut gates = Vec::new();
    for e in &trace.events {
        if let Event::Span {
            id,
            parent,
            name,
            attrs,
            ..
        } = e
        {
            match name.as_str() {
                "verify.job" => jobs.push(*id),
                "lint_refined" => gates.push((*parent, attrs)),
                _ => {}
            }
        }
    }
    assert_eq!(gates.len(), jobs.len(), "one gate call per verify job");
    for (parent, attrs) in gates {
        assert!(
            jobs.contains(&parent),
            "lint_refined nests under verify.job"
        );
        assert!(attrs.iter().any(|(k, _)| k == "model"), "{attrs:?}");
    }
}
