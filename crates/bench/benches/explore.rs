//! Exploration throughput: full-recompute versus incremental move
//! evaluation, and end-to-end multi-start exploration.
//!
//! The tentpole claim is that `CostCache` makes single-object move
//! evaluation cheap enough for multi-start search: each trial move costs
//! an O(degree) cut-flag update plus a re-sum of cached tables instead of
//! a full statement-tree walk. This bench measures both paths on the same
//! deterministic move schedule over the medical workload and a larger
//! synthetic design, then times `explore()` itself at one and at many
//! threads — and records everything in `BENCH_explore.json` at the repo
//! root, including the full/incremental speedup the acceptance criteria
//! gate on.
//!
//! A second table, `clustering_scaling`, times one
//! `HierarchicalClustering::partition_with_table` call on generated specs
//! of 64, 250 and 1000 leaves and reports the deterministic
//! `clustering.pair_evals` count beside it, so the incremental merge
//! loop's O(n²) growth is measured rather than assumed.

use std::time::Instant;

use modref_bench::harness::Criterion;
use modref_bench::record::{self, fixed, obj, text, uint, Value};
use modref_bench::{criterion_group, criterion_main};

use modref_estimate::LifetimeTable;
use modref_graph::AccessGraph;
use modref_partition::algorithms::{HierarchicalClustering, Partitioner};
use modref_partition::explore::{explore, ExploreConfig};
use modref_partition::{partition_cost, Allocation, CostCache, CostConfig, Partition};
use modref_spec::Spec;
use modref_workloads::{
    medical_allocation, medical_partition, medical_spec, Design, SynthConfig, SynthSpec,
};

/// One workload's measurements.
struct Record {
    name: &'static str,
    behaviors: usize,
    leaves: usize,
    evals: u64,
    full_ns_per_eval: f64,
    incremental_ns_per_eval: f64,
    speedup: f64,
    explore_candidates: usize,
    explore_secs_serial: f64,
    explore_secs_parallel: f64,
    explore_threads: usize,
}

/// Times `evals` move evaluations via full `partition_cost` recompute:
/// assign the object, recompute, assign it back — the pre-cache idiom.
fn time_full(
    spec: &Spec,
    graph: &AccessGraph,
    alloc: &Allocation,
    part: &Partition,
    config: &CostConfig,
    evals: u64,
) -> f64 {
    let leaves = spec.leaves();
    let ids = alloc.ids();
    let mut part = part.clone();
    let mut acc = 0.0;
    let start = Instant::now();
    for i in 0..evals {
        let leaf = leaves[(i as usize) % leaves.len()];
        let to = ids[(i as usize) % ids.len()];
        let back = part
            .component_of_behavior(spec, leaf)
            .expect("complete partition");
        part.assign_behavior(leaf, to);
        acc += partition_cost(spec, graph, alloc, &part, config).total;
        part.assign_behavior(leaf, back);
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / evals as f64;
    assert!(acc.is_finite());
    ns
}

/// Times the same move schedule through the incremental cache.
fn time_incremental(
    spec: &Spec,
    graph: &AccessGraph,
    alloc: &Allocation,
    part: &Partition,
    config: &CostConfig,
    evals: u64,
) -> f64 {
    let mut cache = CostCache::new(spec, graph, alloc, part, config);
    let leaves = cache.leaves().to_vec();
    let ids = alloc.ids();
    let mut acc = 0.0;
    let start = Instant::now();
    for i in 0..evals {
        let leaf = leaves[(i as usize) % leaves.len()];
        let to = ids[(i as usize) % ids.len()];
        let back = cache.component_of_leaf(leaf);
        acc += cache.move_leaf(leaf, to);
        cache.move_leaf(leaf, back);
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / evals as f64;
    assert!(acc.is_finite());
    ns
}

fn measure(
    name: &'static str,
    spec: &Spec,
    graph: &AccessGraph,
    alloc: &Allocation,
    part: &Partition,
    evals: u64,
) -> Record {
    let config = CostConfig::default();
    // Warm both paths once so allocation noise stays out of the timing.
    time_full(spec, graph, alloc, part, &config, evals / 10 + 1);
    time_incremental(spec, graph, alloc, part, &config, evals / 10 + 1);
    let full = time_full(spec, graph, alloc, part, &config, evals);
    let incremental = time_incremental(spec, graph, alloc, part, &config, evals);

    let expl = ExploreConfig {
        seeds: 4,
        anneal_iterations: 300,
        migration_passes: 6,
        threads: Some(1),
    };
    let start = Instant::now();
    let serial = explore(spec, graph, alloc, &config, &expl);
    let explore_secs_serial = start.elapsed().as_secs_f64();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let start = Instant::now();
    let parallel = explore(
        spec,
        graph,
        alloc,
        &config,
        &ExploreConfig {
            threads: Some(threads),
            ..expl
        },
    );
    let explore_secs_parallel = start.elapsed().as_secs_f64();
    assert_eq!(
        serial, parallel,
        "exploration must be thread-count invariant"
    );

    Record {
        name,
        behaviors: spec.behavior_count(),
        leaves: spec.leaves().len(),
        evals,
        full_ns_per_eval: full,
        incremental_ns_per_eval: incremental,
        speedup: full / incremental,
        explore_candidates: serial.len(),
        explore_secs_serial,
        explore_secs_parallel,
        explore_threads: threads,
    }
}

impl Record {
    fn to_json(&self) -> Value {
        obj([
            ("name", text(self.name)),
            ("behaviors", uint(self.behaviors)),
            ("leaves", uint(self.leaves)),
            ("move_evals", uint(self.evals)),
            ("full_ns_per_eval", fixed(self.full_ns_per_eval, 1)),
            (
                "incremental_ns_per_eval",
                fixed(self.incremental_ns_per_eval, 1),
            ),
            ("speedup", fixed(self.speedup, 2)),
            ("explore_candidates", uint(self.explore_candidates)),
            ("explore_secs_serial", fixed(self.explore_secs_serial, 4)),
            (
                "explore_secs_parallel",
                fixed(self.explore_secs_parallel, 4),
            ),
            ("explore_threads", uint(self.explore_threads)),
            (
                "explore_candidates_per_sec",
                fixed(
                    self.explore_candidates as f64 / self.explore_secs_parallel.max(1e-9),
                    1,
                ),
            ),
        ])
    }
}

/// One clustering scaling point: a generated spec of `leaves` leaves.
struct ClusteringRow {
    synth_leaves: usize,
    leaves: usize,
    components: usize,
    vars: usize,
    behaviors: usize,
    secs: f64,
    pair_evals: u64,
}

/// Times one clustering partition of a `leaves`-leaf `SynthSpec` (64
/// variables, the `synth64_traces` shape otherwise), best of `reps`
/// untraced calls, then counts its pair scores in one traced call.
fn clustering_row(leaves: usize, alloc: &Allocation, reps: usize) -> ClusteringRow {
    let vars = 64;
    let synth = SynthSpec::generate(
        11,
        &SynthConfig {
            leaves,
            vars,
            stmts_per_leaf: 6,
            fanout: 3,
            loop_percent: 30,
        },
    );
    let graph = synth.graph();
    let config = CostConfig::default();
    let run = || {
        let mut table = LifetimeTable::new(config.lifetime);
        let start = Instant::now();
        let part = HierarchicalClustering::new().partition_with_table(
            &synth.spec,
            &graph,
            alloc,
            &config,
            &mut table,
        );
        let secs = start.elapsed().as_secs_f64();
        assert!(part.is_complete(&synth.spec, alloc));
        secs
    };
    let secs = (0..reps).map(|_| run()).fold(f64::INFINITY, f64::min);
    modref_obs::init(modref_obs::ClockMode::Logical);
    run();
    let pair_evals = modref_obs::shutdown()
        .counter("clustering.pair_evals")
        .expect("clustering counts its pair scores");
    ClusteringRow {
        synth_leaves: leaves,
        leaves: synth.spec.leaves().len(),
        components: alloc.len(),
        vars,
        behaviors: synth.spec.behavior_count(),
        secs,
        pair_evals,
    }
}

impl ClusteringRow {
    fn to_json(&self) -> Value {
        obj([
            ("synth_leaves", uint(self.synth_leaves)),
            ("leaves", uint(self.leaves)),
            ("components", uint(self.components)),
            ("vars", uint(self.vars)),
            ("behaviors", uint(self.behaviors)),
            ("partition_secs", fixed(self.secs, 4)),
            ("pair_evals", uint(self.pair_evals)),
        ])
    }
}

fn bench_explore(c: &mut Criterion) {
    let spec = medical_spec();
    let graph = AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let med_part = medical_partition(&spec, &alloc, Design::Design1);

    let synth_cfg = SynthConfig {
        leaves: 24,
        vars: 16,
        stmts_per_leaf: 6,
        fanout: 4,
        loop_percent: 30,
    };
    let synth = SynthSpec::generate(11, &synth_cfg);
    let synth_graph = synth.graph();
    let synth_part = Partition::with_default(alloc.ids()[0]);

    // The harness-timed view (respects MODREF_BENCH_MS).
    let config = CostConfig::default();
    let mut group = c.benchmark_group("move_eval_medical");
    group.bench_function("full_recompute", |b| {
        b.iter(|| time_full(&spec, &graph, &alloc, &med_part, &config, 32))
    });
    group.bench_function("incremental", |b| {
        b.iter(|| time_incremental(&spec, &graph, &alloc, &med_part, &config, 32))
    });
    group.finish();

    // The recorded comparison the acceptance criteria read.
    let records = vec![
        measure("medical", &spec, &graph, &alloc, &med_part, 4000),
        measure(
            "synth24",
            &synth.spec,
            &synth_graph,
            &alloc,
            &synth_part,
            2000,
        ),
    ];
    for r in &records {
        eprintln!(
            "{:<8} {:>2} behaviors: full {:>10.0} ns/eval, incremental {:>8.0} ns/eval — {:>5.1}x; \
             explore {} candidates in {:.3}s serial / {:.3}s on {} threads",
            r.name,
            r.behaviors,
            r.full_ns_per_eval,
            r.incremental_ns_per_eval,
            r.speedup,
            r.explore_candidates,
            r.explore_secs_serial,
            r.explore_secs_parallel,
            r.explore_threads,
        );
    }

    let scaling: Vec<ClusteringRow> = [(64, 5), (250, 3), (1000, 1)]
        .into_iter()
        .map(|(leaves, reps)| clustering_row(leaves, &alloc, reps))
        .collect();
    for r in &scaling {
        eprintln!(
            "clustering {:>4} leaves: {:.4}s per partition, {} pair evals",
            r.leaves, r.secs, r.pair_evals
        );
    }

    let workloads = records.iter().map(Record::to_json).collect();
    record::write(
        "explore",
        &obj([
            ("bench", text("explore")),
            ("workloads", Value::Arr(workloads)),
            (
                "clustering_scaling",
                Value::Arr(scaling.iter().map(ClusteringRow::to_json).collect()),
            ),
        ]),
    );
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
