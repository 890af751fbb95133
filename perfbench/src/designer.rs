//! The designer's-loop workloads: one loop iteration is `explore`, then
//! `verify` where the workload verifies, through the `Codesign` facade
//! on a spec that was printed to text and parsed back.
//!
//! The traced run replays the same loop from each layer's public entry
//! point (partition search, Figure 9 rates, refinement, the static lint
//! gate, simulation, the trace check), timing every call from here, and
//! checks that the replay reproduces the facade's output exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use modref_core::api::{Codesign, ExploreOpts, VerifyOpts};
use modref_core::serve::spec_hash;
use modref_core::{
    check_stuttering_refinement, figure9_rates, refine, static_reject, DesignPoint, Exploration,
    ImplModel, Verification, VerifyRecord,
};
use modref_graph::AccessGraph;
use modref_partition::{Allocation, CostConfig, ExploreConfig, Partition};
use modref_sim::{SimConfig, SimResult, Simulator};
use modref_workloads::{SynthConfig, SynthSpec};

use crate::measure::{self, ms, quantile, Report};

/// Synthetic-spec seed used when the command line names none.
pub const DEFAULT_SYNTH_SEED: u64 = 11;

/// The `synth64_traces` spec shape: 64 leaves over 64 variables.
const SYNTH64: SynthConfig = SynthConfig {
    leaves: 64,
    vars: 64,
    stmts_per_leaf: 6,
    fanout: 3,
    loop_percent: 30,
};

/// How long set-up is repeated for its median.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// One designer's-loop workload.
pub struct LoopWorkload {
    pub name: &'static str,
    /// The generated specification text the program parses.
    pub spec_text: String,
    /// Explore seed count.
    pub seeds: u64,
    pub verify: bool,
    pub check_traces: bool,
    /// The synthetic-spec seed, for generated specs.
    pub synth_seed: Option<u64>,
}

impl LoopWorkload {
    /// The named loop workload; `synth_seed` picks the generated spec
    /// of `synth64_traces`.
    pub fn named(name: &str, synth_seed: u64) -> Option<Self> {
        let medical = || modref_spec::printer::print(&modref_workloads::medical_spec());
        Some(match name {
            "medical_verify" => LoopWorkload {
                name: "medical_verify",
                spec_text: medical(),
                seeds: 8,
                verify: true,
                check_traces: false,
                synth_seed: None,
            },
            "medical_explore" => LoopWorkload {
                name: "medical_explore",
                spec_text: medical(),
                seeds: 32,
                verify: false,
                check_traces: false,
                synth_seed: None,
            },
            "synth64_traces" => LoopWorkload {
                name: "synth64_traces",
                spec_text: modref_spec::printer::print(
                    &SynthSpec::generate(synth_seed, &SYNTH64).spec,
                ),
                seeds: 4,
                verify: true,
                check_traces: true,
                synth_seed: Some(synth_seed),
            },
            _ => return None,
        })
    }

    fn explore_opts(&self, threads: usize) -> ExploreOpts {
        ExploreOpts::new()
            .with_seeds(self.seeds)
            .with_threads(threads)
    }

    fn verify_opts(&self, threads: usize) -> VerifyOpts {
        VerifyOpts::new()
            .with_threads(threads)
            .with_check_traces(self.check_traces)
    }

    /// One loop iteration through the facade.
    fn iterate(
        &self,
        cd: &Codesign,
        threads: usize,
    ) -> Result<(Exploration, Option<Verification>), String> {
        let out = cd
            .explore(&self.explore_opts(threads))
            .map_err(|e| format!("explore: {e}"))?;
        let verdict = if self.verify {
            Some(
                cd.verify(&out, &self.verify_opts(threads))
                    .map_err(|e| format!("verify: {e}"))?,
            )
        } else {
            None
        };
        Ok((out, verdict))
    }
}

/// The canonical text of a loop's output — every ranked design point
/// and verify record, timings excluded — whose digest is committed.
fn outcome_text(out: &Exploration, verdict: Option<&Verification>) -> String {
    let mut s = String::new();
    for p in &out.points {
        let _ = writeln!(
            s,
            "point {} {} {} {:016x} {:016x} {} {}",
            p.algorithm,
            p.seed,
            p.model.number(),
            p.cost.total.to_bits(),
            p.max_bus_rate.to_bits(),
            p.bus_count,
            p.pareto
        );
    }
    if let Some(v) = verdict {
        let _ = writeln!(s, "original {} {}", v.original_time, v.original_steps);
        for r in &v.records {
            let _ = writeln!(
                s,
                "record {} {} {} {} {} {} {} {:?}",
                r.algorithm,
                r.seed,
                r.model.number(),
                r.equivalent,
                r.refined_time,
                r.refined_steps,
                r.bus_traffic,
                r.detail
            );
        }
    }
    s
}

/// Checks one iteration's output against the expected digest and
/// counts its verify records (attempted) and non-equivalent ones
/// (failed). An explore-only iteration counts as one attempt.
fn check(
    expected: &str,
    out: &Exploration,
    verdict: Option<&Verification>,
    report: &mut Report,
) -> Result<(), String> {
    match verdict {
        Some(v) => {
            report.attempted += v.records.len() as u64;
            report.failed += v.failures() as u64;
        }
        None => report.attempted += 1,
    }
    let got = spec_hash(&outcome_text(out, verdict));
    if got != expected {
        return Err(format!(
            "output digest {got} differs from the expected {expected}"
        ));
    }
    Ok(())
}

/// One set-up: the generated spec text parsed and validated into a
/// session, and its access graph derived.
fn setup(w: &LoopWorkload) -> Result<Codesign, String> {
    let cd = Codesign::parse(w.name, &w.spec_text)
        .map_err(|e| format!("parsing the {} spec: {e}", w.name))?;
    black_box(cd.graph());
    Ok(cd)
}

/// The digest every iteration must reproduce: the committed one, or —
/// for a synthetic seed without one — a single-threaded reference run.
fn expected_digest(w: &LoopWorkload, cd: &Codesign) -> Result<String, String> {
    if let Some(d) = measure::expected_digest(w.name, w.synth_seed) {
        return Ok(d.to_string());
    }
    let (out, verdict) = w.iterate(cd, 1)?;
    let d = spec_hash(&outcome_text(&out, verdict.as_ref()));
    eprintln!(
        "modref-perfbench: no committed digest for {} seed {:?}; a 1-thread reference run gave {d}",
        w.name, w.synth_seed
    );
    Ok(d)
}

/// Facade loop iterations for `budget` (at least one): wall time per
/// iteration in ms, the process CPU seconds they used, and — when
/// asked — one set-up after each iteration, so set-up samples spread
/// over the whole run instead of one burst.
#[derive(Default)]
struct Phase {
    wall_ms: Vec<f64>,
    cpu_s: f64,
    setup_ms: Vec<f64>,
}

fn run_phase(
    w: &LoopWorkload,
    cd: &Codesign,
    threads: usize,
    budget: Duration,
    with_setup: bool,
    expected: &str,
    report: &mut Report,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let cpu0 = measure::cpu_seconds("self")?;
    let start = Instant::now();
    while phase.wall_ms.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        let (out, verdict) = w.iterate(cd, threads)?;
        phase.wall_ms.push(ms(t.elapsed()));
        check(expected, &out, verdict.as_ref(), report)?;
        if with_setup {
            let t = Instant::now();
            setup(w)?;
            phase.setup_ms.push(ms(t.elapsed()));
        }
    }
    // Set-up is single-threaded, so its wall time is its CPU time.
    let setup_s = phase.setup_ms.iter().sum::<f64>() / 1e3;
    phase.cpu_s = measure::cpu_seconds("self")? - cpu0 - setup_s;
    Ok(phase)
}

/// The untraced run: set-up, one warm-up iteration, then facade
/// iterations for `seconds`, each followed by one more set-up.
pub fn run(w: &LoopWorkload, threads: usize, seconds: f64) -> Result<Report, String> {
    let t = Instant::now();
    let cd = setup(w)?;
    let first_setup_ms = ms(t.elapsed());
    let expected = expected_digest(w, &cd)?;
    let mut report = Report::default();
    let mut warm = Report::default();
    run_phase(w, &cd, threads, Duration::ZERO, false, &expected, &mut warm)?;
    let mut phase = run_phase(
        w,
        &cd,
        threads,
        Duration::from_secs_f64(seconds),
        true,
        &expected,
        &mut report,
    )?;
    report.correct = true;
    phase.setup_ms.push(first_setup_ms);

    let n = phase.wall_ms.len() as f64;
    let (p50, p90) = (quantile(&phase.wall_ms, 0.5), quantile(&phase.wall_ms, 0.9));
    let loop_s = phase.wall_ms.iter().sum::<f64>() / 1e3;
    println!(
        "{}: kernel={} threads={threads} synth_seed={:?} iterations={n} \
         loop_ms_p50={p50:.3} loop_ms_p90={p90:.3} loop_cpu_ms={:.3}",
        w.name,
        VerifyOpts::new().kernel.name(),
        w.synth_seed,
        phase.cpu_s * 1e3 / n,
    );
    report.add("setup_s", quantile(&phase.setup_ms, 0.5) / 1e3, "s");
    report.add("latency_p50_ms", p50, "ms");
    report.add("latency_p90_ms", p90, "ms");
    report.add("cpu_ms_per_op", phase.cpu_s * 1e3 / n, "ms");
    report.add("throughput_per_s", n / loop_s, "1/s");
    report.add("peak_rss_mb", measure::peak_rss_mb("self")?, "MiB");
    Ok(report)
}

/// Per-iteration time (ns) and work counts of each layer, keyed by
/// layer name, in the traced replay.
#[derive(Default)]
struct Layers {
    ns: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Layers {
    /// Runs `f` as layer `name`: inside a span (for the written trace)
    /// and timed into this iteration's total for the layer.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = modref_obs::span(name);
        let t = Instant::now();
        let out = f();
        *self.ns.entry(name).or_default() += t.elapsed().as_nanos() as f64;
        out
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn total_ns(&self) -> f64 {
        self.ns.values().sum()
    }
}

/// Ranks points exactly like `Codesign::explore`: cost, peak bus rate,
/// model, algorithm, seed.
fn rank(points: &mut [DesignPoint]) {
    points.sort_by(|a, b| {
        a.cost
            .total
            .total_cmp(&b.cost.total)
            .then_with(|| a.max_bus_rate.total_cmp(&b.max_bus_rate))
            .then_with(|| a.model.number().cmp(&b.model.number()))
            .then_with(|| a.algorithm.cmp(b.algorithm))
            .then_with(|| a.seed.cmp(&b.seed))
    });
}

/// Flags the points no other point dominates on (cost, peak bus rate).
fn mark_pareto(points: &mut [DesignPoint]) {
    let m: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.cost.total, p.max_bus_rate))
        .collect();
    for (i, p) in points.iter_mut().enumerate() {
        let (ci, ri) = m[i];
        p.pareto = !m
            .iter()
            .enumerate()
            .any(|(j, &(cj, rj))| j != i && cj <= ci && rj <= ri && (cj < ci || rj < ri));
    }
}

/// Adds a simulation's exact scheduler work to the iteration counts.
fn count_sim(layers: &mut Layers, r: &SimResult) {
    layers.count("sim.steps", r.steps);
    layers.count("sim.rounds", r.sched.rounds);
    layers.count("sim.cond_evals", r.sched.cond_evals);
    layers.count("sim.wakeups", r.sched.wakeups);
}

/// One single-threaded loop iteration rebuilt from the layers' public
/// entry points, mirroring `Codesign::explore` + `Codesign::verify`.
fn replay(
    w: &LoopWorkload,
    cd: &Codesign,
    layers: &mut Layers,
) -> Result<(Exploration, Option<Verification>), String> {
    let (spec, graph) = (cd.spec(), cd.graph());
    let alloc = Allocation::proc_plus_asic();
    let cost = CostConfig::default();
    let defaults = w.explore_opts(1);
    let expl = ExploreConfig {
        seeds: defaults.seeds,
        anneal_iterations: defaults.anneal_iterations,
        migration_passes: defaults.migration_passes,
        threads: Some(1),
    };
    let cands = layers.time("partition.search", || {
        modref_partition::explore(spec, graph, &alloc, &cost, &expl)
    });
    layers.count("partition.candidates", cands.len() as u64);

    let mut points = Vec::new();
    for cand in &cands {
        for model in ImplModel::ALL {
            let table = layers
                .time("rates.eval", || {
                    figure9_rates(spec, graph, &alloc, &cand.partition, model, &cost.lifetime)
                })
                .map_err(|e| format!("rates: {e}"))?;
            layers.count("rates.evals", 1);
            points.push(DesignPoint {
                algorithm: cand.algorithm,
                seed: cand.seed,
                model,
                cost: cand.cost,
                max_bus_rate: table.max_rate(),
                bus_count: table.bus_count(),
                pareto: false,
                partition: cand.partition.clone(),
            });
        }
    }
    rank(&mut points);
    mark_pareto(&mut points);
    let out = Exploration { points };
    if !w.verify {
        return Ok((out, None));
    }

    let sim_config = SimConfig {
        kernel: w.verify_opts(1).kernel,
        trace: w.check_traces,
        ..SimConfig::default()
    };
    let orig = layers
        .time("sim.original", || {
            Simulator::with_config(spec, sim_config).run()
        })
        .map_err(|e| format!("original simulation: {e}"))?;
    count_sim(layers, &orig);
    let mut records = Vec::new();
    for cand in front(&out) {
        for model in ImplModel::ALL {
            records.push(verify_one(
                cd, &alloc, cand, model, &orig, sim_config, layers,
            ));
        }
    }
    let verdict = Verification {
        records,
        original_time: orig.time,
        original_steps: orig.steps,
    };
    Ok((out, Some(verdict)))
}

/// The distinct Pareto-front candidates in rank order.
fn front(out: &Exploration) -> Vec<(&'static str, u64, &Partition)> {
    let mut cands: Vec<(&'static str, u64, &Partition)> = Vec::new();
    for p in out.pareto_front() {
        if !cands
            .iter()
            .any(|&(a, s, _)| a == p.algorithm && s == p.seed)
        {
            cands.push((p.algorithm, p.seed, &p.partition));
        }
    }
    cands
}

/// Refines one front candidate under one model, gates it with the
/// static lints and simulates it against the original, exactly as
/// `Codesign::verify` does for one job.
#[allow(clippy::too_many_arguments)] // one call site, the replay loop
fn verify_one(
    cd: &Codesign,
    alloc: &Allocation,
    (algorithm, seed, partition): (&'static str, u64, &Partition),
    model: ImplModel,
    orig: &SimResult,
    sim_config: SimConfig,
    layers: &mut Layers,
) -> VerifyRecord {
    let (spec, graph) = (cd.spec(), cd.graph());
    let mut record = VerifyRecord {
        algorithm,
        seed,
        model,
        equivalent: false,
        detail: String::new(),
        refined_time: 0,
        refined_steps: 0,
        bus_traffic: 0,
    };
    let refined = match layers.time("refine", || refine(spec, graph, alloc, partition, model)) {
        Ok(r) => r,
        Err(e) => {
            record.detail = format!("refinement failed: {e}");
            return record;
        }
    };
    let rejected = layers.time("analyze.gate", || static_reject(&cd.lint_refined(&refined)));
    if let Some(codes) = rejected {
        layers.count("analyze.rejects", 1);
        record.detail = format!("static analysis rejected: {codes}");
        return record;
    }
    let result = match layers.time("sim.refined", || {
        Simulator::with_config(&refined.spec, sim_config).run()
    }) {
        Ok(r) => r,
        Err(e) => {
            record.detail = format!("refined simulation failed: {e}");
            return record;
        }
    };
    count_sim(layers, &result);
    record.refined_time = result.time;
    record.refined_steps = result.steps;
    record.bus_traffic = result.signal_writes.saturating_sub(orig.signal_writes);
    let diffs = orig.diff_common_vars(&result);
    if !diffs.is_empty() {
        record.detail = format!("vars diverged: {}", diffs.join(", "));
        return record;
    }
    if let (Some(ot), Some(rt)) = (&orig.trace, &result.trace) {
        layers.count("trace_check.events", (ot.len() + rt.len()) as u64);
        let checked = layers.time("trace_check", || {
            check_stuttering_refinement(spec, ot, &refined.spec, rt, cd.source_map())
        });
        if let Err(m) = checked {
            record.detail = m.to_string();
            return record;
        }
    }
    record.equivalent = true;
    record
}

/// Printed lines of every refined spec one verify iteration produces.
fn refined_lines(cd: &Codesign, out: &Exploration) -> Result<u64, String> {
    let alloc = Allocation::proc_plus_asic();
    let mut lines = 0;
    for (_, _, partition) in front(out) {
        for model in ImplModel::ALL {
            let refined = refine(cd.spec(), cd.graph(), &alloc, partition, model)
                .map_err(|e| format!("refine: {e}"))?;
            lines += modref_spec::printer::line_count(&refined.spec) as u64;
        }
    }
    Ok(lines)
}

/// Upper bound on traced iterations, so the in-memory trace stays small.
const MAX_TRACED_ITERATIONS: usize = 40;

/// The traced run: per-layer set-up times, a single-threaded facade
/// baseline, the facade on up to 2 cores for its parallel efficiency,
/// then the traced single-threaded replay. Writes the replay's trace
/// (bench layer spans plus the program's own spans and counters) as
/// modref-obs JSONL to `trace_out`.
pub fn run_traced(
    w: &LoopWorkload,
    seconds: f64,
    trace_out: &std::path::Path,
) -> Result<Report, String> {
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut report = Report::default();

    // Set-up layers: parse, validate, derive.
    let mut parse = Vec::new();
    let mut validate = Vec::new();
    let mut derive = Vec::new();
    let start = Instant::now();
    while parse.len() < 5 || (parse.len() < 200 && start.elapsed() < SETUP_BUDGET) {
        let t = Instant::now();
        let (spec, _map) = modref_spec::parser::parse_with_spans(&w.spec_text)
            .map_err(|e| format!("parse: {e}"))?;
        parse.push(ms(t.elapsed()));
        let t = Instant::now();
        modref_spec::validate::check(&spec).map_err(|e| format!("validate: {e}"))?;
        validate.push(ms(t.elapsed()));
        let t = Instant::now();
        black_box(AccessGraph::derive(&spec));
        derive.push(ms(t.elapsed()));
    }

    let cd = setup(w)?;
    let expected = expected_digest(w, &cd)?;
    let base = run_phase(w, &cd, 1, budget(0.3), false, &expected, &mut report)?;
    let parallel = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let t = Instant::now();
    let par = run_phase(
        w,
        &cd,
        parallel,
        budget(0.15),
        false,
        &expected,
        &mut report,
    )?;
    let par_wall_s = t.elapsed().as_secs_f64();

    modref_obs::init(modref_obs::ClockMode::Wall);
    let mut iters: Vec<(f64, Layers)> = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while iters.is_empty()
        || (iters.len() < MAX_TRACED_ITERATIONS && start.elapsed() < budget(0.45))
    {
        let mut layers = Layers::default();
        let t = Instant::now();
        let (out, verdict) = {
            let _span = modref_obs::span("bench.loop").attr("workload", w.name);
            replay(w, &cd, &mut layers)?
        };
        iters.push((t.elapsed().as_nanos() as f64, layers));
        check(&expected, &out, verdict.as_ref(), &mut report)?;
        last = Some(out);
    }
    let trace = modref_obs::shutdown();
    std::fs::write(trace_out, modref_obs::jsonl::write(&trace))
        .map_err(|e| format!("writing {}: {e}", trace_out.display()))?;
    report.correct = true;

    let n = iters.len() as f64;
    let layer_ms = |name: &str| {
        let v: Vec<f64> = iters
            .iter()
            .map(|(_, l)| l.ns.get(name).copied().unwrap_or(0.0) / 1e6)
            .collect();
        quantile(&v, 0.5)
    };
    let count = |name: &str| iters[0].1.counts.get(name).copied().unwrap_or(0) as f64;
    let per_iter = |name: &str| trace.counter(name).unwrap_or(0) as f64 / n;

    report.add("spec.parse_ms", quantile(&parse, 0.5), "ms");
    report.add("spec.validate_ms", quantile(&validate, 0.5), "ms");
    report.add("graph.derive_ms", quantile(&derive, 0.5), "ms");
    report.add("partition.search_ms", layer_ms("partition.search"), "ms");
    report.add(
        "partition.candidates",
        count("partition.candidates"),
        "count",
    );
    report.add(
        "partition.move_evals",
        per_iter("cache.move_evals"),
        "count",
    );
    let (hit, miss) = (per_iter("lifetime.hit"), per_iter("lifetime.miss"));
    report.add("partition.lifetime_hit_ratio", hit / (hit + miss), "ratio");
    report.add("rates.eval_ms", layer_ms("rates.eval"), "ms");
    report.add("rates.evals", count("rates.evals"), "count");
    report.add("refine.ms", layer_ms("refine"), "ms");
    let lines = match (&last, w.verify) {
        (Some(out), true) => refined_lines(&cd, out)? as f64,
        _ => 0.0,
    };
    report.add("refine.lines_out", lines, "count");
    report.add("analyze.gate_ms", layer_ms("analyze.gate"), "ms");
    report.add("analyze.rejects", count("analyze.rejects"), "count");
    let (orig_ms, refined_ms) = (layer_ms("sim.original"), layer_ms("sim.refined"));
    report.add("sim.original_ms", orig_ms, "ms");
    report.add("sim.refined_ms", refined_ms, "ms");
    let steps = count("sim.steps");
    let ns_per_step = if steps > 0.0 {
        (orig_ms + refined_ms) * 1e6 / steps
    } else {
        0.0
    };
    report.add("sim.ns_per_step", ns_per_step, "ns");
    for c in ["sim.steps", "sim.rounds", "sim.cond_evals", "sim.wakeups"] {
        report.add(c, count(c), "count");
    }
    report.add("trace_check.ms", layer_ms("trace_check"), "ms");
    report.add("trace_check.events", count("trace_check.events"), "count");
    let unattributed: Vec<f64> = iters
        .iter()
        .map(|(wall, l)| (wall - l.total_ns()) / wall)
        .collect();
    report.add(
        "loop.unattributed_ratio",
        quantile(&unattributed, 0.5),
        "ratio",
    );
    report.add("loop.cpu_per_wall", par.cpu_s / par_wall_s, "ratio");
    let traced: Vec<f64> = iters.iter().map(|(wall, _)| wall / 1e6).collect();
    report.add(
        "trace.overhead_ratio",
        quantile(&traced, 0.5) / quantile(&base.wall_ms, 0.5) - 1.0,
        "ratio",
    );
    Ok(report)
}
