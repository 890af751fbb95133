//! Design-space exploration across partitions *and* implementation
//! models.
//!
//! The partition layer's multi-start explorer
//! ([`mod@modref_partition::explore`]) produces ranked candidate partitions;
//! this module crosses each candidate with the four implementation
//! models, evaluates the Figure 9 bus-rate tables for every pair, and
//! ranks the resulting design points. A point's quality is the pair
//! `(partition cost, max bus transfer rate)` — both minimized — and the
//! Pareto-optimal points are flagged so a designer reads the frontier
//! directly off the table.
//!
//! Rate evaluation fans out over the same deterministic
//! [`par_map`] used for partitioning, so the
//! full exploration is parallel end to end yet reproducible for a fixed
//! seed count regardless of thread count.
//!
//! Multi-start search often reaches one partition from several
//! `(algorithm, seed)` starts. Both fan-outs therefore run one job per
//! *distinct* partition × model and copy its result to every candidate
//! holding that partition: each candidate still gets its own design
//! point and verify record, and only the repeated work goes.
//!
//! [`Codesign::verify`](crate::api::Codesign::verify) closes the loop
//! from estimation to *verification*: every distinct Pareto-front
//! candidate is refined under all four implementation models and the
//! refined specification is simulated against the original (the paper's
//! functional-equivalence check), again fanned out over `par_map` — so
//! the explorer reports not just estimated cost/rate rankings but
//! simulation-backed pass/fail verdicts and observed bus traffic for the
//! frontier.

use std::sync::atomic::{AtomicU64, Ordering};

use modref_graph::AccessGraph;
use modref_partition::explore::{explore_with_observer, ExploreConfig};
use modref_partition::{par_map, thread_count, Allocation, CostConfig, CostReport, Partition};
use modref_sim::{SimConfig, SimKernel, Simulator};
use modref_spec::span::SourceMap;
use modref_spec::Spec;

use crate::api::{CancelToken, Progress, ProgressFn};
use crate::error::RefineError;
use crate::model::ImplModel;
use crate::rates::figure9_rates;
use crate::refine::refine;

/// One fully evaluated design point: a candidate partition under one
/// implementation model.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The partitioning algorithm that produced the candidate.
    pub algorithm: &'static str,
    /// The seed that drove it (0 for deterministic algorithms).
    pub seed: u64,
    /// The implementation model evaluated.
    pub model: ImplModel,
    /// Partition cost breakdown (model-independent).
    pub cost: CostReport,
    /// Peak bus transfer rate in Mbit/s (the Figure 9 hot spot).
    pub max_bus_rate: f64,
    /// Number of buses the refinement plan allocates.
    pub bus_count: usize,
    /// Whether the point is Pareto-optimal over
    /// `(cost.total, max_bus_rate)`, both minimized.
    pub pareto: bool,
    /// The candidate partition.
    pub partition: Partition,
}

/// The outcome of a full exploration: design points ranked best-first.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// All evaluated points, sorted by `(cost, max bus rate, model,
    /// algorithm, seed)`.
    pub points: Vec<DesignPoint>,
}

impl Exploration {
    /// The Pareto-optimal points, in ranked order.
    pub fn pareto_front(&self) -> Vec<&DesignPoint> {
        self.points.iter().filter(|p| p.pareto).collect()
    }
}

/// The implementation behind
/// [`Codesign::explore`](crate::api::Codesign::explore). The token is
/// checked before each partition job and each rate evaluation; on stop
/// the partial result ranks whatever finished — the facade then checks
/// its token, discards the partial result and reports the stop reason.
///
/// Each distinct partition is rated once per model; candidates that
/// share it share the result (counted by `explore.rate_shared`).
///
/// `progress` receives `explore.job` per finished partition job,
/// `explore.candidates` once the candidate set is fixed, and
/// `explore.rate` per candidate × model pair a finished rate
/// evaluation answered.
pub(crate) fn explore_designs_impl(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    cost_config: &CostConfig,
    expl: &ExploreConfig,
    cancel: Option<&CancelToken>,
    progress: Option<&ProgressFn>,
) -> Result<Exploration, RefineError> {
    let span = modref_obs::span("explore_designs");
    let span_id = span.id();
    let stop_fn: Option<Box<dyn Fn() -> bool + Sync>> = cancel.map(|token| {
        let token = token.clone();
        Box::new(move || token.stopped().is_some()) as Box<dyn Fn() -> bool + Sync>
    });
    let on_job: Option<Box<dyn Fn(u64, u64) + Sync>> = progress.map(|p| {
        let p = p.clone();
        Box::new(move |done: u64, total: u64| {
            p.emit(&Progress {
                phase: "explore.job",
                done,
                total,
            });
        }) as Box<dyn Fn(u64, u64) + Sync>
    });
    let candidates = explore_with_observer(
        spec,
        graph,
        allocation,
        cost_config,
        expl,
        stop_fn.as_deref(),
        on_job.as_deref(),
    );
    let lifetime = cost_config.lifetime;

    // Cross distinct partitions with models: rate evaluation is
    // independent per pair, so fan it out, and rate a partition that
    // several candidates reached only once.
    let parts: Vec<&Partition> = candidates.iter().map(|c| &c.partition).collect();
    let distinct = Distinct::of(&parts);
    if let Some(p) = progress {
        let n = candidates.len() as u64;
        p.emit(&Progress {
            phase: "explore.candidates",
            done: n,
            total: n,
        });
    }
    let rate_total = (candidates.len() * ImplModel::ALL.len()) as u64;
    let rate_done = AtomicU64::new(0);
    let shared_counter = modref_obs::counter("explore.rate_shared");
    let threads = thread_count(expl.threads);
    let rated = par_map(distinct.jobs(), threads, |_, (d, model)| {
        if cancel.is_some_and(|t| t.stopped().is_some()) {
            return Ok(None);
        }
        let _job = modref_obs::span_under(span_id, "rate_eval").attr("model", model.name());
        let partition = parts[distinct.firsts[d]];
        let out = figure9_rates(spec, graph, allocation, partition, model, &lifetime)
            .map(|table| Some((table.max_rate(), table.bus_count())));
        let pairs = distinct.sharers(d);
        shared_counter.add(pairs - 1);
        emit_pairs(progress, "explore.rate", &rate_done, rate_total, pairs);
        out
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    let mut points = Vec::with_capacity(rate_total as usize);
    for (ci, cand) in candidates.iter().enumerate() {
        for (mi, &model) in ImplModel::ALL.iter().enumerate() {
            let Some((max_bus_rate, bus_count)) = rated[distinct.job(ci, mi)] else {
                continue;
            };
            points.push(DesignPoint {
                algorithm: cand.algorithm,
                seed: cand.seed,
                model,
                cost: cand.cost,
                max_bus_rate,
                bus_count,
                pareto: false,
                partition: cand.partition.clone(),
            });
        }
    }

    rank(&mut points);
    mark_pareto(&mut points);
    Ok(Exploration { points })
}

/// The simulation-equivalence verdict for one Pareto-front candidate
/// under one implementation model.
///
/// All fields are exact (no floats), so verification outcomes compare
/// byte-identical across runs and thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyRecord {
    /// The partitioning algorithm that produced the candidate.
    pub algorithm: &'static str,
    /// The seed that drove it (0 for deterministic algorithms).
    pub seed: u64,
    /// The implementation model the candidate was refined under.
    pub model: ImplModel,
    /// Whether the refined specification simulated to the same observable
    /// variable state as the original.
    pub equivalent: bool,
    /// Empty when equivalent; otherwise a description of the divergence
    /// (differing variables, or the refine/simulation error).
    pub detail: String,
    /// Final simulated time of the refined specification.
    pub refined_time: u64,
    /// Micro-steps the refined simulation executed.
    pub refined_steps: u64,
    /// Signal writes the refined simulation performed beyond the
    /// original's — the bus-protocol traffic the refinement introduced
    /// (handshakes, address/data transfers, arbitration).
    pub bus_traffic: u64,
}

/// The outcome of verifying an exploration's Pareto front by simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verification {
    /// One record per distinct front candidate × implementation model,
    /// in front rank order then model order.
    pub records: Vec<VerifyRecord>,
    /// Final simulated time of the original (unrefined) specification.
    pub original_time: u64,
    /// Micro-steps the original simulation executed.
    pub original_steps: u64,
}

impl Verification {
    /// Whether every candidate×model pair verified equivalent.
    pub fn all_equivalent(&self) -> bool {
        self.records.iter().all(|r| r.equivalent)
    }

    /// Count of failing records.
    pub fn failures(&self) -> usize {
        self.records.iter().filter(|r| !r.equivalent).count()
    }
}

/// The implementation behind
/// [`Codesign::verify`](crate::api::Codesign::verify): simulates
/// original vs. refined specifications for every distinct Pareto-front
/// candidate × Model1–4, in parallel over the deterministic [`par_map`].
///
/// One job refines, gates and simulates each distinct *partition* ×
/// model; front candidates with the same partition get copies of its
/// verdict under their own `algorithm`/`seed` (counted by
/// `verify.shared`). The `verify.pass`, `verify.fail`,
/// `verify.static_reject` and `verify.static_deadlock` counters still
/// count records, not jobs.
///
/// Refinement or simulation failures are *reported* (as non-equivalent
/// records with the error in `detail`), not propagated — a design-space
/// sweep should show which corners break, not abort on the first one.
/// Output is identical regardless of thread count. The token is checked
/// before each job; a job that starts after a stop marks all of its
/// records non-equivalent and `"stopped before simulation"` (the facade
/// then checks its token and reports the stop reason instead).
/// `progress` receives one `verify.job` frame per record, as the job
/// answering it finishes.
///
/// With `check_traces` set, both simulations record full event traces
/// and each refined run must additionally pass the
/// [stuttering-refinement check](crate::trace_check) against the
/// original's trace; `map` supplies declaration spans for the mismatch
/// report.
#[allow(clippy::too_many_arguments)] // one call site per option surface
pub(crate) fn verify_pareto_impl(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    exploration: &Exploration,
    threads: Option<usize>,
    cancel: Option<&CancelToken>,
    kernel: SimKernel,
    check_traces: bool,
    map: &SourceMap,
    progress: Option<&ProgressFn>,
) -> Verification {
    let span = modref_obs::span("verify_pareto");
    let span_id = span.id();
    let pass_counter = modref_obs::counter("verify.pass");
    let fail_counter = modref_obs::counter("verify.fail");
    let reject_counter = modref_obs::counter("verify.static_reject");
    let deadlock_counter = modref_obs::counter("verify.static_deadlock");
    let shared_counter = modref_obs::counter("verify.shared");
    let sim_config = SimConfig {
        kernel,
        trace: check_traces,
        ..SimConfig::default()
    };
    let original = Simulator::with_config(spec, sim_config).run();
    let (original_time, original_steps) = match &original {
        Ok(r) => (r.time, r.steps),
        Err(_) => (0, 0),
    };

    // Distinct front candidates, in rank order. A candidate can appear on
    // the front under several models; verification refines it under all
    // four regardless, so deduplicate by identity.
    let mut cands: Vec<(&'static str, u64, &Partition)> = Vec::new();
    for p in exploration.pareto_front() {
        if !cands
            .iter()
            .any(|&(a, s, _)| a == p.algorithm && s == p.seed)
        {
            cands.push((p.algorithm, p.seed, &p.partition));
        }
    }

    let parts: Vec<&Partition> = cands.iter().map(|&(_, _, p)| p).collect();
    let distinct = Distinct::of(&parts);
    let record_total = (cands.len() * ImplModel::ALL.len()) as u64;
    let job_done = AtomicU64::new(0);
    let workers = thread_count(threads);
    let verdicts = par_map(distinct.jobs(), workers, |_, (d, model)| {
        let (algorithm, seed, partition) = cands[distinct.firsts[d]];
        // Every count below is per record, so a shared job counts once
        // for each front candidate it answers.
        let pairs = distinct.sharers(d);
        if cancel.is_some_and(|t| t.stopped().is_some()) {
            emit_pairs(progress, "verify.job", &job_done, record_total, pairs);
            return VerifyRecord {
                algorithm,
                seed,
                model,
                equivalent: false,
                detail: "stopped before simulation".into(),
                refined_time: 0,
                refined_steps: 0,
                bus_traffic: 0,
            };
        }
        let _job = modref_obs::span_under(span_id, "verify.job")
            .attr("algorithm", algorithm)
            .attr("seed", seed)
            .attr("model", model.name());
        let record = (|| {
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
            let refined = match refine(spec, graph, allocation, partition, model) {
                Ok(r) => r,
                Err(e) => {
                    record.detail = format!("refinement failed: {e}");
                    return record;
                }
            };
            // Static gate: a candidate whose architecture trips
            // RC01-RC04 would deadlock or misdecode in simulation, and
            // one whose refined behaviors trip DL01-DL05 provably
            // deadlocks; reject either without spending the simulation
            // time (a statically-dead candidate would otherwise burn
            // the whole step limit before failing).
            let diags = crate::lint::lint_refined_impl(spec, graph, &refined);
            if let Some(codes) = crate::lint::static_reject(&diags) {
                reject_counter.add(pairs);
                if codes.split(", ").any(|c| c.starts_with("DL")) {
                    deadlock_counter.add(pairs);
                }
                record.detail = format!("static analysis rejected: {codes}");
                return record;
            }
            // The original-run outcome gates only the dynamic comparison:
            // checking it *after* the static gate lets a DL-flagged
            // candidate report the lint codes rather than the far less
            // actionable "original simulation failed: deadlock".
            let orig = match &original {
                Ok(r) => r,
                Err(e) => {
                    record.detail = format!("original simulation failed: {e}");
                    return record;
                }
            };
            let result = match Simulator::with_config(&refined.spec, sim_config).run() {
                Ok(r) => r,
                Err(e) => {
                    record.detail = format!("refined simulation failed: {e}");
                    return record;
                }
            };
            record.refined_time = result.time;
            record.refined_steps = result.steps;
            record.bus_traffic = result.signal_writes.saturating_sub(orig.signal_writes);
            let diffs = orig.diff_common_vars(&result);
            if !diffs.is_empty() {
                record.detail = format!("vars diverged: {}", diffs.join(", "));
                return record;
            }
            if check_traces {
                if let (Some(ot), Some(rt)) = (&orig.trace, &result.trace) {
                    if let Err(m) = crate::trace_check::check_stuttering_refinement(
                        spec,
                        ot,
                        &refined.spec,
                        rt,
                        map,
                    ) {
                        record.detail = m.to_string();
                        return record;
                    }
                }
            }
            record.equivalent = true;
            record
        })();
        if record.equivalent {
            pass_counter.add(pairs);
        } else {
            fail_counter.add(pairs);
        }
        shared_counter.add(pairs - 1);
        emit_pairs(progress, "verify.job", &job_done, record_total, pairs);
        record
    });

    // One record per front candidate × model, in front rank order, each
    // carrying its own candidate's labels.
    let mut records = Vec::with_capacity(record_total as usize);
    for (ci, &(algorithm, seed, _)) in cands.iter().enumerate() {
        for mi in 0..ImplModel::ALL.len() {
            records.push(VerifyRecord {
                algorithm,
                seed,
                ..verdicts[distinct.job(ci, mi)].clone()
            });
        }
    }

    Verification {
        records,
        original_time,
        original_steps,
    }
}

/// Candidates grouped by partition identity ([`Partition`]'s
/// `PartialEq`: the assignments plus the default component), so each
/// distinct partition is evaluated once per model and the result is
/// copied to every candidate that reached it.
struct Distinct {
    /// Index of the first candidate holding each distinct partition, in
    /// first-seen order.
    firsts: Vec<usize>,
    /// Each candidate's index into `firsts`.
    slots: Vec<usize>,
}

impl Distinct {
    /// A linear scan: explorations hold tens to hundreds of candidates.
    fn of(parts: &[&Partition]) -> Self {
        let mut firsts: Vec<usize> = Vec::new();
        let mut slots = Vec::with_capacity(parts.len());
        for (i, part) in parts.iter().enumerate() {
            match firsts.iter().position(|&f| parts[f] == *part) {
                Some(d) => slots.push(d),
                None => {
                    slots.push(firsts.len());
                    firsts.push(i);
                }
            }
        }
        Self { firsts, slots }
    }

    /// One job per distinct partition × model, partition-major.
    fn jobs(&self) -> Vec<(usize, ImplModel)> {
        (0..self.firsts.len())
            .flat_map(|d| ImplModel::ALL.iter().map(move |&m| (d, m)))
            .collect()
    }

    /// The index of the job answering candidate `ci` under the `mi`-th
    /// model of [`ImplModel::ALL`].
    fn job(&self, ci: usize, mi: usize) -> usize {
        self.slots[ci] * ImplModel::ALL.len() + mi
    }

    /// How many candidates hold distinct partition `d`.
    fn sharers(&self, d: usize) -> u64 {
        self.slots.iter().filter(|&&s| s == d).count() as u64
    }
}

/// Emits one `phase` frame for each of the `pairs` candidate × model
/// pairs a finished job answered.
fn emit_pairs(
    progress: Option<&ProgressFn>,
    phase: &'static str,
    done: &AtomicU64,
    total: u64,
    pairs: u64,
) {
    if let Some(p) = progress {
        for _ in 0..pairs {
            let done = done.fetch_add(1, Ordering::Relaxed) + 1;
            p.emit(&Progress { phase, done, total });
        }
    }
}

/// Total order: partition cost, then peak bus rate, then model number,
/// then algorithm name, then seed. `total_cmp` keeps the order total
/// even for NaN costs/rates, so ranking can never panic mid-request.
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

/// Flags points not dominated by any other over
/// `(cost.total, max_bus_rate)`, both minimized. `a` dominates `b` when
/// it is no worse on both axes and strictly better on at least one.
fn mark_pareto(points: &mut [DesignPoint]) {
    let metrics: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.cost.total, p.max_bus_rate))
        .collect();
    for i in 0..points.len() {
        let (ci, ri) = metrics[i];
        let dominated = metrics
            .iter()
            .enumerate()
            .any(|(j, &(cj, rj))| j != i && cj <= ci && rj <= ri && (cj < ci || rj < ri));
        points[i].pareto = !dominated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_workloads::{medical_allocation, medical_spec};

    fn small_expl() -> ExploreConfig {
        ExploreConfig {
            seeds: 1,
            anneal_iterations: 40,
            migration_passes: 2,
            threads: Some(2),
        }
    }

    fn explore(spec: &Spec, graph: &AccessGraph, expl: &ExploreConfig) -> Exploration {
        explore_designs_impl(
            spec,
            graph,
            &medical_allocation(),
            &CostConfig::default(),
            expl,
            None,
            None,
        )
        .expect("exploration succeeds")
    }

    #[test]
    fn explores_medical_design_space() {
        let spec = medical_spec();
        let graph = AccessGraph::derive(&spec);
        let out = explore(&spec, &graph, &small_expl());
        // (2 seeded jobs × 1 seed + 3 singleton jobs) × 4 models.
        assert_eq!(out.points.len(), 5 * 4);
        // Ranked by cost then rate.
        for w in out.points.windows(2) {
            assert!((w[0].cost.total, w[0].max_bus_rate) <= (w[1].cost.total, w[1].max_bus_rate));
        }
        // The frontier is non-empty and its members are flagged.
        let front = out.pareto_front();
        assert!(!front.is_empty());
        // The overall best-cost point is always on the frontier... unless
        // an equal-cost point with a lower rate exists; either way the
        // first-ranked point's cost is not beaten by any frontier member.
        assert!(front
            .iter()
            .all(|p| p.cost.total >= out.points[0].cost.total));
    }

    #[test]
    fn exploration_is_deterministic_across_thread_counts() {
        let spec = medical_spec();
        let graph = AccessGraph::derive(&spec);
        let a = explore(
            &spec,
            &graph,
            &ExploreConfig {
                threads: Some(1),
                ..small_expl()
            },
        );
        let b = explore(
            &spec,
            &graph,
            &ExploreConfig {
                threads: Some(8),
                ..small_expl()
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn verify_pareto_confirms_front_equivalence() {
        let spec = medical_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = medical_allocation();
        let out = explore(&spec, &graph, &small_expl());
        let v = verify_pareto_impl(
            &spec,
            &graph,
            &alloc,
            &out,
            Some(2),
            None,
            SimKernel::default(),
            false,
            &SourceMap::default(),
            None,
        );
        // One record per distinct front candidate × 4 models.
        let distinct: std::collections::BTreeSet<(&str, u64)> = out
            .pareto_front()
            .iter()
            .map(|p| (p.algorithm, p.seed))
            .collect();
        assert_eq!(v.records.len(), distinct.len() * 4);
        assert!(
            v.all_equivalent(),
            "front refinements must simulate equivalent: {:?}",
            v.records
                .iter()
                .filter(|r| !r.equivalent)
                .collect::<Vec<_>>()
        );
        assert_eq!(v.failures(), 0);
        // Refinement introduces bus-protocol signal traffic.
        assert!(v.records.iter().all(|r| r.bus_traffic > 0));
        assert!(v.original_steps > 0);
    }

    #[test]
    fn distinct_groups_equal_partitions_in_first_seen_order() {
        use modref_partition::ComponentId;
        let a = Partition::with_default(ComponentId::from_raw(0));
        let b = Partition::with_default(ComponentId::from_raw(1));
        let c = Partition::new();
        let d = Distinct::of(&[&a, &b, &a.clone(), &c, &b]);
        assert_eq!(d.firsts, [0, 1, 3]);
        assert_eq!(d.slots, [0, 1, 0, 2, 1]);
        assert_eq!((d.sharers(0), d.sharers(1), d.sharers(2)), (2, 2, 1));
        // Candidate 2 under the second model is answered by job 0 × model 1.
        assert_eq!(d.job(2, 1), 1);
        assert_eq!(d.jobs().len(), 3 * ImplModel::ALL.len());
    }

    #[test]
    fn pareto_dominance_is_strict() {
        // Hand-built points: (cost, rate) = (1, 5), (2, 3), (3, 4).
        // (3, 4) is dominated by (2, 3); the others are optimal.
        let mk = |cost: f64, rate: f64| DesignPoint {
            algorithm: "x",
            seed: 0,
            model: ImplModel::Model1,
            cost: CostReport {
                cut_bits: 0.0,
                imbalance_ns: 0.0,
                violation: 0.0,
                total: cost,
            },
            max_bus_rate: rate,
            bus_count: 1,
            pareto: false,
            partition: Partition::new(),
        };
        let mut pts = vec![mk(1.0, 5.0), mk(2.0, 3.0), mk(3.0, 4.0)];
        mark_pareto(&mut pts);
        assert!(pts[0].pareto);
        assert!(pts[1].pareto);
        assert!(!pts[2].pareto);
    }
}
