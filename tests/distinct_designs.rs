//! Sharing is invisible: `Codesign::explore` rates, and
//! `Codesign::verify` refines, gates and simulates, each distinct
//! partition once per model and copy the result to every candidate that
//! reached it. These tests compare the facade with an unshared
//! reference assembled from the layers' public entry points — every
//! candidate × model rated on its own, every front candidate × model
//! refined, lint-gated, simulated and trace-checked on its own — and
//! require identical results, labels included.

use std::sync::{Arc, Mutex};

use modref::core::api::{Codesign, ExploreOpts, Progress, ProgressFn, VerifyOpts};
use modref::core::{
    check_stuttering_refinement, figure9_rates, refine, static_reject, DesignPoint, Exploration,
    ImplModel, Verification, VerifyRecord,
};
use modref::partition::{explore, Allocation, CostConfig, CostReport, ExploreConfig, Partition};
use modref::sim::{SimConfig, Simulator};
use modref::workloads::{named_spec, SynthConfig, SynthSpec};
use modref_rng::Rng;

/// Ranks like the facade: cost, peak bus rate, model, algorithm, seed.
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

/// The unshared exploration: partition search, then Figure 9 rates for
/// every candidate × model, ranked and Pareto-flagged.
fn reference_explore(cd: &Codesign, opts: &ExploreOpts) -> Exploration {
    let (spec, graph) = (cd.spec(), cd.graph());
    let alloc = Allocation::proc_plus_asic();
    let cost = CostConfig::default();
    let expl = ExploreConfig {
        seeds: opts.seeds,
        anneal_iterations: opts.anneal_iterations,
        migration_passes: opts.migration_passes,
        threads: Some(1),
    };
    let mut points = Vec::new();
    for cand in explore(spec, graph, &alloc, &cost, &expl) {
        for model in ImplModel::ALL {
            let table = figure9_rates(spec, graph, &alloc, &cand.partition, model, &cost.lifetime)
                .expect("rates evaluate");
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
    Exploration { points }
}

/// The unshared verification: refine, lint gate, simulation and trace
/// check for every front `(algorithm, seed)` × model.
fn reference_verify(cd: &Codesign, out: &Exploration, check_traces: bool) -> Verification {
    let (spec, graph) = (cd.spec(), cd.graph());
    let alloc = Allocation::proc_plus_asic();
    let sim_config = SimConfig {
        kernel: VerifyOpts::new().kernel,
        trace: check_traces,
        ..SimConfig::default()
    };
    let original = Simulator::with_config(spec, sim_config).run();
    let mut front: Vec<(&'static str, u64, &Partition)> = Vec::new();
    for p in out.pareto_front() {
        if !front
            .iter()
            .any(|&(a, s, _)| a == p.algorithm && s == p.seed)
        {
            front.push((p.algorithm, p.seed, &p.partition));
        }
    }
    let mut records = Vec::new();
    for (algorithm, seed, partition) in front {
        for model in ImplModel::ALL {
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
            let verdict = (|| {
                let refined = refine(spec, graph, &alloc, partition, model)
                    .map_err(|e| format!("refinement failed: {e}"))?;
                if let Some(codes) = static_reject(&cd.lint_refined(&refined)) {
                    return Err(format!("static analysis rejected: {codes}"));
                }
                let orig = original
                    .as_ref()
                    .map_err(|e| format!("original simulation failed: {e}"))?;
                let result = Simulator::with_config(&refined.spec, sim_config)
                    .run()
                    .map_err(|e| format!("refined simulation failed: {e}"))?;
                record.refined_time = result.time;
                record.refined_steps = result.steps;
                record.bus_traffic = result.signal_writes.saturating_sub(orig.signal_writes);
                let diffs = orig.diff_common_vars(&result);
                if !diffs.is_empty() {
                    return Err(format!("vars diverged: {}", diffs.join(", ")));
                }
                if let (true, Some(ot), Some(rt)) = (check_traces, &orig.trace, &result.trace) {
                    check_stuttering_refinement(spec, ot, &refined.spec, rt, cd.source_map())
                        .map_err(|m| m.to_string())?;
                }
                Ok(())
            })();
            match verdict {
                Ok(()) => record.equivalent = true,
                Err(detail) => record.detail = detail,
            }
            records.push(record);
        }
    }
    let (original_time, original_steps) = original.as_ref().map_or((0, 0), |r| (r.time, r.steps));
    Verification {
        records,
        original_time,
        original_steps,
    }
}

/// Facade explore + verify at two thread counts against the reference.
fn assert_matches_reference(name: &str, cd: &Codesign, seeds: u64, check_traces: bool) {
    let reference = reference_explore(cd, &ExploreOpts::new().with_seeds(seeds));
    let expected = reference_verify(cd, &reference, check_traces);
    for threads in [1, 2] {
        let out = cd
            .explore(&ExploreOpts::new().with_seeds(seeds).with_threads(threads))
            .expect("facade explore");
        assert_eq!(out, reference, "{name}: exploration at {threads} thread(s)");
        let verdict = cd
            .verify(
                &out,
                &VerifyOpts::new()
                    .with_threads(threads)
                    .with_check_traces(check_traces),
            )
            .expect("facade verify");
        assert_eq!(
            verdict, expected,
            "{name}: verification at {threads} thread(s)"
        );
    }
}

#[test]
fn medical_matches_the_unshared_reference() {
    let cd = Codesign::from_spec(named_spec("medical").expect("shipped workload"));
    assert_matches_reference("medical", &cd, 8, false);
}

#[test]
fn fig2_matches_the_unshared_reference() {
    let cd = Codesign::from_spec(named_spec("fig2").expect("shipped workload"));
    assert_matches_reference("fig2", &cd, 2, false);
}

#[test]
fn random_specs_match_the_unshared_reference() {
    let mut rng = Rng::seed_from_u64(0x5EED_D15C);
    for case in 0..4 {
        let config = SynthConfig {
            leaves: rng.gen_range(3..8usize),
            vars: rng.gen_range(2..7usize),
            stmts_per_leaf: rng.gen_range(1..5usize),
            fanout: rng.gen_range(2..4usize),
            loop_percent: rng.gen_range(0..60u32),
        };
        let seed = rng.gen_range(0..1000u64);
        let cd = Codesign::from_spec(SynthSpec::generate(seed, &config).spec);
        let check_traces = case % 2 == 0;
        assert_matches_reference(&format!("synth seed {seed}"), &cd, 2, check_traces);
    }
}

/// A front holding two `(algorithm, seed)` pairs with one partition and
/// a third with another: the shared pair's records must carry their own
/// labels and otherwise agree.
#[test]
fn shared_records_keep_their_own_labels() {
    let cd = Codesign::from_spec(named_spec("medical").expect("shipped workload"));
    let explored = cd
        .explore(&ExploreOpts::new().with_seeds(2))
        .expect("explore");
    let first = explored.points[0].partition.clone();
    let other = explored
        .points
        .iter()
        .map(|p| &p.partition)
        .find(|p| **p != first)
        .expect("a second distinct partition")
        .clone();
    let point = |algorithm: &'static str, seed: u64, partition: &Partition| DesignPoint {
        algorithm,
        seed,
        model: ImplModel::Model1,
        cost: CostReport {
            cut_bits: 0.0,
            imbalance_ns: 0.0,
            violation: 0.0,
            total: seed as f64,
        },
        max_bus_rate: 0.0,
        bus_count: 1,
        pareto: true,
        partition: partition.clone(),
    };
    let hand = Exploration {
        points: vec![
            point("alpha", 1, &first),
            point("beta", 2, &first),
            point("gamma", 3, &other),
        ],
    };
    let expected = reference_verify(&cd, &hand, false);
    for threads in [1, 2] {
        let verdict = cd
            .verify(&hand, &VerifyOpts::new().with_threads(threads))
            .expect("verify");
        assert_eq!(verdict, expected, "at {threads} thread(s)");
    }
    let models = ImplModel::ALL.len();
    let labels: Vec<(&str, u64)> = expected
        .records
        .iter()
        .map(|r| (r.algorithm, r.seed))
        .collect();
    assert_eq!(labels[..models], [("alpha", 1); 4]);
    assert_eq!(labels[models..2 * models], [("beta", 2); 4]);
    assert_eq!(labels[2 * models..], [("gamma", 3); 4]);
    for (a, b) in expected.records[..models]
        .iter()
        .zip(&expected.records[models..2 * models])
    {
        let relabelled = VerifyRecord {
            algorithm: a.algorithm,
            seed: a.seed,
            ..b.clone()
        };
        assert_eq!(*a, relabelled);
    }
}

/// Progress still counts pairs: one `explore.rate` frame per design point
/// and one `verify.job` frame per record, ending at `done == total`.
#[test]
fn streamed_frames_count_every_pair() {
    let cd = Codesign::from_spec(named_spec("medical").expect("shipped workload"));
    for threads in [1, 2] {
        let frames: Arc<Mutex<Vec<Progress>>> = Arc::default();
        let sink = Arc::clone(&frames);
        let progress = ProgressFn::new(move |p: &Progress| sink.lock().unwrap().push(p.clone()));
        let out = cd
            .explore(
                &ExploreOpts::new()
                    .with_seeds(8)
                    .with_threads(threads)
                    .with_progress(progress.clone()),
            )
            .expect("explore");
        let verdict = cd
            .verify(
                &out,
                &VerifyOpts::new()
                    .with_threads(threads)
                    .with_progress(progress),
            )
            .expect("verify");
        let frames = frames.lock().unwrap();
        for (phase, pairs) in [
            ("explore.rate", out.points.len()),
            ("verify.job", verdict.records.len()),
        ] {
            let mut done: Vec<u64> = frames
                .iter()
                .filter(|f| f.phase == phase)
                .map(|f| {
                    assert_eq!(f.total, pairs as u64, "{phase} total");
                    f.done
                })
                .collect();
            if threads == 1 {
                assert_eq!(done.last(), Some(&(pairs as u64)), "{phase} ends at total");
            }
            done.sort_unstable();
            let want: Vec<u64> = (1..=pairs as u64).collect();
            assert_eq!(done, want, "{phase} at {threads} thread(s)");
        }
    }
}
