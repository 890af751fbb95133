//! Facade equivalence: the [`Codesign`] facade produces byte-identical
//! results to the open-coded library call chains it supersedes
//! (refine/lint/estimate/simulate assembled by hand from the per-crate
//! functions), on every shipped workload, and its explore/verify
//! pipeline is deterministic across thread counts. This is the
//! migration-safety net for the `api` redesign — callers moving from
//! hand-assembled pipelines to the facade must observe no behavioral
//! change whatsoever.

use modref::analyze::{analyze_spec, render_json_lines, sort_canonical, LintConfig};
use modref::core::api::{Codesign, ExploreOpts, LintOpts, SimOpts, VerifyOpts};
use modref::core::{refine, ImplModel};
use modref::graph::AccessGraph;
use modref::partition::parse_partition;
use modref::sim::{SimConfig, SimKernel};
use modref::spec::{printer, SourceMap};
use modref::workloads::{named_partition, named_spec};

/// Workloads that ship a published partition — the full pipeline runs.
const PARTITIONED: &[&str] = &["medical", "fig2", "dsp"];

fn session(workload: &str) -> (Codesign, String) {
    let cd = Codesign::from_spec(named_spec(workload).expect("shipped workload"));
    let part = named_partition(workload).expect("published partition");
    (cd, part)
}

#[test]
fn explore_and_verify_are_deterministic_across_thread_counts() {
    for workload in PARTITIONED {
        let (cd, part) = session(workload);
        let opts = |threads: usize| {
            ExploreOpts::new()
                .with_part(part.clone())
                .with_seeds(2)
                .with_anneal_iterations(120)
                .with_migration_passes(3)
                .with_threads(threads)
        };

        let single = cd.explore(&opts(1)).expect("single-thread explore");
        let multi = cd.explore(&opts(4)).expect("multi-thread explore");
        assert_eq!(single, multi, "{workload}: exploration results differ");

        let verify = |threads: usize| {
            cd.verify(
                &multi,
                &VerifyOpts::new()
                    .with_part(part.clone())
                    .with_threads(threads),
            )
            .expect("facade verify")
        };
        assert_eq!(verify(1), verify(4), "{workload}: verification differs");
    }
}

#[test]
fn lint_matches_the_legacy_composition() {
    for workload in PARTITIONED {
        let (cd, part) = session(workload);
        let graph = AccessGraph::derive(cd.spec());
        let (alloc, partition) = parse_partition(cd.spec(), &part).expect("partition parses");

        // The legacy call chain `modref lint -p` used to hand-assemble.
        let map = SourceMap::new();
        let mut legacy = analyze_spec(cd.spec(), &map);
        for model in ImplModel::ALL {
            let refined = refine(cd.spec(), &graph, &alloc, &partition, model).expect("refines");
            legacy.extend(cd.lint_refined(&refined));
        }
        sort_canonical(&mut legacy);
        let legacy = LintConfig::new().apply_all(legacy);

        let facade = cd
            .lint(&LintOpts::new().with_part(part.clone()))
            .expect("facade lint");
        assert_eq!(
            render_json_lines(&legacy, workload),
            render_json_lines(&facade, workload),
            "{workload}: lint diagnostics differ"
        );
    }
}

#[test]
fn refine_output_is_byte_identical() {
    for workload in PARTITIONED {
        let (cd, part) = session(workload);
        let graph = AccessGraph::derive(cd.spec());
        let (alloc, partition) = parse_partition(cd.spec(), &part).expect("partition parses");
        for model in ImplModel::ALL {
            let legacy =
                refine(cd.spec(), &graph, &alloc, &partition, model).expect("legacy refine");
            let facade = cd.refine(&part, model).expect("facade refine");
            assert_eq!(
                printer::print(&legacy.spec),
                printer::print(&facade.spec),
                "{workload}/{model}: refined specs differ"
            );
        }
    }
}

#[test]
fn estimate_report_is_byte_identical() {
    for workload in PARTITIONED {
        let (cd, part) = session(workload);
        let graph = AccessGraph::derive(cd.spec());
        let (alloc, partition) = parse_partition(cd.spec(), &part).expect("partition parses");
        let model_of = |b| {
            partition
                .component_of_behavior(cd.spec(), b)
                .map(|c| alloc.component(c).timing_model())
                .unwrap_or_default()
        };
        let legacy = modref::estimate::estimation_report(
            cd.spec(),
            &graph,
            &model_of,
            &modref::estimate::LifetimeConfig::default(),
        );
        let facade = cd.estimate(&part).expect("facade estimate");
        assert_eq!(legacy, facade, "{workload}: estimation reports differ");
    }
}

#[test]
fn simulation_matches_on_every_workload() {
    // The facade, the simulator and verification all default to the
    // compiled kernel, so "legacy" and "facade" below run the same one.
    assert_eq!(SimConfig::default().kernel, SimKernel::Compiled);
    assert_eq!(SimOpts::new().kernel, SimKernel::Compiled);
    assert_eq!(VerifyOpts::new().kernel, SimKernel::Compiled);
    // `ring` has no published partition but simulates fine — include it.
    for workload in ["medical", "fig2", "dsp", "ring"] {
        let spec = named_spec(workload).expect("shipped workload");
        let legacy = modref::sim::Simulator::new(&spec)
            .run()
            .expect("legacy sim");
        let cd = Codesign::from_spec(spec);
        let facade = cd.simulate(&SimOpts::new()).expect("facade sim");
        assert_eq!(legacy.time, facade.time, "{workload}: sim time differs");
        assert_eq!(legacy.steps, facade.steps, "{workload}: sim steps differ");
        assert_eq!(
            legacy.var_writes, facade.var_writes,
            "{workload}: var writes differ"
        );
        assert_eq!(
            legacy.scalar_vars().collect::<Vec<_>>(),
            facade.scalar_vars().collect::<Vec<_>>(),
            "{workload}: final state differs"
        );
    }
}
