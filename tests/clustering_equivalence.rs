//! Incremental hierarchical clustering against the from-scratch merge
//! loop it replaced.
//!
//! `HierarchicalClustering::clusters` keeps one traffic row per cluster
//! and a cached pair-score table, rescoring only the survivor of each
//! merge. The reference below is the direct O(n³·V) formulation built on
//! the public `AccessGraph::traffic`: at every merge it re-sums every
//! pair's traffic over every variable and every member. The two must
//! agree exactly — same clusters, same member order — and so must the
//! partitions built from them, including on graphs whose float sums are
//! inexact (`branch_factor: 0.3`) and on a spec where every pair score
//! ties, which pins the first-pair tie-break. NaN and infinite branch
//! weights pin the strict `>` scan's handling of non-finite scores.

use modref::estimate::{LifetimeTable, TimingModel};
use modref::graph::{AccessGraph, CountConfig};
use modref::partition::algorithms::{HierarchicalClustering, Partitioner};
use modref::partition::{Allocation, Component, ComponentId, CostConfig, Partition};
use modref::spec::builder::SpecBuilder;
use modref::spec::{expr, stmt, BehaviorId, Spec, Stmt, VarId};
use modref::workloads::{fig2_spec, medical_spec, SynthConfig, SynthSpec};
use modref_rng::Rng;

/// The from-scratch merge loop: every pair's closeness recomputed from
/// its members' traffic at every merge.
fn reference_clusters(spec: &Spec, graph: &AccessGraph, target: usize) -> Vec<Vec<BehaviorId>> {
    let mut clusters: Vec<Vec<BehaviorId>> = spec.leaves().into_iter().map(|l| vec![l]).collect();
    if clusters.is_empty() {
        return clusters;
    }
    let traffic = |a: &[BehaviorId], b: &[BehaviorId]| -> f64 {
        let mut sum = 0.0;
        for (v, _) in spec.variables() {
            let side = |cluster: &[BehaviorId]| -> f64 {
                cluster.iter().map(|&l| graph.traffic(l, v)).sum()
            };
            sum += side(a).min(side(b));
        }
        sum
    };
    while clusters.len() > target.max(1) {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let t = traffic(&clusters[i], &clusters[j]);
                if best.is_none_or(|(_, _, bt)| t > bt) {
                    best = Some((i, j, t));
                }
            }
        }
        let (i, j, _) = best.expect("at least two clusters");
        let merged = clusters.remove(j);
        clusters[i].extend(merged);
    }
    clusters
}

/// The clustering partitioner's placement stage over the reference
/// clusters: largest cluster first onto the least-loaded component, then
/// each variable homed on the component with the most traffic to it.
fn reference_partition(
    spec: &Spec,
    graph: &AccessGraph,
    allocation: &Allocation,
    table: &mut LifetimeTable,
) -> Partition {
    let ids = allocation.ids();
    let clusters = reference_clusters(spec, graph, ids.len());
    let unit = TimingModel::unit();
    let mut cluster_loads: Vec<(usize, f64)> = clusters
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c.iter().map(|&l| table.get(spec, l, &unit)).sum()))
        .collect();
    cluster_loads.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("loads are finite"));

    let mut part = Partition::with_default(ids[0]);
    if let Some(top) = spec.top_opt() {
        part.assign_behavior(top, ids[0]);
    }
    let mut comp_load = vec![0.0; ids.len()];
    for (ci, load) in cluster_loads {
        let (slot, _) = comp_load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty");
        for &leaf in &clusters[ci] {
            part.assign_behavior(leaf, ids[slot]);
        }
        comp_load[slot] += load;
    }
    for (v, _) in spec.variables() {
        let best = ids
            .iter()
            .copied()
            .max_by(|&a, &b| {
                let t = |c| var_component_traffic(spec, graph, &part, v, c);
                t(a).partial_cmp(&t(b)).expect("finite")
            })
            .expect("non-empty allocation");
        part.assign_var(v, best);
    }
    part
}

fn var_component_traffic(
    spec: &Spec,
    graph: &AccessGraph,
    part: &Partition,
    v: VarId,
    component: ComponentId,
) -> f64 {
    let mut by_comp = std::collections::HashMap::new();
    for b in graph.behaviors_accessing(v) {
        if let Some(c) = part.component_of_behavior(spec, b) {
            *by_comp.entry(c).or_insert(0.0) += graph.traffic(b, v);
        }
    }
    by_comp.get(&component).copied().unwrap_or(0.0)
}

/// An allocation of `k` components, alternating processors and ASICs.
fn allocation_of(k: usize) -> Allocation {
    let mut alloc = Allocation::new();
    for i in 0..k {
        if i % 2 == 0 {
            alloc.add(Component::processor(format!("P{i}"), 0));
        } else {
            alloc.add(Component::asic(format!("A{i}"), 0, 0));
        }
    }
    alloc
}

/// Asserts identical clusters for every target from 1 to one past the
/// leaf count.
fn assert_same_clusters(label: &str, spec: &Spec, graph: &AccessGraph) {
    let hc = HierarchicalClustering::new();
    for target in 1..=spec.leaves().len() + 1 {
        assert_eq!(
            hc.clusters(spec, graph, target),
            reference_clusters(spec, graph, target),
            "{label}: clusters for target {target}"
        );
    }
}

/// Asserts identical clusters for every target and identical partitions
/// for allocations of 1..=4 components.
fn assert_equivalent(label: &str, spec: &Spec, graph: &AccessGraph) {
    assert_same_clusters(label, spec, graph);
    let hc = HierarchicalClustering::new();
    let config = CostConfig::default();
    for k in 1..=4 {
        let alloc = allocation_of(k);
        let mut table = LifetimeTable::new(config.lifetime);
        let got = hc.partition_with_table(spec, graph, &alloc, &config, &mut table);
        let mut table = LifetimeTable::new(config.lifetime);
        let want = reference_partition(spec, graph, &alloc, &mut table);
        assert_eq!(got, want, "{label}: partition over {k} components");
    }
}

#[test]
fn paper_workloads_cluster_identically() {
    for (label, spec) in [("medical", medical_spec()), ("fig2", fig2_spec())] {
        let graph = AccessGraph::derive(&spec);
        assert_equivalent(label, &spec, &graph);
    }
}

#[test]
fn random_synth_specs_cluster_identically() {
    let mut rng = Rng::seed_from_u64(0xC1A5_7E55);
    for case in 0..30 {
        let seed = rng.gen_range(0..10_000u64);
        let cfg = SynthConfig {
            leaves: rng.gen_range(1..25usize),
            vars: rng.gen_range(1..12usize),
            stmts_per_leaf: rng.gen_range(1..7usize),
            fanout: rng.gen_range(2..5usize),
            loop_percent: rng.gen_range(0..60u32),
        };
        let synth = SynthSpec::generate(seed, &cfg);
        assert_equivalent(
            &format!("case {case} (seed {seed}, {cfg:?})"),
            &synth.spec,
            &synth.graph(),
        );
    }
}

/// Branch arms weighted 0.3 make per-leaf traffic values whose sums
/// depend on summation order, so a fold in any other order than the
/// members' would show here.
#[test]
fn inexact_branch_weights_cluster_identically() {
    let counts = CountConfig {
        branch_factor: 0.3,
        ..CountConfig::default()
    };
    let mut rng = Rng::seed_from_u64(0x0BAD_F10A);
    for case in 0..12 {
        let seed = rng.gen_range(0..10_000u64);
        let cfg = SynthConfig {
            leaves: rng.gen_range(4..25usize),
            vars: rng.gen_range(2..10usize),
            stmts_per_leaf: rng.gen_range(3..8usize),
            fanout: rng.gen_range(2..5usize),
            loop_percent: rng.gen_range(0..60u32),
        };
        let synth = SynthSpec::generate(seed, &cfg);
        let graph = AccessGraph::derive_with(&synth.spec, &counts);
        assert_equivalent(&format!("case {case} (seed {seed})"), &synth.spec, &graph);
    }
    let medical = medical_spec();
    assert_equivalent(
        "medical at 0.3",
        &medical,
        &AccessGraph::derive_with(&medical, &counts),
    );
}

/// NaN branch weights make NaN closeness scores, which the strict `>`
/// scan never selects unless the first pair is NaN; infinite weights make
/// infinite scores that tie. (Partitioning itself rejects non-finite
/// traffic, so only the merge sequence is compared.)
#[test]
fn non_finite_branch_weights_cluster_identically() {
    let mut rng = Rng::seed_from_u64(0x7A7A_0001);
    for branch_factor in [f64::NAN, f64::INFINITY] {
        let counts = CountConfig {
            branch_factor,
            ..CountConfig::default()
        };
        for case in 0..12 {
            let seed = rng.gen_range(0..10_000u64);
            let cfg = SynthConfig {
                leaves: rng.gen_range(2..16usize),
                vars: rng.gen_range(1..8usize),
                stmts_per_leaf: rng.gen_range(1..7usize),
                fanout: rng.gen_range(2..5usize),
                loop_percent: rng.gen_range(0..60u32),
            };
            let synth = SynthSpec::generate(seed, &cfg);
            let graph = AccessGraph::derive_with(&synth.spec, &counts);
            assert_same_clusters(
                &format!("branch factor {branch_factor}, case {case} (seed {seed})"),
                &synth.spec,
                &graph,
            );
        }
    }
}

/// Five leaves that each write `x` once: every pair — and every merged
/// cluster against a singleton — scores the same, so each merge takes
/// the first pair, and the clusters grow from the front.
#[test]
fn all_tied_scores_merge_the_first_pair() {
    let mut b = SpecBuilder::new("ties");
    let x = b.var_int("x", 16, 0);
    let leaves: Vec<BehaviorId> = (0..5)
        .map(|i| b.leaf(format!("L{i}"), vec![stmt::assign(x, expr::lit(i))]))
        .collect();
    let top = b.seq_in_order("Top", leaves.clone());
    let spec = b.finish(top).expect("valid spec");
    let graph = AccessGraph::derive(&spec);
    assert_equivalent("ties", &spec, &graph);

    let hc = HierarchicalClustering::new();
    let l = &leaves;
    assert_eq!(
        hc.clusters(&spec, &graph, 2),
        vec![vec![l[0], l[1], l[2], l[3]], vec![l[4]]]
    );
    assert_eq!(
        hc.clusters(&spec, &graph, 3),
        vec![vec![l[0], l[1], l[2]], vec![l[3]], vec![l[4]]]
    );
}

/// A tie that only the member-order fold keeps. `C = [L1, L2, L3]` forms
/// by L1 absorbing `[L2, L3]`; `D = [L4, L5, L6]` forms one leaf at a
/// time; both carry x-traffic `(a + b) + c` with inexact a, b, c (branch
/// weight 0.3). Z's heavy x-traffic then ties `(Z, C)`, `(Z, D)` and
/// `(C, D)`, and the first pair wins. Adding `b + c` to L1's row first
/// would give C `a + (b + c)`, one ulp less, and merge Z with D instead.
#[test]
fn member_order_fold_keeps_an_inexact_tie() {
    fn guarded_writes(v: VarId, k: usize) -> Vec<Stmt> {
        let always = || expr::eq(expr::lit(1), expr::lit(1));
        (0..k)
            .map(|_| stmt::if_then(always(), vec![stmt::assign(v, expr::lit(0))]))
            .collect()
    }
    fn heavy(v: VarId, trips: u32) -> Stmt {
        let body = vec![stmt::assign(v, expr::lit(0))];
        stmt::while_loop_hinted(expr::lt(expr::lit(0), expr::lit(1)), body, trips)
    }
    let mut b = SpecBuilder::new("fold_order");
    let x = b.var_int("x", 8, 0);
    let p = b.var_int("p", 16, 0);
    let q = b.var_int("q", 16, 0);
    let z_body = (0..40).map(|_| stmt::assign(x, expr::lit(0))).collect();
    let z = b.leaf("Z", z_body);
    let mut leaf = |name: &str, k: usize, group: Stmt| {
        let mut body = guarded_writes(x, k);
        body.push(group);
        b.leaf(name, body)
    };
    let l1 = leaf("L1", 1, heavy(p, 1000));
    let l2 = leaf("L2", 2, heavy(p, 1000));
    let l3 = leaf("L3", 6, heavy(p, 1000));
    let l4 = leaf("L4", 1, heavy(q, 1000));
    let l5 = leaf("L5", 2, heavy(q, 1000));
    let l6 = leaf("L6", 6, heavy(q, 500));
    let top = b.seq_in_order("Top", vec![z, l1, l2, l3, l4, l5, l6]);
    let spec = b.finish(top).expect("valid spec");
    let counts = CountConfig {
        branch_factor: 0.3,
        ..CountConfig::default()
    };
    let graph = AccessGraph::derive_with(&spec, &counts);
    let (a, bb, c) = (
        graph.traffic(l1, x),
        graph.traffic(l2, x),
        graph.traffic(l3, x),
    );
    assert_ne!((a + bb) + c, a + (bb + c), "the sums must depend on order");
    assert_equivalent("fold order", &spec, &graph);
    assert_eq!(
        HierarchicalClustering::new().clusters(&spec, &graph, 2),
        vec![vec![z, l1, l2, l3], vec![l4, l5, l6]]
    );
}
