//! Hierarchical clustering partitioner — the closeness-metric approach
//! of the SpecSyn book (Gajski, Vahid, Narayan & Gong, *Specification
//! and Design of Embedded Systems*, ch. 6).
//!
//! Leaf behaviors start as singleton clusters; the pair with the highest
//! *closeness* (shared variable traffic normalized by total traffic)
//! merges, repeatedly, until the requested number of clusters remains.
//! Clusters are then assigned to components largest-first onto the least
//! loaded component, and variables homed with their heaviest cluster.
//!
//! ## Complexity
//!
//! The merge loop is incremental. A leaf × variable traffic table is
//! built once; each cluster keeps one per-variable traffic row, and the
//! pair scores live in an n × n table. A merge folds the absorbed
//! cluster's leaf rows into the survivor's row, in member order, and
//! rescores only the survivor against the k − 2 other clusters: O(k·V)
//! per merge, O(n²·V) in all for n leaves and V variables. Picking each
//! merge scans the k(k−1)/2 cached scores, O(n³) comparisons in all;
//! that scan is most of the time from a few hundred leaves up. Exactly
//! n(n−1)/2 + Σ_{k=t+1..n}(k−2) pair scores are computed for a target of
//! t clusters; the `clustering.pair_evals` counter reports that number.
//!
//! The merge sequence is the one a from-scratch scan gives: each side's
//! traffic is its members' traffic summed in member order (so float sums
//! match bit for bit), and the first pair in cluster order with the
//! strictly highest closeness merges.

use std::collections::HashMap;

use modref_estimate::LifetimeTable;
use modref_graph::AccessGraph;
use modref_spec::{BehaviorId, Spec, VarId};

use crate::assignment::Partition;
use crate::component::Allocation;
use crate::cost::CostConfig;

use super::Partitioner;

/// Hierarchical clustering down to one cluster per component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchicalClustering {
    _private: (),
}

impl HierarchicalClustering {
    /// Creates a clustering partitioner.
    pub fn new() -> Self {
        Self { _private: () }
    }

    /// Computes the merge sequence down to `target` clusters and returns
    /// the final clusters of behavior ids (exposed for inspection and
    /// tests).
    ///
    /// The closeness of two clusters is the bits they exchange through
    /// shared variables: the sum over variables of the smaller side's
    /// traffic (the transferable portion). Each side is its members'
    /// traffic summed in member order. The first pair (in cluster order)
    /// with the strictly highest closeness merges; the later cluster is
    /// removed and its members appended to the earlier one.
    pub fn clusters(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        target: usize,
    ) -> Vec<Vec<BehaviorId>> {
        let leaves = spec.leaves();
        let n = leaves.len();
        if n == 0 {
            return Vec::new();
        }
        let vars: Vec<VarId> = spec.variables().map(|(v, _)| v).collect();
        let nv = vars.len();

        // `leaf_rows[l * nv + v]`: leaf `l`'s traffic on variable `v`.
        // `rows` holds one such row per cluster, indexed by the stable
        // slot of the cluster's first leaf.
        let leaf_rows: Vec<f64> = leaves
            .iter()
            .flat_map(|&l| vars.iter().map(move |&v| graph.traffic(l, v)))
            .collect();
        let mut rows = leaf_rows.clone();
        let row = |s: usize| s * nv..(s + 1) * nv;

        let mut pair_evals = modref_obs::Tally::new(modref_obs::counter("clustering.pair_evals"));
        let mut closeness = |rows: &[f64], a: usize, b: usize| -> f64 {
            pair_evals.inc();
            let mut sum = 0.0;
            for (&ta, &tb) in rows[row(a)].iter().zip(&rows[row(b)]) {
                sum += ta.min(tb);
            }
            sum
        };

        // `score[a * n + b]`: closeness of the clusters in slots a and b.
        let mut score = vec![0.0; n * n];
        for a in 0..n {
            for b in (a + 1)..n {
                let t = closeness(&rows, a, b);
                score[a * n + b] = t;
                score[b * n + a] = t;
            }
        }

        // Clusters as leaf slots. A cluster's row and scores live at its
        // first slot, its head; `heads` mirrors the cluster order so the
        // best-pair scan reads one contiguous slice.
        let mut clusters: Vec<Vec<usize>> = (0..n).map(|l| vec![l]).collect();
        let mut heads: Vec<usize> = (0..n).collect();
        let mut merges = modref_obs::Tally::new(modref_obs::counter("clustering.merges"));
        while clusters.len() > target.max(1) {
            let mut best: Option<(usize, usize, f64)> = None;
            for (i, &a) in heads.iter().enumerate() {
                let scores = &score[a * n..(a + 1) * n];
                for (j, &b) in heads.iter().enumerate().skip(i + 1) {
                    let t = scores[b];
                    if best.is_none_or(|(_, _, bt)| t > bt) {
                        best = Some((i, j, t));
                    }
                }
            }
            let (i, j, _) = best.expect("at least two clusters");
            let merged = clusters.remove(j);
            heads.remove(j);
            let s = heads[i];
            // Fold leaf by leaf, in member order: the same float sum as
            // re-adding every member's traffic from scratch.
            for &l in &merged {
                for (d, &t) in rows[row(s)].iter_mut().zip(&leaf_rows[row(l)]) {
                    *d += t;
                }
            }
            clusters[i].extend(merged);
            for &o in &heads {
                if o != s {
                    let t = closeness(&rows, s, o);
                    score[s * n + o] = t;
                    score[o * n + s] = t;
                }
            }
            merges.inc();
        }
        clusters
            .into_iter()
            .map(|c| c.into_iter().map(|l| leaves[l]).collect())
            .collect()
    }
}

impl Default for HierarchicalClustering {
    fn default() -> Self {
        Self::new()
    }
}

impl Partitioner for HierarchicalClustering {
    fn partition(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        config: &CostConfig,
    ) -> Partition {
        let mut table = LifetimeTable::new(config.lifetime);
        self.partition_with_table(spec, graph, allocation, config, &mut table)
    }

    fn partition_with_table(
        &self,
        spec: &Spec,
        graph: &AccessGraph,
        allocation: &Allocation,
        config: &CostConfig,
        table: &mut LifetimeTable,
    ) -> Partition {
        let ids = allocation.ids();
        assert!(
            !ids.is_empty(),
            "allocation must have at least one component"
        );
        assert_eq!(
            table.config(),
            &config.lifetime,
            "LifetimeTable config must match CostConfig::lifetime"
        );
        let clusters = self.clusters(spec, graph, ids.len());

        // Estimate each cluster's load and place largest-first onto the
        // least-loaded component (weighted by the component's speed).
        let unit = modref_estimate::TimingModel::unit();
        let mut cluster_loads: Vec<(usize, f64)> = clusters
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let load: f64 = c.iter().map(|&l| table.get(spec, l, &unit)).sum();
                (i, load)
            })
            .collect();
        cluster_loads.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("loads are finite"));

        let mut part = Partition::with_default(ids[0]);
        if let Some(top) = spec.top_opt() {
            part.assign_behavior(top, ids[0]);
        }
        let mut comp_load: Vec<f64> = vec![0.0; ids.len()];
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

        // Home each variable on the component with the most traffic to it.
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

    fn name(&self) -> &'static str {
        "clustering"
    }
}

fn var_component_traffic(
    spec: &Spec,
    graph: &AccessGraph,
    part: &Partition,
    v: VarId,
    component: crate::component::ComponentId,
) -> f64 {
    let mut by_comp: HashMap<_, f64> = HashMap::new();
    for b in graph.behaviors_accessing(v) {
        if let Some(c) = part.component_of_behavior(spec, b) {
            *by_comp.entry(c).or_insert(0.0) += graph.traffic(b, v);
        }
    }
    by_comp.get(&component).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::clustered_spec;
    use super::*;
    use crate::cost::partition_cost;

    #[test]
    fn clustering_finds_the_two_communication_clusters() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let hc = HierarchicalClustering::new();
        let clusters = hc.clusters(&spec, &graph, 2);
        assert_eq!(clusters.len(), 2);
        // B1+B2 share x/y heavily; B3+B4 share u/w: each pair must end
        // up together.
        let names = |c: &Vec<BehaviorId>| -> Vec<String> {
            let mut v: Vec<String> = c
                .iter()
                .map(|&b| spec.behavior(b).name().to_string())
                .collect();
            v.sort();
            v
        };
        let mut groups: Vec<Vec<String>> = clusters.iter().map(names).collect();
        groups.sort();
        assert_eq!(
            groups,
            vec![
                vec!["B1".to_string(), "B2".to_string()],
                vec!["B3".to_string(), "B4".to_string()]
            ]
        );
    }

    #[test]
    fn produces_complete_low_cut_partitions() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let alloc = Allocation::proc_plus_asic();
        let cfg = CostConfig::default();
        let part = HierarchicalClustering::new().partition(&spec, &graph, &alloc, &cfg);
        assert!(part.is_complete(&spec, &alloc));
        let cost = partition_cost(&spec, &graph, &alloc, &part, &cfg);
        // Only the single weak cross link (B4 reads x) can be cut.
        assert!(cost.cut_bits <= 64.0, "cut = {}", cost.cut_bits);
    }

    #[test]
    fn single_cluster_when_target_is_one() {
        let spec = clustered_spec();
        let graph = AccessGraph::derive(&spec);
        let clusters = HierarchicalClustering::new().clusters(&spec, &graph, 1);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), spec.leaves().len());
    }
}
