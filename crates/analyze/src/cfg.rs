//! Per-body statement control-flow graphs.
//!
//! Each leaf-behavior (or subroutine) body is lowered to a small CFG of
//! one node per statement, plus synthetic entry and exit nodes. The
//! lowering mirrors the simulator's structured-control semantics: an
//! `if` forks and rejoins, `while`/`for` loop back through their head
//! node, and `loop` has no exit edge at all. Dataflow analyses
//! ([`crate::dataflow`]) run over this graph.
//!
//! Statement nodes are numbered in preorder from [`Cfg::FIRST`]: a
//! statement's node is followed by the nodes of its nested blocks (an
//! `if`'s then-block before its else-block), and [`CfgNode::end`] is one
//! past the last node of that subtree. Walkers that follow the
//! statement tree can therefore address nodes without a map.

use modref_spec::span::StmtStep;
use modref_spec::{SourceMap, Span, Stmt, StmtOwner, StmtPath};

/// Index of a node within its [`Cfg`].
pub type NodeId = usize;

/// One CFG node: a statement (or a synthetic entry/exit).
#[derive(Debug, Clone, Copy)]
pub struct CfgNode<'a> {
    /// The statement; `None` for entry/exit.
    pub stmt: Option<&'a Stmt>,
    /// Source position, when the spec was parsed from text.
    pub span: Option<Span>,
    /// One past the last node of this statement's subtree (preorder):
    /// the node of the next statement in the same block, if any.
    pub end: NodeId,
}

/// A per-body control-flow graph. Edges are stored flat, one run of
/// successors (and one of predecessors) per node.
#[derive(Debug, Clone)]
pub struct Cfg<'a> {
    /// All nodes; `nodes[entry]` and `nodes[exit]` are synthetic.
    pub nodes: Vec<CfgNode<'a>>,
    /// The entry node (no statement).
    pub entry: NodeId,
    /// The exit node (no statement). Unreachable when the body ends in an
    /// infinite `loop`.
    pub exit: NodeId,
    succ_at: Vec<usize>,
    succ: Vec<NodeId>,
    pred_at: Vec<usize>,
    pred: Vec<NodeId>,
}

impl<'a> Cfg<'a> {
    /// The node of a body's first statement.
    pub const FIRST: NodeId = 2;

    /// Lowers a statement body to its CFG. `map` supplies statement
    /// positions when available; pass `None` for builder-built specs.
    pub fn build(owner: StmtOwner, body: &'a [Stmt], map: Option<&SourceMap>) -> Self {
        let synthetic = CfgNode {
            stmt: None,
            span: None,
            end: 0,
        };
        let mut lower = Lower {
            nodes: vec![synthetic; 2],
            edges: Vec::new(),
            front: vec![0],
            // The one path the span lookups need, extended and truncated
            // in place as the lowering descends.
            path: map.map(|m| (m, StmtPath::root(owner))),
        };
        lower.block(body, 0, 0);
        let Lower {
            nodes,
            mut edges,
            front,
            ..
        } = lower;
        edges.extend(front.into_iter().map(|p| (p, 1)));
        let (pred_at, pred) = flatten(nodes.len(), edges.iter().map(|&(f, t)| (t, f)).collect());
        let (succ_at, succ) = flatten(nodes.len(), edges);
        Cfg {
            nodes,
            entry: 0,
            exit: 1,
            succ_at,
            succ,
            pred_at,
            pred,
        }
    }

    /// Successors of `n`.
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succ[self.succ_at[n]..self.succ_at[n + 1]]
    }

    /// Predecessors of `n`.
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.pred[self.pred_at[n]..self.pred_at[n + 1]]
    }
}

/// Groups `(from, to)` edges by `from`, keeping their order: returns
/// per-node offsets (`n + 1` of them) into the flat `to` list.
fn flatten(n: usize, mut edges: Vec<(NodeId, NodeId)>) -> (Vec<usize>, Vec<NodeId>) {
    edges.sort_by_key(|&(from, _)| from);
    let mut at = vec![0usize; n + 1];
    for &(from, _) in &edges {
        at[from + 1] += 1;
    }
    for i in 0..n {
        at[i + 1] += at[i];
    }
    (at, edges.into_iter().map(|(_, to)| to).collect())
}

/// Lowering state. `front` is a stack of frontiers: a block's incoming
/// nodes sit on top of it from the block's base, and the block leaves
/// its outgoing nodes there.
struct Lower<'a, 'm> {
    nodes: Vec<CfgNode<'a>>,
    edges: Vec<(NodeId, NodeId)>,
    front: Vec<NodeId>,
    path: Option<(&'m SourceMap, StmtPath)>,
}

impl<'a> Lower<'a, '_> {
    /// Lowers one block entered from `front[base..]`; an empty block
    /// leaves that frontier unchanged.
    fn block(&mut self, stmts: &'a [Stmt], block: u8, base: usize) {
        for (i, s) in stmts.iter().enumerate() {
            let span = self.path.as_mut().and_then(|(map, path)| {
                path.steps.push(StmtStep {
                    block,
                    index: i as u32,
                });
                map.stmt_span(path)
            });
            let node = self.nodes.len();
            self.nodes.push(CfgNode {
                stmt: Some(s),
                span,
                end: 0,
            });
            self.edges
                .extend(self.front.drain(base..).map(|p| (p, node)));
            match s {
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    // Both branches fork from the head; their frontiers
                    // end up side by side.
                    self.front.push(node);
                    self.block(then_body, 0, base);
                    let mid = self.front.len();
                    self.front.push(node);
                    self.block(else_body, 1, mid);
                }
                // Loop exit: the head's condition turning false.
                Stmt::While { body, .. } | Stmt::For { body, .. } => {
                    self.loop_back(node, body, base);
                    self.front.push(node);
                }
                // No exit edge: statements after an infinite loop are
                // unreachable and get an empty frontier.
                Stmt::Loop { body } => self.loop_back(node, body, base),
                _ => self.front.push(node),
            }
            self.nodes[node].end = self.nodes.len();
            if let Some((_, path)) = &mut self.path {
                path.steps.pop();
            }
        }
    }

    /// Lowers a loop body entered from `head` and closes its back edges.
    fn loop_back(&mut self, head: NodeId, body: &'a [Stmt], base: usize) {
        self.front.push(head);
        self.block(body, 0, base);
        self.edges
            .extend(self.front.drain(base..).map(|p| (p, head)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::expr::{gt, lit, var};
    use modref_spec::ids::BehaviorId;
    use modref_spec::stmt::{assign, if_else, infinite_loop, while_loop};
    use modref_spec::VarId;

    fn owner() -> StmtOwner {
        StmtOwner::Behavior(BehaviorId::from_raw(0))
    }

    #[test]
    fn straight_line_chains_entry_to_exit() {
        let x = VarId::from_raw(0);
        let body = vec![assign(x, lit(1)), assign(x, lit(2))];
        let cfg = Cfg::build(owner(), &body, None);
        assert_eq!(cfg.nodes.len(), 4);
        assert_eq!(cfg.succs(cfg.entry), [2]);
        assert_eq!(cfg.succs(2), [3]);
        assert_eq!(cfg.succs(3), [cfg.exit]);
        assert_eq!(cfg.preds(cfg.exit), [3]);
    }

    #[test]
    fn if_forks_and_rejoins() {
        let x = VarId::from_raw(0);
        let y = VarId::from_raw(1);
        let body = vec![
            if_else(
                gt(var(x), lit(0)),
                vec![assign(y, lit(1))],
                vec![assign(y, lit(2))],
            ),
            assign(x, var(y)),
        ];
        let cfg = Cfg::build(owner(), &body, None);
        // entry, exit, if-head, then-assign, else-assign, join-assign.
        assert_eq!(cfg.nodes.len(), 6);
        let if_head = 2;
        assert_eq!(cfg.succs(if_head), [3, 4]);
        // Both branch assigns flow into the final statement.
        let last = 5;
        assert_eq!(cfg.preds(last), [3, 4]);
    }

    #[test]
    fn while_loops_back_and_exits_from_head() {
        let x = VarId::from_raw(0);
        let body = vec![while_loop(gt(var(x), lit(0)), vec![assign(x, lit(0))])];
        let cfg = Cfg::build(owner(), &body, None);
        let head = 2;
        let inner = 3;
        assert!(cfg.succs(inner).contains(&head));
        assert!(cfg.succs(head).contains(&cfg.exit));
    }

    #[test]
    fn infinite_loop_leaves_exit_unreachable() {
        let x = VarId::from_raw(0);
        let body = vec![infinite_loop(vec![assign(x, lit(1))])];
        let cfg = Cfg::build(owner(), &body, None);
        assert!(cfg.preds(cfg.exit).is_empty());
    }

    /// Walks `stmts` in preorder (then-block before else-block), checking
    /// each statement's node holds that very statement and that `end`
    /// skips exactly its subtree.
    fn check_preorder(cfg: &Cfg<'_>, stmts: &[Stmt], mut node: NodeId) -> NodeId {
        for s in stmts {
            let n = &cfg.nodes[node];
            assert!(n.stmt.is_some_and(|st| std::ptr::eq(st, s)), "node {node}");
            let mut inner = node + 1;
            for b in s.bodies() {
                inner = check_preorder(cfg, b, inner);
            }
            assert_eq!(n.end, inner, "node {node}: end skips its subtree");
            node = inner;
        }
        node
    }

    #[test]
    fn node_ids_follow_statement_preorder() {
        let x = VarId::from_raw(0);
        let body = vec![
            assign(x, lit(0)),
            if_else(
                gt(var(x), lit(0)),
                vec![while_loop(gt(var(x), lit(1)), vec![assign(x, lit(1))])],
                vec![assign(x, lit(2)), infinite_loop(vec![assign(x, lit(3))])],
            ),
            if_else(lit(1), vec![], vec![assign(x, lit(4))]),
            assign(x, lit(5)),
        ];
        let cfg = Cfg::build(owner(), &body, None);
        assert!(cfg.nodes[cfg.entry].stmt.is_none() && cfg.nodes[cfg.exit].stmt.is_none());
        assert_eq!(check_preorder(&cfg, &body, Cfg::FIRST), cfg.nodes.len());
        // An empty then-block: the head forks to the else block and,
        // directly, to the join.
        assert_eq!(cfg.succs(9), [10, 11]);
    }
}
