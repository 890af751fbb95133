//! Liveness and deadlock lints (`DL01`–`DL05`).
//!
//! Refinement trades atomic communication for explicit handshakes,
//! buses and arbiters — exactly the transformations that introduce
//! never-enabled waits and circular blocking. These lints prove such
//! defects *statically*, before a simulation burns its step budget
//! discovering them. Two engines carry the analysis:
//!
//! * the interval abstract interpreter ([`crate::absint`]) supplies
//!   sound value ranges for every variable and signal, which prove wait
//!   conditions never-satisfiable (`DL01`), and statically-constant
//!   infinite loops (`DL03`);
//! * an inter-process wait-dependency analysis computes the *greatest*
//!   set of waits that can never be passed: a wait stays "dead" while
//!   every write that could satisfy its condition is itself dominated
//!   by dead waits (or cannot produce a satisfying value). Waits on
//!   signals nothing ever writes are `DL02`; waits whose writers sit
//!   behind other dead waits form the wait-dependency graph whose
//!   strongly connected components are the classic circular-wait
//!   deadlocks (`DL04`). A four-phase handshake whose requester never
//!   releases its request line starves the arbiter's re-arbitration
//!   wait and hangs the requester's own release wait (`DL05`).
//!
//! # The dead-wait fixpoint
//!
//! The greatest fixpoint is one worklist over the CFG nodes of every
//! body (leaf behaviors and subroutines alike):
//!
//! * every wait starts dead; one range array starts at initial values;
//! * reachability grows from each body's entry and stops at dead waits;
//!   a newly reached node joins its writes' value hulls into the ranges;
//! * a wait is evaluated once, and again only when an entity its
//!   condition reads widens; if it can hold, it revives and
//!   reachability continues from its node.
//!
//! Interval evaluation is monotone and ranges only grow, so a revived
//! wait stays revivable, and at quiescence every dead wait has been
//! evaluated against the final ranges: the dead set is the unique
//! greatest fixpoint. Cost is linear in the spec plus one evaluation per
//! (widening, reader) pair, counted by `analyze.dl.wait_evals`.
//!
//! # The soundness contract
//!
//! Every `DL` diagnostic implies the *specification* cannot complete:
//! simulation must end in a deadlock or run into its step limit, under
//! every kernel. The engine therefore only flags waits/loops that are
//! **must-executed**: reached on every run, in a behavior that is
//! activated on every run (*must-activation* follows concurrent
//! composites into all children and sequential composites only along
//! unconditional or provably-true transition arcs; *must-reach* walks a
//! body passing through constructs that either terminate or already
//! doom the run — a `wait` before the flagged site either passes or
//! blocks the spec forever, so it never excuses a later flag). Server
//! behaviors are never flagged: their infinite service loops block
//! nobody, because composites complete without them.

use std::collections::{HashMap, HashSet};

use modref_obs::Tally;
use modref_spec::behavior::{BehaviorKind, TransitionTarget};
use modref_spec::printer::expr_to_string;
use modref_spec::stmt::WaitCond;
use modref_spec::{
    BehaviorId, Expr, SignalId, SourceMap, Span, Spec, Stmt, StmtOwner, SubroutineId,
};

use crate::absint::{self, Entity, Interval, Ranges};
use crate::cfg::{Cfg, NodeId};
use crate::diag::{Diagnostic, Severity};

/// A request/acknowledge handshake pair the `DL05` check should
/// examine, in addition to the pairs it infers from server bodies. The
/// refiner knows its arbiters' wiring exactly and passes them here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakePair {
    /// The request line the master drives.
    pub req: SignalId,
    /// The acknowledge line the server drives.
    pub ack: SignalId,
    /// The server (arbiter) behavior owning the grant protocol.
    pub server: BehaviorId,
}

/// One statement body under analysis: a leaf behavior's or a
/// subroutine's.
struct Body<'a> {
    name: &'a str,
    stmts: &'a [Stmt],
    cfg: Cfg<'a>,
    /// Flat index of this body's node 0 (see [`Engine::wait_at`]).
    base: usize,
}

/// One `wait until` node.
struct Wait<'a> {
    body: usize,
    node: NodeId,
    cond: &'a Expr,
}

/// One write site: a node of one body writing one entity, with the
/// value's hull under the full global ranges (`TOP` for call out-args).
struct Site {
    body: usize,
    node: NodeId,
    entity: Entity,
    hull: Interval,
}

/// The spec indexed for the lints. All bodies' CFG nodes share one flat
/// numbering (`base + node`) addressing the wait and write-site tables.
struct Engine<'a> {
    spec: &'a Spec,
    full: Ranges,
    bodies: Vec<Body<'a>>,
    behavior_body: HashMap<BehaviorId, usize>,
    sub_body: HashMap<SubroutineId, usize>,
    waits: Vec<Wait<'a>>,
    /// Per flat node: the index of the wait it is, if any.
    wait_at: Vec<Option<usize>>,
    /// Write sites in flat node order; flat node `g` owns
    /// `sites[site_start[g]..site_start[g + 1]]`.
    sites: Vec<Site>,
    site_start: Vec<usize>,
    /// Per entity slot (variables, then signals): the sites writing it.
    writes_to: Vec<Vec<usize>>,
}

/// Runs the `DL01`–`DL05` liveness lints over a specification.
///
/// `map` supplies statement positions for parsed specs (pass `None`
/// for builder-built ones); `extra_handshakes` carries arbiter wiring
/// from the refiner for the `DL05` check, merged with the pairs the
/// engine infers from server bodies on its own.
pub fn deadlock_lints(
    spec: &Spec,
    map: Option<&SourceMap>,
    extra_handshakes: &[HandshakePair],
) -> Vec<Diagnostic> {
    if spec.top_opt().is_none() {
        return Vec::new();
    }
    let engine = Engine::new(spec, map);
    let mut evals = Tally::new(modref_obs::counter("analyze.dl.wait_evals"));
    let dead = engine.dead_waits(&mut evals);

    // Wait-dependency graph over the dead waits (by position in
    // `dead_list`): an edge W -> W' says "a write that could satisfy W
    // sits in a body with dead wait W'". Its strongly connected
    // components name circular-wait cycles; `cycles` maps each wait in
    // one to the names of the bodies taking part.
    let dead_list: Vec<usize> = (0..engine.waits.len()).filter(|&w| dead[w]).collect();
    let mut body_dead: Vec<Vec<usize>> = vec![Vec::new(); engine.bodies.len()];
    for (i, &w) in dead_list.iter().enumerate() {
        body_dead[engine.waits[w].body].push(i);
    }
    let edges: Vec<Vec<usize>> = (dead_list.iter())
        .map(|&w| {
            let mut writers: Vec<usize> = cond_entities(engine.waits[w].cond)
                .into_iter()
                .flat_map(|e| engine.writes(e))
                .map(|&si| engine.sites[si].body)
                .collect();
            writers.sort_unstable();
            writers.dedup();
            writers
                .iter()
                .flat_map(|&b| body_dead[b].iter().copied())
                .collect()
        })
        .collect();
    let mut cycles: HashMap<usize, String> = HashMap::new();
    for comp in tarjan_scc(&edges).iter().filter(|c| c.len() > 1) {
        let waits = comp.iter().map(|&i| dead_list[i]);
        let mut names: Vec<&str> = (waits.clone())
            .map(|w| engine.bodies[engine.waits[w].body].name)
            .collect();
        names.sort_unstable();
        names.dedup();
        let names = names.join("`, `");
        cycles.extend(waits.map(|w| (w, names.clone())));
    }

    // --- must-activation and the flagging walk -----------------------
    let active = must_active(spec, &engine.full);
    let mut diags = Vec::new();
    let mut leaf_events: Vec<(BehaviorId, Vec<Ev<'_>>)> = Vec::new();
    for id in spec.reachable() {
        let b = spec.behavior(id);
        if !b.is_leaf() || b.is_server() || !active.contains(&id) {
            continue;
        }
        let Some(&bi) = engine.behavior_body.get(&id) else {
            continue;
        };
        let mut walk = Walk {
            e: &engine,
            dead: &dead,
            cycles: &cycles,
            call_stack: Vec::new(),
            events: Vec::new(),
            diags: Vec::new(),
        };
        walk.block(bi, engine.bodies[bi].stmts, Cfg::FIRST);
        diags.extend(walk.diags);
        leaf_events.push((id, walk.events));
    }

    // --- DL05: acquired-but-never-released handshakes ----------------
    let mut pairs: Vec<HandshakePair> = extra_handshakes.to_vec();
    pairs.extend(engine.infer_handshakes());
    pairs.sort_by_key(|p| (p.req, p.ack, p.server));
    pairs.dedup();
    for pair in &pairs {
        diags.extend(engine.check_handshake(pair, &leaf_events));
    }

    diags
}

impl<'a> Engine<'a> {
    /// Builds every body's CFG and the wait and write-site tables.
    fn new(spec: &'a Spec, map: Option<&SourceMap>) -> Self {
        let mut engine = Engine {
            spec,
            full: absint::global_ranges(spec),
            bodies: Vec::new(),
            behavior_body: HashMap::new(),
            sub_body: HashMap::new(),
            waits: Vec::new(),
            wait_at: Vec::new(),
            sites: Vec::new(),
            site_start: Vec::new(),
            writes_to: vec![Vec::new(); spec.variables().count() + spec.signals().count()],
        };
        for (id, b) in spec.behaviors() {
            if let Some(stmts) = b.body() {
                engine.behavior_body.insert(id, engine.bodies.len());
                engine.add_body(StmtOwner::Behavior(id), b.name(), stmts, map);
            }
        }
        for (id, sub) in spec.subroutines() {
            engine.sub_body.insert(id, engine.bodies.len());
            engine.add_body(StmtOwner::Subroutine(id), sub.name(), sub.body(), map);
        }
        engine.site_start.push(engine.sites.len());
        for (i, s) in engine.sites.iter().enumerate() {
            let slot = engine.slot(s.entity);
            engine.writes_to[slot].push(i);
        }
        engine
    }

    fn add_body(
        &mut self,
        owner: StmtOwner,
        name: &'a str,
        stmts: &'a [Stmt],
        map: Option<&SourceMap>,
    ) {
        let body = self.bodies.len();
        let base = self.wait_at.len();
        let cfg = Cfg::build(owner, stmts, map);
        for (node, cn) in cfg.nodes.iter().enumerate() {
            self.site_start.push(self.sites.len());
            let mut wait = None;
            if let Some(stmt) = cn.stmt {
                if let Stmt::Wait(WaitCond::Until(cond)) = stmt {
                    wait = Some(self.waits.len());
                    self.waits.push(Wait { body, node, cond });
                }
                absint::stmt_writes(stmt, |entity, value| {
                    let hull = value.map_or(Interval::TOP, |e| absint::eval(e, &self.full));
                    self.sites.push(Site {
                        body,
                        node,
                        entity,
                        hull,
                    });
                });
            }
            self.wait_at.push(wait);
        }
        self.bodies.push(Body {
            name,
            stmts,
            cfg,
            base,
        });
    }

    /// The dense slot of an entity: variables first, then signals.
    fn slot(&self, e: Entity) -> usize {
        match e {
            Entity::Var(v) => v.index(),
            Entity::Signal(s) => self.full.vars.len() + s.index(),
        }
    }

    /// The write sites of an entity.
    fn writes(&self, e: Entity) -> &[usize] {
        self.writes_to.get(self.slot(e)).map_or(&[], Vec::as_slice)
    }

    /// The join of every value ever written to an entity; `None` when
    /// nothing writes it.
    fn write_hull(&self, e: Entity) -> Option<Interval> {
        self.writes(e)
            .iter()
            .map(|&i| self.sites[i].hull)
            .reduce(Interval::join)
    }

    /// The greatest set of waits that can never pass, by wait index (see
    /// the module docs). `evals` counts wait-condition evaluations.
    fn dead_waits(&self, evals: &mut Tally) -> Vec<bool> {
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); self.writes_to.len()];
        for (w, wait) in self.waits.iter().enumerate() {
            for e in cond_entities(wait.cond) {
                if let Some(r) = readers.get_mut(self.slot(e)) {
                    r.push(w);
                }
            }
        }
        let mut ranges = Ranges::initial(self.spec);
        let mut dead = vec![true; self.waits.len()];
        // Every wait is queued once up front; afterwards only a widening
        // of an entity it reads queues it again.
        let mut queued = vec![true; self.waits.len()];
        let mut queue: Vec<usize> = (0..self.waits.len()).rev().collect();
        let mut reached = vec![false; self.wait_at.len()];
        let mut stack: Vec<(usize, NodeId)> = Vec::new();
        for (bi, body) in self.bodies.iter().enumerate() {
            reached[body.base + body.cfg.entry] = true;
            stack.push((bi, body.cfg.entry));
        }
        loop {
            while let Some((bi, n)) = stack.pop() {
                let body = &self.bodies[bi];
                let g = body.base + n;
                for site in &self.sites[self.site_start[g]..self.site_start[g + 1]] {
                    let slot = ranges.slot_mut(site.entity);
                    let joined = slot.join(site.hull);
                    if joined == *slot {
                        continue;
                    }
                    *slot = joined;
                    for &w in &readers[self.slot(site.entity)] {
                        if dead[w] && !queued[w] {
                            queued[w] = true;
                            queue.push(w);
                        }
                    }
                }
                // A dead wait is entered but never passed: its
                // successors stay unreachable through it.
                if self.wait_at[g].is_some_and(|w| dead[w]) {
                    continue;
                }
                for &s in body.cfg.succs(n) {
                    if !reached[body.base + s] {
                        reached[body.base + s] = true;
                        stack.push((bi, s));
                    }
                }
            }
            let Some(w) = queue.pop() else { break };
            queued[w] = false;
            evals.inc();
            let wait = &self.waits[w];
            if absint::eval(wait.cond, &ranges).definitely_false() {
                continue;
            }
            dead[w] = false;
            // Revived after control reached it: control now passes on.
            if reached[self.bodies[wait.body].base + wait.node] {
                stack.push((wait.body, wait.node));
            }
        }
        dead
    }

    /// Infers candidate handshake pairs from server bodies: a signal the
    /// server's waits read (`req`) paired with each signal the server
    /// drives (`ack`). A request line that is ever written 0 fails
    /// [`Engine::check_handshake`]'s first criterion, so it is dropped
    /// here; every remaining candidate still has to pass all criteria,
    /// so over-generation is harmless.
    fn infer_handshakes(&self) -> Vec<HandshakePair> {
        let mut out = Vec::new();
        for id in self.spec.reachable() {
            let b = self.spec.behavior(id);
            if !b.is_server() || !b.is_leaf() {
                continue;
            }
            let Some(&bi) = self.behavior_body.get(&id) else {
                continue;
            };
            let mut reqs: Vec<SignalId> = Vec::new();
            let mut acks: Vec<SignalId> = Vec::new();
            for cn in &self.bodies[bi].cfg.nodes {
                match cn.stmt {
                    Some(Stmt::Wait(WaitCond::Until(cond))) => reqs.extend(cond.signal_reads()),
                    Some(Stmt::SignalSet { signal, .. }) => acks.push(*signal),
                    _ => {}
                }
            }
            reqs.sort_unstable();
            reqs.dedup();
            reqs.retain(|&r| {
                self.write_hull(Entity::Signal(r))
                    .is_some_and(|h| !h.contains(0))
            });
            acks.sort_unstable();
            acks.dedup();
            for &req in &reqs {
                for &ack in &acks {
                    if req != ack {
                        out.push(HandshakePair {
                            req,
                            ack,
                            server: id,
                        });
                    }
                }
            }
        }
        out
    }

    /// The `DL05` criteria for one handshake pair. All five must hold:
    ///
    /// 1. joined over every write, the request line can never go back
    ///    to zero (the release was dropped);
    /// 2. some must-executed path raises the request and then waits for
    ///    a grant (a wait that is false while `ack` is low);
    /// 3. the same path later waits for the release (a wait that is
    ///    false while `ack` is high);
    /// 4. only the server drives `ack`;
    /// 5. every write that could lower `ack` is dominated by a server
    ///    wait that is false while the request is held high.
    ///
    /// Under these, whichever way arbitration goes the spec hangs: never
    /// granted leaves the requester at its grant wait; granted leaves the
    /// server stuck re-arbitrating on a request that stays high, so the
    /// acknowledge never drops and the requester's release wait blocks.
    fn check_handshake(
        &self,
        pair: &HandshakePair,
        leaf_events: &[(BehaviorId, Vec<Ev<'_>>)],
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let spec = self.spec;
        let ack_sites = self.writes(Entity::Signal(pair.ack));
        // (1) the request line, once raised, stays raised: the hull of
        // everything ever written to it excludes zero.
        let Some(post) = self.write_hull(Entity::Signal(pair.req)) else {
            return out;
        };
        if ack_sites.is_empty() || post.contains(0) {
            return out;
        }
        // (4) only the server drives the acknowledge line.
        let Some(&server_bi) = self.behavior_body.get(&pair.server) else {
            return out;
        };
        if ack_sites.iter().any(|&i| self.sites[i].body != server_bi) {
            return out;
        }
        // (5) each possibly-zero ack write sits behind a server wait that
        // is false while the request is held (the re-arbitration wait).
        let cfg = &self.bodies[server_bi].cfg;
        let guard: Vec<bool> = cfg
            .nodes
            .iter()
            .map(|cn| match cn.stmt {
                Some(Stmt::Wait(WaitCond::Until(cond))) => {
                    absint::eval_with(cond, &self.full, &[(pair.req, post)]).definitely_false()
                }
                _ => false,
            })
            .collect();
        if !guard.contains(&true) {
            return out;
        }
        let mut seen = vec![false; cfg.nodes.len()];
        let mut stack = vec![cfg.entry];
        seen[cfg.entry] = true;
        while let Some(n) = stack.pop() {
            if guard[n] {
                continue;
            }
            for &s in cfg.succs(n) {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        let lowering_escapes = ack_sites
            .iter()
            .any(|&i| self.sites[i].hull.contains(0) && seen[self.sites[i].node]);
        if lowering_escapes {
            return out;
        }
        // (2)+(3): a must-executed raise followed by a grant wait and a
        // release wait.
        let low = [(pair.ack, Interval::exact(0))];
        let high = [(pair.ack, Interval::exact(1))];
        for (leaf, events) in leaf_events {
            let mut raise: Option<Option<Span>> = None;
            let mut granted = false;
            for ev in events {
                match ev {
                    Ev::SigSet { sig, hull, span }
                        if *sig == pair.req && !hull.contains(0) && raise.is_none() =>
                    {
                        raise = Some(*span);
                    }
                    Ev::Wait { cond } if raise.is_some() => {
                        if !granted {
                            granted = absint::eval_with(cond, &self.full, &low).definitely_false();
                        } else if absint::eval_with(cond, &self.full, &high).definitely_false() {
                            // Full acquire/grant/release shape found.
                            let leaf_name = spec.behavior(*leaf).name().to_string();
                            out.push(
                                Diagnostic::new(
                                    "DL05",
                                    Severity::Error,
                                    format!(
                                        "`{leaf_name}` raises request `{}` and waits on `{}` \
                                         for grant and release, but nothing ever drives `{}` \
                                         low again — the arbiter `{}` can never re-arbitrate \
                                         and the release wait blocks forever",
                                        spec.signal(pair.req).name(),
                                        spec.signal(pair.ack).name(),
                                        spec.signal(pair.req).name(),
                                        spec.behavior(pair.server).name(),
                                    ),
                                )
                                .with_span(raise.flatten())
                                .with_object(leaf_name)
                                .with_fix(format!(
                                    "release the bus: drive `{}` low after the transaction",
                                    spec.signal(pair.req).name()
                                )),
                            );
                            raise = None;
                            granted = false;
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }
}

/// Entities a wait condition reads (variables and signals).
fn cond_entities(cond: &Expr) -> Vec<Entity> {
    let mut out: Vec<Entity> = cond.reads().into_iter().map(Entity::Var).collect();
    out.extend(cond.signal_reads().into_iter().map(Entity::Signal));
    out.sort_unstable_by_key(|e| match e {
        Entity::Var(v) => (0u8, v.index()),
        Entity::Signal(s) => (1u8, s.index()),
    });
    out.dedup();
    out
}

/// Tarjan's strongly connected components of a graph given as
/// adjacency lists.
fn tarjan_scc(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0usize;
    let mut comps: Vec<Vec<usize>> = Vec::new();
    // Iterative Tarjan: (node, edge cursor).
    let mut work: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        work.push((start, 0));
        while let Some(&mut (v, ref mut ei)) = work.last_mut() {
            if *ei == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = edges[v].get(*ei) {
                *ei += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
                work.pop();
                if let Some(&mut (p, _)) = work.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    comps
}

/// Behaviors that are activated on every run: the top, all children of
/// must-activated concurrent composites, and the forced transition
/// chains of must-activated sequential composites.
fn must_active(spec: &Spec, ranges: &Ranges) -> HashSet<BehaviorId> {
    let mut out = HashSet::new();
    let Some(top) = spec.top_opt() else {
        return out;
    };
    let mut stack = vec![top];
    while let Some(id) = stack.pop() {
        if !out.insert(id) {
            continue;
        }
        let b = spec.behavior(id);
        match b.kind() {
            BehaviorKind::Leaf { .. } => {}
            BehaviorKind::Concurrent { children } => stack.extend(children.iter().copied()),
            BehaviorKind::Seq {
                children,
                transitions,
            } => {
                let Some(&first) = children.first() else {
                    continue;
                };
                let mut cur = first;
                let mut seen = HashSet::new();
                loop {
                    if !seen.insert(cur) {
                        break;
                    }
                    stack.push(cur);
                    // First-matching-arc semantics, statically: arcs in
                    // order, unconditional or provably-true fires,
                    // provably-false is skipped, unknown stops the
                    // forced chain.
                    let mut next = None;
                    let mut unknown = false;
                    for arc in transitions.iter().filter(|t| t.from == cur) {
                        match &arc.cond {
                            None => {
                                next = Some(arc.to.clone());
                                break;
                            }
                            Some(e) => {
                                let iv = absint::eval(e, ranges);
                                if iv.definitely_true() {
                                    next = Some(arc.to.clone());
                                    break;
                                }
                                if !iv.definitely_false() {
                                    unknown = true;
                                    break;
                                }
                            }
                        }
                    }
                    if unknown {
                        break;
                    }
                    match next {
                        Some(TransitionTarget::Behavior(t)) => cur = t,
                        Some(TransitionTarget::Complete) => break,
                        // No arc fires: control falls through to the
                        // next child in declaration order.
                        None => {
                            let pos = children.iter().position(|&c| c == cur);
                            match pos.and_then(|i| children.get(i + 1)) {
                                Some(&n) => cur = n,
                                None => break,
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Whether a block can consume simulation time: any wait or delay, or a
/// call (whose body might wait). A loop without any of these spins at
/// one simulation instant forever.
fn can_pass_time(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| {
        matches!(s, Stmt::Wait(_) | Stmt::Delay(_) | Stmt::Call { .. })
            || s.bodies().iter().any(|b| can_pass_time(b))
    })
}

/// An event on a must-executed path, for the `DL05` scan.
enum Ev<'a> {
    /// `set sig := value` with the value's hull.
    SigSet {
        sig: SignalId,
        hull: Interval,
        span: Option<Span>,
    },
    /// `wait until (cond)`.
    Wait { cond: &'a Expr },
}

/// The must-reach walker: flags `DL01`–`DL04` inline and records the
/// event stream for the handshake check. Statements are addressed by
/// their CFG node, which follows the statement tree in preorder.
struct Walk<'a, 'b> {
    e: &'b Engine<'a>,
    dead: &'b [bool],
    cycles: &'b HashMap<usize, String>,
    call_stack: Vec<SubroutineId>,
    events: Vec<Ev<'a>>,
    diags: Vec<Diagnostic>,
}

impl<'a> Walk<'a, '_> {
    /// Walks one block whose first statement is node `first` of body
    /// `bi`; returns `false` when control provably never passes beyond
    /// it (an infinite loop was entered).
    fn block(&mut self, bi: usize, stmts: &'a [Stmt], first: NodeId) -> bool {
        let full = &self.e.full;
        let mut node = first;
        for s in stmts {
            let cn = &self.e.bodies[bi].cfg.nodes[node];
            debug_assert!(cn.stmt.is_some_and(|st| std::ptr::eq(st, s)));
            let next = cn.end;
            match s {
                Stmt::Wait(WaitCond::Until(cond)) => {
                    self.flag_wait(bi, node, cond);
                    self.events.push(Ev::Wait { cond });
                }
                Stmt::SignalSet { signal, value } => {
                    self.events.push(Ev::SigSet {
                        sig: *signal,
                        hull: absint::eval(value, full),
                        span: cn.span,
                    });
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let iv = absint::eval(cond, full);
                    if iv.definitely_true() {
                        if !self.block(bi, then_body, node + 1) {
                            return false;
                        }
                    } else if iv.definitely_false() {
                        // The else block's nodes follow the then block's.
                        let nodes = &self.e.bodies[bi].cfg.nodes;
                        let else_first = then_body.iter().fold(node + 1, |n, _| nodes[n].end);
                        if !self.block(bi, else_body, else_first) {
                            return false;
                        }
                    }
                    // Unknown guard: neither branch is must-executed,
                    // but control always rejoins after the `if`.
                }
                Stmt::While { cond, body, .. } => {
                    let iv = absint::eval(cond, full);
                    if iv.definitely_true() {
                        // No write anywhere can falsify the guard: the
                        // loop never exits. Without a wait or delay it
                        // additionally never yields -> DL03.
                        if !can_pass_time(body) {
                            self.flag_dl03(bi, node, "while", cond);
                            return false;
                        }
                        self.block(bi, body, node + 1);
                        return false;
                    }
                    // Possibly-zero guard: body is not must-executed,
                    // and the walk passes through (either the loop
                    // terminates or the run is already doomed).
                }
                Stmt::For { from, to, body, .. } => {
                    let f = absint::eval(from, full);
                    let t = absint::eval(to, full);
                    // `for` runs `from < to` iterations; the body is
                    // must-executed when that holds for every value.
                    if f.hi < t.lo && !self.block(bi, body, node + 1) {
                        return false;
                    }
                }
                Stmt::Loop { body } => {
                    if !can_pass_time(body) {
                        self.flag_dl03(bi, node, "loop", &Expr::Lit(1));
                        return false;
                    }
                    // The first iteration is must-executed; nothing
                    // after an infinite loop ever runs.
                    self.block(bi, body, node + 1);
                    return false;
                }
                Stmt::Call { sub, .. } => {
                    if !self.call_stack.contains(sub) {
                        if let Some(&sbi) = self.e.sub_body.get(sub) {
                            self.call_stack.push(*sub);
                            let through = self.block(sbi, self.e.bodies[sbi].stmts, Cfg::FIRST);
                            self.call_stack.pop();
                            if !through {
                                return false;
                            }
                        }
                    }
                }
                Stmt::Assign { .. }
                | Stmt::Wait(WaitCond::For(_))
                | Stmt::Delay(_)
                | Stmt::Skip => {}
            }
            node = next;
        }
        true
    }

    fn flag_dl03(&mut self, bi: usize, node: NodeId, kind: &str, cond: &Expr) {
        let body = &self.e.bodies[bi];
        let detail = if kind == "while" {
            format!(
                " (`{}` is always true and nothing ever falsifies it)",
                expr_to_string(self.e.spec, cond)
            )
        } else {
            String::new()
        };
        self.diags.push(
            Diagnostic::new(
                "DL03",
                Severity::Error,
                format!(
                    "infinite `{kind}` in `{}` contains no wait or delay: it spins forever \
                     at one simulation instant{detail}",
                    body.name
                ),
            )
            .with_span(body.cfg.nodes[node].span)
            .with_object(body.name)
            .with_fix("add a `wait` or `delay` inside the loop, or bound it".to_string()),
        );
    }

    fn flag_wait(&mut self, bi: usize, node: NodeId, cond: &'a Expr) {
        let spec = self.e.spec;
        let body = &self.e.bodies[bi];
        let span = body.cfg.nodes[node].span;
        // DL02: the condition needs a signal that no process ever
        // writes — the forgotten half of a handshake. The check is
        // precise: freeze only the unwritten signals at their initial
        // values, leave everything written unconstrained, and show the
        // condition still cannot hold. DL02 is checked before DL01
        // because it names the actual culprit.
        let unwritten: Vec<SignalId> = cond
            .signal_reads()
            .into_iter()
            .filter(|&s| self.e.writes(Entity::Signal(s)).is_empty())
            .collect();
        if !unwritten.is_empty() {
            let mut loose = Ranges {
                vars: vec![Interval::TOP; spec.variables().count()],
                signals: vec![Interval::TOP; spec.signals().count()],
            };
            for &s in &unwritten {
                loose.signals[s.index()] = Interval::exact(spec.signal(s).init());
            }
            if absint::eval(cond, &loose).definitely_false() {
                let name = spec.signal(unwritten[0]).name();
                self.diags.push(
                    Diagnostic::new(
                        "DL02",
                        Severity::Error,
                        format!(
                            "wait in `{}` blocks forever: no process ever writes signal \
                             `{name}` (condition `{}`)",
                            body.name,
                            expr_to_string(spec, cond)
                        ),
                    )
                    .with_span(span)
                    .with_object(name)
                    .with_fix(format!("drive `{name}` from a concurrent process")),
                );
                return;
            }
        }
        // DL01: the condition is value-impossible — no reachable write
        // anywhere can produce a satisfying valuation.
        if absint::eval(cond, &self.e.full).definitely_false() {
            self.diags.push(
                Diagnostic::new(
                    "DL01",
                    Severity::Error,
                    format!(
                        "wait in `{}` can never be enabled: `{}` is false for every \
                         value any write can produce",
                        body.name,
                        expr_to_string(spec, cond)
                    ),
                )
                .with_span(span)
                .with_object(body.name)
                .with_fix("fix the condition or add a write that can satisfy it".to_string()),
            );
            return;
        }
        let Some(w) = self.e.wait_at[body.base + node] else {
            return;
        };
        if !self.dead[w] {
            return;
        }
        // DL04: writers exist, but every one is trapped behind a wait
        // that is itself dead — report the cycle when there is one.
        let cond_text = expr_to_string(spec, cond);
        let message = match self.cycles.get(&w) {
            Some(names) => format!(
                "circular wait deadlock: `{}` waits on `{cond_text}`, but every write that \
                 could satisfy it is blocked behind the waits of `{names}`",
                body.name
            ),
            None => format!(
                "wait in `{}` blocks forever: every write that could satisfy `{cond_text}` \
                 sits behind a wait that itself never passes",
                body.name
            ),
        };
        self.diags.push(
            Diagnostic::new("DL04", Severity::Error, message)
                .with_span(span)
                .with_object(body.name)
                .with_fix(
                    "break the cycle: reorder the handshake so one side signals first".to_string(),
                ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_spec::parser::parse_with_spans;

    fn lints(src: &str) -> Vec<Diagnostic> {
        let (spec, map) = parse_with_spans(src).expect("syntax ok");
        let mut diags = deadlock_lints(&spec, Some(&map), &[]);
        crate::diag::sort_canonical(&mut diags);
        diags
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_ping_pong_handshake_is_silent() {
        let diags = lints(
            "spec s;\nsignal a : bit = 0;\nsignal b : bit = 0;\n\
             behavior P1 leaf { set a := 1; wait until (b == 1); }\n\
             behavior P2 leaf { wait until (a == 1); set b := 1; }\n\
             behavior T conc { children { P1; P2; } }\ntop T;\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dl01_value_impossible_wait() {
        let diags = lints(
            "spec s;\nsignal d : int<8> = 0;\n\
             behavior P1 leaf { set d := 1; }\n\
             behavior P2 leaf { wait until (d == 2); }\n\
             behavior T conc { children { P1; P2; } }\ntop T;\n",
        );
        assert_eq!(codes(&diags), ["DL01"], "{diags:?}");
        assert!(diags[0].message.contains("d == 2"), "{diags:?}");
        assert!(diags[0].span.is_some());
    }

    #[test]
    fn dl02_wait_on_unwritten_signal() {
        let diags = lints(
            "spec s;\nsignal rdy : bit = 0;\n\
             behavior P leaf { wait until (rdy == 1); }\ntop P;\n",
        );
        assert_eq!(codes(&diags), ["DL02"], "{diags:?}");
        assert_eq!(diags[0].object.as_deref(), Some("rdy"));
    }

    #[test]
    fn dl03_busy_loop_and_constant_while() {
        let diags = lints(
            "spec s;\nvar x : int<16> = 0;\n\
             behavior P leaf { loop { x := x + 1; } }\ntop P;\n",
        );
        assert_eq!(codes(&diags), ["DL03"], "{diags:?}");
        let diags = lints(
            "spec s;\nvar x : int<16> = 0;\n\
             behavior P leaf { while (0 == 0) { x := x + 1; } }\ntop P;\n",
        );
        assert_eq!(codes(&diags), ["DL03"], "{diags:?}");
        // A loop that lets time pass is a server pattern, not a defect.
        let diags = lints(
            "spec s;\nvar x : int<16> = 0;\n\
             behavior P leaf { loop { delay 1; x := x + 1; } }\ntop P;\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dl04_crossed_waits_name_both_parties() {
        let diags = lints(
            "spec s;\nsignal sa : bit = 0;\nsignal sb : bit = 0;\n\
             behavior P1 leaf { wait until (sb == 1); set sa := 1; }\n\
             behavior P2 leaf { wait until (sa == 1); set sb := 1; }\n\
             behavior T conc { children { P1; P2; } }\ntop T;\n",
        );
        assert_eq!(codes(&diags), ["DL04", "DL04"], "{diags:?}");
        for d in &diags {
            assert!(d.message.contains("circular wait"), "{d:?}");
            assert!(
                d.message.contains("P1") && d.message.contains("P2"),
                "{d:?}"
            );
        }
    }

    const FOUR_PHASE_NO_RELEASE: &str = "spec s;\n\
        signal req : bit = 0;\nsignal ack : bit = 0;\nvar data : int<16> = 0;\n\
        behavior M leaf { set req := 1; wait until (ack == 1); data := 5; \
        wait until (ack == 0); }\n\
        behavior A leaf server { loop { wait until (req == 1); set ack := 1; \
        wait until (req == 0); set ack := 0; } }\n\
        behavior T conc { children { M; A; } }\ntop T;\n";

    #[test]
    fn dl05_missing_release_is_flagged_and_inferred() {
        let diags = lints(FOUR_PHASE_NO_RELEASE);
        assert_eq!(codes(&diags), ["DL05"], "{diags:?}");
        assert!(diags[0].message.contains("req"), "{diags:?}");
        assert_eq!(diags[0].object.as_deref(), Some("M"));
    }

    #[test]
    fn dl05_explicit_pair_dedups_with_inference() {
        let (spec, map) = parse_with_spans(FOUR_PHASE_NO_RELEASE).expect("syntax ok");
        let pair = HandshakePair {
            req: spec.signal_by_name("req").unwrap(),
            ack: spec.signal_by_name("ack").unwrap(),
            server: spec.behavior_by_name("A").unwrap(),
        };
        let diags = deadlock_lints(&spec, Some(&map), &[pair]);
        assert_eq!(codes(&diags), ["DL05"], "{diags:?}");
    }

    #[test]
    fn dl05_silent_when_release_present() {
        let diags = lints(
            "spec s;\n\
             signal req : bit = 0;\nsignal ack : bit = 0;\nvar data : int<16> = 0;\n\
             behavior M leaf { set req := 1; wait until (ack == 1); data := 5; \
             set req := 0; wait until (ack == 0); }\n\
             behavior A leaf server { loop { wait until (req == 1); set ack := 1; \
             wait until (req == 0); set ack := 0; } }\n\
             behavior T conc { children { M; A; } }\ntop T;\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn servers_are_never_flagged() {
        let diags = lints(
            "spec s;\nsignal go : bit = 0;\n\
             behavior A leaf server { wait until (go == 1); }\n\
             behavior M leaf { skip; }\n\
             behavior T conc { children { M; A; } }\ntop T;\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn seq_transition_guards_gate_must_activation() {
        // Unconditionally-true guard: L2 runs on every execution, so its
        // dead wait is flagged.
        let diags = lints(
            "spec s;\nsignal u : bit = 0;\nsignal go : bit = 0;\n\
             behavior L1 leaf { skip; }\n\
             behavior L2 leaf { wait until (go == 1); }\n\
             behavior T seq { children { L1; L2; } \
             transitions { L1 -> L2 when (u == 0); } }\ntop T;\n",
        );
        assert_eq!(codes(&diags), ["DL02"], "{diags:?}");
        // Statically-unknown guard: L2 is not must-activated, so the
        // same wait stays unflagged (soundness before completeness).
        let diags = lints(
            "spec s;\nvar c : int<8> = 0;\nsignal go : bit = 0;\n\
             behavior L1 leaf { c := 1; }\n\
             behavior L2 leaf { wait until (go == 1); }\n\
             behavior T seq { children { L1; L2; } \
             transitions { L1 -> L2 when (c == 1); } }\ntop T;\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn wait_after_possibly_terminating_while_is_still_flagged() {
        // The walk passes through an unknown-guard `while`: either the
        // loop exits and the dead wait is reached, or the loop never
        // exits and the behavior diverges — both verdicts are
        // non-completions, so flagging stays sound.
        let diags = lints(
            "spec s;\nvar c : int<8> = 0;\nsignal go : bit = 0;\n\
             behavior P leaf { while (c == 0) { c := 1; } \
             wait until (go == 1); }\ntop P;\n",
        );
        assert_eq!(codes(&diags), ["DL02"], "{diags:?}");
    }

    /// A chain of `k` handshakes: `Start` raises `s0`, and stage `i`
    /// waits for `s{i-1}` before raising `s{i}`. `reversed` declares
    /// the stages last-first.
    fn chain(k: usize, reversed: bool) -> String {
        let mut stages: Vec<String> = (1..=k)
            .map(|i| {
                format!(
                    "behavior S{i} leaf {{ wait until (s{} == 1); set s{i} := 1; }}\n",
                    i - 1
                )
            })
            .collect();
        if reversed {
            stages.reverse();
        }
        let names: Vec<String> = (1..=k).map(|i| format!("S{i}; ")).collect();
        format!(
            "spec s;\n{}behavior Start leaf {{ set s0 := 1; }}\n{}\
             behavior T conc {{ children {{ Start; {}}} }}\ntop T;\n",
            (0..=k)
                .map(|i| format!("signal s{i} : bit = 0;\n"))
                .collect::<String>(),
            stages.concat(),
            names.concat()
        )
    }

    /// Wait-condition evaluations of the dead-wait fixpoint on `src`,
    /// which must leave no wait dead.
    fn wait_evals(src: &str) -> u64 {
        let (spec, _) = parse_with_spans(src).expect("syntax ok");
        let mut evals = Tally::new(modref_obs::counter("analyze.dl.wait_evals"));
        let dead = Engine::new(&spec, None).dead_waits(&mut evals);
        assert!(dead.iter().all(|&d| !d), "every stage passes");
        evals.get()
    }

    #[test]
    fn wait_evaluations_grow_linearly_along_a_handshake_chain() {
        // Round-based iteration re-evaluates every dead wait each round
        // and revives one stage per round: k rounds x k waits. The
        // worklist evaluates each wait once, plus once more when the
        // signal it reads widens after its first evaluation.
        for k in [4, 16, 64] {
            assert_eq!(wait_evals(&chain(k, false)), k as u64, "k = {k}");
            assert_eq!(wait_evals(&chain(k, true)), 2 * k as u64 - 1, "k = {k}");
        }
        assert!(lints(&chain(8, true)).is_empty());
    }

    #[test]
    fn waits_inside_called_subroutines_are_flagged() {
        let diags = lints(
            "spec s;\nsignal go : bit = 0;\n\
             subroutine helper() { wait until (go == 1); }\n\
             behavior P leaf { call helper(); }\ntop P;\n",
        );
        assert_eq!(codes(&diags), ["DL02"], "{diags:?}");
    }
}
