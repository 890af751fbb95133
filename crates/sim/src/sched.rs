//! The event scheduler behind both the event-driven and the compiled
//! kernels.
//!
//! One scheduler owns everything about *when* processes run; a small
//! [`Backend`] decides *how* a dispatched process executes until it
//! blocks. The interpreter backend
//! ([`Interpreter`](crate::process::Interpreter)) micro-steps the
//! zero-copy AST [`Process`](crate::process); the bytecode backend
//! ([`Bytecode`](crate::compile::exec::Bytecode)) resumes a program
//! counter over the flat code of [`crate::compile`]. Because the
//! schedule is shared, the two kernels' work counters (`rounds`,
//! `cond_evals`, `wakeups`, `timer_pops`, `dispatches`) are equal by
//! construction.
//!
//! Each round:
//!
//! 1. **Dispatch** every ready process in ascending pid order until it
//!    blocks, sleeps, spawns or completes. Children spawn with larger
//!    pids, so appending them keeps the order the round-robin reference
//!    uses.
//! 2. **Wake** processes whose `wait until` conditions may have changed:
//!    only waiters registered against a variable or signal written this
//!    round (the dirty sets maintained by [`SharedState`]) re-evaluate.
//!    Composites whose last counted (non-server) child completed wake
//!    too, and their servers are then killed recursively.
//! 3. Only when nothing woke, **advance time** to the earliest sleeper
//!    from the timer heap, or report a deadlock when there is none.
//!
//! Waiter registration is *sticky*: a `(pid, site)` pair enters each of
//! the site's waiter lists at most once per run, and an entry is live
//! exactly while its process still waits at that site. Re-blocking at
//! the same site (the server-loop steady state) therefore costs nothing.
//! Entries of finished processes are pruned as scans meet them. Timer
//! entries are validated the same way: one is live only while its
//! process still sleeps until exactly that time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use modref_spec::{BehaviorId, Expr, Spec};

use crate::error::SimError;
use crate::process::SharedState;
use crate::result::{
    SimResult, METER_NAMES, SLOT_COND_EVALS, SLOT_DISPATCHES, SLOT_INSTRS, SLOT_ROUNDS,
    SLOT_TIMER_POPS, SLOT_WAKEUPS,
};
use crate::sensitivity::SensitivitySet;
use crate::simulator::SimConfig;

/// Scheduling status of a process. `W` names a `wait until` site: the
/// scheduler uses interned site ids, the round-robin reference the
/// condition expression itself.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Status<W> {
    Ready,
    /// Blocked on `wait until`; re-evaluated when a sensitivity changes.
    WaitUntil(W),
    /// Sleeping until the given absolute time.
    WaitTime(u64),
    /// Waiting for spawned child processes (by process index) to finish.
    WaitChildren(Vec<usize>),
    Done,
}

/// Why a dispatched process stopped running.
#[derive(Debug)]
pub(crate) enum Yield<'s> {
    /// Blocked at a `wait until` site whose condition is false.
    WaitUntil(u32),
    /// Sleeping until the given absolute time.
    Sleep(u64),
    /// A concurrent composite: start these children and wait for them.
    Spawn(&'s [BehaviorId]),
    /// The process's behavior completed.
    Done,
}

/// A wait site's sensitivity set as slot indices: the variable and
/// signal waiter lists a process blocked at the site registers in. An
/// empty set means the condition is constant while blocked — it was
/// false, stays false, and only the deadlock report will ever see it.
#[derive(Debug, Clone)]
pub(crate) struct WaitSlots {
    pub vars: Box<[u32]>,
    pub sigs: Box<[u32]>,
}

impl WaitSlots {
    pub(crate) fn of(cond: &Expr) -> Self {
        let s = SensitivitySet::of(cond);
        Self {
            vars: s.vars.iter().map(|v| v.index() as u32).collect(),
            sigs: s.signals.iter().map(|g| g.index() as u32).collect(),
        }
    }
}

/// The absolute time a `wait for delay` issued at `now` wakes at.
///
/// # Errors
///
/// [`SimError::TimeOverflow`] past `u64::MAX`.
pub(crate) fn wake_time(now: u64, delay: u64) -> Result<u64, SimError> {
    now.checked_add(delay)
        .ok_or(SimError::TimeOverflow { time: now, delay })
}

/// How the scheduler executes processes. `'s` is the lifetime of the
/// data spawn groups are borrowed from (the spec or the compiled
/// program).
pub(crate) trait Backend<'s> {
    /// One process's execution state.
    type Proc;

    /// A process about to start executing `behavior`.
    fn start(&self, behavior: BehaviorId) -> Self::Proc;

    /// Runs `proc` until it blocks, sleeps, spawns or completes. Every
    /// micro-step counts against `steps`, failing past `max_steps`.
    fn run(
        &mut self,
        proc: &mut Self::Proc,
        state: &mut SharedState,
        now: u64,
        steps: &mut u64,
        max_steps: u64,
    ) -> Result<Yield<'s>, SimError>;

    /// Evaluates the condition of wait `site` in `proc`'s context.
    fn holds(
        &mut self,
        proc: &Self::Proc,
        site: u32,
        state: &SharedState,
    ) -> Result<bool, SimError>;

    /// The sensitivity of wait `site`.
    fn wait_slots(&self, site: u32) -> &WaitSlots;
}

/// One process as the scheduler sees it.
#[derive(Debug)]
struct Slot<P> {
    proc: P,
    behavior: BehaviorId,
    status: Status<u32>,
    is_server: bool,
    parent: Option<usize>,
    /// Children not yet completed, servers excluded.
    pending: usize,
    /// Process indices of children this process spawned (for recursive
    /// termination when a composite completes past its servers).
    spawned: Vec<usize>,
    /// Wait sites whose waiter lists already hold this process.
    registered: Vec<u32>,
    /// Queued for re-evaluation this round (deduplicates the scans).
    seen: bool,
}

impl<P> Slot<P> {
    fn new(spec: &Spec, proc: P, behavior: BehaviorId, parent: Option<usize>) -> Self {
        Self {
            proc,
            behavior,
            status: Status::Ready,
            is_server: spec.behavior(behavior).is_server(),
            parent,
            pending: 0,
            spawned: Vec::new(),
            registered: Vec::new(),
            seen: false,
        }
    }
}

/// Queues the live waiters of one waiter list for re-evaluation. An
/// entry is live iff its process still waits at the site that
/// registered it; entries of finished processes are dropped (spawn-heavy
/// specs retire processes continuously, and without pruning every scan
/// would keep walking them). Pruning reorders the list, which only
/// permutes the re-evaluation order: conditions are read-only and the
/// woken set is sorted before dispatch, so the schedule is unchanged.
fn scan<P>(list: &mut Vec<(usize, u32)>, slots: &mut [Slot<P>], recheck: &mut Vec<usize>) {
    let mut k = 0;
    while k < list.len() {
        let (p, site) = list[k];
        let slot = &mut slots[p];
        match slot.status {
            Status::Done => {
                list.swap_remove(k);
                continue;
            }
            Status::WaitUntil(s) if s == site && !slot.seen => {
                slot.seen = true;
                recheck.push(p);
            }
            _ => {}
        }
        k += 1;
    }
}

/// Records wake events in dispatch (pid) order (no-op untraced).
fn trace_wakes<P>(state: &mut SharedState, slots: &[Slot<P>], pids: &[usize]) {
    if state.trace.is_some() {
        for &pid in pids {
            state.trace_wake(pid, slots[pid].behavior.index());
        }
    }
}

/// Runs `spec` to completion of its top behavior on `backend`.
pub(crate) fn run<'s, B: Backend<'s>>(
    spec: &Spec,
    config: &SimConfig,
    mut backend: B,
) -> Result<SimResult, SimError> {
    let mut state = SharedState::init(spec);
    if config.trace {
        state.enable_trace();
    }
    let top = spec.top();
    state.activations[top.index()] += 1;
    let mut slots = vec![Slot::new(spec, backend.start(top), top, None)];
    let mut now: u64 = 0;
    let mut steps: u64 = 0;
    let mut dispatches: u64 = 0;
    let mut meter = modref_obs::Meter::new(METER_NAMES);

    let mut var_waiters: Vec<Vec<(usize, u32)>> = vec![Vec::new(); spec.variable_count()];
    let mut sig_waiters: Vec<Vec<(usize, u32)>> = vec![Vec::new(); spec.signal_count()];
    let mut timers: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();

    // Round-scratch buffers, reused across rounds.
    let mut ready: Vec<usize> = vec![0];
    let mut woken: Vec<usize> = Vec::new();
    let mut recheck: Vec<usize> = Vec::new();
    let mut finished_parents: Vec<usize> = Vec::new();
    let mut kill_list: Vec<usize> = Vec::new();
    let mut dirty_v: Vec<usize> = Vec::new();
    let mut dirty_s: Vec<usize> = Vec::new();

    loop {
        meter.inc(SLOT_ROUNDS);

        // Phase 1: dispatch each ready process until it leaves Ready. A
        // server woken in the same round its parent completed was killed
        // after the wake; it stays queued but must not run.
        let mut i = 0;
        while i < ready.len() {
            let pid = ready[i];
            i += 1;
            if !matches!(slots[pid].status, Status::Ready) {
                continue;
            }
            dispatches += 1;
            let event = backend.run(
                &mut slots[pid].proc,
                &mut state,
                now,
                &mut steps,
                config.max_steps,
            )?;
            match event {
                Yield::WaitUntil(site) => {
                    let slot = &mut slots[pid];
                    slot.status = Status::WaitUntil(site);
                    if !slot.registered.contains(&site) {
                        slot.registered.push(site);
                        let w = backend.wait_slots(site);
                        for &v in w.vars.iter() {
                            var_waiters[v as usize].push((pid, site));
                        }
                        for &sg in w.sigs.iter() {
                            sig_waiters[sg as usize].push((pid, site));
                        }
                    }
                }
                Yield::Sleep(t) => {
                    slots[pid].status = Status::WaitTime(t);
                    timers.push(Reverse((t, pid)));
                }
                Yield::Done => {
                    let slot = &mut slots[pid];
                    slot.status = Status::Done;
                    if let (Some(par), false) = (slot.parent, slot.is_server) {
                        slots[par].pending -= 1;
                        if slots[par].pending == 0 {
                            finished_parents.push(par);
                        }
                    }
                }
                Yield::Spawn(children) => {
                    let mut ids = Vec::with_capacity(children.len());
                    let mut live = 0;
                    for &c in children {
                        let cid = slots.len();
                        ids.push(cid);
                        state.activations[c.index()] += 1;
                        let child = Slot::new(spec, backend.start(c), c, Some(pid));
                        if !child.is_server {
                            live += 1;
                        }
                        slots.push(child);
                        ready.push(cid);
                    }
                    let slot = &mut slots[pid];
                    slot.spawned.extend(ids.iter().copied());
                    slot.pending = live;
                    slot.status = Status::WaitChildren(ids);
                    if live == 0 {
                        finished_parents.push(pid);
                    }
                }
            }
        }
        ready.clear();

        // Phase 2a: re-evaluate only the conditions whose sensitivities
        // were written this round.
        dirty_v = state.take_dirty_vars(dirty_v);
        for &vi in &dirty_v {
            scan(&mut var_waiters[vi], &mut slots, &mut recheck);
        }
        dirty_s = state.take_dirty_signals(dirty_s);
        for &si in &dirty_s {
            scan(&mut sig_waiters[si], &mut slots, &mut recheck);
        }
        for pid in recheck.drain(..) {
            let slot = &mut slots[pid];
            slot.seen = false;
            let Status::WaitUntil(site) = slot.status else {
                continue;
            };
            meter.inc(SLOT_COND_EVALS);
            if backend.holds(&slot.proc, site, &state)? {
                meter.inc(SLOT_WAKEUPS);
                slot.status = Status::Ready;
                woken.push(pid);
            }
        }

        // Phase 2b: wake composites whose last counted child completed,
        // then terminate their servers (and anything those spawned)
        // recursively. Kills run after all wakes, matching the reference
        // kernel's snapshot-then-kill order.
        for par in finished_parents.drain(..) {
            if let Status::WaitChildren(ids) = &slots[par].status {
                kill_list.extend(ids.iter().copied().filter(|&c| slots[c].is_server));
                slots[par].status = Status::Ready;
                woken.push(par);
            }
        }
        while let Some(k) = kill_list.pop() {
            if !matches!(slots[k].status, Status::Done) {
                slots[k].status = Status::Done;
                kill_list.extend(slots[k].spawned.iter().copied());
            }
        }

        // Termination: root process finished.
        if matches!(slots[0].status, Status::Done) {
            meter.add(SLOT_INSTRS, steps);
            meter.add(SLOT_DISPATCHES, dispatches);
            let trace = state.take_trace();
            return Ok(SimResult::collect(
                spec, &state, now, steps, true, &meter, trace,
            ));
        }

        if !woken.is_empty() {
            // Wakes arrive in notification order; restore pid order for
            // the next round's sweep. Wake events are recorded *after*
            // the sort so the trace shows the dispatch order.
            if woken.len() > 1 {
                woken.sort_unstable();
            }
            trace_wakes(&mut state, &slots, &woken);
            std::mem::swap(&mut ready, &mut woken);
            continue;
        }

        // Phase 3: advance time via the timer heap, discarding stale
        // entries (processes killed or re-scheduled since pushing).
        let next_wake = loop {
            match timers.peek() {
                Some(&Reverse((t, pid))) => {
                    if matches!(slots[pid].status, Status::WaitTime(w) if w == t) {
                        break Some(t);
                    }
                    timers.pop();
                    meter.inc(SLOT_TIMER_POPS);
                }
                None => break None,
            }
        };
        let Some(t) = next_wake else {
            let blocked: Vec<String> = slots
                .iter()
                .filter(|s| !matches!(s.status, Status::Done))
                .map(|s| spec.behavior(s.behavior).name().to_string())
                .collect();
            return Err(SimError::Deadlock { time: now, blocked });
        };
        now = t.max(now);
        state.trace_time(now);
        while let Some(&Reverse((t2, pid))) = timers.peek() {
            if t2 > now {
                break;
            }
            timers.pop();
            meter.inc(SLOT_TIMER_POPS);
            if matches!(slots[pid].status, Status::WaitTime(w) if w == t2) {
                slots[pid].status = Status::Ready;
                ready.push(pid);
            }
        }
        if ready.len() > 1 {
            ready.sort_unstable();
        }
        trace_wakes(&mut state, &slots, &ready);
    }
}
