//! The simulator front end and its three kernels: the compiled bytecode
//! kernel (the default), the event-driven interpreter, and the original
//! polling round-robin scheduler, retained as a behavioral reference.
//!
//! All kernels implement the same delta-cycle semantics — step every
//! ready process to a block point, then wake processes whose wait
//! conditions came true, then (only when nothing woke) advance time to
//! the earliest sleeper — and produce identical observable results. They
//! differ in how the wake phase finds candidates and in how statements
//! execute:
//!
//! * **Round-robin** re-evaluates *every* blocked `wait until`
//!   condition and rescans *every* process's child/server status each
//!   round, so a round costs O(total processes).
//! * **Event-driven** and **Compiled** share one event scheduler
//!   (`crate::sched`): blocked conditions register against their
//!   [sensitivity sets](crate::sensitivity) in per-variable/per-signal
//!   waiter lists and are re-evaluated only when something they read was
//!   written, sleepers sit in a timer heap, and composites count their
//!   pending children. Event-driven runs behaviors on the tree-walking
//!   interpreter ([`crate::process`]); Compiled runs them as flat
//!   bytecode produced by the [`compile`](crate::compile) lowering
//!   pipeline — see that module for the instruction set and the
//!   step-parity guarantee.

use modref_spec::{BehaviorId, Expr, Spec};

use crate::compile::exec::Bytecode;
use crate::error::SimError;
use crate::process::{Interpreter, Process, SharedState, StepEvent};
use crate::result::{
    SimResult, METER_NAMES, SLOT_COND_EVALS, SLOT_ROUNDS, SLOT_TIMER_POPS, SLOT_WAKEUPS,
};
use crate::sched::{self, Status};
use crate::value::truthy;

/// Which scheduling kernel executes the specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimKernel {
    /// The event scheduler running behaviors on the tree-walking
    /// interpreter.
    EventDriven,
    /// The original polling scheduler: every round re-evaluates every
    /// blocked condition. Kept as an executable reference for
    /// equivalence testing and as the bench baseline.
    RoundRobin,
    /// The event scheduler running behaviors lowered to flat bytecode
    /// with slot-interned state (see [`crate::compile`]) — the fastest
    /// kernel on every benched workload, and the default.
    #[default]
    Compiled,
}

impl SimKernel {
    /// Parses a kernel name as used by `modref simulate --kernel`, the
    /// serve wire protocol and bench tooling. Accepts the canonical
    /// short names (`event`, `roundrobin`, `compiled`) and the
    /// hyphenated display forms.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "event" | "event-driven" => Some(Self::EventDriven),
            "roundrobin" | "round-robin" => Some(Self::RoundRobin),
            "compiled" => Some(Self::Compiled),
            _ => None,
        }
    }

    /// The kernel's display name (also the `sim.run` span attribute).
    pub fn name(self) -> &'static str {
        match self {
            Self::EventDriven => "event-driven",
            Self::RoundRobin => "round-robin",
            Self::Compiled => "compiled",
        }
    }
}

/// Simulation limits and options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Global micro-step budget; exceeding it aborts with
    /// [`SimError::StepLimitExceeded`].
    pub max_steps: u64,
    /// Which scheduler kernel to run.
    pub kernel: SimKernel,
    /// Record a full event trace (see [`crate::trace`]) onto
    /// [`SimResult::trace`](crate::SimResult). Off by default; the
    /// disabled cost is one discriminant check per write.
    pub trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            max_steps: 5_000_000,
            kernel: SimKernel::default(),
            trace: false,
        }
    }
}

/// A round-robin process: the interpreter's frames plus the scheduling
/// state the polling loop keeps beside them.
#[derive(Debug)]
struct RrProcess<'a> {
    proc: Process<'a>,
    behavior: BehaviorId,
    status: Status<&'a Expr>,
    /// Servers (infinite service loops) do not hold up their parent
    /// composite's completion.
    is_server: bool,
    /// Children this process spawned, for recursive server termination.
    spawned: Vec<usize>,
}

impl<'a> RrProcess<'a> {
    fn new(spec: &'a Spec, behavior: BehaviorId) -> Self {
        Self {
            proc: Process::new(spec, behavior),
            behavior,
            status: Status::Ready,
            is_server: spec.behavior(behavior).is_server(),
            spawned: Vec::new(),
        }
    }
}

/// Executes a specification.
///
/// See the [crate documentation](crate) for semantics and an example.
#[derive(Debug)]
pub struct Simulator<'a> {
    spec: &'a Spec,
    config: SimConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over `spec` with default limits.
    pub fn new(spec: &'a Spec) -> Self {
        Self {
            spec,
            config: SimConfig::default(),
        }
    }

    /// Creates a simulator with explicit limits.
    pub fn with_config(spec: &'a Spec, config: SimConfig) -> Self {
        Self { spec, config }
    }

    /// Runs the simulation to completion of the top behavior.
    ///
    /// # Errors
    ///
    /// * [`SimError::StepLimitExceeded`] on zero-time livelock,
    /// * [`SimError::Deadlock`] when all live processes block forever,
    /// * evaluation errors (out-of-bounds indices, unbound parameters).
    pub fn run(&self) -> Result<SimResult, SimError> {
        let _span = modref_obs::span("sim.run").attr("kernel", self.config.kernel.name());
        let (spec, config) = (self.spec, &self.config);
        match config.kernel {
            SimKernel::EventDriven => sched::run(spec, config, Interpreter::new(spec)),
            SimKernel::RoundRobin => self.run_round_robin(),
            SimKernel::Compiled => {
                let program = crate::compile::compile(spec);
                sched::run(spec, config, Bytecode::new(spec, &program))
            }
        }
    }

    /// The reference round-robin kernel (the original polling scheduler).
    fn run_round_robin(&self) -> Result<SimResult, SimError> {
        let spec = self.spec;
        let mut state = SharedState::init(spec);
        if self.config.trace {
            state.enable_trace();
        }
        state.activations[spec.top().index()] += 1;
        let mut processes = vec![RrProcess::new(spec, spec.top())];
        let mut now: u64 = 0;
        let mut steps: u64 = 0;
        let mut meter = modref_obs::Meter::new(METER_NAMES);

        loop {
            meter.inc(SLOT_ROUNDS);
            // Phase 1: step every Ready process until it blocks/completes.
            let mut pid = 0;
            while pid < processes.len() {
                while matches!(processes[pid].status, Status::Ready) {
                    steps += 1;
                    if steps > self.config.max_steps {
                        return Err(SimError::StepLimitExceeded {
                            limit: self.config.max_steps,
                        });
                    }
                    let event = processes[pid].proc.step(spec, &mut state, now)?;
                    match event {
                        StepEvent::Progress => {}
                        StepEvent::WaitUntil(cond) => {
                            processes[pid].status = Status::WaitUntil(cond);
                        }
                        StepEvent::Sleep(t) => processes[pid].status = Status::WaitTime(t),
                        StepEvent::Completed => processes[pid].status = Status::Done,
                        StepEvent::SpawnChildren(children) => {
                            let mut ids = Vec::with_capacity(children.len());
                            for &c in children {
                                ids.push(processes.len());
                                state.activations[c.index()] += 1;
                                processes.push(RrProcess::new(spec, c));
                            }
                            processes[pid].spawned.extend(ids.iter().copied());
                            processes[pid].status = Status::WaitChildren(ids);
                        }
                    }
                }
                pid += 1;
            }

            // Phase 2: wake processes whose conditions came true. A
            // composite waiting on children completes when every
            // *non-server* child is done; its server children (memory
            // modules, arbiters, bus interfaces) are then terminated.
            let mut any_ready = false;
            let child_done: Vec<bool> = processes
                .iter()
                .map(|p| matches!(p.status, Status::Done))
                .collect();
            let child_server: Vec<bool> = processes.iter().map(|p| p.is_server).collect();
            let mut kill_list: Vec<usize> = Vec::new();
            for (pid, p) in processes.iter_mut().enumerate() {
                let wake = match &p.status {
                    Status::WaitUntil(cond) => {
                        meter.inc(SLOT_COND_EVALS);
                        let woke = truthy(p.proc.eval(spec, &state, cond)?);
                        if woke {
                            meter.inc(SLOT_WAKEUPS);
                        }
                        woke
                    }
                    Status::WaitChildren(ids) => {
                        let done = ids.iter().all(|&i| child_done[i] || child_server[i]);
                        if done {
                            kill_list.extend(ids.iter().copied().filter(|&i| child_server[i]));
                        }
                        done
                    }
                    _ => false,
                };
                if wake {
                    // This pass runs in ascending pid order, so wake
                    // events land in the same order the event-driven
                    // kernels record after their post-notification sort.
                    p.status = Status::Ready;
                    let b = p.behavior.index();
                    state.trace_wake(pid, b);
                }
                if matches!(p.status, Status::Ready) {
                    any_ready = true;
                }
            }
            // Terminate servers (and anything they spawned) recursively.
            while let Some(i) = kill_list.pop() {
                if !matches!(processes[i].status, Status::Done) {
                    processes[i].status = Status::Done;
                    kill_list.extend(processes[i].spawned.iter().copied());
                }
            }

            // Termination: root process finished.
            if matches!(processes[0].status, Status::Done) {
                let trace = state.take_trace();
                return Ok(SimResult::collect(
                    spec, &state, now, steps, true, &meter, trace,
                ));
            }

            if any_ready {
                continue;
            }

            // Phase 3: advance time to the earliest sleeper.
            meter.inc(SLOT_TIMER_POPS);
            let next_wake = processes
                .iter()
                .filter_map(|p| match p.status {
                    Status::WaitTime(t) => Some(t),
                    _ => None,
                })
                .min();
            match next_wake {
                Some(t) => {
                    now = t.max(now);
                    state.trace_time(now);
                    for (pid, p) in processes.iter_mut().enumerate() {
                        if matches!(p.status, Status::WaitTime(w) if w <= now) {
                            p.status = Status::Ready;
                            let b = p.behavior.index();
                            state.trace_wake(pid, b);
                        }
                    }
                }
                None => {
                    let blocked: Vec<String> = processes
                        .iter()
                        .filter(|p| !matches!(p.status, Status::Done))
                        .map(|p| spec.behavior(p.behavior).name().to_string())
                        .collect();
                    return Err(SimError::Deadlock { time: now, blocked });
                }
            }
        }
    }
}
