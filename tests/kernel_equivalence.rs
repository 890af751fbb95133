//! Kernel-equivalence property tests: the event-driven scheduler and the
//! compiled bytecode kernel must be observationally indistinguishable
//! from the reference round-robin scheduler.
//!
//! The event-driven kernel only re-evaluates `wait until` conditions
//! whose sensitivity sets were written, wakes sleepers from a timer heap,
//! and counts pending children instead of rescanning — all pure
//! scheduling-work optimizations. The compiled kernel additionally lowers
//! every behavior to flat bytecode with slot-interned operands, replacing
//! the tree-walking interpreter entirely. These properties pin down that
//! both are *only* that: for the named workloads, for random synthetic
//! specs, and for their Model1–4 refinements (which add the signal
//! handshakes, protocol subroutines, arbiters and server loops the
//! optimizations target), all three kernels must produce identical
//! observable variable values, final time, step counts and — on failing
//! runs — identical deadlock/step-limit verdicts. The compiled kernel's
//! fuse pass skips side-effect-free jumps and charges them instead, so
//! its step-limit verdicts are also swept at every budget across the
//! first bus transfers of a refined run.

use modref_rng::Rng;

use modref::core::{refine, ImplModel};
use modref::partition::Allocation;
use modref::sim::{SimConfig, SimError, SimKernel, SimResult, Simulator};
use modref::spec::builder::SpecBuilder;
use modref::spec::{expr, stmt, Spec};
use modref::workloads::{
    dsp_partition, dsp_spec, fig2_partition, fig2_spec, medical_allocation, medical_partition,
    medical_spec, ring_spec, Design, SynthConfig, SynthSpec,
};

fn run_kernel(spec: &Spec, kernel: SimKernel, max_steps: u64) -> Result<SimResult, SimError> {
    Simulator::with_config(
        spec,
        SimConfig {
            max_steps,
            kernel,
            ..SimConfig::default()
        },
    )
    .run()
}

/// All three kernels on the same spec; results (or errors) must agree.
fn assert_kernels_agree(spec: &Spec, max_steps: u64, context: &str) {
    let compiled = run_kernel(spec, SimKernel::Compiled, max_steps);
    let event = run_kernel(spec, SimKernel::EventDriven, max_steps);
    let reference = run_kernel(spec, SimKernel::RoundRobin, max_steps);
    match (compiled, event, reference) {
        (Ok(c), Ok(e), Ok(r)) => {
            // `SimResult` equality covers time, steps, write counts,
            // variables, signals and activations — not scheduler stats.
            assert_eq!(e, r, "{context}: event vs reference diverge");
            assert_eq!(c, e, "{context}: compiled vs event diverge");
            assert!(
                e.sched.cond_evals <= r.sched.cond_evals,
                "{context}: event kernel re-evaluated more conditions \
                 ({} > {}) than the polling reference",
                e.sched.cond_evals,
                r.sched.cond_evals
            );
            // The compiled kernel reuses the event scheduler wholesale,
            // so its work counters must match *exactly*.
            assert_eq!(
                c.sched.cond_evals, e.sched.cond_evals,
                "{context}: compiled cond_evals"
            );
            assert_eq!(
                c.sched.timer_pops, e.sched.timer_pops,
                "{context}: timer_pops"
            );
            assert_eq!(e.sched.wakeups, r.sched.wakeups, "{context}: wakeups");
            assert_eq!(c.sched.wakeups, e.sched.wakeups, "{context}: wakeups");
            assert_eq!(e.sched.rounds, r.sched.rounds, "{context}: rounds");
            assert_eq!(c.sched.rounds, e.sched.rounds, "{context}: rounds");
            assert_eq!(
                c.sched.dispatches, e.sched.dispatches,
                "{context}: dispatches"
            );
            // One instruction per micro-step, and at least one dispatch.
            assert_eq!(c.sched.instrs, c.steps, "{context}: instrs == steps");
            assert!(c.sched.dispatches > 0, "{context}: dispatches counted");
        }
        (Err(c), Err(e), Err(r)) => {
            assert_eq!(e, r, "{context}: event vs reference verdicts diverge");
            assert_eq!(c, e, "{context}: compiled vs event verdicts diverge");
        }
        (compiled, event, reference) => panic!(
            "{context}: kernels disagree on success — compiled: {compiled:?}, \
             event: {event:?}, reference: {reference:?}"
        ),
    }
}

/// Compiled and event-driven runs of `spec` at one budget: identical
/// `Ok`/`Err` results, and on success identical scheduler counters.
fn assert_compiled_matches_event(spec: &Spec, max_steps: u64, context: &str) {
    let compiled = run_kernel(spec, SimKernel::Compiled, max_steps);
    let event = run_kernel(spec, SimKernel::EventDriven, max_steps);
    assert_eq!(compiled, event, "{context}, max_steps {max_steps}");
    if let (Ok(c), Ok(e)) = (&compiled, &event) {
        let counters = |r: &SimResult| {
            let s = &r.sched;
            [
                s.rounds,
                s.dispatches,
                s.cond_evals,
                s.wakeups,
                s.timer_pops,
            ]
        };
        assert_eq!(counters(c), counters(e), "{context}, max_steps {max_steps}");
        assert_eq!(c.sched.instrs, c.steps, "{context}: instrs == steps");
    }
}

/// The perfbench `synth64_traces` spec shape.
const SYNTH64: SynthConfig = SynthConfig {
    leaves: 64,
    vars: 64,
    stmts_per_leaf: 6,
    fanout: 3,
    loop_percent: 30,
};

fn medical_model(model: ImplModel) -> Spec {
    let spec = medical_spec();
    let graph = modref::graph::AccessGraph::derive(&spec);
    let alloc = medical_allocation();
    let part = medical_partition(&spec, &alloc, Design::Design1);
    refine(&spec, &graph, &alloc, &part, model)
        .expect("medical refines")
        .spec
}

fn synth64_model(synth: &SynthSpec, model: ImplModel) -> Spec {
    let alloc = Allocation::proc_plus_asic();
    let part = synth.partition(&alloc, 0);
    refine(&synth.spec, &synth.graph(), &alloc, &part, model)
        .unwrap_or_else(|e| panic!("synth64 {model}: {e}"))
        .spec
}

fn small_config(rng: &mut Rng) -> SynthConfig {
    SynthConfig {
        leaves: rng.gen_range(2..6usize),
        vars: rng.gen_range(2..6usize),
        stmts_per_leaf: rng.gen_range(1..5usize),
        fanout: rng.gen_range(2..4usize),
        loop_percent: rng.gen_range(0..60u32),
    }
}

/// Every named workload, original and refined to all four implementation
/// models: the kernels are interchangeable on the specs the benches,
/// examples and exploration paths actually run.
#[test]
fn kernels_agree_on_named_workloads_and_models() {
    let alloc = Allocation::proc_plus_asic();

    let fig2 = fig2_spec();
    let medical = medical_spec();
    let dsp = dsp_spec();
    let cases: Vec<(&str, &Spec)> = vec![("fig2", &fig2), ("medical", &medical), ("dsp", &dsp)];
    for (name, spec) in &cases {
        assert_kernels_agree(spec, 5_000_000, &format!("{name} original"));
        let graph = modref::graph::AccessGraph::derive(spec);
        let part = match *name {
            "fig2" => fig2_partition(spec, &alloc),
            "dsp" => dsp_partition(spec, &alloc),
            _ => medical_partition(spec, &medical_allocation(), Design::Design1),
        };
        for model in ImplModel::ALL {
            let refined = refine(spec, &graph, &alloc, &part, model)
                .unwrap_or_else(|e| panic!("{name} {model}: {e}"));
            assert_kernels_agree(&refined.spec, 5_000_000, &format!("{name} {model}"));
        }
    }

    // The polling worst case the benches time: many concurrent stations
    // blocked on distinct signals, token passed with delays.
    assert_kernels_agree(&ring_spec(8, 12), 5_000_000, "ring8");
}

/// The headline property: across random specs and all four
/// implementation-model refinements, the kernels are interchangeable.
#[test]
fn kernels_agree_on_random_specs_and_refinements() {
    let mut rng = Rng::seed_from_u64(0xE0E0_0001);
    for case in 0..16 {
        let seed = rng.gen_range(0..500u64);
        let cfg = small_config(&mut rng);
        let salt = rng.gen_range(0..2u64);
        let synth = SynthSpec::generate(seed, &cfg);
        assert_kernels_agree(&synth.spec, 5_000_000, &format!("case {case} original"));

        let graph = synth.graph();
        let alloc = Allocation::proc_plus_asic();
        let part = synth.partition(&alloc, salt);
        for model in ImplModel::ALL {
            let refined = refine(&synth.spec, &graph, &alloc, &part, model)
                .unwrap_or_else(|e| panic!("case {case} seed {seed} {model}: {e}"));
            assert_kernels_agree(
                &refined.spec,
                5_000_000,
                &format!("case {case} seed {seed} {model}"),
            );
        }
    }
}

/// A large, bus-heavy spec: the seed-11 synth64 shape on the alternating
/// partition under Models 1–4. Its memory servers decode 64 variables
/// one `if` each and its arbiters wait on wide `||`s of request lines —
/// the chains the compiled kernel runs as fused predicate scans.
#[test]
fn kernels_agree_on_synth64_refinements() {
    let synth = SynthSpec::generate(11, &SYNTH64);
    assert_kernels_agree(&synth.spec, 5_000_000, "synth64 original");
    for model in ImplModel::ALL {
        let refined = synth64_model(&synth, model);
        assert_kernels_agree(&refined, 5_000_000, &format!("synth64 {model}"));
    }
}

/// Budgets that run out mid-chain: every limit across the first bus
/// transfers of a medical Model1 run, then seeded random limits over
/// whole runs. Within its first 400 steps the run grants the bus
/// (arbiter priority chain and `||` wait), decodes addresses in the
/// memory servers (runs of skipped `if` arms) and completes several
/// handshakes, so the sweep ends budgets inside every kind of charged
/// jump. The compiled kernel must fail exactly when the event kernel
/// does, and succeed with the same result otherwise.
#[test]
fn step_limit_sweep_agrees_mid_chain() {
    let model1 = medical_model(ImplModel::Model1);
    for limit in 0..=400 {
        assert_compiled_matches_event(&model1, limit, "medical Model1");
    }

    let synth = SynthSpec::generate(11, &SYNTH64);
    let mut specs: Vec<(String, Spec)> = ImplModel::ALL
        .into_iter()
        .map(|m| (format!("medical {m}"), medical_model(m)))
        .collect();
    specs.push((
        "synth64 Model1".to_string(),
        synth64_model(&synth, ImplModel::Model1),
    ));
    let mut rng = Rng::seed_from_u64(0x57E9_0017);
    for (name, spec) in &specs {
        let full = run_kernel(spec, SimKernel::EventDriven, 5_000_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .steps;
        // The last failing and the first passing budget, then random ones.
        let mut limits = vec![full - 1, full];
        limits.extend((0..6).map(|_| rng.gen_range(0..full)));
        for limit in limits {
            assert_compiled_matches_event(spec, limit, name);
        }
    }
}

/// Step-limit verdicts agree: a zero-time livelock trips the same error
/// in all three kernels.
#[test]
fn kernels_agree_on_step_limit_verdict() {
    let mut b = SpecBuilder::new("spin");
    let x = b.var_int("x", 16, 0);
    let a = b.leaf(
        "A",
        vec![stmt::infinite_loop(vec![stmt::assign(x, expr::lit(1))])],
    );
    let top = b.seq_in_order("Top", vec![a]);
    let spec = b.finish(top).expect("valid");
    let compiled = run_kernel(&spec, SimKernel::Compiled, 1_000);
    let event = run_kernel(&spec, SimKernel::EventDriven, 1_000);
    let reference = run_kernel(&spec, SimKernel::RoundRobin, 1_000);
    assert_eq!(event, reference);
    assert_eq!(compiled, event);
    assert!(matches!(
        compiled,
        Err(SimError::StepLimitExceeded { limit: 1_000 })
    ));
}

/// Deadlock verdicts agree, including the reported time and the list of
/// blocked behaviors: a waiter whose signal is never set deadlocks
/// identically under all three kernels.
#[test]
fn kernels_agree_on_deadlock_verdict() {
    let mut b = SpecBuilder::new("stuck");
    let go = b.signal_bit("go");
    let x = b.var_int("x", 16, 0);
    let waiter = b.leaf(
        "Waiter",
        vec![
            stmt::wait_until(expr::eq(expr::signal(go), expr::lit(1))),
            stmt::assign(x, expr::lit(7)),
        ],
    );
    let worker = b.leaf(
        "Worker",
        vec![stmt::delay(5), stmt::assign(x, expr::lit(1))],
    );
    let top = b.concurrent("Top", vec![waiter, worker]);
    let spec = b.finish(top).expect("valid");
    let compiled = run_kernel(&spec, SimKernel::Compiled, 100_000);
    let event = run_kernel(&spec, SimKernel::EventDriven, 100_000);
    let reference = run_kernel(&spec, SimKernel::RoundRobin, 100_000);
    assert_eq!(event, reference);
    assert_eq!(compiled, event);
    match compiled {
        Err(SimError::Deadlock { time, blocked }) => {
            assert_eq!(time, 5, "worker's delay elapses before the deadlock");
            assert_eq!(blocked, vec!["Top".to_string(), "Waiter".to_string()]);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// Time-overflow verdicts agree: a third `wait for i64::MAX` would wake
/// past `u64::MAX`, and every kernel refuses it with the same error
/// instead of wrapping the clock.
#[test]
fn kernels_agree_on_time_overflow_verdict() {
    let mut b = SpecBuilder::new("overflow");
    let a = b.leaf("A", vec![stmt::wait_for(i64::MAX as u64); 3]);
    let top = b.seq_in_order("Top", vec![a]);
    let spec = b.finish(top).expect("valid");
    assert_kernels_agree(&spec, 1_000, "time overflow");
    assert_eq!(
        run_kernel(&spec, SimKernel::Compiled, 1_000),
        Err(SimError::TimeOverflow {
            time: 2 * (i64::MAX as u64),
            delay: i64::MAX as u64,
        })
    );
}

/// A server that wakes in the same round its parent's last counted child
/// completes is killed, not run: the wake and the kill land in one round,
/// and the killed server must not execute (or be revived) the round after.
#[test]
fn kernels_agree_on_server_killed_as_it_wakes() {
    let mut b = SpecBuilder::new("kill_on_wake");
    let go = b.var_int("go", 16, 0);
    let y = b.var_int("y", 16, 0);
    let client = b.leaf(
        "Client",
        vec![stmt::delay(1), stmt::assign(go, expr::lit(1))],
    );
    let srv = b.leaf_server(
        "Srv",
        vec![stmt::infinite_loop(vec![
            stmt::wait_until(expr::eq(expr::var(go), expr::lit(1))),
            stmt::assign(y, expr::lit(5)),
            stmt::wait_until(expr::eq(expr::var(go), expr::lit(0))),
        ])],
    );
    let top = b.concurrent("Top", vec![client, srv]);
    let spec = b.finish(top).expect("valid");
    assert_kernels_agree(&spec, 1_000, "server killed as it wakes");
    let r = run_kernel(&spec, SimKernel::Compiled, 1_000).expect("completes");
    assert_eq!(r.var_by_name("y"), Some(0), "the killed server never ran");
}

/// A never-woken waiter must not leak unbounded scheduler work: the
/// event-driven and compiled kernels perform zero condition
/// re-evaluations when nothing in the sensitivity set is written, while
/// the polling reference performs one per round.
#[test]
fn event_kernel_skips_unwritten_sensitivities() {
    let mut b = SpecBuilder::new("quiet");
    let go = b.signal_bit("go");
    let x = b.var_int("x", 16, 0);
    let waiter = b.leaf(
        "Waiter",
        vec![stmt::wait_until(expr::eq(expr::signal(go), expr::lit(1)))],
    );
    // A ticker that advances time for a while without touching `go`,
    // then finally releases the waiter.
    let ticker = b.leaf(
        "Ticker",
        vec![
            stmt::for_loop(x, expr::lit(0), expr::lit(50), vec![stmt::delay(1)]),
            stmt::set_signal(go, expr::lit(1)),
        ],
    );
    let top = b.concurrent("Top", vec![waiter, ticker]);
    let spec = b.finish(top).expect("valid");
    let compiled = run_kernel(&spec, SimKernel::Compiled, 100_000).expect("completes");
    let event = run_kernel(&spec, SimKernel::EventDriven, 100_000).expect("completes");
    let reference = run_kernel(&spec, SimKernel::RoundRobin, 100_000).expect("completes");
    assert_eq!(event, reference);
    assert_eq!(compiled, event);
    // Exactly one write to `go`, so exactly one re-evaluation (which
    // succeeds and wakes the waiter) in both sensitivity-driven kernels.
    assert_eq!(event.sched.cond_evals, 1);
    assert_eq!(event.sched.wakeups, 1);
    assert_eq!(compiled.sched.cond_evals, 1);
    assert_eq!(compiled.sched.wakeups, 1);
    // The polling reference re-checked the waiter every round.
    assert!(
        reference.sched.cond_evals > 50,
        "reference should poll each round, got {}",
        reference.sched.cond_evals
    );
}
