//! The five DL tampers shared by the deadlock-lint test suites: each
//! grafts one provably-dead construct next to an existing design, so
//! the design keeps all its progress and only the graft is at fault.

use modref::spec::expr::{add, eq, lit, signal, var};
use modref::spec::{Behavior, BehaviorId, BehaviorKind, DataType, LValue, Spec, Stmt, WaitCond};

/// Grafts extra behaviors next to the existing top: the new top is a
/// concurrent composite running the old design and the tampered leaves
/// side by side, so the original workload still makes all its progress.
fn graft(base: &Spec, build: impl FnOnce(&mut Spec) -> Vec<BehaviorId>) -> Spec {
    let mut spec = base.clone();
    let mut children = vec![spec.top()];
    children.extend(build(&mut spec));
    let top = spec.add_behavior(Behavior::new(
        "tamper_top",
        BehaviorKind::Concurrent { children },
    ));
    spec.set_top(top);
    spec
}

/// DL01: the only write drives the gate to 1, the wait demands 2.
pub fn tamper_dl01(base: &Spec) -> Spec {
    graft(base, |s| {
        let gate = s.add_signal("tamper_gate", DataType::Int { width: 8 }, 0);
        let body = vec![
            Stmt::SignalSet {
                signal: gate,
                value: lit(1),
            },
            Stmt::Wait(WaitCond::Until(eq(signal(gate), lit(2)))),
        ];
        vec![s.add_behavior(Behavior::new("tamper_dl01", BehaviorKind::Leaf { body }))]
    })
}

/// DL02: wait on a signal nothing ever writes.
pub fn tamper_dl02(base: &Spec) -> Spec {
    graft(base, |s| {
        let ghost = s.add_signal("tamper_ghost", DataType::Bit, 0);
        let body = vec![Stmt::Wait(WaitCond::Until(signal(ghost)))];
        vec![s.add_behavior(Behavior::new("tamper_dl02", BehaviorKind::Leaf { body }))]
    })
}

/// DL03: a zero-time spin loop — no wait, no delay, no exit.
pub fn tamper_dl03(base: &Spec) -> Spec {
    graft(base, |s| {
        let spin = s.add_variable("tamper_spin", DataType::Int { width: 16 }, 0, None);
        let body = vec![Stmt::Loop {
            body: vec![Stmt::Assign {
                target: LValue::Var(spin),
                value: add(var(spin), lit(1)),
            }],
        }];
        vec![s.add_behavior(Behavior::new("tamper_dl03", BehaviorKind::Leaf { body }))]
    })
}

/// DL04: two leaves, each waiting on a signal only the other would set
/// after its own wait — a circular wait.
pub fn tamper_dl04(base: &Spec) -> Spec {
    graft(base, |s| {
        let a = s.add_signal("tamper_a", DataType::Bit, 0);
        let b = s.add_signal("tamper_b", DataType::Bit, 0);
        let p1 = vec![
            Stmt::Wait(WaitCond::Until(signal(b))),
            Stmt::SignalSet {
                signal: a,
                value: lit(1),
            },
        ];
        let p2 = vec![
            Stmt::Wait(WaitCond::Until(signal(a))),
            Stmt::SignalSet {
                signal: b,
                value: lit(1),
            },
        ];
        vec![
            s.add_behavior(Behavior::new("tamper_p1", BehaviorKind::Leaf { body: p1 })),
            s.add_behavior(Behavior::new("tamper_p2", BehaviorKind::Leaf { body: p2 })),
        ]
    })
}

/// DL05: a four-phase handshake whose master never drops its request —
/// the arbiter grants, then both sides block on the missing release.
pub fn tamper_dl05(base: &Spec) -> Spec {
    graft(base, |s| {
        let req = s.add_signal("tamper_req", DataType::Bit, 0);
        let ack = s.add_signal("tamper_ack", DataType::Bit, 0);
        let master = vec![
            Stmt::SignalSet {
                signal: req,
                value: lit(1),
            },
            Stmt::Wait(WaitCond::Until(eq(signal(ack), lit(1)))),
            // release of `req` missing here — the defect
            Stmt::Wait(WaitCond::Until(eq(signal(ack), lit(0)))),
        ];
        let server = vec![Stmt::Loop {
            body: vec![
                Stmt::Wait(WaitCond::Until(eq(signal(req), lit(1)))),
                Stmt::SignalSet {
                    signal: ack,
                    value: lit(1),
                },
                Stmt::Wait(WaitCond::Until(eq(signal(req), lit(0)))),
                Stmt::SignalSet {
                    signal: ack,
                    value: lit(0),
                },
            ],
        }];
        vec![
            s.add_behavior(Behavior::new(
                "tamper_master",
                BehaviorKind::Leaf { body: master },
            )),
            s.add_behavior(Behavior::new_server(
                "tamper_arbiter",
                BehaviorKind::Leaf { body: server },
            )),
        ]
    })
}

/// `(expected code, tamper, step budget)` — the spin case needs a small
/// budget because it *consumes* its whole limit; the deadlock cases
/// halt early on their own.
pub type Tamper = (&'static str, fn(&Spec) -> Spec, u64);

pub const TAMPERS: [Tamper; 5] = [
    ("DL01", tamper_dl01, 5_000_000),
    ("DL02", tamper_dl02, 5_000_000),
    ("DL03", tamper_dl03, 250_000),
    ("DL04", tamper_dl04, 5_000_000),
    ("DL05", tamper_dl05, 5_000_000),
];
