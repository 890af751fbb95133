//! Branch fusion: step-charged jump threading and compact predicate
//! tests, rewritten in place over emitted (absolute-pc) code.
//!
//! Refined specs spend most of their micro-steps on control flow that
//! does no work. A memory server decodes the bus address with one `if`
//! per variable, so every skipped arm costs its test plus its empty
//! else's block-pop `Jump`. An arbiter grants through an `else if`
//! priority chain, unwinds it through one block-pop `Jump` per level,
//! and waits on an `||` of every request line. This pass makes that
//! flow cheap without changing what it counts:
//!
//! * **Threading.** A `Jump` whose target starts a chain of `Jump`s and
//!   `Nop`s jumps straight to the chain's end and *charges* the skipped
//!   steps ([`Instr::Jump`]'s `charge`). The false edge of a branch
//!   threads the same way.
//! * **Tests.** A `JumpIfZero` on a leaf predicate becomes an
//!   [`Instr::Test`]. A leaf predicate is a scalar variable or signal
//!   compared with a constant (`==`, `<`, `<=`, `>`, `>=`), or an `&&`
//!   of such comparisons on one slot. Each is an inclusive range, read
//!   without the postfix stack; the executor walks a run of false tests
//!   (a decode run, an `else if` chain) in one inner loop.
//! * **Waits.** A wait site whose condition is an `||` of leaf
//!   predicates records them, so executing and re-checking the wait
//!   reads the slots directly.
//!
//! No instruction is added or removed, so every pc — labels, call
//! returns, transition and loop-exit targets — stays valid. Leaf reads
//! cannot fail and the skipped `Jump`/`Nop`s have no side effects, so
//! the only thing a rewrite could change is the step count; each charge
//! restores it exactly, and the executor checks the step budget after
//! every charge, so `StepLimitExceeded` trips on exactly the runs it
//! tripped on before.

use modref_spec::BinOp;

use super::{CompiledSpec, EOp, Instr, Leaf, Pc, Pred, PredRef};

/// Rewrites `prog` in place: threads jumps and branch false edges,
/// turns leaf-predicate branches into [`Instr::Test`]s and records the
/// predicates of `||`-of-leaf wait conditions. Runs once, on freshly
/// emitted code (every charge still zero).
pub(crate) fn fuse(prog: &mut CompiledSpec) {
    for site in &mut prog.waits {
        let ops = &prog.pool[site.cond.off as usize..(site.cond.off + site.cond.len) as usize];
        let off = prog.preds.len();
        site.any = match any_of(ops, &mut prog.preds) {
            Some(()) => Some(PredRef {
                off: off as u32,
                len: (prog.preds.len() - off) as u32,
            }),
            None => {
                prog.preds.truncate(off);
                None
            }
        };
    }

    // Where each side-effect-free step sends control, read from the code
    // as emitted so that threading composes no charges.
    let len = prog.code.len();
    let next: Vec<Option<Pc>> = prog
        .code
        .iter()
        .enumerate()
        .map(|(pc, instr)| match *instr {
            Instr::Jump { to, charge } => {
                debug_assert_eq!(charge, 0, "fuse runs once");
                Some(to)
            }
            Instr::Nop if pc + 1 < len => Some(pc as Pc + 1),
            _ => None,
        })
        .collect();

    for instr in &mut prog.code {
        *instr = match *instr {
            Instr::Jump { to, .. } => {
                let (to, charge) = thread(&next, to);
                Instr::Jump { to, charge }
            }
            Instr::JumpIfZero { cond, to, .. } => {
                let (to, charge) = thread(&next, to);
                let ops = &prog.pool[cond.off as usize..(cond.off + cond.len) as usize];
                match pred(ops) {
                    Some(p) => {
                        prog.preds.push(p);
                        Instr::Test {
                            pred: (prog.preds.len() - 1) as u32,
                            to,
                            charge,
                        }
                    }
                    None => Instr::JumpIfZero { cond, to, charge },
                }
            }
            _ => continue,
        };
    }
}

/// Follows the `Jump`/`Nop` chain starting at `pc`: where control lands
/// and how many chain steps that skips. A chain longer than the program
/// is a cycle; stopping anywhere on it is still exact, because every
/// skipped step is charged.
fn thread(next: &[Option<Pc>], mut pc: Pc) -> (Pc, u32) {
    let mut skipped: u32 = 0;
    while let Some(to) = next[pc as usize] {
        if skipped as usize == next.len() {
            break;
        }
        pc = to;
        skipped += 1;
    }
    (pc, skipped)
}

/// The slot a predicate operand reads, if it is a plain scalar read.
/// Parameters (may be unbound) and array elements (may be out of
/// bounds) can fail, so they are not leaves.
fn leaf(op: &EOp) -> Option<Leaf> {
    match *op {
        EOp::Var(slot) => Some(Leaf::Var(slot)),
        EOp::Sig(slot) => Some(Leaf::Sig(slot)),
        _ => None,
    }
}

/// The inclusive range on which `x op c` holds, or `None` when `op` is
/// not a comparison whose true set is one range (`!=`, arithmetic).
fn range(op: BinOp, c: i64) -> Option<(i64, i64)> {
    const EMPTY: (i64, i64) = (1, 0);
    Some(match op {
        BinOp::Eq => (c, c),
        BinOp::Lt => c.checked_sub(1).map_or(EMPTY, |hi| (i64::MIN, hi)),
        BinOp::Le => (i64::MIN, c),
        BinOp::Gt => c.checked_add(1).map_or(EMPTY, |lo| (lo, i64::MAX)),
        BinOp::Ge => (c, i64::MAX),
        _ => return None,
    })
}

/// `c op x` rewritten as `x op' c`.
fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Recognizes a leaf predicate in a postfix expression: a slot compared
/// with a constant on either side, or an `&&` of leaf predicates on the
/// same slot (the intersection of their ranges).
fn pred(ops: &[EOp]) -> Option<Pred> {
    let (leaf, (lo, hi)) = match *ops {
        [ref x, EOp::Const(c), EOp::Bin(op)] => (leaf(x)?, range(op, c)?),
        [EOp::Const(c), ref x, EOp::Bin(op)] => (leaf(x)?, range(mirror(op), c)?),
        [.., EOp::Bin(BinOp::And)] => {
            let (l, r) = operands(ops)?;
            let (l, r) = (pred(l)?, pred(r)?);
            if l.leaf != r.leaf {
                return None;
            }
            (l.leaf, (l.lo.max(r.lo), l.hi.min(r.hi)))
        }
        _ => return None,
    };
    Some(Pred { leaf, lo, hi })
}

/// Recognizes an `||` of leaf predicates (a single predicate counts),
/// appending them to `out` in source order. On `None`, `out` may hold
/// some of them; the caller drops them.
fn any_of(ops: &[EOp], out: &mut Vec<Pred>) -> Option<()> {
    if let [.., EOp::Bin(BinOp::Or)] = ops {
        let (l, r) = operands(ops)?;
        any_of(l, out)?;
        any_of(r, out)
    } else {
        out.push(pred(ops)?);
        Some(())
    }
}

/// Splits a postfix expression ending in a binary operator into its
/// left and right operands.
fn operands(ops: &[EOp]) -> Option<(&[EOp], &[EOp])> {
    let (_, body) = ops.split_last()?;
    // Walk back from the end until exactly one value is complete: each
    // op yields one value and consumes its arity.
    let mut need = 1usize;
    let mut i = body.len();
    while need > 0 {
        i = i.checked_sub(1)?;
        need = need - 1
            + match body[i] {
                EOp::Bin(_) => 2,
                EOp::Un(_) | EOp::Elem(_) => 1,
                _ => 0,
            };
    }
    Some(body.split_at(i))
}

#[cfg(test)]
mod tests {
    use modref_spec::builder::SpecBuilder;
    use modref_spec::{expr, stmt, Spec, UnOp};

    use super::*;
    use crate::compile::exec::Bytecode;
    use crate::{sched, SimConfig, SimError, SimResult};

    fn p(leaf: Leaf, lo: i64, hi: i64) -> Pred {
        Pred { leaf, lo, hi }
    }

    fn any(ops: &[EOp]) -> Option<Vec<Pred>> {
        let mut out = Vec::new();
        any_of(ops, &mut out).map(|()| out)
    }

    #[test]
    fn fuses_equality_on_either_side() {
        let ops = [EOp::Sig(3), EOp::Const(5), EOp::Bin(BinOp::Eq)];
        assert_eq!(pred(&ops), Some(p(Leaf::Sig(3), 5, 5)));
        let ops = [EOp::Const(5), EOp::Var(2), EOp::Bin(BinOp::Eq)];
        assert_eq!(pred(&ops), Some(p(Leaf::Var(2), 5, 5)));
    }

    #[test]
    fn fuses_comparisons_and_mirrors_constant_on_the_left() {
        let cmp = |op, c| pred(&[EOp::Var(0), EOp::Const(c), EOp::Bin(op)]);
        assert_eq!(cmp(BinOp::Lt, 4), Some(p(Leaf::Var(0), i64::MIN, 3)));
        assert_eq!(cmp(BinOp::Le, 4), Some(p(Leaf::Var(0), i64::MIN, 4)));
        assert_eq!(cmp(BinOp::Gt, 4), Some(p(Leaf::Var(0), 5, i64::MAX)));
        assert_eq!(cmp(BinOp::Ge, 4), Some(p(Leaf::Var(0), 4, i64::MAX)));
        // `4 < x` is `x > 4`.
        let ops = [EOp::Const(4), EOp::Var(0), EOp::Bin(BinOp::Lt)];
        assert_eq!(pred(&ops), Some(p(Leaf::Var(0), 5, i64::MAX)));
        // Bounds at the ends of i64 give an empty range, never a wrap.
        let never = cmp(BinOp::Lt, i64::MIN).expect("fused");
        assert!(never.lo > never.hi);
        let never = cmp(BinOp::Gt, i64::MAX).expect("fused");
        assert!(never.lo > never.hi);
    }

    #[test]
    fn fuses_and_of_ranges_on_one_slot() {
        // b_addr >= 6 && b_addr < 10
        let ops = [
            EOp::Sig(1),
            EOp::Const(6),
            EOp::Bin(BinOp::Ge),
            EOp::Sig(1),
            EOp::Const(10),
            EOp::Bin(BinOp::Lt),
            EOp::Bin(BinOp::And),
        ];
        assert_eq!(pred(&ops), Some(p(Leaf::Sig(1), 6, 9)));
        // Disjoint ranges intersect to an empty one.
        let ops = [
            EOp::Var(1),
            EOp::Const(6),
            EOp::Bin(BinOp::Lt),
            EOp::Var(1),
            EOp::Const(8),
            EOp::Bin(BinOp::Gt),
            EOp::Bin(BinOp::And),
        ];
        let empty = pred(&ops).expect("fused");
        assert!(empty.lo > empty.hi);
    }

    #[test]
    fn fuses_or_of_predicates_in_source_order() {
        // r0 == 1 || r1 == 1 || (r2 >= 2 && r2 <= 3), left-associated.
        let ops = [
            EOp::Sig(0),
            EOp::Const(1),
            EOp::Bin(BinOp::Eq),
            EOp::Sig(1),
            EOp::Const(1),
            EOp::Bin(BinOp::Eq),
            EOp::Bin(BinOp::Or),
            EOp::Sig(2),
            EOp::Const(2),
            EOp::Bin(BinOp::Ge),
            EOp::Sig(2),
            EOp::Const(3),
            EOp::Bin(BinOp::Le),
            EOp::Bin(BinOp::And),
            EOp::Bin(BinOp::Or),
        ];
        assert_eq!(
            any(&ops),
            Some(vec![
                p(Leaf::Sig(0), 1, 1),
                p(Leaf::Sig(1), 1, 1),
                p(Leaf::Sig(2), 2, 3),
            ])
        );
        // A single predicate is a one-term OR.
        let ops = [EOp::Sig(4), EOp::Const(0), EOp::Bin(BinOp::Eq)];
        assert_eq!(any(&ops), Some(vec![p(Leaf::Sig(4), 0, 0)]));
        // One non-leaf term refuses the whole condition.
        let ops = [
            EOp::Sig(0),
            EOp::Const(1),
            EOp::Bin(BinOp::Eq),
            EOp::Sig(1),
            EOp::Const(1),
            EOp::Bin(BinOp::Ne),
            EOp::Bin(BinOp::Or),
        ];
        assert_eq!(any(&ops), None);
    }

    #[test]
    fn refuses_shapes_that_are_not_one_infallible_range() {
        let refused: [&[EOp]; 8] = [
            // `!=` is two ranges.
            &[EOp::Var(0), EOp::Const(1), EOp::Bin(BinOp::Ne)],
            // A parameter may be unbound.
            &[
                EOp::Param { slot: 0, name: 0 },
                EOp::Const(1),
                EOp::Bin(BinOp::Eq),
            ],
            // An element read may be out of bounds.
            &[
                EOp::Const(0),
                EOp::Elem(3),
                EOp::Const(1),
                EOp::Bin(BinOp::Eq),
            ],
            // Non-literal bounds.
            &[EOp::Var(0), EOp::Var(1), EOp::Bin(BinOp::Lt)],
            &[
                EOp::Var(0),
                EOp::Var(1),
                EOp::Const(1),
                EOp::Bin(BinOp::Add),
                EOp::Bin(BinOp::Eq),
            ],
            // Two different slots in one `&&`.
            &[
                EOp::Sig(0),
                EOp::Const(1),
                EOp::Bin(BinOp::Eq),
                EOp::Sig(1),
                EOp::Const(1),
                EOp::Bin(BinOp::Eq),
                EOp::Bin(BinOp::And),
            ],
            // A variable and a signal with the same slot index.
            &[
                EOp::Var(0),
                EOp::Const(1),
                EOp::Bin(BinOp::Eq),
                EOp::Sig(0),
                EOp::Const(1),
                EOp::Bin(BinOp::Eq),
                EOp::Bin(BinOp::And),
            ],
            // A bare slot or a negation is not a comparison.
            &[EOp::Var(0), EOp::Un(UnOp::Not)],
        ];
        for ops in refused {
            assert_eq!(pred(ops), None, "{ops:?}");
            assert_eq!(any(ops), None, "{ops:?}");
        }
        assert_eq!(pred(&[EOp::Var(0)]), None);
    }

    /// A one-leaf spec whose compiled program is replaced by `code`.
    fn crafted(code: Vec<Instr>) -> (Spec, CompiledSpec) {
        let mut b = SpecBuilder::new("crafted");
        let x = b.var_int("x", 16, 0);
        let top = b.leaf("A", vec![stmt::assign(x, expr::lit(1))]);
        let spec = b.finish(top).expect("valid");
        let mut prog = crate::compile::compile(&spec);
        prog.code = code;
        prog.entries[spec.top().index()] = 0;
        (spec, prog)
    }

    fn run(spec: &Spec, prog: &CompiledSpec, max_steps: u64) -> Result<SimResult, SimError> {
        let config = SimConfig {
            max_steps,
            ..SimConfig::default()
        };
        sched::run(spec, &config, Bytecode::new(spec, prog))
    }

    fn jump(to: Pc) -> Instr {
        Instr::Jump { to, charge: 0 }
    }

    #[test]
    fn threads_chains_and_charges_every_skipped_step() {
        let code = vec![jump(2), Instr::Halt, Instr::Nop, jump(4), jump(1)];
        let (spec, plain) = crafted(code.clone());
        let (_, mut fused) = crafted(code);
        fuse(&mut fused);
        assert_eq!(fused.code[0], Instr::Jump { to: 1, charge: 3 });
        assert_eq!(fused.code[3], Instr::Jump { to: 1, charge: 1 });
        for limit in 0..8 {
            assert_eq!(
                run(&spec, &fused, limit),
                run(&spec, &plain, limit),
                "limit {limit}"
            );
        }
        assert_eq!(run(&spec, &fused, 8).expect("halts").steps, 5);
    }

    #[test]
    fn jump_cycle_ends_at_the_step_limit() {
        let code = vec![jump(1), Instr::Nop, jump(0)];
        let (spec, plain) = crafted(code.clone());
        let (_, mut fused) = crafted(code);
        fuse(&mut fused);
        for limit in [0, 1, 2, 3, 4, 5, 6, 7, 1_000, 1_001, 1_002] {
            let got = run(&spec, &fused, limit);
            assert_eq!(got, Err(SimError::StepLimitExceeded { limit }));
            assert_eq!(got, run(&spec, &plain, limit), "limit {limit}");
        }
    }

    #[test]
    fn compiled_decode_and_arbiter_shapes_fuse() {
        let mut b = SpecBuilder::new("bus");
        let addr = b.signal_bit("addr");
        let req = [b.signal_bit("r0"), b.signal_bit("r1"), b.signal_bit("r2")];
        let x = b.var_int("x", 16, 0);
        let any_req = expr::or(
            expr::or(
                expr::eq(expr::signal(req[0]), expr::lit(1)),
                expr::eq(expr::signal(req[1]), expr::lit(1)),
            ),
            expr::eq(expr::signal(req[2]), expr::lit(1)),
        );
        let top = b.leaf(
            "Server",
            vec![
                stmt::wait_until(any_req),
                stmt::if_then(
                    expr::eq(expr::signal(addr), expr::lit(0)),
                    vec![stmt::assign(x, expr::lit(1))],
                ),
                stmt::if_then(
                    expr::and(
                        expr::ge(expr::signal(addr), expr::lit(1)),
                        expr::lt(expr::signal(addr), expr::lit(4)),
                    ),
                    vec![stmt::assign(x, expr::lit(2))],
                ),
                stmt::if_then(
                    expr::ne(expr::signal(addr), expr::lit(0)),
                    vec![stmt::assign(x, expr::lit(3))],
                ),
            ],
        );
        let spec = b.finish_unchecked(top);
        let prog = crate::compile::compile(&spec);
        let tested: Vec<Pred> = prog
            .code
            .iter()
            .filter_map(|i| match *i {
                Instr::Test { pred, .. } => Some(prog.preds[pred as usize]),
                _ => None,
            })
            .collect();
        let jzs = prog
            .code
            .iter()
            .filter(|i| matches!(i, Instr::JumpIfZero { .. }))
            .count();
        let (addr, r2) = (addr.index() as u32, req[2].index() as u32);
        // `==` and the `&&` range fuse; `!=` stays a `JumpIfZero`.
        assert_eq!(
            tested,
            vec![p(Leaf::Sig(addr), 0, 0), p(Leaf::Sig(addr), 1, 3)],
            "{:?}",
            prog.code
        );
        assert_eq!(jzs, 1);
        let any = prog.waits[0].any.expect("wait fused");
        assert_eq!(any.len, 3);
        assert_eq!(prog.preds[(any.off + 2) as usize], p(Leaf::Sig(r2), 1, 1));
        // The first skipped arm's false edge threads past its empty
        // else's block pop, straight onto the next test.
        let Instr::Test { to, charge, .. } = prog.code[1] else {
            panic!("decode arm fused: {:?}", prog.code);
        };
        assert_eq!(charge, 1);
        assert!(matches!(prog.code[to as usize], Instr::Test { .. }));
    }
}
