//! Interpreter for mini-LLVM with LLVM's three kinds of undefined
//! behavior tracked explicitly (paper §2.4).
//!
//! Every value evaluates to a concrete bitvector, *poison*, or the whole
//! execution is *immediate UB* (true undefined behavior, e.g. division by
//! zero). `undef` operands evaluate to an arbitrary-but-fixed value chosen
//! by the caller (zero by default), which is a legal refinement.

use crate::ir::{Function, MInst, MValue, ValueId};
use alive_ir::ast::{BinOp, ConvOp, Flag, ICmpPred};
use alive_smt::BvVal;

/// Result of evaluating one value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Exec {
    /// A concrete value.
    Val(BvVal),
    /// A poison value (deferred UB).
    Poison,
}

/// Result of executing a whole function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Function returned this value.
    Return(Exec),
    /// Execution hit immediate undefined behavior.
    Ub,
}

impl Outcome {
    /// Does `self` (the optimized behavior) refine `source`?
    ///
    /// UB in the source permits anything; poison permits any value or
    /// poison; a concrete source value must be preserved exactly.
    pub fn refines(&self, source: &Outcome) -> bool {
        match source {
            Outcome::Ub => true,
            Outcome::Return(Exec::Poison) => !matches!(self, Outcome::Ub),
            Outcome::Return(Exec::Val(v)) => {
                matches!(self, Outcome::Return(Exec::Val(w)) if w == v)
            }
        }
    }
}

/// Executes `f` on the given parameter values.
///
/// `undef` operands evaluate to zero of their width (any fixed choice is a
/// legal refinement of `undef`).
///
/// # Panics
///
/// Panics if `args` does not match the parameter count/widths.
pub fn run(f: &Function, args: &[BvVal]) -> Outcome {
    assert_eq!(args.len(), f.params.len(), "arity mismatch");
    for (a, w) in args.iter().zip(&f.params) {
        assert_eq!(a.width(), *w, "parameter width mismatch");
    }
    let mut memo: Vec<Option<Exec>> = vec![None; f.params.len() + f.insts.len()];
    for (i, a) in args.iter().enumerate() {
        memo[i] = Some(Exec::Val(*a));
    }
    match eval_value(f, f.ret, &mut memo) {
        Ok(e) => Outcome::Return(e),
        Err(Ub) => Outcome::Ub,
    }
}

struct Ub;

fn eval_value(f: &Function, v: MValue, memo: &mut Vec<Option<Exec>>) -> Result<Exec, Ub> {
    match v {
        MValue::Const(c) => Ok(Exec::Val(c)),
        MValue::Undef(w) => Ok(Exec::Val(BvVal::zero(w))),
        MValue::Reg(id) => eval_reg(f, id, memo),
    }
}

fn eval_reg(f: &Function, id: ValueId, memo: &mut Vec<Option<Exec>>) -> Result<Exec, Ub> {
    if let Some(e) = memo[id as usize] {
        return Ok(e);
    }
    let inst = f
        .inst_of(id)
        .expect("parameters are pre-seeded in the memo")
        .clone();
    let result = eval_inst(f, &inst, memo)?;
    memo[id as usize] = Some(result);
    Ok(result)
}

fn eval_inst(f: &Function, inst: &MInst, memo: &mut Vec<Option<Exec>>) -> Result<Exec, Ub> {
    match inst {
        MInst::Bin { op, flags, a, b } => {
            let av = eval_value(f, *a, memo)?;
            let bv = eval_value(f, *b, memo)?;
            let (Exec::Val(x), Exec::Val(y)) = (av, bv) else {
                // Poison operand: division by poison is UB-equivalent;
                // conservatively fold to poison for side-effect-free ops.
                return Ok(Exec::Poison);
            };
            bin_semantics(*op, flags, x, y)
        }
        MInst::ICmp { pred, a, b } => {
            let av = eval_value(f, *a, memo)?;
            let bv = eval_value(f, *b, memo)?;
            let (Exec::Val(x), Exec::Val(y)) = (av, bv) else {
                return Ok(Exec::Poison);
            };
            let r = match pred {
                ICmpPred::Eq => x == y,
                ICmpPred::Ne => x != y,
                ICmpPred::Ugt => y.ult(x),
                ICmpPred::Uge => y.ule(x),
                ICmpPred::Ult => x.ult(y),
                ICmpPred::Ule => x.ule(y),
                ICmpPred::Sgt => y.slt(x),
                ICmpPred::Sge => y.sle(x),
                ICmpPred::Slt => x.slt(y),
                ICmpPred::Sle => x.sle(y),
            };
            Ok(Exec::Val(BvVal::new(1, r as u128)))
        }
        MInst::Select { c, t, e } => {
            let cv = eval_value(f, *c, memo)?;
            let Exec::Val(cb) = cv else {
                return Ok(Exec::Poison);
            };
            // Both arms are side-effect free; only the chosen arm's poison
            // matters in LLVM's (2015) semantics. We still evaluate only the
            // chosen arm, which is equivalent here.
            if cb.bits() == 1 {
                eval_value(f, *t, memo)
            } else {
                eval_value(f, *e, memo)
            }
        }
        MInst::Conv { op, a, to } => {
            let av = eval_value(f, *a, memo)?;
            let Exec::Val(x) = av else {
                return Ok(Exec::Poison);
            };
            Ok(Exec::Val(match op {
                ConvOp::ZExt => x.zext(*to),
                ConvOp::SExt => x.sext(*to),
                ConvOp::Trunc => x.trunc(*to),
                ConvOp::Bitcast | ConvOp::IntToPtr | ConvOp::PtrToInt => {
                    if *to >= x.width() {
                        x.zext(*to)
                    } else {
                        x.trunc(*to)
                    }
                }
            }))
        }
        MInst::Copy { a } => eval_value(f, *a, memo),
    }
}

/// Table 1 (definedness → UB) and Table 2 (attributes → poison) semantics.
fn bin_semantics(op: BinOp, flags: &[Flag], x: BvVal, y: BvVal) -> Result<Exec, Ub> {
    let w = x.width();
    // Immediate UB per Table 1.
    match op {
        BinOp::UDiv | BinOp::URem if y.is_zero() => {
            return Err(Ub);
        }
        BinOp::SDiv | BinOp::SRem
            if (y.is_zero() || (x == BvVal::int_min(w) && y == BvVal::ones(w))) =>
        {
            return Err(Ub);
        }
        BinOp::Shl | BinOp::LShr | BinOp::AShr if y.to_unsigned() >= w as u128 => {
            return Err(Ub);
        }
        _ => {}
    }
    // Poison per Table 2.
    for flag in flags {
        let poisoned = match (op, flag) {
            (BinOp::Add, Flag::Nsw) => x.sext(w + 1).add(y.sext(w + 1)) != x.add(y).sext(w + 1),
            (BinOp::Add, Flag::Nuw) => x.zext(w + 1).add(y.zext(w + 1)) != x.add(y).zext(w + 1),
            (BinOp::Sub, Flag::Nsw) => x.sext(w + 1).sub(y.sext(w + 1)) != x.sub(y).sext(w + 1),
            (BinOp::Sub, Flag::Nuw) => x.zext(w + 1).sub(y.zext(w + 1)) != x.sub(y).zext(w + 1),
            (BinOp::Mul, Flag::Nsw) => x.sext(2 * w).mul(y.sext(2 * w)) != x.mul(y).sext(2 * w),
            (BinOp::Mul, Flag::Nuw) => x.zext(2 * w).mul(y.zext(2 * w)) != x.mul(y).zext(2 * w),
            (BinOp::SDiv, Flag::Exact) => x.sdiv(y).mul(y) != x,
            (BinOp::UDiv, Flag::Exact) => x.udiv(y).mul(y) != x,
            (BinOp::Shl, Flag::Nsw) => x.shl(y).ashr(y) != x,
            (BinOp::Shl, Flag::Nuw) => x.shl(y).lshr(y) != x,
            (BinOp::AShr, Flag::Exact) => x.ashr(y).shl(y) != x,
            (BinOp::LShr, Flag::Exact) => x.lshr(y).shl(y) != x,
            _ => false,
        };
        if poisoned {
            return Ok(Exec::Poison);
        }
    }
    let v = match op {
        BinOp::Add => x.add(y),
        BinOp::Sub => x.sub(y),
        BinOp::Mul => x.mul(y),
        BinOp::UDiv => x.udiv(y),
        BinOp::SDiv => x.sdiv(y),
        BinOp::URem => x.urem(y),
        BinOp::SRem => x.srem(y),
        BinOp::Shl => x.shl(y),
        BinOp::LShr => x.lshr(y),
        BinOp::AShr => x.ashr(y),
        BinOp::And => x.and(y),
        BinOp::Or => x.or(y),
        BinOp::Xor => x.xor(y),
    };
    Ok(Exec::Val(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::MValue;

    fn f_binop(op: BinOp, flags: Vec<Flag>, w: u32) -> Function {
        let mut f = Function::new("t", vec![w, w]);
        let r = f.push(MInst::Bin {
            op,
            flags,
            a: MValue::Reg(0),
            b: MValue::Reg(1),
        });
        f.ret = MValue::Reg(r);
        f
    }

    #[test]
    fn simple_arithmetic() {
        let f = f_binop(BinOp::Add, vec![], 8);
        assert_eq!(
            run(&f, &[BvVal::new(8, 200), BvVal::new(8, 100)]),
            Outcome::Return(Exec::Val(BvVal::new(8, 44)))
        );
    }

    #[test]
    fn division_by_zero_is_ub() {
        let f = f_binop(BinOp::UDiv, vec![], 8);
        assert_eq!(run(&f, &[BvVal::new(8, 5), BvVal::zero(8)]), Outcome::Ub);
    }

    #[test]
    fn int_min_over_minus_one_is_ub() {
        let f = f_binop(BinOp::SDiv, vec![], 8);
        assert_eq!(run(&f, &[BvVal::int_min(8), BvVal::ones(8)]), Outcome::Ub);
    }

    #[test]
    fn oversized_shift_is_ub() {
        let f = f_binop(BinOp::Shl, vec![], 8);
        assert_eq!(run(&f, &[BvVal::new(8, 1), BvVal::new(8, 8)]), Outcome::Ub);
    }

    #[test]
    fn nsw_overflow_is_poison() {
        let f = f_binop(BinOp::Add, vec![Flag::Nsw], 8);
        assert_eq!(
            run(&f, &[BvVal::new(8, 100), BvVal::new(8, 100)]),
            Outcome::Return(Exec::Poison)
        );
        assert_eq!(
            run(&f, &[BvVal::new(8, 100), BvVal::new(8, 27)]),
            Outcome::Return(Exec::Val(BvVal::new(8, 127)))
        );
    }

    #[test]
    fn poison_propagates() {
        let mut f = Function::new("t", vec![8, 8]);
        let p = f.push(MInst::Bin {
            op: BinOp::Add,
            flags: vec![Flag::Nsw],
            a: MValue::Reg(0),
            b: MValue::Reg(1),
        });
        let r = f.push(MInst::Bin {
            op: BinOp::Xor,
            flags: vec![],
            a: MValue::Reg(p),
            b: MValue::Const(BvVal::new(8, 1)),
        });
        f.ret = MValue::Reg(r);
        assert_eq!(
            run(&f, &[BvVal::new(8, 100), BvVal::new(8, 100)]),
            Outcome::Return(Exec::Poison)
        );
    }

    #[test]
    fn select_takes_chosen_arm() {
        let mut f = Function::new("t", vec![1, 8, 8]);
        let r = f.push(MInst::Select {
            c: MValue::Reg(0),
            t: MValue::Reg(1),
            e: MValue::Reg(2),
        });
        f.ret = MValue::Reg(r);
        assert_eq!(
            run(&f, &[BvVal::new(1, 1), BvVal::new(8, 7), BvVal::new(8, 9)]),
            Outcome::Return(Exec::Val(BvVal::new(8, 7)))
        );
        assert_eq!(
            run(&f, &[BvVal::new(1, 0), BvVal::new(8, 7), BvVal::new(8, 9)]),
            Outcome::Return(Exec::Val(BvVal::new(8, 9)))
        );
    }

    #[test]
    fn refinement_rules() {
        let v = Outcome::Return(Exec::Val(BvVal::new(8, 5)));
        let w = Outcome::Return(Exec::Val(BvVal::new(8, 6)));
        let p = Outcome::Return(Exec::Poison);
        assert!(v.refines(&v));
        assert!(!w.refines(&v));
        assert!(v.refines(&p));
        assert!(p.refines(&p));
        assert!(!Outcome::Ub.refines(&p));
        assert!(Outcome::Ub.refines(&Outcome::Ub));
        assert!(v.refines(&Outcome::Ub));
        assert!(!p.refines(&v));
    }
}
