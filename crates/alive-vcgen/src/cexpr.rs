//! Encoding of Alive constant expressions and precondition predicates into
//! SMT terms (paper §3.1.1).

use alive_ir::ast::{CBinop, CExpr, CExprArg, CUnop, Pred, PredArg, PredCmpOp};
use alive_smt::{BvVal, Sort, TermId, TermPool};
use std::collections::HashMap;
use std::fmt;

/// Errors during VC generation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EncodeError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "encoding error: {}", self.message)
    }
}

impl std::error::Error for EncodeError {}

pub(crate) fn eerr(message: impl Into<String>) -> EncodeError {
    EncodeError {
        message: message.into(),
    }
}

/// Name resolution context for constant expressions and predicates.
pub struct NameEnv<'a> {
    /// Abstract constant symbol -> SMT variable.
    pub consts: &'a HashMap<String, TermId>,
    /// Register -> value term (inputs and defined temporaries).
    pub regs: &'a HashMap<String, TermId>,
    /// Register -> bitwidth (for `width(%x)`).
    pub reg_widths: &'a HashMap<String, u32>,
}

impl fmt::Debug for NameEnv<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NameEnv({} consts, {} regs)",
            self.consts.len(),
            self.regs.len()
        )
    }
}

/// Encodes a constant expression at a given bitwidth.
///
/// # Errors
///
/// Fails on unknown symbols or unknown constant functions.
pub fn encode_cexpr(
    pool: &mut TermPool,
    e: &CExpr,
    width: u32,
    env: &NameEnv<'_>,
) -> Result<TermId, EncodeError> {
    match e {
        CExpr::Lit(n) => Ok(pool.bv_const(BvVal::from_i128(width, *n))),
        CExpr::Sym(s) => env
            .consts
            .get(s)
            .copied()
            .ok_or_else(|| eerr(format!("unknown constant symbol {s}"))),
        CExpr::Unop(op, a) => {
            let av = encode_cexpr(pool, a, width, env)?;
            Ok(match op {
                CUnop::Neg => pool.bv_neg(av),
                CUnop::Not => pool.bv_not(av),
            })
        }
        CExpr::Binop(op, a, b) => {
            let av = encode_cexpr(pool, a, width, env)?;
            let bv = encode_cexpr(pool, b, width, env)?;
            Ok(match op {
                CBinop::Add => pool.bv_add(av, bv),
                CBinop::Sub => pool.bv_sub(av, bv),
                CBinop::Mul => pool.bv_mul(av, bv),
                CBinop::SDiv => pool.bv_sdiv(av, bv),
                CBinop::UDiv => pool.bv_udiv(av, bv),
                CBinop::SRem => pool.bv_srem(av, bv),
                CBinop::URem => pool.bv_urem(av, bv),
                CBinop::Shl => pool.bv_shl(av, bv),
                CBinop::LShr => pool.bv_lshr(av, bv),
                CBinop::AShr => pool.bv_ashr(av, bv),
                CBinop::And => pool.bv_and(av, bv),
                CBinop::Or => pool.bv_or(av, bv),
                CBinop::Xor => pool.bv_xor(av, bv),
            })
        }
        CExpr::Fun(name, args) => encode_cfun(pool, name, args, width, env),
    }
}

fn expr_arg<'e>(args: &'e [CExprArg], i: usize, fun: &str) -> Result<&'e CExpr, EncodeError> {
    match args.get(i) {
        Some(CExprArg::Expr(e)) => Ok(e),
        Some(CExprArg::Reg(r)) => Err(eerr(format!(
            "{fun}: argument {i} must be a constant expression, found %{r}"
        ))),
        None => Err(eerr(format!("{fun}: missing argument {i}"))),
    }
}

fn encode_cfun(
    pool: &mut TermPool,
    name: &str,
    args: &[CExprArg],
    width: u32,
    env: &NameEnv<'_>,
) -> Result<TermId, EncodeError> {
    match name {
        "log2" => {
            let v = encode_cexpr(pool, expr_arg(args, 0, name)?, width, env)?;
            Ok(pool.log2(v))
        }
        "abs" => {
            let v = encode_cexpr(pool, expr_arg(args, 0, name)?, width, env)?;
            let zero = pool.bv(width, 0);
            let neg = pool.bv_neg(v);
            let is_neg = pool.bv_slt(v, zero);
            Ok(pool.ite(is_neg, neg, v))
        }
        "umax" | "smax" | "umin" | "smin" | "max" | "min" => {
            let a = encode_cexpr(pool, expr_arg(args, 0, name)?, width, env)?;
            let b = encode_cexpr(pool, expr_arg(args, 1, name)?, width, env)?;
            let cmp = match name {
                "umax" => pool.bv_ugt(a, b),
                "smax" | "max" => pool.bv_sgt(a, b),
                "umin" => pool.bv_ult(a, b),
                "smin" | "min" => pool.bv_slt(a, b),
                _ => unreachable!(),
            };
            Ok(pool.ite(cmp, a, b))
        }
        "width" => {
            // width(%x): the bitwidth of %x as a constant of the ambient type.
            match args.first() {
                Some(CExprArg::Reg(r)) => {
                    let w = env
                        .reg_widths
                        .get(r)
                        .copied()
                        .ok_or_else(|| eerr(format!("width(%{r}): unknown register")))?;
                    Ok(pool.bv(width, w as u128))
                }
                _ => Err(eerr("width() requires a register argument")),
            }
        }
        "cttz" => {
            let v = encode_cexpr(pool, expr_arg(args, 0, name)?, width, env)?;
            Ok(cttz_term(pool, v))
        }
        "ctlz" => {
            let v = encode_cexpr(pool, expr_arg(args, 0, name)?, width, env)?;
            Ok(ctlz_term(pool, v))
        }
        other => Err(eerr(format!("unknown constant function {other}()"))),
    }
}

/// Count-trailing-zeros term (width for input 0).
pub fn cttz_term(pool: &mut TermPool, v: TermId) -> TermId {
    let w = pool.width(v);
    let mut acc = pool.bv(w, w as u128);
    for i in (0..w).rev() {
        let bit = pool.extract(v, i, i);
        let one1 = pool.bv(1, 1);
        let set = pool.eq(bit, one1);
        let k = pool.bv(w, i as u128);
        acc = pool.ite(set, k, acc);
    }
    acc
}

/// Count-leading-zeros term (width for input 0).
pub fn ctlz_term(pool: &mut TermPool, v: TermId) -> TermId {
    let w = pool.width(v);
    let mut acc = pool.bv(w, w as u128);
    for i in 0..w {
        let bit = pool.extract(v, i, i);
        let one1 = pool.bv(1, 1);
        let set = pool.eq(bit, one1);
        let k = pool.bv(w, (w - 1 - i) as u128);
        acc = pool.ite(set, k, acc);
    }
    acc
}

/// Result of encoding a precondition.
#[derive(Debug)]
pub struct EncodedPred {
    /// The precondition formula φ (including side constraints for
    /// approximated analyses).
    pub formula: TermId,
    /// Fresh boolean variables P introduced for approximated analyses.
    pub aux_vars: Vec<TermId>,
}

/// Encodes a precondition (paper §3.1.1).
///
/// Predicates over compile-time constants are encoded precisely; predicates
/// over registers model must-analyses: a fresh boolean `p` with the side
/// constraint `p ⇒ s` is conjoined, and `p` replaces the predicate.
///
/// # Errors
///
/// Fails on unknown predicates or malformed arguments.
pub fn encode_pred(
    pool: &mut TermPool,
    p: &Pred,
    width_hint: impl Fn(&Pred) -> u32 + Copy,
    env: &NameEnv<'_>,
) -> Result<EncodedPred, EncodeError> {
    let mut aux = Vec::new();
    let inner = encode_pred_inner(pool, p, width_hint, env, &mut aux)?;
    // Side constraints are top-level conjuncts of φ: nesting them inside the
    // predicate position would be wrong under negation (`!pred(...)`).
    let mut formula = inner;
    for (_, side) in &aux {
        formula = pool.and2(formula, *side);
    }
    Ok(EncodedPred {
        formula,
        aux_vars: aux.into_iter().map(|(p, _)| p).collect(),
    })
}

fn encode_pred_inner(
    pool: &mut TermPool,
    p: &Pred,
    width_hint: impl Fn(&Pred) -> u32 + Copy,
    env: &NameEnv<'_>,
    aux: &mut Vec<(TermId, TermId)>,
) -> Result<TermId, EncodeError> {
    match p {
        Pred::True => Ok(pool.tru()),
        Pred::Not(a) => {
            let av = encode_pred_inner(pool, a, width_hint, env, aux)?;
            Ok(pool.not(av))
        }
        Pred::And(a, b) => {
            let av = encode_pred_inner(pool, a, width_hint, env, aux)?;
            let bv = encode_pred_inner(pool, b, width_hint, env, aux)?;
            Ok(pool.and2(av, bv))
        }
        Pred::Or(a, b) => {
            let av = encode_pred_inner(pool, a, width_hint, env, aux)?;
            let bv = encode_pred_inner(pool, b, width_hint, env, aux)?;
            Ok(pool.or2(av, bv))
        }
        Pred::Cmp(op, a, b) => {
            let w = width_hint(p);
            let av = encode_cexpr(pool, a, w, env)?;
            let bv = encode_cexpr(pool, b, w, env)?;
            Ok(match op {
                PredCmpOp::Eq => pool.eq(av, bv),
                PredCmpOp::Ne => pool.ne(av, bv),
                PredCmpOp::Slt => pool.bv_slt(av, bv),
                PredCmpOp::Sle => pool.bv_sle(av, bv),
                PredCmpOp::Sgt => pool.bv_sgt(av, bv),
                PredCmpOp::Sge => pool.bv_sge(av, bv),
                PredCmpOp::Ult => pool.bv_ult(av, bv),
                PredCmpOp::Ule => pool.bv_ule(av, bv),
                PredCmpOp::Ugt => pool.bv_ugt(av, bv),
                PredCmpOp::Uge => pool.bv_uge(av, bv),
            })
        }
        Pred::Fun(name, args) => encode_pred_fun(pool, p, name, args, width_hint, env, aux),
    }
}

/// Is the predicate argument list free of register arguments (i.e. fully
/// compile-time, so the analysis is precise — paper §3.1.1)?
fn args_are_constant(args: &[PredArg]) -> bool {
    args.iter().all(|a| matches!(a, PredArg::Expr(_)))
}

fn arg_value(
    pool: &mut TermPool,
    args: &[PredArg],
    i: usize,
    width: u32,
    env: &NameEnv<'_>,
    fun: &str,
) -> Result<TermId, EncodeError> {
    match args.get(i) {
        Some(PredArg::Reg(r)) => env
            .regs
            .get(r)
            .copied()
            .ok_or_else(|| eerr(format!("{fun}: unknown register %{r}"))),
        Some(PredArg::Expr(e)) => encode_cexpr(pool, e, width, env),
        None => Err(eerr(format!("{fun}: missing argument {i}"))),
    }
}

fn arg_width(args: &[PredArg], env: &NameEnv<'_>, pool: &TermPool) -> Option<u32> {
    for a in args {
        match a {
            PredArg::Reg(r) => {
                if let Some(w) = env.reg_widths.get(r) {
                    return Some(*w);
                }
            }
            PredArg::Expr(e) => {
                for s in e.symbols() {
                    if let Some(&t) = env.consts.get(s) {
                        return Some(pool.width(t));
                    }
                }
            }
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn encode_pred_fun(
    pool: &mut TermPool,
    whole: &Pred,
    name: &str,
    args: &[PredArg],
    width_hint: impl Fn(&Pred) -> u32 + Copy,
    env: &NameEnv<'_>,
    aux: &mut Vec<(TermId, TermId)>,
) -> Result<TermId, EncodeError> {
    let w = arg_width(args, env, pool).unwrap_or_else(|| width_hint(whole));
    let precise = |pool: &mut TermPool| -> Result<TermId, EncodeError> {
        match name {
            "isPowerOf2" => {
                let v = arg_value(pool, args, 0, w, env, name)?;
                Ok(pool.is_power_of_two(v, false))
            }
            "isPowerOf2OrZero" => {
                let v = arg_value(pool, args, 0, w, env, name)?;
                Ok(pool.is_power_of_two(v, true))
            }
            "isSignBit" => {
                let v = arg_value(pool, args, 0, w, env, name)?;
                let vw = pool.width(v);
                let min = pool.bv_const(BvVal::int_min(vw));
                Ok(pool.eq(v, min))
            }
            "isShiftedMask" => {
                let v = arg_value(pool, args, 0, w, env, name)?;
                let vw = pool.width(v);
                let zero = pool.bv(vw, 0);
                let nonzero = pool.ne(v, zero);
                // v | (v-1) fills the low zeros; adding 1 must give a power
                // of two or wrap to zero for a contiguous mask.
                let one = pool.bv(vw, 1);
                let vm1 = pool.bv_sub(v, one);
                let filled = pool.bv_or(v, vm1);
                let succ = pool.bv_add(filled, one);
                let and = pool.bv_and(succ, filled);
                let contiguous = pool.eq(and, zero);
                Ok(pool.and2(nonzero, contiguous))
            }
            "MaskedValueIsZero" => {
                let v = arg_value(pool, args, 0, w, env, name)?;
                let mask = arg_value(pool, args, 1, w, env, name)?;
                let and = pool.bv_and(v, mask);
                let vw = pool.width(v);
                let zero = pool.bv(vw, 0);
                Ok(pool.eq(and, zero))
            }
            "WillNotOverflowSignedAdd" => {
                let a = arg_value(pool, args, 0, w, env, name)?;
                let b = arg_value(pool, args, 1, w, env, name)?;
                Ok(crate::semantics::flag_poison_free(
                    pool,
                    alive_ir::BinOp::Add,
                    alive_ir::Flag::Nsw,
                    a,
                    b,
                ))
            }
            "WillNotOverflowUnsignedAdd" => {
                let a = arg_value(pool, args, 0, w, env, name)?;
                let b = arg_value(pool, args, 1, w, env, name)?;
                Ok(crate::semantics::flag_poison_free(
                    pool,
                    alive_ir::BinOp::Add,
                    alive_ir::Flag::Nuw,
                    a,
                    b,
                ))
            }
            "WillNotOverflowSignedSub" => {
                let a = arg_value(pool, args, 0, w, env, name)?;
                let b = arg_value(pool, args, 1, w, env, name)?;
                Ok(crate::semantics::flag_poison_free(
                    pool,
                    alive_ir::BinOp::Sub,
                    alive_ir::Flag::Nsw,
                    a,
                    b,
                ))
            }
            "WillNotOverflowUnsignedSub" => {
                let a = arg_value(pool, args, 0, w, env, name)?;
                let b = arg_value(pool, args, 1, w, env, name)?;
                Ok(crate::semantics::flag_poison_free(
                    pool,
                    alive_ir::BinOp::Sub,
                    alive_ir::Flag::Nuw,
                    a,
                    b,
                ))
            }
            "WillNotOverflowSignedMul" => {
                let a = arg_value(pool, args, 0, w, env, name)?;
                let b = arg_value(pool, args, 1, w, env, name)?;
                Ok(crate::semantics::flag_poison_free(
                    pool,
                    alive_ir::BinOp::Mul,
                    alive_ir::Flag::Nsw,
                    a,
                    b,
                ))
            }
            "WillNotOverflowUnsignedMul" => {
                let a = arg_value(pool, args, 0, w, env, name)?;
                let b = arg_value(pool, args, 1, w, env, name)?;
                Ok(crate::semantics::flag_poison_free(
                    pool,
                    alive_ir::BinOp::Mul,
                    alive_ir::Flag::Nuw,
                    a,
                    b,
                ))
            }
            "isKnownNonZero" | "CannotBeZero" => {
                let v = arg_value(pool, args, 0, w, env, name)?;
                let vw = pool.width(v);
                let zero = pool.bv(vw, 0);
                Ok(pool.ne(v, zero))
            }
            "isNonNegative" => {
                let v = arg_value(pool, args, 0, w, env, name)?;
                let vw = pool.width(v);
                let zero = pool.bv(vw, 0);
                Ok(pool.bv_sge(v, zero))
            }
            // Code-generation-only predicates: no semantic content for
            // verification (they restrict when the rewrite *fires*, not
            // whether it is correct).
            "hasOneUse" | "hasNoUse" => Ok(pool.tru()),
            other => Err(eerr(format!("unknown predicate {other}()"))),
        }
    };
    let s = precise(pool)?;
    // hasOneUse-style predicates stay `true`.
    if pool.as_bool_const(s) == Some(true) {
        return Ok(s);
    }
    if args_are_constant(args) {
        // Compile-time constants: precise encoding.
        Ok(s)
    } else {
        // Must-analysis over runtime values: fresh p with side constraint
        // p ⇒ s; the predicate position becomes just p (paper §3.1.1).
        let p = pool.var(format!("analysis.{name}"), Sort::Bool);
        let side = pool.implies(p, s);
        aux.push((p, side));
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_ir::parse_transform;
    use alive_smt::{eval, Assignment, Value};

    fn empty_env() -> (
        HashMap<String, TermId>,
        HashMap<String, TermId>,
        HashMap<String, u32>,
    ) {
        (HashMap::new(), HashMap::new(), HashMap::new())
    }

    #[test]
    fn encodes_arithmetic_cexpr() {
        let mut pool = TermPool::new();
        let mut consts = HashMap::new();
        let c1 = pool.var("C1", Sort::BitVec(8));
        consts.insert("C1".to_string(), c1);
        let (_, regs, widths) = empty_env();
        let env = NameEnv {
            consts: &consts,
            regs: &regs,
            reg_widths: &widths,
        };
        // C1*2 + 1
        let e = CExpr::Binop(
            CBinop::Add,
            Box::new(CExpr::Binop(
                CBinop::Mul,
                Box::new(CExpr::Sym("C1".into())),
                Box::new(CExpr::Lit(2)),
            )),
            Box::new(CExpr::Lit(1)),
        );
        let t = encode_cexpr(&mut pool, &e, 8, &env).unwrap();
        let mut a = Assignment::new();
        a.set(c1, BvVal::new(8, 5));
        assert_eq!(eval(&pool, t, &a).unwrap(), Value::Bv(BvVal::new(8, 11)));
    }

    #[test]
    fn log2_term_is_floor_log2() {
        let mut pool = TermPool::new();
        let v = pool.var("v", Sort::BitVec(8));
        let l = pool.log2(v);
        for (input, expect) in [(1u128, 0u128), (2, 1), (3, 1), (64, 6), (255, 7), (0, 0)] {
            let mut a = Assignment::new();
            a.set(v, BvVal::new(8, input));
            assert_eq!(
                eval(&pool, l, &a).unwrap(),
                Value::Bv(BvVal::new(8, expect)),
                "log2({input})"
            );
        }
    }

    #[test]
    fn cttz_ctlz_terms() {
        let mut pool = TermPool::new();
        let v = pool.var("v", Sort::BitVec(8));
        let tz = cttz_term(&mut pool, v);
        let lz = ctlz_term(&mut pool, v);
        for (input, etz, elz) in [
            (0b1000u128, 3u128, 4u128),
            (1, 0, 7),
            (0, 8, 8),
            (0x80, 7, 0),
        ] {
            let mut a = Assignment::new();
            a.set(v, BvVal::new(8, input));
            assert_eq!(eval(&pool, tz, &a).unwrap(), Value::Bv(BvVal::new(8, etz)));
            assert_eq!(eval(&pool, lz, &a).unwrap(), Value::Bv(BvVal::new(8, elz)));
        }
    }

    #[test]
    fn precise_predicate_over_constants() {
        let t = parse_transform("Pre: isPowerOf2(C1)\n%r = mul %x, C1\n=>\n%r = shl %x, log2(C1)")
            .unwrap();
        let mut pool = TermPool::new();
        let mut consts = HashMap::new();
        let c1 = pool.var("C1", Sort::BitVec(8));
        consts.insert("C1".to_string(), c1);
        let (_, regs, widths) = empty_env();
        let env = NameEnv {
            consts: &consts,
            regs: &regs,
            reg_widths: &widths,
        };
        let enc = encode_pred(&mut pool, &t.pre, |_| 8, &env).unwrap();
        assert!(enc.aux_vars.is_empty(), "constants are precise");
        let mut a = Assignment::new();
        a.set(c1, BvVal::new(8, 16));
        assert_eq!(eval(&pool, enc.formula, &a).unwrap(), Value::Bool(true));
        a.set(c1, BvVal::new(8, 12));
        assert_eq!(eval(&pool, enc.formula, &a).unwrap(), Value::Bool(false));
        a.set(c1, BvVal::new(8, 0));
        assert_eq!(eval(&pool, enc.formula, &a).unwrap(), Value::Bool(false));
    }

    #[test]
    fn register_predicate_gets_aux_var() {
        let t = parse_transform(
            "Pre: MaskedValueIsZero(%V, ~C1)\n%t0 = or %B, %V\n%R = and %t0, C1\n=>\n%R = and %t0, C1",
        )
        .unwrap();
        let mut pool = TermPool::new();
        let mut consts = HashMap::new();
        let c1 = pool.var("C1", Sort::BitVec(8));
        consts.insert("C1".to_string(), c1);
        let mut regs = HashMap::new();
        let v = pool.var("V", Sort::BitVec(8));
        regs.insert("V".to_string(), v);
        let mut widths = HashMap::new();
        widths.insert("V".to_string(), 8);
        let env = NameEnv {
            consts: &consts,
            regs: &regs,
            reg_widths: &widths,
        };
        let enc = encode_pred(&mut pool, &t.pre, |_| 8, &env).unwrap();
        assert_eq!(enc.aux_vars.len(), 1, "approximated analysis: one p var");
    }

    #[test]
    fn has_one_use_is_verification_neutral() {
        let mut pool = TermPool::new();
        let (consts, regs, widths) = empty_env();
        let env = NameEnv {
            consts: &consts,
            regs: &regs,
            reg_widths: &widths,
        };
        let p = Pred::Fun("hasOneUse".into(), vec![PredArg::Reg("Y".into())]);
        let enc = encode_pred(&mut pool, &p, |_| 8, &env).unwrap();
        assert_eq!(pool.as_bool_const(enc.formula), Some(true));
    }

    #[test]
    fn unknown_predicate_is_an_error() {
        let mut pool = TermPool::new();
        let (consts, regs, widths) = empty_env();
        let env = NameEnv {
            consts: &consts,
            regs: &regs,
            reg_widths: &widths,
        };
        let p = Pred::Fun("totallyMadeUp".into(), vec![]);
        assert!(encode_pred(&mut pool, &p, |_| 8, &env).is_err());
    }

    #[test]
    fn is_shifted_mask() {
        let mut pool = TermPool::new();
        let v = pool.var("v", Sort::BitVec(8));
        let t = is_shifted_mask_probe(&mut pool, v);
        for (input, expect) in [
            (0b0011_1000u128, true),
            (0b1111_1111, true),
            (0b0000_0001, true),
            (0b0101_0000, false),
            (0, false),
            (0b1000_0001, false),
        ] {
            let mut a = Assignment::new();
            a.set(v, BvVal::new(8, input));
            assert_eq!(
                eval(&pool, t, &a).unwrap(),
                Value::Bool(expect),
                "isShiftedMask({input:#010b})"
            );
        }
    }

    fn is_shifted_mask_probe(pool: &mut TermPool, v: TermId) -> TermId {
        let consts = HashMap::new();
        let mut regs = HashMap::new();
        regs.insert("v".to_string(), v);
        let mut widths = HashMap::new();
        widths.insert("v".to_string(), 8);
        let env = NameEnv {
            consts: &consts,
            regs: &regs,
            reg_widths: &widths,
        };
        let p = Pred::Fun("isShiftedMask".into(), vec![PredArg::Reg("v".into())]);
        let enc = encode_pred(pool, &p, |_| 8, &env).unwrap();
        // Strip the must-analysis wrapper: evaluate s directly by taking the
        // side constraint's consequent. For the test we instead re-encode
        // with a constant-only argument; simplest is to extract via formula
        // evaluation with p forced true. Here we exploit that formula =
        // and(p, p => s): when p is true it evaluates to s.
        let mut a = Assignment::new();
        a.set(enc.aux_vars[0], true);
        let _ = a;
        // Return a term equivalent to s by substituting p := true.
        alive_smt::substitute_assignment(pool, enc.formula, &{
            let mut asn = Assignment::new();
            asn.set(enc.aux_vars[0], true);
            asn
        })
    }
}
