//! Exhaustive check of the binary bitvector operator table.
//!
//! For every [`BvOp`], every width 1–6 and every operand pair, constant
//! folding in the constructor and the evaluator must agree with the
//! `BvVal` method of the same name, called directly here and never through
//! the table's `apply`, so the check is not circular. A term with one
//! symbolic operand and one constant operand, on either side, must
//! evaluate to that method's result for every value of the symbolic
//! operand; that covers every fold row, and each row is also checked to
//! fire. The table's names, which key the `blast.gates.<kind>` counters,
//! are pinned, and so is the operator each public `bv_*` constructor
//! builds.

use alive_smt::{eval, Assignment, BvOp, BvVal, Op, Sort, TermId, TermPool, Value};

type Ctor = fn(&mut TermPool, TermId, TermId) -> TermId;
type Method = fn(BvVal, BvVal) -> Value;

/// The operator's name, public constructor and `BvVal` method.
fn by_name(op: BvOp) -> (&'static str, Ctor, Method) {
    match op {
        BvOp::And => ("bvand", TermPool::bv_and, |x, y| x.and(y).into()),
        BvOp::Or => ("bvor", TermPool::bv_or, |x, y| x.or(y).into()),
        BvOp::Xor => ("bvxor", TermPool::bv_xor, |x, y| x.xor(y).into()),
        BvOp::Add => ("bvadd", TermPool::bv_add, |x, y| x.add(y).into()),
        BvOp::Sub => ("bvsub", TermPool::bv_sub, |x, y| x.sub(y).into()),
        BvOp::Mul => ("bvmul", TermPool::bv_mul, |x, y| x.mul(y).into()),
        BvOp::Udiv => ("bvudiv", TermPool::bv_udiv, |x, y| x.udiv(y).into()),
        BvOp::Urem => ("bvurem", TermPool::bv_urem, |x, y| x.urem(y).into()),
        BvOp::Sdiv => ("bvsdiv", TermPool::bv_sdiv, |x, y| x.sdiv(y).into()),
        BvOp::Srem => ("bvsrem", TermPool::bv_srem, |x, y| x.srem(y).into()),
        BvOp::Shl => ("bvshl", TermPool::bv_shl, |x, y| x.shl(y).into()),
        BvOp::Lshr => ("bvlshr", TermPool::bv_lshr, |x, y| x.lshr(y).into()),
        BvOp::Ashr => ("bvashr", TermPool::bv_ashr, |x, y| x.ashr(y).into()),
        BvOp::Ult => ("bvult", TermPool::bv_ult, |x, y| x.ult(y).into()),
        BvOp::Ule => ("bvule", TermPool::bv_ule, |x, y| x.ule(y).into()),
        BvOp::Slt => ("bvslt", TermPool::bv_slt, |x, y| x.slt(y).into()),
        BvOp::Sle => ("bvsle", TermPool::bv_sle, |x, y| x.sle(y).into()),
    }
}

const WIDTHS: std::ops::RangeInclusive<u32> = 1..=6;

fn values(w: u32) -> impl Iterator<Item = BvVal> {
    (0..1u128 << w).map(move |bits| BvVal::new(w, bits))
}

/// Evaluates `t` with `var` bound to `v`.
fn eval_at(p: &TermPool, t: TermId, var: TermId, v: BvVal) -> Value {
    let mut env = Assignment::new();
    env.set(var, v);
    eval(p, t, &env).unwrap()
}

fn is_op(p: &TermPool, t: TermId, op: BvOp) -> bool {
    matches!(p.term(t).op, Op::Bv(o, ..) if o == op)
}

#[test]
fn names_and_constructors_match_the_table() {
    let mut p = TermPool::new();
    let x = p.var("x", Sort::BitVec(4));
    let y = p.var("y", Sort::BitVec(4));
    for op in BvOp::ALL {
        let (name, ctor, _) = by_name(op);
        assert_eq!(op.def().name, name, "{op:?}");
        let t = ctor(&mut p, x, y);
        assert!(is_op(&p, t, op), "{name} builds {}", p.display(t));
        assert_eq!(p.term(t).op.kind_name(), name);
        assert_eq!(t, p.bv_binop(op, x, y), "{name}");
        let sort = if op.def().predicate {
            Sort::Bool
        } else {
            Sort::BitVec(4)
        };
        assert_eq!(p.sort(t), sort, "{name}");
    }
}

#[test]
fn constant_folding_matches_the_value_methods() {
    for op in BvOp::ALL {
        let (name, ctor, method) = by_name(op);
        for w in WIDTHS {
            let mut p = TermPool::new();
            for x in values(w) {
                for y in values(w) {
                    let (a, b) = (p.bv_const(x), p.bv_const(y));
                    let t = ctor(&mut p, a, b);
                    let want = method(x, y);
                    assert_eq!(p.as_const(t), Some(want), "{name} {x:?} {y:?}");
                }
            }
        }
    }
}

#[test]
fn symbolic_terms_evaluate_to_the_value_methods() {
    for op in BvOp::ALL {
        let (name, ctor, method) = by_name(op);
        for w in WIDTHS {
            let mut p = TermPool::new();
            let (vx, vy) = (p.var("x", Sort::BitVec(w)), p.var("y", Sort::BitVec(w)));
            let t = ctor(&mut p, vx, vy);
            for x in values(w) {
                for y in values(w) {
                    let mut env = Assignment::new();
                    env.set(vx, x);
                    env.set(vy, y);
                    let got = eval(&p, t, &env).unwrap();
                    assert_eq!(got, method(x, y), "{name} {x:?} {y:?}");
                }
            }
        }
    }
}

#[test]
fn one_constant_operand_evaluates_to_the_value_methods() {
    for op in BvOp::ALL {
        let (name, ctor, method) = by_name(op);
        for w in WIDTHS {
            let mut p = TermPool::new();
            let vx = p.var("x", Sort::BitVec(w));
            for k in values(w) {
                let c = p.bv_const(k);
                let right = ctor(&mut p, vx, c);
                let left = ctor(&mut p, c, vx);
                for v in values(w) {
                    let got = eval_at(&p, right, vx, v);
                    assert_eq!(got, method(v, k), "{name} x {k:?} at x = {v:?}");
                    let got = eval_at(&p, left, vx, v);
                    assert_eq!(got, method(k, v), "{name} {k:?} x at x = {v:?}");
                }
            }
        }
    }
}

#[test]
fn every_fold_row_fires_and_keeps_the_value() {
    for op in BvOp::ALL {
        let (name, ctor, method) = by_name(op);
        let def = op.def();
        for w in WIDTHS {
            let mut p = TermPool::new();
            let vx = p.var("x", Sort::BitVec(w));
            // (term, left operand, right operand); `None` stands for x.
            let mut rows = Vec::new();
            if def.same.is_some() {
                rows.push((ctor(&mut p, vx, vx), None, None));
            }
            for &(k, _) in def.rows {
                let k = k.at(w);
                let c = p.bv_const(k);
                rows.push((ctor(&mut p, vx, c), None, Some(k)));
                if def.commutes {
                    rows.push((ctor(&mut p, c, vx), Some(k), None));
                }
            }
            for (t, l, r) in rows {
                assert!(
                    !is_op(&p, t, op),
                    "{name} i{w}: {} did not fold",
                    p.display(t)
                );
                for v in values(w) {
                    let want = method(l.unwrap_or(v), r.unwrap_or(v));
                    assert_eq!(eval_at(&p, t, vx, v), want, "{name} i{w} at x = {v:?}");
                }
            }
        }
    }
}
