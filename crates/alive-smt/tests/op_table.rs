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
//! builds. Every law is walked the same way: an instance of its left-hand
//! side must fire it and evaluate, under every assignment of its
//! variables, to the `BvVal` method applied to the operands' values
//! (computed here from the shape, not by the pool); a guarded law must
//! keep the un-rewritten term as its else branch, and its guard must be
//! false somewhere.

use alive_smt::{eval, Assignment, BvOp, BvVal, Law, Op, Shape, Sort, TermId, TermPool, Value};

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

/// Every law with the operator it rewrites.
fn laws() -> Vec<(BvOp, Law)> {
    BvOp::ALL
        .iter()
        .flat_map(|&op| op.def().laws.iter().map(move |&law| (op, law)))
        .collect()
}

/// Adds the indices of the law variables in `s` to `used`.
fn variables(s: Shape, used: &mut Vec<u8>) {
    match s {
        Shape::Var(i) if !used.contains(&i) => used.push(i),
        Shape::Var(_) | Shape::Const(_) => {}
        Shape::Neg(a) => variables(*a, used),
        Shape::Bv(_, a, b) | Shape::Eq(a, b) | Shape::Ne(a, b) | Shape::And(a, b) => {
            variables(*a, used);
            variables(*b, used);
        }
    }
}

/// Builds a left-hand-side shape over `vars` with the public constructors.
fn instance(p: &mut TermPool, s: Shape, vars: &[TermId; 3], w: u32) -> TermId {
    match s {
        Shape::Var(i) => vars[usize::from(i)],
        Shape::Const(k) => p.bv_const(k.at(w)),
        Shape::Neg(a) => {
            let a = instance(p, *a, vars, w);
            p.bv_neg(a)
        }
        Shape::Bv(op, a, b) => {
            let (a, b) = (instance(p, *a, vars, w), instance(p, *b, vars, w));
            by_name(op).1(p, a, b)
        }
        Shape::Eq(..) | Shape::Ne(..) | Shape::And(..) => panic!("{s:?} on a left-hand side"),
    }
}

/// The value of a left-hand-side shape, from the `BvVal` methods alone.
fn value(s: Shape, vals: &[BvVal; 3], w: u32) -> BvVal {
    let bv = |v: Value| match v {
        Value::Bv(v) => v,
        Value::Bool(_) => panic!("{s:?} is boolean"),
    };
    match s {
        Shape::Var(i) => vals[usize::from(i)],
        Shape::Const(k) => k.at(w),
        Shape::Neg(a) => value(*a, vals, w).neg(),
        Shape::Bv(op, a, b) => bv(by_name(op).2(value(*a, vals, w), value(*b, vals, w))),
        Shape::Eq(..) | Shape::Ne(..) | Shape::And(..) => panic!("{s:?} on a left-hand side"),
    }
}

#[test]
fn every_law_fires_and_keeps_the_value() {
    let laws = laws();
    // The names key the `smt.laws.<name>` trace counters.
    let names: Vec<&str> = laws.iter().map(|(_, law)| law.name).collect();
    assert_eq!(names, ["udiv-shl", "udiv-udiv", "sdiv-neg", "srem-neg"]);
    for (op, law) in laws {
        let (name, ctor, method) = by_name(op);
        let mut used = Vec::new();
        law.lhs.iter().for_each(|&s| variables(s, &mut used));
        // The signed laws are also walked at i8, where MIN and the
        // overflowing quotient sit far from the small values.
        let signed = matches!(op, BvOp::Sdiv | BvOp::Srem);
        let widths = WIDTHS.chain(signed.then_some(8));
        let mut guard_false = 0u64;
        for w in widths {
            let mut p = TermPool::new();
            let vars = ["x", "y", "c"].map(|n| p.var(n, Sort::BitVec(w)));
            let [a, b] = law.lhs.map(|s| instance(&mut p, s, &vars, w));
            let fired = p.law_firings().get(law.name).copied().unwrap_or(0);
            let t = ctor(&mut p, a, b);
            let at = format!("{name} {} i{w}", law.name);
            assert_eq!(p.law_firings()[law.name], fired + 1, "{at}: did not fire");
            let guard = match p.term(t).op {
                Op::Ite(g, _, lhs) => {
                    assert!(law.guard.is_some(), "{at}: unguarded law built an ite");
                    let plain = &p.term(lhs).op;
                    assert!(
                        *plain == Op::Bv(op, a, b),
                        "{at}: else branch {}",
                        p.display(lhs)
                    );
                    Some(g)
                }
                _ => {
                    assert!(law.guard.is_none(), "{at}: {}", p.display(t));
                    None
                }
            };
            // Every assignment of the variables the left-hand side uses.
            let count = 1u128 << (w * used.len() as u32);
            for n in 0..count {
                let mut vals = [BvVal::zero(w); 3];
                let mut env = Assignment::new();
                for (k, &i) in used.iter().enumerate() {
                    let bits = (n >> (w * k as u32)) & ((1u128 << w) - 1);
                    vals[usize::from(i)] = BvVal::new(w, bits);
                    env.set(vars[usize::from(i)], vals[usize::from(i)]);
                }
                let want = method(value(law.lhs[0], &vals, w), value(law.lhs[1], &vals, w));
                assert_eq!(eval(&p, t, &env).unwrap(), want, "{at} at {vals:?}");
                if let Some(g) = guard {
                    guard_false += u64::from(eval(&p, g, &env).unwrap() == Value::Bool(false));
                }
            }
        }
        if law.guard.is_some() {
            assert!(guard_false > 0, "{name} {}: guard never false", law.name);
        }
    }
}
