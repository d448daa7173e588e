//! Exhaustive check of the binary bitvector operator table.
//!
//! For every [`BvOp`], every width 1–6 and every operand pair, constant
//! folding in the constructor and the evaluator must agree with the
//! `BvVal` method of the same name, called directly here and never through
//! the table's `apply`, so the check is not circular. A term with one
//! symbolic operand and one constant operand, on either side, must
//! evaluate to that method's result for every value of the symbolic
//! operand. The table's names, which key the `blast.gates.<kind>`
//! counters, are pinned, and so is the operator each public `bv_*`
//! constructor builds. Every law — the identity and annihilator rows, the
//! guarded word-level ones and the select-distribution ones — is walked
//! by one loop, in both operand orders when the operator commutes: an
//! instance of its left-hand side must evaluate, under every assignment
//! of its variables (a select's condition at false and true; from i5 up a
//! select law's last variable only at the edge values), to the `BvVal`
//! method applied to the operands' values (computed here from the shape,
//! not by the pool); an unguarded law's instance must never stay the
//! plain operator term, a guarded law must keep that term as its else
//! branch and its guard must be false somewhere, and every law must fire
//! at one width or more. The law names are pinned. The fold
//! rows, the unguarded laws over one symbolic operand and constants, are
//! also checked on their own: each instance must fold away from its
//! operator and keep the value at every value of the operand.

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

/// The operand of a fold law: the symbolic operand x (`None`) or a
/// constant; `None` for a left-hand side over any other shape.
fn fold_operand(s: Shape, w: u32) -> Option<Option<BvVal>> {
    match s {
        Shape::Var(0) => Some(None),
        Shape::Const(k) => Some(Some(k.at(w))),
        _ => None,
    }
}

#[test]
fn every_fold_row_fires_and_keeps_the_value() {
    // The fold rows are the unguarded laws over one symbolic operand x and
    // constants: `x op x`, `x op k` and, for a commutative operator, `k op x`.
    let mut rows = 0;
    for (op, law) in laws() {
        let (name, ctor, method) = by_name(op);
        if law.guard.is_some() {
            continue;
        }
        for w in WIDTHS {
            let [Some(l), Some(r)] = law.lhs.map(|s| fold_operand(s, w)) else {
                continue;
            };
            let mut p = TermPool::new();
            let vx = p.var("x", Sort::BitVec(w));
            let operand = |p: &mut TermPool, k: Option<BvVal>| k.map_or(vx, |k| p.bv_const(k));
            let (a, b) = (operand(&mut p, l), operand(&mut p, r));
            // (term, left operand, right operand); `None` stands for x.
            let mut terms = vec![(ctor(&mut p, a, b), l, r)];
            if op.def().commutes {
                terms.push((ctor(&mut p, b, a), r, l));
            }
            for (t, l, r) in terms {
                rows += 1;
                assert!(
                    !is_op(&p, t, op),
                    "{name} {} i{w}: {} did not fold",
                    law.name,
                    p.display(t)
                );
                for v in values(w) {
                    let want = method(l.unwrap_or(v), r.unwrap_or(v));
                    let at = format!("{name} {} i{w} at x = {v:?}", law.name);
                    assert_eq!(eval_at(&p, t, vx, v), want, "{at}");
                }
            }
        }
    }
    assert!(rows > 0, "no fold rows in the table");
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
        Shape::Var(i) | Shape::Leaf(i) if !used.contains(&i) => used.push(i),
        Shape::Var(_) | Shape::Leaf(_) | Shape::Const(_) | Shape::Bool(_) => {}
        Shape::Not(a) | Shape::Neg(a) | Shape::Zext2(a) => variables(*a, used),
        Shape::Ite(c, a, b) => {
            variables(*c, used);
            variables(*a, used);
            variables(*b, used);
        }
        Shape::Bv(_, a, b)
        | Shape::Eq(a, b)
        | Shape::Ne(a, b)
        | Shape::And(a, b)
        | Shape::Or(a, b) => {
            variables(*a, used);
            variables(*b, used);
        }
    }
}

/// Builds a left-hand-side shape over `vars` with the public constructors.
fn instance(p: &mut TermPool, s: Shape, vars: &[TermId; 4], w: u32) -> TermId {
    match s {
        Shape::Var(i) | Shape::Leaf(i) => vars[usize::from(i)],
        Shape::Const(k) => p.bv_const(k.at(w)),
        Shape::Neg(a) => {
            let a = instance(p, *a, vars, w);
            p.bv_neg(a)
        }
        Shape::Bv(op, a, b) => {
            let (a, b) = (instance(p, *a, vars, w), instance(p, *b, vars, w));
            by_name(op).1(p, a, b)
        }
        Shape::Ite(c, a, b) => {
            let c = instance(p, *c, vars, w);
            let (a, b) = (instance(p, *a, vars, w), instance(p, *b, vars, w));
            p.ite(c, a, b)
        }
        Shape::Bool(_)
        | Shape::Not(_)
        | Shape::Eq(..)
        | Shape::Ne(..)
        | Shape::And(..)
        | Shape::Or(..)
        | Shape::Zext2(_) => panic!("{s:?} on a left-hand side"),
    }
}

/// The value of a left-hand-side shape, from the `BvVal` methods alone.
fn value(s: Shape, vals: &[Value; 4], w: u32) -> Value {
    let bv = |s: &Shape| value(*s, vals, w).as_bv();
    match s {
        Shape::Var(i) | Shape::Leaf(i) => vals[usize::from(i)],
        Shape::Const(k) => Value::Bv(k.at(w)),
        Shape::Neg(a) => Value::Bv(bv(a).neg()),
        Shape::Bv(op, a, b) => by_name(op).2(bv(a), bv(b)),
        Shape::Ite(c, a, b) => value(if value(*c, vals, w).as_bool() { *a } else { *b }, vals, w),
        Shape::Bool(_)
        | Shape::Not(_)
        | Shape::Eq(..)
        | Shape::Ne(..)
        | Shape::And(..)
        | Shape::Or(..)
        | Shape::Zext2(_) => panic!("{s:?} on a left-hand side"),
    }
}

/// Assignments of the law variables `used`, indexed by variable: every
/// one at widths 1–6, the boolean variable 3 at false and true. At i8 a
/// three-variable law would take all 2^24, so its second variable takes
/// the values within 16 of zero, MIN, MIN+1 and MAX, and its third the
/// edge values 0, 1, 2, −1, MIN, MIN+1 and MAX. A four-variable law (a
/// select's condition and three bitvectors) gives its last variable the
/// edge values from i5 up.
fn assignments(used: &[u8], w: u32) -> impl Iterator<Item = [Value; 4]> {
    let min = BvVal::int_min(w);
    let extremes = [min, min.add(BvVal::one(w)), BvVal::int_max(w)];
    let near_zero = (-16..=16).map(|v| BvVal::from_i128(w, v));
    let edges = [0, 1, 2, -1].map(|v| BvVal::from_i128(w, v));
    let bvs = |d: Vec<BvVal>| d.into_iter().map(Value::Bv).collect();
    let domains: Vec<(u8, Vec<Value>)> = used
        .iter()
        .enumerate()
        .map(|(k, &i)| match (w, used.len(), k) {
            _ if i == 3 => (i, vec![Value::Bool(false), Value::Bool(true)]),
            (8, 3, 1) => (i, bvs(near_zero.clone().chain(extremes).collect())),
            (8, 3, 2) | (5.., 4, 3) => (i, bvs(edges.into_iter().chain(extremes).collect())),
            _ => (i, bvs(values(w).collect())),
        })
        .collect();
    let count: usize = domains.iter().map(|(_, d)| d.len()).product();
    (0..count).map(move |mut n| {
        let mut vals = [Value::Bv(BvVal::zero(w)); 4];
        for (i, domain) in &domains {
            vals[usize::from(*i)] = domain[n % domain.len()];
            n /= domain.len();
        }
        vals
    })
}

#[test]
fn every_law_fires_and_keeps_the_value() {
    let laws = laws();
    // The names key the `smt.laws.<name>` trace counters.
    let names: Vec<&str> = laws.iter().map(|(_, law)| law.name).collect();
    assert_eq!(
        names,
        [
            "and-self",
            "and-zero",
            "and-ones",
            "or-self",
            "or-ones",
            "or-zero",
            "xor-self",
            "xor-zero",
            "xor-ones",
            "xor-ite",
            "add-zero",
            "add-ite",
            "sub-self",
            "sub-zero",
            "mul-zero",
            "mul-one",
            "mul-ite",
            "udiv-one",
            "udiv-shl",
            "udiv-udiv",
            "udiv-mul",
            "urem-self",
            "urem-one",
            "sdiv-one",
            "sdiv-ones",
            "sdiv-neg",
            "sdiv-sdiv",
            "sdiv-shl",
            "srem-self",
            "srem-one",
            "srem-ones",
            "srem-neg",
            "shl-zero",
            "lshr-zero",
            "ashr-zero",
            "ult-self",
            "ule-self",
            "slt-self",
            "sle-self",
        ]
    );
    for (op, law) in laws {
        let (name, ctor, method) = by_name(op);
        let mut used = Vec::new();
        law.lhs.iter().for_each(|&s| variables(s, &mut used));
        // The signed laws are also walked at i8, where MIN and the
        // overflowing quotient sit far from the small values.
        let signed = matches!(op, BvOp::Sdiv | BvOp::Srem);
        let widths = WIDTHS.chain(signed.then_some(8));
        let mut fired_widths = 0;
        let mut guard_false = false;
        for w in widths {
            let mut p = TermPool::new();
            let [x, y, c] = ["x", "y", "c"].map(|n| p.var(n, Sort::BitVec(w)));
            let vars = [x, y, c, p.var("b", Sort::Bool)];
            let [a, b] = law.lhs.map(|s| instance(&mut p, s, &vars, w));
            // A commutative operator's law matches either operand order.
            let [sa, sb] = law.lhs;
            let mut orders = vec![((a, sa), (b, sb))];
            if op.def().commutes {
                orders.push(((b, sb), (a, sa)));
            }
            let mut fired_here = true;
            for ((l, sl), (r, sr)) in orders {
                let before = p.law_firings().get(law.name).copied().unwrap_or(0);
                let t = ctor(&mut p, l, r);
                let at = format!(
                    "{name} {} i{w} ({} {})",
                    law.name,
                    p.display(l),
                    p.display(r)
                );
                let fired = p.law_firings().get(law.name).copied().unwrap_or(0) > before;
                fired_here &= fired;
                let plain = |t: TermId| {
                    matches!(p.term(t).op, Op::Bv(o, x, y)
                        if o == op && ((x, y) == (l, r) || (y, x) == (l, r)))
                };
                // A row earlier in the table may take the instance (at i1,
                // 1 = ones), but no instance stays the plain term unless a
                // guard keeps it as the else branch.
                let guard = match (law.guard, &p.term(t).op) {
                    (Some(_), &Op::Ite(g, _, e)) if fired => {
                        assert!(plain(e), "{at}: else branch {}", p.display(e));
                        Some(g)
                    }
                    (Some(_), _) => {
                        assert!(!fired, "{at}: guarded law built {}", p.display(t));
                        None
                    }
                    (None, _) => {
                        assert!(!plain(t), "{at}: did not fire");
                        None
                    }
                };
                let mut env = Assignment::new();
                for vals in assignments(&used, w) {
                    for &i in &used {
                        env.set(vars[usize::from(i)], vals[usize::from(i)]);
                    }
                    let want = method(value(sl, &vals, w).as_bv(), value(sr, &vals, w).as_bv());
                    assert_eq!(eval(&p, t, &env).unwrap(), want, "{at} at {vals:?}");
                    if let Some(g) = guard.filter(|_| !guard_false) {
                        guard_false = eval(&p, g, &env).unwrap() == Value::Bool(false);
                    }
                }
            }
            fired_widths += u32::from(fired_here);
        }
        assert!(fired_widths > 0, "{name} {}: never fired", law.name);
        if law.guard.is_some() {
            assert!(guard_false, "{name} {}: guard never false", law.name);
        }
    }
}
