//! Property test: the simplifying term constructors never change meaning.
//!
//! Random deep expression trees are built twice: once as [`TermPool`] terms
//! (with constructor-time simplification) and once as a shadow computation
//! over concrete [`BvVal`]s. For every random input assignment the term
//! must evaluate to the shadow result — and the same equivalence must hold
//! through the bit-blaster via an SMT query.

use alive_smt::{eval, Assignment, BvVal, SatResult, SmtSolver, Sort, TermId, TermPool};
use proptest::prelude::*;

/// A tiny expression AST for generating random terms.
#[derive(Clone, Debug)]
enum E {
    Var(usize),
    Const(u64),
    Not(Box<E>),
    Neg(Box<E>),
    Bin(u8, Box<E>, Box<E>),
    Ite(Box<E>, Box<E>, Box<E>), // cond: lhs <u rhs of first two children
}

fn expr_strategy(depth: u32) -> BoxedStrategy<E> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(E::Var),
        any::<u64>().prop_map(E::Const),
    ];
    leaf.prop_recursive(depth, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| E::Not(Box::new(e))),
            inner.clone().prop_map(|e| E::Neg(Box::new(e))),
            (0u8..10, inner.clone(), inner.clone()).prop_map(|(op, a, b)| E::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| E::Ite(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
    .boxed()
}

fn build_term(pool: &mut TermPool, e: &E, vars: &[TermId], w: u32) -> TermId {
    match e {
        E::Var(i) => vars[i % vars.len()],
        E::Const(c) => pool.bv(w, *c as u128),
        E::Not(a) => {
            let at = build_term(pool, a, vars, w);
            pool.bv_not(at)
        }
        E::Neg(a) => {
            let at = build_term(pool, a, vars, w);
            pool.bv_neg(at)
        }
        E::Bin(op, a, b) => {
            let at = build_term(pool, a, vars, w);
            let bt = build_term(pool, b, vars, w);
            match op {
                0 => pool.bv_add(at, bt),
                1 => pool.bv_sub(at, bt),
                2 => pool.bv_mul(at, bt),
                3 => pool.bv_and(at, bt),
                4 => pool.bv_or(at, bt),
                5 => pool.bv_xor(at, bt),
                6 => pool.bv_shl(at, bt),
                7 => pool.bv_lshr(at, bt),
                8 => pool.bv_udiv(at, bt),
                _ => pool.bv_urem(at, bt),
            }
        }
        E::Ite(c, a, b) => {
            let ct1 = build_term(pool, c, vars, w);
            let ct2 = build_term(pool, a, vars, w);
            let cond = pool.bv_ult(ct1, ct2);
            let at = build_term(pool, a, vars, w);
            let bt = build_term(pool, b, vars, w);
            pool.ite(cond, at, bt)
        }
    }
}

fn shadow_eval(e: &E, inputs: &[BvVal], w: u32) -> BvVal {
    match e {
        E::Var(i) => inputs[i % inputs.len()],
        E::Const(c) => BvVal::new(w, *c as u128),
        E::Not(a) => shadow_eval(a, inputs, w).not(),
        E::Neg(a) => shadow_eval(a, inputs, w).neg(),
        E::Bin(op, a, b) => {
            let x = shadow_eval(a, inputs, w);
            let y = shadow_eval(b, inputs, w);
            match op {
                0 => x.add(y),
                1 => x.sub(y),
                2 => x.mul(y),
                3 => x.and(y),
                4 => x.or(y),
                5 => x.xor(y),
                6 => x.shl(y),
                7 => x.lshr(y),
                8 => x.udiv(y),
                _ => x.urem(y),
            }
        }
        E::Ite(c, a, b) => {
            let cv = shadow_eval(c, inputs, w);
            let av = shadow_eval(a, inputs, w);
            if cv.ult(av) {
                av
            } else {
                shadow_eval(b, inputs, w)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Constructor simplification preserves the evaluator's semantics.
    #[test]
    fn simplified_terms_evaluate_like_the_shadow(
        e in expr_strategy(5),
        raw in proptest::collection::vec(any::<u64>(), 3),
        w in 1u32..=16,
    ) {
        let mut pool = TermPool::new();
        let vars: Vec<TermId> = (0..3)
            .map(|i| pool.var(format!("v{i}"), Sort::BitVec(w)))
            .collect();
        let term = build_term(&mut pool, &e, &vars, w);
        let inputs: Vec<BvVal> = raw.iter().map(|&r| BvVal::new(w, r as u128)).collect();
        let mut env = Assignment::new();
        for (v, val) in vars.iter().zip(&inputs) {
            env.set(*v, *val);
        }
        let got = eval(&pool, term, &env).unwrap().as_bv();
        let expect = shadow_eval(&e, &inputs, w);
        prop_assert_eq!(got, expect);
    }

    /// The bit-blasted circuit agrees with the evaluator on pinned inputs.
    #[test]
    fn blasted_terms_agree_with_evaluator(
        e in expr_strategy(3),
        raw in proptest::collection::vec(any::<u64>(), 3),
        w in 1u32..=6,
    ) {
        let mut pool = TermPool::new();
        let vars: Vec<TermId> = (0..3)
            .map(|i| pool.var(format!("v{i}"), Sort::BitVec(w)))
            .collect();
        let term = build_term(&mut pool, &e, &vars, w);
        let inputs: Vec<BvVal> = raw.iter().map(|&r| BvVal::new(w, r as u128)).collect();
        let expect = shadow_eval(&e, &inputs, w);

        let mut solver = SmtSolver::new();
        for (v, val) in vars.iter().zip(&inputs) {
            let c = pool.bv_const(*val);
            let eq = pool.eq(*v, c);
            solver.assert_term(&pool, eq);
        }
        let ce = pool.bv_const(expect);
        let differs = pool.ne(term, ce);
        solver.assert_term(&pool, differs);
        prop_assert_eq!(solver.check(), SatResult::Unsat);
    }
}

// ---- the ring normal form behind `TermPool::eq` ----

/// A ring-shaped expression over three variables: the fragment the ring
/// normal form looks inside, plus `and` so that opaque atoms occur.
#[derive(Clone, Debug)]
enum R {
    Var(usize),
    Const(u64),
    Neg(Box<R>),
    Bin(RingOp, Box<R>, Box<R>),
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum RingOp {
    Add,
    Sub,
    Mul,
    Shl,
    Udiv,
    Urem,
    Sdiv,
    Srem,
    And,
}

/// The operators a node draws from; `mul` twice, since the fold only
/// answers equalities with a product on some side.
const RING_OPS: [RingOp; 10] = [
    RingOp::Add,
    RingOp::Sub,
    RingOp::Mul,
    RingOp::Mul,
    RingOp::Shl,
    RingOp::Udiv,
    RingOp::Urem,
    RingOp::Sdiv,
    RingOp::Srem,
    RingOp::And,
];

/// A ring expression whose root is a binary operation, with variables
/// three times as likely as constants at the leaves.
fn ring_strategy(depth: u32) -> BoxedStrategy<R> {
    let var = || (0usize..3).prop_map(R::Var);
    let leaf = prop_oneof![
        var(),
        var(),
        var(),
        (0u64..4).prop_map(R::Const),
        any::<u64>().prop_map(R::Const),
    ];
    let node = |a: BoxedStrategy<R>, b: BoxedStrategy<R>| {
        (0usize..RING_OPS.len(), a, b).prop_map(|(op, a, b)| bin(RING_OPS[op], a, b))
    };
    let tree = leaf.prop_recursive(depth, 32, 2, move |inner| {
        prop_oneof![
            node(inner.clone(), inner.clone()),
            node(inner.clone(), inner.clone()),
            inner.prop_map(|e| R::Neg(Box::new(e))),
        ]
    });
    node(tree.clone(), tree)
}

fn bin(op: RingOp, a: R, b: R) -> R {
    R::Bin(op, Box::new(a), Box::new(b))
}

/// Rewrites `e` node by node with ring identities, each node in a ring
/// position taking the next of `picks`: commute, `a - b = a + -b`, the
/// remainder and shift rules, `a = (a + 3) - 3`. The node numbered
/// `broken` (if any) instead gets a rewrite that changes the meaning (a
/// remainder over the division of the other signedness, swapped `sub`
/// operands, a dropped shift, or `+ 1`), so the fold is offered both equal
/// and unequal pairs.
fn rewrite(e: &R, picks: &[u8], broken: Option<usize>, at: &mut usize) -> R {
    let pick = picks[*at % picks.len()];
    let breaks = broken == Some(*at);
    *at += 1;
    let out = match e {
        R::Var(_) | R::Const(_) => e.clone(),
        R::Neg(a) => R::Neg(Box::new(rewrite(a, picks, broken, at))),
        R::Bin(op, a, b) => {
            // Atoms and quotients are keyed by their operand terms, so
            // identities only apply in ring positions.
            let (a, b) = match op {
                RingOp::Add | RingOp::Sub | RingOp::Mul => {
                    (rewrite(a, picks, broken, at), rewrite(b, picks, broken, at))
                }
                RingOp::Shl => (rewrite(a, picks, broken, at), (**b).clone()),
                _ => ((**a).clone(), (**b).clone()),
            };
            let unsigned = (*op == RingOp::Urem) != breaks;
            let div = if unsigned { RingOp::Udiv } else { RingOp::Sdiv };
            match (op, pick % 6) {
                (RingOp::Sub, _) if breaks => bin(RingOp::Sub, b, a),
                (RingOp::Shl, _) if breaks => a,
                (RingOp::Urem | RingOp::Srem, _) if breaks || pick % 6 == 3 => {
                    let q = bin(div, a.clone(), b.clone());
                    bin(RingOp::Sub, a, bin(RingOp::Mul, q, b))
                }
                (RingOp::Add | RingOp::Mul | RingOp::And, 1) => bin(*op, b, a),
                (RingOp::Sub, 2) => bin(RingOp::Add, a, R::Neg(Box::new(b))),
                (RingOp::Shl, 4) => bin(RingOp::Mul, a, bin(RingOp::Shl, R::Const(1), b)),
                _ => bin(*op, a, b),
            }
        }
    };
    let is_rewritten_op = matches!(
        e,
        R::Bin(RingOp::Sub | RingOp::Shl | RingOp::Urem | RingOp::Srem, ..)
    );
    if breaks && !is_rewritten_op {
        bin(RingOp::Add, out, R::Const(1))
    } else if pick % 6 == 5 {
        bin(RingOp::Sub, bin(RingOp::Add, out, R::Const(3)), R::Const(3))
    } else {
        out
    }
}

fn build_ring(pool: &mut TermPool, e: &R, vars: &[TermId], w: u32) -> TermId {
    match e {
        R::Var(i) => vars[*i],
        R::Const(c) => pool.bv(w, *c as u128),
        R::Neg(a) => {
            let at = build_ring(pool, a, vars, w);
            pool.bv_neg(at)
        }
        R::Bin(op, a, b) => {
            let at = build_ring(pool, a, vars, w);
            let bt = build_ring(pool, b, vars, w);
            match op {
                RingOp::Add => pool.bv_add(at, bt),
                RingOp::Sub => pool.bv_sub(at, bt),
                RingOp::Mul => pool.bv_mul(at, bt),
                RingOp::Shl => pool.bv_shl(at, bt),
                RingOp::Udiv => pool.bv_udiv(at, bt),
                RingOp::Urem => pool.bv_urem(at, bt),
                RingOp::Sdiv => pool.bv_sdiv(at, bt),
                RingOp::Srem => pool.bv_srem(at, bt),
                RingOp::And => pool.bv_and(at, bt),
            }
        }
    }
}

fn shadow_ring(e: &R, inputs: &[BvVal], w: u32) -> BvVal {
    match e {
        R::Var(i) => inputs[*i],
        R::Const(c) => BvVal::new(w, *c as u128),
        R::Neg(a) => shadow_ring(a, inputs, w).neg(),
        R::Bin(op, a, b) => {
            let (x, y) = (shadow_ring(a, inputs, w), shadow_ring(b, inputs, w));
            match op {
                RingOp::Add => x.add(y),
                RingOp::Sub => x.sub(y),
                RingOp::Mul => x.mul(y),
                RingOp::Shl => x.shl(y),
                RingOp::Udiv => x.udiv(y),
                RingOp::Urem => x.urem(y),
                RingOp::Sdiv => x.sdiv(y),
                RingOp::Srem => x.srem(y),
                RingOp::And => x.and(y),
            }
        }
    }
}

/// The assignments a fold is checked on: all 512 at width 3, otherwise
/// the corner values plus `samples` drawn from `raw`.
fn ring_assignments(w: u32, raw: &[u64]) -> Vec<[BvVal; 3]> {
    if w == 3 {
        return (0..512u128)
            .map(|n| [n & 7, (n >> 3) & 7, n >> 6].map(|v| BvVal::new(3, v)))
            .collect();
    }
    let corners = [
        BvVal::zero(w),
        BvVal::one(w),
        BvVal::ones(w),
        BvVal::int_min(w),
        BvVal::int_max(w),
    ];
    let mut out: Vec<[BvVal; 3]> = raw
        .chunks_exact(3)
        .map(|c| [c[0], c[1], c[2]].map(|r| BvVal::new(w, r as u128)))
        .collect();
    for a in corners {
        for b in corners {
            out.push([a, b, BvVal::new(w, raw[0] as u128)]);
        }
    }
    out
}

/// Builds `a` and `b` in one pool and, when `eq` folds them to a constant,
/// checks that constant against the shadow evaluator on every assignment
/// of [`ring_assignments`]. Returns the folded constant.
fn check_ring_fold(a: &R, b: &R, w: u32, raw: &[u64]) -> Result<Option<bool>, String> {
    let mut pool = TermPool::new();
    let vars: Vec<TermId> = (0..3)
        .map(|i| pool.var(format!("v{i}"), Sort::BitVec(w)))
        .collect();
    let at = build_ring(&mut pool, a, &vars, w);
    let bt = build_ring(&mut pool, b, &vars, w);
    let folds = pool.ring_folds();
    let eq = pool.eq(at, bt);
    let Some(folded) = pool.as_bool_const(eq) else {
        return Ok(None);
    };
    if pool.ring_folds() == folds {
        // Decided by a fast path before the ring normal form ran.
        return Ok(None);
    }
    for inputs in ring_assignments(w, raw) {
        let (x, y) = (shadow_ring(a, &inputs, w), shadow_ring(b, &inputs, w));
        if (x == y) != folded {
            return Err(format!(
                "eq folded to {folded} at i{w}, but {x:?} vs {y:?} at {inputs:?}\n  a = {a:?}\n  b = {b:?}"
            ));
        }
    }
    Ok(Some(folded))
}

/// Pairs to compare: an expression against a rewrite of it, possibly
/// broken and possibly offset by a constant, or two unrelated expressions.
fn ring_pair_strategy() -> BoxedStrategy<(R, R, u32, Vec<u64>)> {
    let width = prop_oneof![Just(3u32), Just(8u32), Just(32u32), Just(64u32)];
    let raw = proptest::collection::vec(any::<u64>(), 48);
    let broken = prop_oneof![Just(None), Just(None), (0usize..12).prop_map(Some)];
    let offset = prop_oneof![Just(0u64), Just(0u64), Just(0u64), 1u64..4, any::<u64>()];
    let rewritten = (
        ring_strategy(3),
        proptest::collection::vec(any::<u8>(), 1..8),
        broken,
        offset,
    )
        .prop_map(|(e, picks, broken, offset)| {
            let b = rewrite(&e, &picks, broken, &mut 0);
            let b = if offset == 0 {
                b
            } else {
                bin(RingOp::Add, b, R::Const(offset))
            };
            (e, b)
        });
    let independent = (ring_strategy(2), ring_strategy(2));
    (
        prop_oneof![rewritten.clone(), rewritten, independent],
        width,
        raw,
    )
        .prop_map(|((a, b), w, raw)| (a, b, w, raw))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Whenever the ring normal form decides an equality, the decision is
    /// the shadow evaluator's: on every assignment at width 3, on sampled
    /// and corner assignments at widths 8, 32 and 64.
    #[test]
    fn ring_folds_agree_with_the_shadow((a, b, w, raw) in ring_pair_strategy()) {
        if let Err(msg) = check_ring_fold(&a, &b, w, &raw) {
            panic!("{msg}");
        }
    }
}

/// The property above is not vacuous: the pair generator makes the ring
/// normal form answer both `true` and `false` often.
#[test]
fn ring_fold_property_exercises_both_answers() {
    let strategy = ring_pair_strategy();
    let mut rng = proptest::test_runner::TestRng::deterministic("ring-coverage");
    let (mut t, mut f) = (0, 0);
    for _ in 0..2048 {
        let (a, b, w, raw) = strategy.sample(&mut rng);
        match check_ring_fold(&a, &b, w, &raw).unwrap() {
            Some(true) => t += 1,
            Some(false) => f += 1,
            None => {}
        }
    }
    assert!(t >= 80 && f >= 80, "folds to true: {t}, to false: {f}");
}
