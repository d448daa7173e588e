//! The bit-blaster must agree with the reference semantics ([`BvVal`]) on
//! every operation: for concrete inputs a, b and every operator `op`, the
//! formula `op(x, y) == op_ref(a, b) ∧ x == a ∧ y == b` must be SAT, and
//! `op(x, y) != op_ref(a, b) ∧ x == a ∧ y == b` must be UNSAT.
//!
//! Because inputs go through *variables*, the term simplifier cannot
//! constant-fold the operator away — the circuit itself is exercised.

use alive_smt::{BvVal, SmtSolver, SolveResult, Sort, TermId, TermPool};
use proptest::prelude::*;

type BinOp = (
    &'static str,
    fn(&mut TermPool, TermId, TermId) -> TermId,
    fn(BvVal, BvVal) -> BvVal,
);

fn binops() -> Vec<BinOp> {
    vec![
        ("add", TermPool::bv_add, BvVal::add),
        ("sub", TermPool::bv_sub, BvVal::sub),
        ("mul", TermPool::bv_mul, BvVal::mul),
        ("udiv", TermPool::bv_udiv, BvVal::udiv),
        ("urem", TermPool::bv_urem, BvVal::urem),
        ("sdiv", TermPool::bv_sdiv, BvVal::sdiv),
        ("srem", TermPool::bv_srem, BvVal::srem),
        ("and", TermPool::bv_and, BvVal::and),
        ("or", TermPool::bv_or, BvVal::or),
        ("xor", TermPool::bv_xor, BvVal::xor),
        ("shl", TermPool::bv_shl, BvVal::shl),
        ("lshr", TermPool::bv_lshr, BvVal::lshr),
        ("ashr", TermPool::bv_ashr, BvVal::ashr),
    ]
}

type CmpOp = (
    &'static str,
    fn(&mut TermPool, TermId, TermId) -> TermId,
    fn(BvVal, BvVal) -> bool,
);

fn cmpops() -> Vec<CmpOp> {
    vec![
        ("ult", TermPool::bv_ult, BvVal::ult),
        ("ule", TermPool::bv_ule, BvVal::ule),
        ("slt", TermPool::bv_slt, BvVal::slt),
        ("sle", TermPool::bv_sle, BvVal::sle),
    ]
}

/// Checks one operator instance both ways (SAT on agreement, UNSAT on
/// disagreement).
fn check_binop(op: &BinOp, width: u32, a: u128, b: u128) {
    let (name, build, reference) = op;
    let va = BvVal::new(width, a);
    let vb = BvVal::new(width, b);
    let expect = reference(va, vb);

    let mut p = TermPool::new();
    let x = p.var("x", Sort::BitVec(width));
    let y = p.var("y", Sort::BitVec(width));
    let r = build(&mut p, x, y);
    let ca = p.bv_const(va);
    let cb = p.bv_const(vb);
    let ce = p.bv_const(expect);
    let bind_x = p.eq(x, ca);
    let bind_y = p.eq(y, cb);

    // Agreement must be satisfiable.
    let agree = p.eq(r, ce);
    let mut s = SmtSolver::new();
    s.assert_term(&p, bind_x);
    s.assert_term(&p, bind_y);
    s.assert_term(&p, agree);
    assert_eq!(
        s.check(),
        SolveResult::Sat,
        "{name}(i{width}: {a}, {b}) circuit disagrees with reference {expect:?}"
    );

    // Disagreement must be unsatisfiable.
    let differ = p.ne(r, ce);
    let mut s2 = SmtSolver::new();
    s2.assert_term(&p, bind_x);
    s2.assert_term(&p, bind_y);
    s2.assert_term(&p, differ);
    assert_eq!(
        s2.check(),
        SolveResult::Unsat,
        "{name}(i{width}: {a}, {b}) circuit nondeterministic vs {expect:?}"
    );
}

fn check_cmpop(op: &CmpOp, width: u32, a: u128, b: u128) {
    let (name, build, reference) = op;
    let va = BvVal::new(width, a);
    let vb = BvVal::new(width, b);
    let expect = reference(va, vb);

    let mut p = TermPool::new();
    let x = p.var("x", Sort::BitVec(width));
    let y = p.var("y", Sort::BitVec(width));
    let r = build(&mut p, x, y);
    let ca = p.bv_const(va);
    let cb = p.bv_const(vb);
    let bind_x = p.eq(x, ca);
    let bind_y = p.eq(y, cb);
    let want = p.bool_const(expect);
    let agree = p.eq(r, want);
    let mut s = SmtSolver::new();
    s.assert_term(&p, bind_x);
    s.assert_term(&p, bind_y);
    s.assert_term(&p, agree);
    assert_eq!(
        s.check(),
        SolveResult::Sat,
        "{name}(i{width}: {a}, {b}) != reference {expect}"
    );
    let differ = p.ne(r, want);
    let mut s2 = SmtSolver::new();
    s2.assert_term(&p, bind_x);
    s2.assert_term(&p, bind_y);
    s2.assert_term(&p, differ);
    assert_eq!(s2.check(), SolveResult::Unsat, "{name} nondeterministic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn binops_match_reference(a in any::<u64>(), b in any::<u64>(), w in 1u32..=8) {
        for op in binops() {
            check_binop(&op, w, a as u128, b as u128);
        }
    }

    #[test]
    fn cmpops_match_reference(a in any::<u64>(), b in any::<u64>(), w in 1u32..=8) {
        for op in cmpops() {
            check_cmpop(&op, w, a as u128, b as u128);
        }
    }

    #[test]
    fn extensions_match_reference(a in any::<u64>(), w in 1u32..=8, extra in 1u32..=8) {
        let va = BvVal::new(w, a as u128);
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(w));
        let ca = p.bv_const(va);
        let bind = p.eq(x, ca);

        let z = p.zext(x, w + extra);
        let sx = p.sext(x, w + extra);
        let zc = p.bv_const(va.zext(w + extra));
        let sc = p.bv_const(va.sext(w + extra));
        let ez = p.eq(z, zc);
        let es = p.eq(sx, sc);
        let both = p.and2(ez, es);
        let mut s = SmtSolver::new();
        s.assert_term(&p, bind);
        let neg = p.not(both);
        s.assert_term(&p, neg);
        prop_assert_eq!(s.check(), SolveResult::Unsat);
    }

    #[test]
    fn concat_extract_roundtrip(a in any::<u64>(), wa in 1u32..=6, wb in 1u32..=6) {
        let hi_val = BvVal::new(wa, a as u128);
        let lo_val = BvVal::new(wb, (a >> 7) as u128);
        let mut p = TermPool::new();
        let hi = p.var("hi", Sort::BitVec(wa));
        let lo = p.var("lo", Sort::BitVec(wb));
        let chv = p.bv_const(hi_val);
        let clv = p.bv_const(lo_val);
        let bh = p.eq(hi, chv);
        let bl = p.eq(lo, clv);
        let cat = p.concat(hi, lo);
        let back_hi = p.extract(cat, wa + wb - 1, wb);
        let back_lo = p.extract(cat, wb - 1, 0);
        let ok1 = p.eq(back_hi, hi);
        let ok2 = p.eq(back_lo, lo);
        let ok = p.and2(ok1, ok2);
        let bad = p.not(ok);
        let mut s = SmtSolver::new();
        s.assert_term(&p, bh);
        s.assert_term(&p, bl);
        s.assert_term(&p, bad);
        prop_assert_eq!(s.check(), SolveResult::Unsat);
    }
}

/// The remainder rewrites the ring normal form relies on,
/// `a rem b = a − (a div b)·b`, as circuits checked against `bvurem` and
/// `bvsrem`.
fn rem_rewrites() -> Vec<BinOp> {
    vec![
        (
            "urem-as-udiv",
            |p, x, y| {
                let q = p.bv_udiv(x, y);
                let m = p.bv_mul(q, y);
                p.bv_sub(x, m)
            },
            BvVal::urem,
        ),
        (
            "srem-as-sdiv",
            |p, x, y| {
                let q = p.bv_sdiv(x, y);
                let m = p.bv_mul(q, y);
                p.bv_sub(x, m)
            },
            BvVal::srem,
        ),
    ]
}

/// Exhaustive check at width 3 of every binop and of the remainder
/// rewrites: 8×8 inputs × 15 ops. Each rewrite must also fold against the
/// remainder it replaces.
#[test]
fn exhaustive_width3() {
    for a in 0..8u128 {
        for b in 0..8u128 {
            for op in binops().iter().chain(&rem_rewrites()) {
                check_binop(op, 3, a, b);
            }
            for op in cmpops() {
                check_cmpop(&op, 3, a, b);
            }
        }
    }
    let mut p = TermPool::new();
    let x = p.var("x", Sort::BitVec(3));
    let y = p.var("y", Sort::BitVec(3));
    let rems: [fn(&mut TermPool, TermId, TermId) -> TermId; 2] =
        [TermPool::bv_urem, TermPool::bv_srem];
    for ((name, rewritten, _), rem) in rem_rewrites().into_iter().zip(rems) {
        let r = rem(&mut p, x, y);
        let rw = rewritten(&mut p, x, y);
        let eq = p.eq(r, rw);
        assert_eq!(p.as_bool_const(eq), Some(true), "{name}");
    }
}

/// `udiv`, `urem`, `sdiv` and `srem` of the same operands in one formula,
/// where structural hashing makes them share their dividers: every
/// quotient and remainder must still match the reference, exhaustively at
/// width 3.
#[test]
fn shared_dividers_exhaustive_width3() {
    let ops = [
        (
            TermPool::bv_udiv as fn(&mut TermPool, TermId, TermId) -> TermId,
            BvVal::udiv as fn(BvVal, BvVal) -> BvVal,
        ),
        (TermPool::bv_urem, BvVal::urem),
        (TermPool::bv_sdiv, BvVal::sdiv),
        (TermPool::bv_srem, BvVal::srem),
    ];
    for a in 0..8u128 {
        for b in 0..8u128 {
            let (va, vb) = (BvVal::new(3, a), BvVal::new(3, b));
            let mut p = TermPool::new();
            let x = p.var("x", Sort::BitVec(3));
            let y = p.var("y", Sort::BitVec(3));
            let ca = p.bv_const(va);
            let cb = p.bv_const(vb);
            let bind_x = p.eq(x, ca);
            let bind_y = p.eq(y, cb);
            let agree: Vec<TermId> = ops
                .iter()
                .map(|(build, reference)| {
                    let r = build(&mut p, x, y);
                    let want = p.bv_const(reference(va, vb));
                    p.eq(r, want)
                })
                .collect();
            let all = p.and(agree.iter().copied());
            let mut s = SmtSolver::new();
            s.assert_term(&p, bind_x);
            s.assert_term(&p, bind_y);
            s.assert_term(&p, all);
            assert_eq!(s.check(), SolveResult::Sat, "div/rem of ({a}, {b}) at i3");
            let some_differ = p.not(all);
            let mut s2 = SmtSolver::new();
            s2.assert_term(&p, bind_x);
            s2.assert_term(&p, bind_y);
            s2.assert_term(&p, some_differ);
            assert_eq!(
                s2.check(),
                SolveResult::Unsat,
                "div/rem of ({a}, {b}) at i3"
            );
        }
    }
}

/// The divider must implement SMT-LIB division-by-zero semantics so that
/// the circuit and the evaluator can never disagree.
#[test]
fn division_by_zero_circuit_semantics() {
    for a in [0u128, 1, 5, 7] {
        for op in binops() {
            if matches!(op.0, "udiv" | "urem" | "sdiv" | "srem") {
                check_binop(&op, 3, a, 0);
            }
        }
    }
}

/// INT_MIN / -1 must wrap in the circuit exactly as in the reference.
#[test]
fn int_min_division_overflow() {
    for op in binops() {
        if matches!(op.0, "sdiv" | "srem") {
            check_binop(&op, 4, 8, 0xF); // -8 / -1 at width 4
        }
    }
}
