//! Canonical forms and content hashes for transformations.
//!
//! Two textually different transforms are often the *same* optimization:
//! value names are arbitrary (`%x + %y` vs `%a + %b`), commutative
//! operands can be written in either order (`add %x, C` vs `add C, %x`),
//! and precondition conjuncts commute (`A && B` vs `B && A`). A verdict
//! cache keyed on raw text would re-verify all of these; keyed on the
//! **canonical form** computed here, it never verifies the same
//! optimization twice.
//!
//! [`canonicalize`] applies three semantics-preserving normalizations:
//!
//! 1. **Alpha-renaming** — registers become `%v0, %v1, …` in order of
//!    first appearance (source template first, then target, then the
//!    precondition); abstract constants become `C1, C2, …` likewise. The
//!    `Name:` header is dropped: it never affects the verdict.
//! 2. **Commutative-operand normalization** — operands of commutative
//!    instructions (`add`, `mul`, `and`, `or`, `xor`) and of `icmp
//!    eq`/`ne` are put in a fixed order (registers before constants
//!    before `undef`, ties by printed form); "greater" `icmp` predicates
//!    are mirrored into their "less" duals (`sgt a, b` → `slt b, a`);
//!    instruction attributes are sorted; commutative constant-expression
//!    operators are ordered the same way.
//! 3. **Precondition normal form** — `&&`/`||` chains are flattened,
//!    sorted, and deduplicated; double negation is eliminated; identity
//!    elements are dropped (`true && P` → `P`); comparison predicates are
//!    mirrored into the `==`/`!=`/`<`-family duals.
//!
//! Renaming and operand sorting feed each other (sorting changes the
//! order of first appearance, renaming changes the sort keys), so the two
//! are iterated to a fixed point (bounded; in practice 2–3 rounds), and
//! the canonical form is the minimal text over the operand orders of the
//! commutative sites. Only *live* sites — those whose swap can renumber a
//! register or an abstract constant — are enumerated; every other site
//! is sorted once, with the same result as enumerating it (the argument
//! is on [`canonicalize`]).
//!
//! [`canonical_hash`] is the FNV-1a 64 hash of the canonical printed
//! text. It identifies the *optimization*, not the source bytes, and is
//! the cache key used by the verdict store and `alive serve`. Because a
//! 64-bit hash can collide, correctness-critical consumers must compare
//! the [`canonical_text`] itself on lookup — the hash only buckets.

use crate::ast::*;
use std::collections::HashSet;

/// FNV-1a 64-bit hash of arbitrary bytes (the same non-cryptographic hash
/// the verdict store uses: it guards against accidents, not
/// adversaries).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Transforms with more commutative sites than this fall back to the
/// greedy single-candidate canonicalization. The count is over *all*
/// sites, live or inert, so the cut-off — and the canonical text of a
/// transform beyond it — does not depend on which sites the orbit search
/// enumerates. At most 2^8 = 256 candidates are print-and-compared; real
/// corpus transforms have a handful of commutative instructions at most,
/// and fewer live ones.
const MAX_ORBIT_BITS: usize = 8;

/// Returns the canonical form of a transform: alpha-renamed, with
/// commutative operands in a fixed order and the precondition in normal
/// form. The result is semantically equivalent to the input. It is
/// usually a fixed point of [`canonicalize`] itself, but not always:
/// commutative operators *inside* constant expressions (`C1 * C2`) are
/// ordered by printed form, not enumerated, so when such an expression
/// pairs two abstract constants the renumbering of a second pass can
/// reorder it.
///
/// Operand order and value naming feed each other: registers are
/// numbered by first appearance, and first appearance depends on which
/// operand of a commutative instruction comes first. A greedy
/// sort-then-rename loop is therefore order-sensitive — `add %x, %y` and
/// `add %y, %x` can land on *different* fixed points when `%x` and `%y`
/// play asymmetric roles elsewhere. The canonical form is instead the
/// lexicographically **minimal printed text over the commutation orbit**:
/// each choice of operand order over the commutative sites (up to
/// [`MAX_ORBIT_BITS`] sites) is alpha-renamed and structurally
/// normalized, and the smallest text wins. The orbit of a transform and
/// of any commuted variant are the same candidate set, so the minimum —
/// and hence the hash — agrees.
///
/// Only the **live** sites are enumerated; inert sites keep their input
/// orientation. Walking the statements in `alpha_rename`'s scan order
/// (source, then target; operands before the defined name), a site is
/// live iff both of its operands mention a register not yet seen, or
/// both mention an abstract constant not yet seen (registers inside
/// constant expressions such as `width(%x)` count). Enumerating only
/// those gives the same text as enumerating every site:
///
/// - Registers and constants are numbered by separate counters, so
///   swapping an inert site leaves the first `alpha_rename` unchanged;
///   the two candidates then differ only in that site's orientation.
/// - `canon_inst` orders every site by `operand_key`, so the two are
///   equal after the first `normalize_structure` (operands whose keys
///   tie print identically, so the text agrees either way).
/// - `alpha_rename` is idempotent, so if one candidate reaches its fixed
///   point one round before the other, both still return the same
///   transform.
///
/// Each candidate's text is thus shared by its whole class of inert
/// orientations, and the minimum over the live masks is the minimum over
/// the full orbit.
pub fn canonicalize(t: &Transform) -> Transform {
    let mut base = t.clone();
    base.name = None;
    let (count, live) = commutative_sites(&base);
    if count > MAX_ORBIT_BITS {
        // Too many sites to enumerate: the greedy form is still
        // deterministic and semantics-preserving, it just may miss some
        // commuted duplicates (a cache miss, never a wrong hit).
        return greedy_canon(&base);
    }
    let mut best: Option<(String, Transform)> = None;
    for mask in 0..(1u32 << live.len()) {
        let candidate = apply_commutation_mask(&base, &live, mask);
        let canon = greedy_canon(&candidate);
        let text = canon.to_string();
        if best.as_ref().is_none_or(|(min, _)| text < *min) {
            best = Some((text, canon));
        }
    }
    best.expect("orbit is never empty").1
}

/// The bounded rename/normalize fixed-point underlying [`canonicalize`]:
/// deterministic for a fixed operand order.
fn greedy_canon(t: &Transform) -> Transform {
    let mut cur = t.clone();
    for _ in 0..8 {
        let renamed = alpha_rename(&cur);
        let sorted = normalize_structure(&renamed);
        let stable = sorted == renamed;
        cur = sorted;
        if stable {
            break;
        }
    }
    cur
}

/// Counts the commutative sites (commutative binops and `icmp eq`/`ne`
/// with two distinct operands) and lists the positions of the **live**
/// ones (false = source, true = target; then statement index).
///
/// A site is live when swapping its operands can change the numbering
/// [`alpha_rename`] assigns: scanning in its order (source, then target;
/// operands before the defined name), both operands mention a register
/// not yet seen, or both mention an abstract constant not yet seen.
/// Registers and constants are numbered by separate counters, so when at
/// most one operand brings new names of each kind, either order numbers
/// them identically. The names seen before a statement are the same in
/// every orbit candidate (only their order differs), so liveness does not
/// depend on how the other sites are oriented.
fn commutative_sites(t: &Transform) -> (usize, Vec<(bool, usize)>) {
    let mut count = 0;
    let mut live = Vec::new();
    let mut seen = HashSet::new();
    // Does the operand mention a register, and an abstract constant, not
    // in `seen`?
    let unseen = |seen: &HashSet<Name>, op| {
        let (mut reg, mut sym) = (false, false);
        operand_names(op, &mut |n| match n {
            Name::Reg(_) => reg |= !seen.contains(&n),
            Name::Sym(_) => sym |= !seen.contains(&n),
        });
        (reg, sym)
    };
    for (in_target, stmts) in [(false, &t.source), (true, &t.target)] {
        for (i, s) in stmts.iter().enumerate() {
            let pair = match &s.inst {
                Inst::BinOp { op, a, b, .. } if binop_commutes(*op) => Some((a, b)),
                Inst::ICmp {
                    pred: ICmpPred::Eq | ICmpPred::Ne,
                    a,
                    b,
                } => Some((a, b)),
                _ => None,
            };
            if let Some((a, b)) = pair.filter(|(a, b)| a != b) {
                count += 1;
                let (reg_a, sym_a) = unseen(&seen, a);
                let (reg_b, sym_b) = unseen(&seen, b);
                if (reg_a && reg_b) || (sym_a && sym_b) {
                    live.push((in_target, i));
                }
            }
            for op in s.inst.operands() {
                operand_names(op, &mut |n| {
                    seen.insert(n);
                });
            }
            if let Some(n) = &s.name {
                seen.insert(Name::Reg(n));
            }
        }
    }
    (count, live)
}

/// Applies one orbit candidate: swaps the operands of site `k` whenever
/// bit `k` of `mask` is set.
fn apply_commutation_mask(t: &Transform, sites: &[(bool, usize)], mask: u32) -> Transform {
    let mut out = t.clone();
    for (k, (in_target, i)) in sites.iter().enumerate() {
        if mask & (1 << k) == 0 {
            continue;
        }
        let stmts = if *in_target {
            &mut out.target
        } else {
            &mut out.source
        };
        match &mut stmts[*i].inst {
            Inst::BinOp { a, b, .. } | Inst::ICmp { a, b, .. } => std::mem::swap(a, b),
            _ => unreachable!("site list only names binop/icmp statements"),
        }
    }
    out
}

/// The canonical printed text of a transform (the preimage of
/// [`canonical_hash`]). Two transforms with equal canonical text are the
/// same optimization up to naming, commutativity, and precondition order.
pub fn canonical_text(t: &Transform) -> String {
    canonicalize(t).to_string()
}

/// The canonical content hash of a transform: FNV-1a 64 over
/// [`canonical_text`], rendered by callers as 16 lower-case hex digits.
pub fn canonical_hash(t: &Transform) -> u64 {
    fnv1a64(canonical_text(t).as_bytes())
}

// ---------------------------------------------------------------------------
// Alpha-renaming
// ---------------------------------------------------------------------------

/// A register or abstract-constant name mentioned by an operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Name<'a> {
    Reg(&'a str),
    Sym(&'a str),
}

/// Visits the names a constant expression mentions, left to right.
fn cexpr_names<'a>(e: &'a CExpr, f: &mut dyn FnMut(Name<'a>)) {
    match e {
        CExpr::Lit(_) => {}
        CExpr::Sym(s) => f(Name::Sym(s)),
        CExpr::Unop(_, a) => cexpr_names(a, f),
        CExpr::Binop(_, a, b) => {
            cexpr_names(a, f);
            cexpr_names(b, f);
        }
        CExpr::Fun(_, args) => {
            for a in args {
                match a {
                    CExprArg::Expr(e) => cexpr_names(e, f),
                    CExprArg::Reg(r) => f(Name::Reg(r)),
                }
            }
        }
    }
}

/// Visits the names an operand mentions, left to right.
fn operand_names<'a>(op: &'a Operand, f: &mut dyn FnMut(Name<'a>)) {
    match op {
        Operand::Reg(n, _) => f(Name::Reg(n)),
        Operand::Const(e, _) => cexpr_names(e, f),
        Operand::Undef(_) => {}
    }
}

/// An injective rename of registers and abstract constants, built in
/// order of first appearance.
#[derive(Default)]
struct Renamer {
    regs: std::collections::HashMap<String, String>,
    syms: std::collections::HashMap<String, String>,
}

impl Renamer {
    fn see_reg(&mut self, name: &str) {
        if !self.regs.contains_key(name) {
            let fresh = format!("v{}", self.regs.len());
            self.regs.insert(name.to_string(), fresh);
        }
    }

    fn see_sym(&mut self, name: &str) {
        if !self.syms.contains_key(name) {
            let fresh = format!("C{}", self.syms.len() + 1);
            self.syms.insert(name.to_string(), fresh);
        }
    }

    fn reg(&self, name: &str) -> String {
        // A register the scan never saw (impossible in a validated
        // transform) keeps its name: determinism matters more than
        // prettiness here.
        self.regs
            .get(name)
            .cloned()
            .unwrap_or_else(|| name.to_string())
    }

    fn sym(&self, name: &str) -> String {
        self.syms
            .get(name)
            .cloned()
            .unwrap_or_else(|| name.to_string())
    }

    fn see(&mut self, name: Name<'_>) {
        match name {
            Name::Reg(r) => self.see_reg(r),
            Name::Sym(s) => self.see_sym(s),
        }
    }

    fn see_cexpr(&mut self, e: &CExpr) {
        cexpr_names(e, &mut |n| self.see(n));
    }

    fn see_operand(&mut self, op: &Operand) {
        operand_names(op, &mut |n| self.see(n));
    }

    fn see_pred(&mut self, p: &Pred) {
        match p {
            Pred::True => {}
            Pred::Not(a) => self.see_pred(a),
            Pred::And(a, b) | Pred::Or(a, b) => {
                self.see_pred(a);
                self.see_pred(b);
            }
            Pred::Cmp(_, a, b) => {
                self.see_cexpr(a);
                self.see_cexpr(b);
            }
            Pred::Fun(_, args) => {
                for a in args {
                    match a {
                        PredArg::Reg(r) => self.see_reg(r),
                        PredArg::Expr(e) => self.see_cexpr(e),
                    }
                }
            }
        }
    }

    fn map_cexpr(&self, e: &CExpr) -> CExpr {
        match e {
            CExpr::Lit(n) => CExpr::Lit(*n),
            CExpr::Sym(s) => CExpr::Sym(self.sym(s)),
            CExpr::Unop(op, a) => CExpr::Unop(*op, Box::new(self.map_cexpr(a))),
            CExpr::Binop(op, a, b) => CExpr::Binop(
                *op,
                Box::new(self.map_cexpr(a)),
                Box::new(self.map_cexpr(b)),
            ),
            CExpr::Fun(name, args) => CExpr::Fun(
                name.clone(),
                args.iter()
                    .map(|a| match a {
                        CExprArg::Expr(e) => CExprArg::Expr(self.map_cexpr(e)),
                        CExprArg::Reg(r) => CExprArg::Reg(self.reg(r)),
                    })
                    .collect(),
            ),
        }
    }

    fn map_operand(&self, op: &Operand) -> Operand {
        match op {
            Operand::Reg(n, t) => Operand::Reg(self.reg(n), t.clone()),
            Operand::Const(e, t) => Operand::Const(self.map_cexpr(e), t.clone()),
            Operand::Undef(t) => Operand::Undef(t.clone()),
        }
    }

    fn map_pred(&self, p: &Pred) -> Pred {
        match p {
            Pred::True => Pred::True,
            Pred::Not(a) => Pred::Not(Box::new(self.map_pred(a))),
            Pred::And(a, b) => Pred::And(Box::new(self.map_pred(a)), Box::new(self.map_pred(b))),
            Pred::Or(a, b) => Pred::Or(Box::new(self.map_pred(a)), Box::new(self.map_pred(b))),
            Pred::Cmp(op, a, b) => Pred::Cmp(*op, self.map_cexpr(a), self.map_cexpr(b)),
            Pred::Fun(name, args) => Pred::Fun(
                name.clone(),
                args.iter()
                    .map(|a| match a {
                        PredArg::Reg(r) => PredArg::Reg(self.reg(r)),
                        PredArg::Expr(e) => PredArg::Expr(self.map_cexpr(e)),
                    })
                    .collect(),
            ),
        }
    }
}

/// Applies one operand-wise instruction rewrite.
fn map_inst(inst: &Inst, f: &dyn Fn(&Operand) -> Operand) -> Inst {
    match inst {
        Inst::BinOp { op, flags, a, b } => Inst::BinOp {
            op: *op,
            flags: flags.clone(),
            a: f(a),
            b: f(b),
        },
        Inst::Conv { op, arg, to } => Inst::Conv {
            op: *op,
            arg: f(arg),
            to: to.clone(),
        },
        Inst::Select {
            cond,
            on_true,
            on_false,
        } => Inst::Select {
            cond: f(cond),
            on_true: f(on_true),
            on_false: f(on_false),
        },
        Inst::ICmp { pred, a, b } => Inst::ICmp {
            pred: *pred,
            a: f(a),
            b: f(b),
        },
        Inst::Alloca { ty, count } => Inst::Alloca {
            ty: ty.clone(),
            count: f(count),
        },
        Inst::Load { ptr } => Inst::Load { ptr: f(ptr) },
        Inst::Store { val, ptr } => Inst::Store {
            val: f(val),
            ptr: f(ptr),
        },
        Inst::Gep { ptr, idxs } => Inst::Gep {
            ptr: f(ptr),
            idxs: idxs.iter().map(&f).collect(),
        },
        Inst::Copy { val } => Inst::Copy { val: f(val) },
        Inst::Unreachable => Inst::Unreachable,
    }
}

/// Renames every register to `v<k>` and every abstract constant to
/// `C<k>`, numbering by first appearance: source statements (operands
/// before the defined name), then target statements, then the
/// precondition. The numbering depends only on structure, so any two
/// alpha-variants of one transform rename to the identical term.
fn alpha_rename(t: &Transform) -> Transform {
    let mut r = Renamer::default();
    for stmt in t.source.iter().chain(&t.target) {
        for op in stmt.inst.operands() {
            r.see_operand(op);
        }
        if let Some(n) = &stmt.name {
            r.see_reg(n);
        }
    }
    r.see_pred(&t.pre);
    Transform {
        name: t.name.clone(),
        pre: r.map_pred(&t.pre),
        source: t
            .source
            .iter()
            .map(|s| Stmt {
                name: s.name.as_deref().map(|n| r.reg(n)),
                inst: map_inst(&s.inst, &|op| r.map_operand(op)),
            })
            .collect(),
        target: t
            .target
            .iter()
            .map(|s| Stmt {
                name: s.name.as_deref().map(|n| r.reg(n)),
                inst: map_inst(&s.inst, &|op| r.map_operand(op)),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Structural normalization (commutativity, flags, precondition)
// ---------------------------------------------------------------------------

/// Is the integer operation commutative (safe to reorder its operands)?
fn binop_commutes(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

/// Sort key for commutative operands: registers first, then constants,
/// then `undef`, ties broken by printed form. Registers-first matches the
/// corpus's prevailing `op %x, C` style, so most transforms are already
/// canonical.
fn operand_key(op: &Operand) -> (u8, String) {
    let rank = match op {
        Operand::Reg(..) => 0,
        Operand::Const(..) => 1,
        Operand::Undef(..) => 2,
    };
    (rank, op.to_string())
}

/// Mirrors a "greater" comparison into its "less" dual; returns the new
/// predicate and whether the operands must swap.
fn mirror_icmp(pred: ICmpPred) -> (ICmpPred, bool) {
    match pred {
        ICmpPred::Sgt => (ICmpPred::Slt, true),
        ICmpPred::Sge => (ICmpPred::Sle, true),
        ICmpPred::Ugt => (ICmpPred::Ult, true),
        ICmpPred::Uge => (ICmpPred::Ule, true),
        p => (p, false),
    }
}

/// Mirrors a "greater" precondition comparison into its "less" dual.
fn mirror_pred_cmp(op: PredCmpOp) -> (PredCmpOp, bool) {
    match op {
        PredCmpOp::Sgt => (PredCmpOp::Slt, true),
        PredCmpOp::Sge => (PredCmpOp::Sle, true),
        PredCmpOp::Ugt => (PredCmpOp::Ult, true),
        PredCmpOp::Uge => (PredCmpOp::Ule, true),
        op => (op, false),
    }
}

/// Is the constant-expression operator commutative?
fn cbinop_commutes(op: CBinop) -> bool {
    matches!(
        op,
        CBinop::Add | CBinop::Mul | CBinop::And | CBinop::Or | CBinop::Xor
    )
}

/// Normalizes a constant expression: recurse, then order the operands of
/// commutative operators by printed form.
fn canon_cexpr(e: &CExpr) -> CExpr {
    match e {
        CExpr::Lit(n) => CExpr::Lit(*n),
        CExpr::Sym(s) => CExpr::Sym(s.clone()),
        CExpr::Unop(op, a) => CExpr::Unop(*op, Box::new(canon_cexpr(a))),
        CExpr::Binop(op, a, b) => {
            let mut a = canon_cexpr(a);
            let mut b = canon_cexpr(b);
            if cbinop_commutes(*op) && b.to_string() < a.to_string() {
                std::mem::swap(&mut a, &mut b);
            }
            CExpr::Binop(*op, Box::new(a), Box::new(b))
        }
        CExpr::Fun(name, args) => CExpr::Fun(
            name.clone(),
            args.iter()
                .map(|a| match a {
                    CExprArg::Expr(e) => CExprArg::Expr(canon_cexpr(e)),
                    CExprArg::Reg(r) => CExprArg::Reg(r.clone()),
                })
                .collect(),
        ),
    }
}

/// Flattens an `&&` (or `||`) spine into its leaves.
fn flatten_pred(p: Pred, conj: bool, out: &mut Vec<Pred>) {
    match (conj, p) {
        (true, Pred::And(a, b)) => {
            flatten_pred(*a, true, out);
            flatten_pred(*b, true, out);
        }
        (false, Pred::Or(a, b)) => {
            flatten_pred(*a, false, out);
            flatten_pred(*b, false, out);
        }
        (_, leaf) => out.push(leaf),
    }
}

/// Rebuilds a sorted, deduplicated leaf list into a right-leaning spine.
fn rebuild_pred(mut leaves: Vec<Pred>, conj: bool) -> Pred {
    leaves.sort_by_key(|p| p.to_string());
    leaves.dedup();
    let mut it = leaves.into_iter().rev();
    let Some(last) = it.next() else {
        return Pred::True;
    };
    it.fold(last, |acc, p| {
        if conj {
            Pred::And(Box::new(p), Box::new(acc))
        } else {
            Pred::Or(Box::new(p), Box::new(acc))
        }
    })
}

/// Puts a precondition into normal form: flattened, sorted, deduplicated
/// `&&`/`||` chains; no double negation; `true` identity elements
/// dropped; comparisons mirrored into the `<`-family and `==`/`!=`
/// operands ordered.
fn canon_pred(p: &Pred) -> Pred {
    match p {
        Pred::True => Pred::True,
        Pred::Not(a) => match canon_pred(a) {
            Pred::Not(inner) => *inner,
            inner => Pred::Not(Box::new(inner)),
        },
        Pred::And(..) => {
            let mut leaves = Vec::new();
            flatten_pred(p.clone(), true, &mut leaves);
            let canon: Vec<Pred> = leaves
                .iter()
                .map(canon_pred)
                .filter(|l| *l != Pred::True)
                .collect();
            rebuild_pred(canon, true)
        }
        Pred::Or(..) => {
            let mut leaves = Vec::new();
            flatten_pred(p.clone(), false, &mut leaves);
            let canon: Vec<Pred> = leaves.iter().map(canon_pred).collect();
            if canon.contains(&Pred::True) {
                return Pred::True;
            }
            rebuild_pred(canon, false)
        }
        Pred::Cmp(op, a, b) => {
            let mut a = canon_cexpr(a);
            let mut b = canon_cexpr(b);
            let (op, swap) = mirror_pred_cmp(*op);
            if swap {
                std::mem::swap(&mut a, &mut b);
            }
            if matches!(op, PredCmpOp::Eq | PredCmpOp::Ne) && b.to_string() < a.to_string() {
                std::mem::swap(&mut a, &mut b);
            }
            Pred::Cmp(op, a, b)
        }
        Pred::Fun(name, args) => Pred::Fun(
            name.clone(),
            args.iter()
                .map(|a| match a {
                    PredArg::Reg(r) => PredArg::Reg(r.clone()),
                    PredArg::Expr(e) => PredArg::Expr(canon_cexpr(e)),
                })
                .collect(),
        ),
    }
}

/// Normalizes one instruction: sorted attribute list, commutative
/// operands in key order, `icmp` mirrored to the `<`/`==` family,
/// constant expressions normalized.
fn canon_inst(inst: &Inst) -> Inst {
    let inst = map_inst(inst, &|op| match op {
        Operand::Const(e, t) => Operand::Const(canon_cexpr(e), t.clone()),
        other => other.clone(),
    });
    match inst {
        Inst::BinOp {
            op,
            mut flags,
            a,
            b,
        } => {
            flags.sort();
            flags.dedup();
            let (a, b) = if binop_commutes(op) && operand_key(&b) < operand_key(&a) {
                (b, a)
            } else {
                (a, b)
            };
            Inst::BinOp { op, flags, a, b }
        }
        Inst::ICmp { pred, a, b } => {
            let (pred, swap) = mirror_icmp(pred);
            let (mut a, mut b) = if swap { (b, a) } else { (a, b) };
            if matches!(pred, ICmpPred::Eq | ICmpPred::Ne) && operand_key(&b) < operand_key(&a) {
                std::mem::swap(&mut a, &mut b);
            }
            Inst::ICmp { pred, a, b }
        }
        other => other,
    }
}

/// Applies [`canon_inst`] to every statement and [`canon_pred`] to the
/// precondition.
fn normalize_structure(t: &Transform) -> Transform {
    Transform {
        name: t.name.clone(),
        pre: canon_pred(&t.pre),
        source: t
            .source
            .iter()
            .map(|s| Stmt {
                name: s.name.clone(),
                inst: canon_inst(&s.inst),
            })
            .collect(),
        target: t
            .target
            .iter()
            .map(|s| Stmt {
                name: s.name.clone(),
                inst: canon_inst(&s.inst),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_transform;

    fn hash(src: &str) -> u64 {
        canonical_hash(&parse_transform(src).unwrap())
    }

    #[test]
    fn names_do_not_matter() {
        assert_eq!(
            hash("Name: a\n%r = add %x, %y\n=>\n%r = add %y, %x"),
            hash("Name: b\n%q = add %s, %t\n=>\n%q = add %t, %s"),
        );
    }

    #[test]
    fn commuted_operands_do_not_matter() {
        assert_eq!(
            hash("%r = add %x, C\n=>\n%r = %x"),
            hash("%r = add C, %x\n=>\n%r = %x"),
        );
        assert_eq!(
            hash("%r = mul %x, %y\n=>\n%r = mul %y, %x"),
            hash("%r = mul %y, %x\n=>\n%r = mul %x, %y"),
        );
    }

    #[test]
    fn icmp_mirrors() {
        assert_eq!(
            hash("%r = icmp sgt %a, %b\n=>\n%r = icmp slt %b, %a"),
            hash("%r = icmp slt %b, %a\n=>\n%r = icmp sgt %a, %b"),
        );
    }

    #[test]
    fn precondition_conjunct_order_does_not_matter() {
        assert_eq!(
            hash("Pre: isPowerOf2(C1) && C2 == 0\n%r = add %x, C1\n=>\n%r = %x"),
            hash("Pre: C2 == 0 && isPowerOf2(C1)\n%r = add %x, C1\n=>\n%r = %x"),
        );
    }

    #[test]
    fn distinct_operations_hash_differently() {
        assert_ne!(
            hash("%r = add %x, %y\n=>\n%r = %x"),
            hash("%r = sub %x, %y\n=>\n%r = %x"),
        );
        assert_ne!(
            hash("%r = add %x, 1\n=>\n%r = %x"),
            hash("%r = add %x, 2\n=>\n%r = %x"),
        );
    }

    #[test]
    fn noncommutative_operand_order_matters() {
        assert_ne!(
            hash("%r = sub %x, %y\n=>\n%r = %x"),
            hash("%r = sub %y, %x\n=>\n%r = %x"),
        );
        // smin vs smax: the icmp operand order is the only difference.
        assert_ne!(
            hash("%c = icmp slt %a, %b\n%r = select %c, %a, %b\n=>\n%r = %a"),
            hash("%c = icmp slt %b, %a\n%r = select %c, %a, %b\n=>\n%r = %a"),
        );
    }

    #[test]
    fn canonical_form_reparses_and_is_idempotent() {
        for src in [
            "Name: X\nPre: C2 % (1<<C1) == 0\n%s = shl nsw %X, C1\n%r = sdiv %s, C2\n=>\n%r = sdiv %X, C2/(1<<C1)",
            "%r = select undef, i4 -1, 0\n=>\n%r = ashr undef, 3",
            "Pre: isPowerOf2(%P) && hasOneUse(%Y)\n%s = shl %P, %A\n%Y = lshr %s, %B\n%r = udiv %X, %Y\n=>\n%sub = sub %A, %B\n%Y = shl %P, %sub\n%r = udiv %X, %Y",
            "%p = alloca i8, 4\n%v = load %p\nstore %v, %p\n%r = load %p\n=>\n%r = %v",
            "%r = icmp uge %a, %b\n=>\n%r = icmp ule %b, %a",
        ] {
            let t = parse_transform(src).unwrap();
            let canon = canonicalize(&t);
            let text = canon.to_string();
            let reparsed = parse_transform(&text)
                .unwrap_or_else(|e| panic!("canonical text of\n{src}\nfailed to reparse: {e}"));
            assert_eq!(
                canonicalize(&reparsed),
                canon,
                "canonicalize not idempotent for\n{src}"
            );
            assert_eq!(canonical_hash(&t), canonical_hash(&reparsed));
        }
    }

    fn sites(src: &str) -> (usize, Vec<(bool, usize)>) {
        commutative_sites(&parse_transform(src).unwrap())
    }

    #[test]
    fn two_fresh_registers_make_a_site_live() {
        assert_eq!(sites("%r = add %x, %y\n=>\n%r = %x"), (1, vec![(false, 0)]));
    }

    #[test]
    fn a_fresh_register_against_a_constant_is_inert() {
        assert_eq!(sites("%r = add %x, C\n=>\n%r = %x"), (1, vec![]));
    }

    #[test]
    fn registers_inside_constant_expressions_count() {
        assert_eq!(
            sites("%r = add %y, width(%x)\n=>\n%r = %y"),
            (1, vec![(false, 0)])
        );
    }

    #[test]
    fn sites_over_seen_names_are_inert() {
        // The second source site and the target site only reuse names
        // the scan has already numbered; two fresh constants are live.
        assert_eq!(
            sites("%a = and %x, %y\n%r = or %a, %x\n=>\n%r = xor C1, C2"),
            (3, vec![(false, 0), (true, 0)])
        );
    }

    #[test]
    fn type_annotations_distinguish() {
        assert_ne!(
            hash("%r = add i8 %x, 1\n=>\n%r = %x"),
            hash("%r = add i16 %x, 1\n=>\n%r = %x"),
        );
    }
}
