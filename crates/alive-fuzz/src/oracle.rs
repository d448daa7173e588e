//! The paranoid differential oracle.
//!
//! Verification answers are only as trustworthy as the SMT pipeline that
//! produced them. This module re-derives verdicts along independent paths
//! and reports *disagreements*:
//!
//! * **UNSAT re-check** — every refutation [`Certificate`] attached to a
//!   verdict is re-validated by the independent RUP/DRAT checker in
//!   `alive-proof` (which shares no code with the solver's search).
//! * **Brute force** — at small widths the entire input space is
//!   enumerable. For each type assignment, every point of the input/
//!   constant space is executed through the concrete interpreter in
//!   `alive-opt` (via [`crate::lower()`]) and checked against the paper's
//!   refinement conditions: under ψ (precondition ∧ source defined ∧
//!   source poison-free), the target must be defined, poison-free, and
//!   equal to the source. A `Valid` verdict with a concrete violation, or
//!   an `Invalid` verdict whose input space is exhaustively clean, is a
//!   disagreement.
//! * **Encoding cross-check** — at every enumerated point the vcgen
//!   encoding (evaluated with `alive-smt`'s term evaluator) is compared
//!   against the interpreter's outcome. The two implementations were
//!   written independently; any divergence is a bug in one of them.
//!
//! (SAT counterexamples are already replayed concretely by the verifier
//! itself before it reports `Invalid`; the brute-force pass here re-checks
//! that direction independently of the model.)
//!
//! Transforms the oracle cannot execute — memory operations, `undef`
//! operands, register-dependent precondition predicates (approximated by
//! fresh booleans in the encoding), or input spaces beyond the point
//! budget — are skipped with a recorded reason, never silently.

use crate::lower::{lower, Lowered};
use alive_ir::Transform;
use alive_opt::{run, Exec, Outcome};
use alive_proof::Certificate;
use alive_smt::{eval, Assignment, BvVal, TermId, TermPool, Value};
use alive_typeck::{enumerate_typings, Key, TypeAssignment};
use alive_vcgen::{encode_cexpr, encode_transform, NameEnv, TransformEnc};
use alive_verifier::{OutcomeKind, VerifyConfig};
use std::collections::HashMap;

/// Tunables for the paranoid oracle.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Brute force only runs when every enumerated variable is at most
    /// this wide.
    pub max_width: u32,
    /// Cap on the number of enumeration points per typing.
    pub max_points: u64,
    /// Cap on the number of typings brute-forced per transform.
    pub max_typings: usize,
    /// Re-check refutation certificates with the independent checker.
    pub check_certificates: bool,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            max_width: 8,
            max_points: 4096,
            max_typings: 16,
            check_certificates: true,
        }
    }
}

/// What the oracle concluded about one verdict.
#[derive(Clone, Debug, Default)]
pub struct AuditResult {
    /// Human-readable disagreements (empty means the verdict survived).
    pub disagreements: Vec<String>,
    /// Reasons any typing was skipped rather than enumerated.
    pub skipped: Vec<String>,
    /// Total concrete points executed.
    pub points_checked: u64,
    /// Typings fully enumerated.
    pub typings_checked: usize,
}

impl AuditResult {
    /// Did the verdict survive every cross-check?
    pub fn is_clean(&self) -> bool {
        self.disagreements.is_empty()
    }
}

/// Outcome of brute-forcing a single typing.
enum TypingCheck {
    /// No refinement violation found; `complete` means every point under
    /// the precondition was executed.
    Clean { points: u64 },
    /// A concrete violation (with a rendered witness).
    Violation { points: u64, witness: String },
    /// Not executable / too large; reason recorded.
    Skipped(String),
}

/// Audits one verdict against the independent checkers.
///
/// `kind` is the verdict under audit, `certs` the refutation certificates
/// the verifier attached to it (empty when certificates were not
/// requested).
pub fn paranoid_audit(
    t: &Transform,
    kind: OutcomeKind,
    certs: &[Certificate],
    vcfg: &VerifyConfig,
    cfg: &OracleConfig,
) -> AuditResult {
    let mut out = AuditResult::default();

    if cfg.check_certificates {
        for (i, cert) in certs.iter().enumerate() {
            if let Err(e) = cert.check() {
                out.disagreements.push(format!(
                    "certificate {i} rejected by the independent checker: {e}"
                ));
            }
        }
    }

    // Brute force only cross-checks definite verdicts.
    if !matches!(kind, OutcomeKind::Valid | OutcomeKind::Invalid) {
        return out;
    }

    let typings = match enumerate_typings(t, &vcfg.typeck) {
        Ok(ts) => ts,
        Err(_) => return out, // verifier saw the same error; nothing to audit
    };
    let total_typings = typings.len();
    let mut any_violation = false;
    let mut all_complete = true;

    for typing in typings.into_iter().take(cfg.max_typings) {
        match brute_check_typing(t, &typing, cfg, &mut out.disagreements) {
            TypingCheck::Clean { points } => {
                out.points_checked += points;
                out.typings_checked += 1;
            }
            TypingCheck::Violation { points, witness } => {
                out.points_checked += points;
                out.typings_checked += 1;
                any_violation = true;
                if kind == OutcomeKind::Valid {
                    out.disagreements.push(format!(
                        "verdict is valid but exhaustive enumeration found a violation \
                         ({}): {witness}",
                        typing.summary()
                    ));
                }
            }
            TypingCheck::Skipped(reason) => {
                all_complete = false;
                out.skipped.push(reason);
            }
        }
    }
    if total_typings > cfg.max_typings {
        all_complete = false;
        out.skipped.push(format!(
            "{total_typings} typings, audited {}",
            cfg.max_typings
        ));
    }

    if kind == OutcomeKind::Invalid && all_complete && !any_violation && out.typings_checked > 0 {
        out.disagreements.push(format!(
            "verdict is invalid but exhaustive enumeration of all {} typing(s) found no \
             violation",
            out.typings_checked
        ));
    }
    out
}

/// Widths of the enumerated variables (inputs then syms), or a skip
/// reason.
fn enumeration_plan(
    enc: &TransformEnc,
    lowered: &Lowered,
    typing: &TypeAssignment,
    cfg: &OracleConfig,
) -> Result<Vec<(Option<TermId>, u32)>, String> {
    let mut vars: Vec<(Option<TermId>, u32)> = Vec::new();
    for name in &lowered.input_names {
        let w = match typing.get(&Key::Reg(name.clone())) {
            Some(ct) if ct.is_int() => ct.register_width(typing.ptr_width),
            _ => return Err(format!("input %{name} is not an integer")),
        };
        vars.push((enc.inputs.get(name).copied(), w));
    }
    for name in &lowered.sym_names {
        let w = match typing.get(&Key::Sym(name.clone())) {
            Some(ct) if ct.is_int() => ct.register_width(typing.ptr_width),
            _ => return Err(format!("constant {name} is not an integer")),
        };
        vars.push((enc.consts.get(name).copied(), w));
    }
    if let Some(&(_, w)) = vars.iter().find(|(_, w)| *w > cfg.max_width) {
        return Err(format!("variable width i{w} exceeds brute-force cap"));
    }
    let total_bits: u32 = vars.iter().map(|(_, w)| *w).sum();
    if total_bits > 62 || (1u64 << total_bits) > cfg.max_points {
        return Err(format!(
            "input space of 2^{total_bits} points exceeds brute-force budget"
        ));
    }
    Ok(vars)
}

fn render_point(lowered: &Lowered, vals: &[BvVal]) -> String {
    let names = lowered
        .input_names
        .iter()
        .map(|n| format!("%{n}"))
        .chain(lowered.sym_names.iter().cloned());
    names
        .zip(vals.iter())
        .map(|(n, v)| format!("{n}={v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn describe(o: &Outcome) -> String {
    match o {
        Outcome::Ub => "UB".into(),
        Outcome::Return(Exec::Poison) => "poison".into(),
        Outcome::Return(Exec::Val(v)) => format!("{v}"),
    }
}

/// Enumerates every point of one typing. Pushes encoding-divergence
/// disagreements directly into `disagreements`.
fn brute_check_typing(
    t: &Transform,
    typing: &TypeAssignment,
    cfg: &OracleConfig,
    disagreements: &mut Vec<String>,
) -> TypingCheck {
    let mut pool = TermPool::new();
    let enc = match encode_transform(&mut pool, t, typing) {
        Ok(enc) => enc,
        Err(e) => return TypingCheck::Skipped(format!("not encodable: {e}")),
    };
    if !enc.pre_aux.is_empty() {
        return TypingCheck::Skipped("precondition uses approximated register predicates".into());
    }
    if !enc.src.undefs.is_empty() || !enc.tgt.undefs.is_empty() {
        return TypingCheck::Skipped("undef semantics are not enumerable pointwise".into());
    }
    if !enc.base_mem.constraints().is_empty()
        || !enc.src.alloca_constraints.is_empty()
        || !enc.tgt.alloca_constraints.is_empty()
    {
        return TypingCheck::Skipped("memory operations".into());
    }
    let lowered = match lower(t, typing) {
        Ok(l) => l,
        Err(e) => return TypingCheck::Skipped(e.to_string()),
    };
    let vars = match enumeration_plan(&enc, &lowered, typing, cfg) {
        Ok(v) => v,
        Err(reason) => return TypingCheck::Skipped(reason),
    };

    // Encode the constant-expression parameters once.
    let reg_widths: HashMap<String, u32> = typing
        .iter()
        .filter_map(|(k, ct)| match k {
            Key::Reg(n) if ct.is_int() => Some((n.clone(), ct.register_width(typing.ptr_width))),
            _ => None,
        })
        .collect();
    let mut regs: HashMap<String, TermId> = enc.inputs.clone();
    for (name, &v) in &enc.src.values {
        regs.insert(name.clone(), v);
    }
    let env = NameEnv {
        consts: &enc.consts,
        regs: &regs,
        reg_widths: &reg_widths,
    };
    let mut cexpr_terms: Vec<TermId> = Vec::new();
    for (e, w) in &lowered.cexprs {
        match encode_cexpr(&mut pool, e, *w, &env) {
            Ok(id) => cexpr_terms.push(id),
            Err(e) => return TypingCheck::Skipped(format!("constant not encodable: {e}")),
        }
    }

    let root = &enc.root;
    let (src_d, src_p, src_v) = (
        enc.src.defined[root],
        enc.src.poison_free[root],
        enc.src.values[root],
    );
    let (tgt_d, tgt_p, tgt_v) = (
        enc.tgt.defined[root],
        enc.tgt.poison_free[root],
        enc.tgt.values[root],
    );

    let total_bits: u32 = vars.iter().map(|(_, w)| *w).sum();
    let n_points = 1u64 << total_bits;
    let mut points = 0u64;
    let mut witness: Option<String> = None;

    for p in 0..n_points {
        // Decompose the point index into one value per variable.
        let mut vals: Vec<BvVal> = Vec::with_capacity(vars.len());
        let mut shift = 0u32;
        for &(_, w) in &vars {
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            vals.push(BvVal::new(w, u128::from((p >> shift) & mask)));
            shift += w;
        }
        let mut asg = Assignment::new();
        for (&(id, _), v) in vars.iter().zip(&vals) {
            if let Some(id) = id {
                asg.set(id, *v);
            }
        }

        // φ: skip points outside the precondition.
        let pre_ok = match eval(&pool, enc.pre, &asg) {
            Ok(Value::Bool(b)) => b,
            _ => return TypingCheck::Skipped("precondition not evaluable".into()),
        };
        if !pre_ok {
            continue;
        }
        points += 1;

        // Arguments: enumerated values plus evaluated constant expressions.
        let mut args = vals.clone();
        for &term in &cexpr_terms {
            match eval(&pool, term, &asg) {
                Ok(Value::Bv(v)) => args.push(v),
                _ => return TypingCheck::Skipped("constant not evaluable".into()),
            }
        }

        let src_out = run(&lowered.src_fn, &args);
        let tgt_out = run(&lowered.tgt_fn, &args);

        // Encoding cross-check: the interpreter returns a clean value iff
        // the encoding says the root is defined and poison-free, and then
        // the values must agree. (δ and ρ are compared as a conjunction:
        // the two implementations classify poison-operand UB differently,
        // but δ∧ρ — the only combination refinement depends on — must
        // match.)
        for (what, d, pf, v, o) in [
            ("source", src_d, src_p, src_v, &src_out),
            ("target", tgt_d, tgt_p, tgt_v, &tgt_out),
        ] {
            let clean = match (eval(&pool, d, &asg), eval(&pool, pf, &asg)) {
                (Ok(Value::Bool(a)), Ok(Value::Bool(b))) => a && b,
                _ => return TypingCheck::Skipped("encoding not evaluable".into()),
            };
            match (clean, o) {
                (true, Outcome::Return(Exec::Val(iv))) => {
                    if let Ok(Value::Bv(ev)) = eval(&pool, v, &asg) {
                        if ev != *iv {
                            disagreements.push(format!(
                                "encoding/interpreter divergence on {what} value at \
                                 {}: encoding {ev}, interpreter {iv}",
                                render_point(&lowered, &vals)
                            ));
                        }
                    }
                }
                (true, other) => disagreements.push(format!(
                    "encoding/interpreter divergence on {what} at {}: encoding says \
                     defined+poison-free, interpreter says {}",
                    render_point(&lowered, &vals),
                    describe(other)
                )),
                (false, Outcome::Return(Exec::Val(iv))) => disagreements.push(format!(
                    "encoding/interpreter divergence on {what} at {}: encoding says \
                     UB-or-poison, interpreter computed {iv}",
                    render_point(&lowered, &vals)
                )),
                (false, _) => {}
            }
        }

        // Refinement: under ψ the target must produce the same clean value.
        if let Outcome::Return(Exec::Val(sv)) = src_out {
            let refined = matches!(tgt_out, Outcome::Return(Exec::Val(tv)) if tv == sv);
            if !refined && witness.is_none() {
                witness = Some(format!(
                    "at {}: source {}, target {}",
                    render_point(&lowered, &vals),
                    describe(&src_out),
                    describe(&tgt_out)
                ));
            }
        }
    }

    match witness {
        Some(witness) => TypingCheck::Violation { points, witness },
        None => TypingCheck::Clean { points },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(text: &str, kind: OutcomeKind) -> AuditResult {
        let t = alive_ir::parse_transform(text).unwrap();
        let vcfg = VerifyConfig::fast();
        paranoid_audit(&t, kind, &[], &vcfg, &OracleConfig::default())
    }

    #[test]
    fn agrees_with_a_correct_transform() {
        let r = audit(
            "%r = add i4 %x, %y\n=>\n%r = add i4 %y, %x\n",
            OutcomeKind::Valid,
        );
        assert!(r.is_clean(), "{:?}", r.disagreements);
        assert!(r.points_checked > 0);
    }

    #[test]
    fn catches_a_bogus_valid_verdict() {
        // sub is not commutative: claiming this is valid must be refuted.
        let r = audit(
            "%r = sub i4 %x, %y\n=>\n%r = sub i4 %y, %x\n",
            OutcomeKind::Valid,
        );
        assert!(!r.is_clean());
        assert!(r.disagreements[0].contains("found a violation"));
    }

    #[test]
    fn catches_a_bogus_invalid_verdict() {
        let r = audit(
            "%r = add i4 %x, %y\n=>\n%r = add i4 %y, %x\n",
            OutcomeKind::Invalid,
        );
        assert!(!r.is_clean());
        assert!(r.disagreements[0].contains("found no"));
    }

    #[test]
    fn respects_preconditions() {
        // Only valid because the precondition pins C != 0... actually
        // udiv %x, C refines to itself trivially; use a pre-dependent one:
        // x | C == x + C requires x & C == 0; with Pre: C == 0 it holds.
        let r = audit(
            "Pre: C == 0\n%r = or i4 %x, C\n=>\n%r = add i4 %x, C\n",
            OutcomeKind::Valid,
        );
        assert!(r.is_clean(), "{:?}", r.disagreements);
    }

    #[test]
    fn skips_memory_transforms() {
        let r = audit(
            "%p = alloca i8, 1\nstore %v, %p\n%r = load %p\n=>\n%r = %v\n",
            OutcomeKind::Valid,
        );
        assert!(r.is_clean());
        assert_eq!(r.typings_checked, 0);
        assert!(!r.skipped.is_empty());
    }

    #[test]
    fn strict_select_matches_the_encoding() {
        // Lazy-select semantics would hide the poison in the untaken arm;
        // the encoding cross-check fails if lowering were lazy.
        let r = audit(
            "%t = add nsw i4 %x, %y\n%r = select i1 %c, i4 %x, %t\n=>\n%r = select i1 %c, i4 %x, %t\n",
            OutcomeKind::Valid,
        );
        assert!(r.is_clean(), "{:?}", r.disagreements);
        assert!(r.points_checked > 0);
    }
}
