//! Grammar-aware generation of random Alive transformations.
//!
//! The generator emits *well-typed by construction* transforms: every value
//! is assigned a concrete bitwidth during generation and (most) operands
//! carry explicit `iN` annotations, so type enumeration stays small and the
//! paranoid oracle can afford to brute-force the result. Templates are
//! built as expression trees emitted in post-order, which satisfies the
//! SSA/scoping rules of [`alive_ir::validate()`] by construction:
//!
//! * every temporary is defined before its (unique) use,
//! * the root is the last source statement,
//! * the target always redefines the root.
//!
//! Generation is deterministic: the same [`GenConfig`] and seed produce the
//! same transform, independent of worker count or iteration order (no
//! hash-map iteration anywhere in this module).

use alive_ir::ast::{
    BinOp, CExpr, CUnop, ConvOp, Flag, ICmpPred, Inst, Operand, Pred, PredArg, PredCmpOp, Stmt,
    Transform, Type,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Tunables for the transform generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum integer bitwidth drawn for any value (inclusive).
    pub max_width: u32,
    /// Soft cap on the number of source instructions.
    pub max_insts: usize,
    /// Probability that a register/constant operand carries an explicit
    /// `iN` annotation (conversions are always annotated).
    pub annot_prob: f64,
    /// Probability that the transform gets a precondition.
    pub pre_prob: f64,
    /// Probability that a leaf operand is `undef` (paranoid brute-force
    /// skips undef-bearing transforms, the SMT pipeline still runs them).
    pub undef_prob: f64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_width: 8,
            max_insts: 6,
            annot_prob: 0.85,
            pre_prob: 0.3,
            undef_prob: 0.02,
        }
    }
}

/// Mixes a run seed and a case index into a per-case RNG seed
/// (splitmix64-style finalizer, so neighbouring indices diverge fully).
pub fn case_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates the `index`-th transform of a run, deterministically.
pub fn gen_case(seed: u64, index: u64, cfg: &GenConfig) -> Transform {
    let mut rng = StdRng::seed_from_u64(case_seed(seed, index));
    gen_transform(&mut rng, cfg)
}

const BINOPS: &[BinOp] = &[
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::UDiv,
    BinOp::SDiv,
    BinOp::URem,
    BinOp::SRem,
    BinOp::Shl,
    BinOp::LShr,
    BinOp::AShr,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
];

const ICMP_PREDS: &[ICmpPred] = &[
    ICmpPred::Eq,
    ICmpPred::Ne,
    ICmpPred::Ugt,
    ICmpPred::Uge,
    ICmpPred::Ult,
    ICmpPred::Ule,
    ICmpPred::Sgt,
    ICmpPred::Sge,
    ICmpPred::Slt,
    ICmpPred::Sle,
];

struct Gen<'a> {
    rng: &'a mut StdRng,
    cfg: &'a GenConfig,
    /// Emitted source statements, in order.
    stmts: Vec<Stmt>,
    /// (name, width) of every input register created so far.
    inputs: Vec<(String, u32)>,
    /// (name, width) of every source temporary emitted so far.
    temps: Vec<(String, u32)>,
    /// (name, width-at-first-use) of abstract constants in use.
    syms: Vec<(String, u32)>,
    next_temp: usize,
    /// Remaining instruction budget.
    budget: usize,
    /// While generating the target, no new inputs may be minted (a
    /// register used only by the target is rejected by `validate`).
    frozen_inputs: bool,
}

impl Gen<'_> {
    fn width(&mut self) -> u32 {
        self.rng.gen_range(1..=self.cfg.max_width)
    }

    fn annot(&mut self, w: u32) -> Option<Type> {
        if self.rng.gen_bool(self.cfg.annot_prob) {
            Some(Type::Int(w))
        } else {
            None
        }
    }

    /// A leaf operand of width `w`: an input register, a constant, or
    /// (rarely) `undef`.
    fn leaf(&mut self, w: u32) -> Operand {
        if self.rng.gen_bool(self.cfg.undef_prob) {
            return Operand::Undef(Some(Type::Int(w)));
        }
        match self.rng.gen_range(0..10u32) {
            // Reuse or mint an input register.
            0..=4 => {
                let existing: Vec<String> = self
                    .inputs
                    .iter()
                    .filter(|(_, iw)| *iw == w)
                    .map(|(n, _)| n.clone())
                    .collect();
                let name = if !existing.is_empty() && (self.frozen_inputs || self.rng.gen_bool(0.5))
                {
                    existing[self.rng.gen_range(0..existing.len())].clone()
                } else if self.frozen_inputs {
                    // No reusable input of this width: fall back to a
                    // constant so the target never mints a new input.
                    let ty = self.annot(w);
                    return Operand::Const(self.literal(w), ty);
                } else {
                    let name = format!("x{}", self.inputs.len());
                    self.inputs.push((name.clone(), w));
                    name
                };
                let ty = self.annot(w);
                Operand::Reg(name, ty)
            }
            // Literal constant.
            5..=7 => {
                let ty = self.annot(w);
                Operand::Const(self.literal(w), ty)
            }
            // Abstract constant (possibly wrapped in constant arithmetic).
            _ => {
                let ty = self.annot(w);
                Operand::Const(self.sym_expr(w), ty)
            }
        }
    }

    /// A literal whose value is interesting at width `w` (boundary values
    /// are over-represented on purpose).
    fn literal(&mut self, w: u32) -> CExpr {
        let max = if w >= 64 { i128::MAX } else { (1i128 << w) - 1 };
        let v = match self.rng.gen_range(0..6u32) {
            0 => 0,
            1 => 1,
            2 => -1,
            3 => 1i128 << (w - 1).min(62), // sign bit (as unsigned literal)
            _ => self.rng.gen_range(0..=max.min(1 << 16) as u64) as i128,
        };
        CExpr::Lit(v)
    }

    /// A constant expression mentioning an abstract constant, with a width
    /// recorded so later uses of the same symbol stay consistent.
    fn sym_expr(&mut self, w: u32) -> CExpr {
        // Reuse a same-width symbol or mint a new one.
        let existing: Vec<String> = self
            .syms
            .iter()
            .filter(|(_, sw)| *sw == w)
            .map(|(n, _)| n.clone())
            .collect();
        let name = if !existing.is_empty() && self.rng.gen_bool(0.6) {
            existing[self.rng.gen_range(0..existing.len())].clone()
        } else {
            let name = format!("C{}", self.syms.len());
            self.syms.push((name.clone(), w));
            name
        };
        let sym = CExpr::Sym(name);
        match self.rng.gen_range(0..8u32) {
            0 => CExpr::Unop(CUnop::Not, Box::new(sym)),
            1 => CExpr::Unop(CUnop::Neg, Box::new(sym)),
            2 => CExpr::Binop(
                alive_ir::ast::CBinop::Add,
                Box::new(sym),
                Box::new(CExpr::Lit(1)),
            ),
            3 => CExpr::Binop(
                alive_ir::ast::CBinop::Sub,
                Box::new(sym),
                Box::new(CExpr::Lit(1)),
            ),
            _ => sym,
        }
    }

    fn push_temp(&mut self, inst: Inst, w: u32) -> String {
        let name = format!("t{}", self.next_temp);
        self.next_temp += 1;
        self.stmts.push(Stmt {
            name: Some(name.clone()),
            inst,
        });
        self.temps.push((name.clone(), w));
        name
    }

    /// An operand of width `w`: an expression tree (consuming budget), a
    /// reuse of an already-emitted temporary, or a leaf.
    fn expr(&mut self, w: u32, depth: u32) -> Operand {
        // Occasionally share an existing temporary (makes the DAG case).
        if depth > 0 && self.rng.gen_bool(0.12) {
            let candidates: Vec<String> = self
                .temps
                .iter()
                .filter(|(_, tw)| *tw == w)
                .map(|(n, _)| n.clone())
                .collect();
            if !candidates.is_empty() {
                let name = candidates[self.rng.gen_range(0..candidates.len())].clone();
                let ty = self.annot(w);
                return Operand::Reg(name, ty);
            }
        }
        if self.budget == 0 || depth >= 3 || self.rng.gen_bool(0.35) {
            return self.leaf(w);
        }
        self.budget -= 1;
        let inst = self.inst(w, depth);
        let name = self.push_temp(inst, w);
        let ty = self.annot(w);
        Operand::Reg(name, ty)
    }

    /// A random instruction producing a value of width `w`.
    fn inst(&mut self, w: u32, depth: u32) -> Inst {
        let choice = self.rng.gen_range(0..10u32);
        match choice {
            // icmp: only possible when the requested width is 1.
            0 | 1 if w == 1 => {
                let ow = self.width();
                let a = self.expr(ow, depth + 1);
                // One operand is always annotated so the comparison's width
                // component is usually pinned.
                let a = match a {
                    Operand::Reg(n, _) => Operand::Reg(n, Some(Type::Int(ow))),
                    Operand::Const(e, _) => Operand::Const(e, Some(Type::Int(ow))),
                    Operand::Undef(_) => Operand::Undef(Some(Type::Int(ow))),
                };
                let b = self.expr(ow, depth + 1);
                let pred = ICMP_PREDS[self.rng.gen_range(0..ICMP_PREDS.len())];
                Inst::ICmp { pred, a, b }
            }
            // select
            2 => {
                let cond = self.expr(1, depth + 1);
                let on_true = self.expr(w, depth + 1);
                let on_false = self.expr(w, depth + 1);
                Inst::Select {
                    cond,
                    on_true,
                    on_false,
                }
            }
            // Conversions: need a distinct argument width in range.
            3 if w > 1 => {
                // zext/sext from a narrower width.
                let from = self.rng.gen_range(1..w);
                let arg = self.expr(from, depth + 1);
                let arg = annotate(arg, from);
                let op = if self.rng.gen_bool(0.5) {
                    ConvOp::ZExt
                } else {
                    ConvOp::SExt
                };
                Inst::Conv {
                    op,
                    arg,
                    to: Some(Type::Int(w)),
                }
            }
            4 if w < self.cfg.max_width => {
                // trunc from a wider width.
                let from = self.rng.gen_range(w + 1..=self.cfg.max_width);
                let arg = self.expr(from, depth + 1);
                let arg = annotate(arg, from);
                Inst::Conv {
                    op: ConvOp::Trunc,
                    arg,
                    to: Some(Type::Int(w)),
                }
            }
            // Everything else: a binary operation at width `w`.
            _ => {
                let op = BINOPS[self.rng.gen_range(0..BINOPS.len())];
                let allowed = op.allowed_flags();
                let mut flags: Vec<Flag> = Vec::new();
                for &f in allowed {
                    if self.rng.gen_bool(0.2) {
                        flags.push(f);
                    }
                }
                let a = self.expr(w, depth + 1);
                let b = self.expr(w, depth + 1);
                Inst::BinOp { op, flags, a, b }
            }
        }
    }

    /// An optional precondition over the symbols minted so far.
    fn precondition(&mut self) -> Pred {
        if self.syms.is_empty() || !self.rng.gen_bool(self.cfg.pre_prob) {
            return Pred::True;
        }
        let (name, w) = {
            let i = self.rng.gen_range(0..self.syms.len());
            self.syms[i].clone()
        };
        let sym = CExpr::Sym(name);
        match self.rng.gen_range(0..6u32) {
            0 => Pred::Fun("isPowerOf2".into(), vec![PredArg::Expr(sym)]),
            1 => Pred::Cmp(PredCmpOp::Ne, sym, CExpr::Lit(0)),
            2 => Pred::Cmp(PredCmpOp::Sgt, sym, CExpr::Lit(0)),
            3 => Pred::Cmp(PredCmpOp::Ult, sym, CExpr::Lit(1i128 << (w - 1).min(62))),
            4 => Pred::Not(Box::new(Pred::Cmp(PredCmpOp::Eq, sym, CExpr::Lit(0)))),
            _ => Pred::Cmp(PredCmpOp::Sge, sym, CExpr::Lit(0)),
        }
    }
}

fn annotate(op: Operand, w: u32) -> Operand {
    match op {
        Operand::Reg(n, _) => Operand::Reg(n, Some(Type::Int(w))),
        Operand::Const(e, _) => Operand::Const(e, Some(Type::Int(w))),
        Operand::Undef(_) => Operand::Undef(Some(Type::Int(w))),
    }
}

/// Generates one random, well-formed transform.
///
/// The result always passes [`alive_ir::validate()`]; a debug assertion
/// enforces this, and the fuzz driver re-checks in release builds.
pub fn gen_transform(rng: &mut StdRng, cfg: &GenConfig) -> Transform {
    let root_width = rng.gen_range(1..=cfg.max_width);
    let mut g = Gen {
        rng,
        cfg,
        stmts: Vec::new(),
        inputs: Vec::new(),
        temps: Vec::new(),
        syms: Vec::new(),
        next_temp: 0,
        budget: cfg.max_insts.saturating_sub(1),
        frozen_inputs: false,
    };

    // Source: an expression tree whose root instruction defines `%r` last.
    let root_inst = g.inst(root_width, 0);
    g.stmts.push(Stmt {
        name: Some("r".into()),
        inst: root_inst,
    });
    let source = std::mem::take(&mut g.stmts);

    // Target: redefine `%r`, by one of three strategies. New inputs may
    // not appear here — registers used only by the target are invalid.
    g.frozen_inputs = true;
    let strategy = g.rng.gen_range(0..10u32);
    let target = match strategy {
        // Identity-ish: copy an input (or constant) of the root's width.
        0..=2 => {
            let val = g.leaf(root_width);
            let val = annotate(val, root_width);
            vec![Stmt {
                name: Some("r".into()),
                inst: Inst::Copy { val },
            }]
        }
        // Mutation: clone the source and perturb one instruction. These
        // are the interesting cases for the oracle — usually *invalid*
        // transforms whose counterexamples must replay concretely.
        3..=5 => {
            let mut tgt = source.clone();
            let i = g.rng.gen_range(0..tgt.len());
            mutate_inst(&mut tgt[i].inst, g.rng);
            tgt
        }
        // Fresh expression tree over the same inputs (and possibly new
        // ones), with its own temporaries.
        _ => {
            g.budget = cfg.max_insts.saturating_sub(1);
            g.temps.clear(); // fresh tree may not reference source temps
            let root_inst = g.inst(root_width, 0);
            let mut tgt = std::mem::take(&mut g.stmts);
            // Rename fresh temporaries %tN -> %uN to avoid silently
            // overwriting same-named source temporaries.
            for s in &mut tgt {
                if let Some(n) = &mut s.name {
                    if let Some(rest) = n.strip_prefix('t') {
                        *n = format!("u{rest}");
                    }
                }
                rename_regs(&mut s.inst, "t", "u");
            }
            let mut root_inst = root_inst;
            rename_regs(&mut root_inst, "t", "u");
            tgt.push(Stmt {
                name: Some("r".into()),
                inst: root_inst,
            });
            tgt
        }
    };

    let pre = g.precondition();
    let mut t = Transform {
        name: None,
        pre,
        source,
        target,
    };
    normalize_annotations(&mut t);
    debug_assert!(
        alive_ir::validate(&t).is_ok(),
        "generator produced an invalid transform: {t}"
    );
    t
}

/// Makes annotations print/parse-stable: a binop or icmp whose *first*
/// operand is annotated prints that type in the leading position, which the
/// parser reads as an instruction-level type and applies to *both*
/// operands. Annotating the second operand whenever the first is annotated
/// makes the printed form a parse fixpoint.
fn normalize_annotations(t: &mut Transform) {
    for stmt in t.source.iter_mut().chain(t.target.iter_mut()) {
        if let Inst::BinOp { a, b, .. } | Inst::ICmp { a, b, .. } = &mut stmt.inst {
            let a_ty = match a {
                Operand::Reg(_, ty) | Operand::Const(_, ty) | Operand::Undef(ty) => ty.clone(),
            };
            if let Some(ty) = a_ty {
                match b {
                    Operand::Reg(_, ann @ None)
                    | Operand::Const(_, ann @ None)
                    | Operand::Undef(ann @ None) => *ann = Some(ty),
                    _ => {}
                }
            }
        }
    }
}

/// Renames register operands `%<from>N` to `%<to>N` in-place.
fn rename_regs(inst: &mut Inst, from: &str, to: &str) {
    let fix = |op: &mut Operand| {
        if let Operand::Reg(n, _) = op {
            if let Some(rest) = n.strip_prefix(from) {
                if rest.chars().all(|c| c.is_ascii_digit()) && !rest.is_empty() {
                    *n = format!("{to}{rest}");
                }
            }
        }
    };
    match inst {
        Inst::BinOp { a, b, .. } | Inst::ICmp { a, b, .. } => {
            fix(a);
            fix(b);
        }
        Inst::Select {
            cond,
            on_true,
            on_false,
        } => {
            fix(cond);
            fix(on_true);
            fix(on_false);
        }
        Inst::Conv { arg, .. } | Inst::Copy { val: arg } => fix(arg),
        Inst::Alloca { count: op, .. } => fix(op),
        Inst::Load { ptr } => fix(ptr),
        Inst::Store { val, ptr } => {
            fix(val);
            fix(ptr);
        }
        Inst::Gep { ptr, idxs } => {
            fix(ptr);
            for i in idxs {
                fix(i);
            }
        }
        Inst::Unreachable => {}
    }
}

/// Perturbs one instruction in place, preserving well-typedness.
fn mutate_inst(inst: &mut Inst, rng: &mut StdRng) {
    match inst {
        Inst::BinOp { op, flags, a, b } => match rng.gen_range(0..4u32) {
            // Swap to another binop with the same shape.
            0 => {
                let mut nop = BINOPS[rng.gen_range(0..BINOPS.len())];
                if nop == *op {
                    nop = BinOp::Xor;
                }
                *op = nop;
                flags.retain(|f| nop.allowed_flags().contains(f));
            }
            // Toggle a flag.
            1 if !op.allowed_flags().is_empty() => {
                let f = op.allowed_flags()[rng.gen_range(0..op.allowed_flags().len())];
                if flags.contains(&f) {
                    flags.retain(|&g| g != f);
                } else {
                    flags.push(f);
                }
            }
            // Swap operands.
            _ => std::mem::swap(a, b),
        },
        Inst::ICmp { pred, a, b } => {
            if rng.gen_bool(0.5) {
                *pred = ICMP_PREDS[rng.gen_range(0..ICMP_PREDS.len())];
            } else {
                std::mem::swap(a, b);
            }
        }
        Inst::Select {
            on_true, on_false, ..
        } => std::mem::swap(on_true, on_false),
        Inst::Conv { op, .. } => {
            // zext <-> sext keeps widths legal; other conversions are left
            // alone.
            match *op {
                ConvOp::ZExt => *op = ConvOp::SExt,
                ConvOp::SExt => *op = ConvOp::ZExt,
                _ => {}
            }
        }
        Inst::Copy {
            val: Operand::Const(e, _),
        } => {
            *e = CExpr::Unop(CUnop::Not, Box::new(e.clone()));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_transforms_validate() {
        let cfg = GenConfig::default();
        for i in 0..500 {
            let t = gen_case(7, i, &cfg);
            alive_ir::validate(&t).unwrap_or_else(|e| {
                panic!("case {i} failed validation: {e}\n{t}");
            });
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for i in 0..100 {
            let a = gen_case(42, i, &cfg);
            let b = gen_case(42, i, &cfg);
            assert_eq!(a, b, "case {i} not deterministic");
        }
    }

    #[test]
    fn generated_transforms_parse_back() {
        let cfg = GenConfig::default();
        for i in 0..200 {
            let t = gen_case(13, i, &cfg);
            let text = t.to_string();
            let back = alive_ir::parse_transform(&text)
                .unwrap_or_else(|e| panic!("case {i} failed to re-parse: {e}\n{text}"));
            assert_eq!(back.to_string(), text, "printer not a fixpoint on case {i}");
        }
    }
}
