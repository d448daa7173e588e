//! Abstract syntax of the Alive language (Fig. 1 of the paper).
//!
//! An Alive transformation has the shape
//!
//! ```text
//! Name: <optional name>
//! Pre:  <optional precondition>
//! <source statements>
//! =>
//! <target statements>
//! ```
//!
//! Both templates are DAGs of instructions in SSA form with a common root
//! register. Operands are registers, constant expressions (literals,
//! abstract constants such as `C1`, or arithmetic over them), or `undef`.

use std::fmt;

/// An explicit type annotation.
///
/// Alive types are integers of arbitrary bitwidth, pointers, arrays, and
/// void; unannotated values are polymorphic and resolved by type
/// enumeration.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// `iN` — integer of explicit width.
    Int(u32),
    /// `t*` — pointer to `t`.
    Ptr(Box<Type>),
    /// `[n x t]` — array of statically-known size.
    Array(u64, Box<Type>),
    /// `void` (result of `store`/`unreachable`).
    Void,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int(w) => write!(f, "i{w}"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Array(n, t) => write!(f, "[{n} x {t}]"),
            Type::Void => write!(f, "void"),
        }
    }
}

/// Binary integer operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division.
    UDiv,
    /// Signed division.
    SDiv,
    /// Unsigned remainder.
    URem,
    /// Signed remainder.
    SRem,
    /// Shift left.
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl BinOp {
    /// The LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::UDiv => "udiv",
            BinOp::SDiv => "sdiv",
            BinOp::URem => "urem",
            BinOp::SRem => "srem",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
        }
    }

    /// Which instruction attributes this operation accepts (paper Table 2).
    pub fn allowed_flags(self) -> &'static [Flag] {
        match self {
            BinOp::Add | BinOp::Sub | BinOp::Mul => &[Flag::Nsw, Flag::Nuw],
            BinOp::Shl => &[Flag::Nsw, Flag::Nuw],
            BinOp::SDiv | BinOp::UDiv | BinOp::AShr | BinOp::LShr => &[Flag::Exact],
            _ => &[],
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "udiv" => BinOp::UDiv,
            "sdiv" => BinOp::SDiv,
            "urem" => BinOp::URem,
            "srem" => BinOp::SRem,
            "shl" => BinOp::Shl,
            "lshr" => BinOp::LShr,
            "ashr" => BinOp::AShr,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            _ => return None,
        })
    }

    /// Is this a division or remainder operation?
    pub fn is_div_rem(self) -> bool {
        matches!(self, BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem)
    }

    /// Is this a shift?
    pub fn is_shift(self) -> bool {
        matches!(self, BinOp::Shl | BinOp::LShr | BinOp::AShr)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Instruction attributes that weaken behavior by adding undefined
/// behavior (`nsw`, `nuw`, `exact`; paper §2.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Flag {
    /// No signed wrap: signed overflow produces poison.
    Nsw,
    /// No unsigned wrap: unsigned overflow produces poison.
    Nuw,
    /// Division/shift must be lossless or the result is poison.
    Exact,
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Flag::Nsw => "nsw",
            Flag::Nuw => "nuw",
            Flag::Exact => "exact",
        })
    }
}

/// Conversion operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConvOp {
    /// Zero extension.
    ZExt,
    /// Sign extension.
    SExt,
    /// Truncation.
    Trunc,
    /// Pointer/array reinterpretation at equal width.
    Bitcast,
    /// Integer to pointer.
    IntToPtr,
    /// Pointer to integer.
    PtrToInt,
}

impl ConvOp {
    /// The LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ConvOp::ZExt => "zext",
            ConvOp::SExt => "sext",
            ConvOp::Trunc => "trunc",
            ConvOp::Bitcast => "bitcast",
            ConvOp::IntToPtr => "inttoptr",
            ConvOp::PtrToInt => "ptrtoint",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<ConvOp> {
        Some(match s {
            "zext" => ConvOp::ZExt,
            "sext" => ConvOp::SExt,
            "trunc" => ConvOp::Trunc,
            "bitcast" => ConvOp::Bitcast,
            "inttoptr" => ConvOp::IntToPtr,
            "ptrtoint" => ConvOp::PtrToInt,
            _ => return None,
        })
    }
}

impl fmt::Display for ConvOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// `icmp` comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ICmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
}

impl ICmpPred {
    /// The LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ICmpPred::Eq => "eq",
            ICmpPred::Ne => "ne",
            ICmpPred::Ugt => "ugt",
            ICmpPred::Uge => "uge",
            ICmpPred::Ult => "ult",
            ICmpPred::Ule => "ule",
            ICmpPred::Sgt => "sgt",
            ICmpPred::Sge => "sge",
            ICmpPred::Slt => "slt",
            ICmpPred::Sle => "sle",
        }
    }

    /// Parses a mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<ICmpPred> {
        Some(match s {
            "eq" => ICmpPred::Eq,
            "ne" => ICmpPred::Ne,
            "ugt" => ICmpPred::Ugt,
            "uge" => ICmpPred::Uge,
            "ult" => ICmpPred::Ult,
            "ule" => ICmpPred::Ule,
            "sgt" => ICmpPred::Sgt,
            "sge" => ICmpPred::Sge,
            "slt" => ICmpPred::Slt,
            "sle" => ICmpPred::Sle,
            _ => return None,
        })
    }
}

impl fmt::Display for ICmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Unary operators in constant expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CUnop {
    /// Arithmetic negation `-`.
    Neg,
    /// Bitwise complement `~`.
    Not,
}

/// Binary operators in constant expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CBinop {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (signed)
    SDiv,
    /// `/u` (unsigned)
    UDiv,
    /// `%` (signed)
    SRem,
    /// `%u` (unsigned)
    URem,
    /// `<<`
    Shl,
    /// `>>` (logical right shift)
    LShr,
    /// `>>a` (arithmetic right shift; also available as `ashr(..)`)
    AShr,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
}

/// A constant expression: literal, abstract constant, or arithmetic over
/// constant expressions (paper §2.1 "Constant expressions").
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CExpr {
    /// A literal integer (stored signed; width comes from type inference).
    Lit(i128),
    /// An abstract constant such as `C`, `C1`, `C2`.
    Sym(String),
    /// Unary operator.
    Unop(CUnop, Box<CExpr>),
    /// Binary operator.
    Binop(CBinop, Box<CExpr>, Box<CExpr>),
    /// Built-in constant function, e.g. `log2(C1)`, `width(%x)`, `abs(C)`.
    Fun(String, Vec<CExprArg>),
}

/// Argument of a constant function: usually a constant expression, but
/// `width(%x)` takes a register.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CExprArg {
    /// A constant expression argument.
    Expr(CExpr),
    /// A register argument (e.g. for `width`).
    Reg(String),
}

impl CExpr {
    /// Symbols (abstract constants) mentioned in this expression.
    pub fn symbols(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk_symbols(&mut out);
        out
    }

    fn walk_symbols<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            CExpr::Lit(_) => {}
            CExpr::Sym(s) => out.push(s),
            CExpr::Unop(_, a) => a.walk_symbols(out),
            CExpr::Binop(_, a, b) => {
                a.walk_symbols(out);
                b.walk_symbols(out);
            }
            CExpr::Fun(_, args) => {
                for a in args {
                    if let CExprArg::Expr(e) = a {
                        e.walk_symbols(out);
                    }
                }
            }
        }
    }
}

/// Comparison operators inside preconditions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PredCmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<` (signed)
    Slt,
    /// `<=` (signed)
    Sle,
    /// `>` (signed)
    Sgt,
    /// `>=` (signed)
    Sge,
    /// `u<`
    Ult,
    /// `u<=`
    Ule,
    /// `u>`
    Ugt,
    /// `u>=`
    Uge,
}

/// A precondition (paper §2.3): built-in predicates combined with the
/// usual logical connectives, plus comparisons of constant expressions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Pred {
    /// The trivially true precondition.
    True,
    /// Negation.
    Not(Box<Pred>),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Comparison of two constant expressions.
    Cmp(PredCmpOp, CExpr, CExpr),
    /// Built-in predicate application, e.g. `isPowerOf2(C1)`,
    /// `MaskedValueIsZero(%V, ~C1)`.
    Fun(String, Vec<PredArg>),
}

/// Argument of a built-in predicate.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PredArg {
    /// A register (input or temporary).
    Reg(String),
    /// A constant expression.
    Expr(CExpr),
}

/// An instruction operand.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A register `%x`, with an optional explicit type annotation.
    Reg(String, Option<Type>),
    /// A constant expression, with an optional explicit type annotation.
    Const(CExpr, Option<Type>),
    /// The `undef` value, with an optional explicit type annotation.
    Undef(Option<Type>),
}

impl Operand {
    /// The register name, if this operand is a register.
    pub fn reg_name(&self) -> Option<&str> {
        match self {
            Operand::Reg(n, _) => Some(n),
            _ => None,
        }
    }

    /// The explicit type annotation, if any.
    pub fn type_annotation(&self) -> Option<&Type> {
        match self {
            Operand::Reg(_, t) | Operand::Const(_, t) | Operand::Undef(t) => t.as_ref(),
        }
    }
}

/// An instruction (right-hand side of a statement).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// `binop [flags] a, b`
    BinOp {
        /// The operation.
        op: BinOp,
        /// Poison-introducing attributes present on the instruction.
        flags: Vec<Flag>,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `conv a [to ty]` — conversions; the optional explicit result type
    /// constrains type enumeration.
    Conv {
        /// The conversion operation.
        op: ConvOp,
        /// Operand being converted.
        arg: Operand,
        /// Optional explicit result type.
        to: Option<Type>,
    },
    /// `select c, a, b`
    Select {
        /// The i1 condition.
        cond: Operand,
        /// Value if true.
        on_true: Operand,
        /// Value if false.
        on_false: Operand,
    },
    /// `icmp pred a, b`
    ICmp {
        /// Comparison predicate.
        pred: ICmpPred,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `alloca ty, count` — stack allocation.
    Alloca {
        /// Element type.
        ty: Type,
        /// Number of elements (a constant expression; defaults to 1).
        count: Operand,
    },
    /// `load ptr`
    Load {
        /// The pointer operand.
        ptr: Operand,
    },
    /// `store val, ptr` (void result; statement has no name).
    Store {
        /// The value stored.
        val: Operand,
        /// The pointer stored to.
        ptr: Operand,
    },
    /// `getelementptr ptr, idx...`
    Gep {
        /// Base pointer.
        ptr: Operand,
        /// Index operands.
        idxs: Vec<Operand>,
    },
    /// Explicit copy `%x = op` (Alive extension over LLVM).
    Copy {
        /// The copied operand.
        val: Operand,
    },
    /// `unreachable`.
    Unreachable,
}

impl Inst {
    /// All operands of the instruction, in order.
    pub fn operands(&self) -> Vec<&Operand> {
        match self {
            Inst::BinOp { a, b, .. } => vec![a, b],
            Inst::Conv { arg, .. } => vec![arg],
            Inst::Select {
                cond,
                on_true,
                on_false,
            } => vec![cond, on_true, on_false],
            Inst::ICmp { a, b, .. } => vec![a, b],
            Inst::Alloca { count, .. } => vec![count],
            Inst::Load { ptr } => vec![ptr],
            Inst::Store { val, ptr } => vec![val, ptr],
            Inst::Gep { ptr, idxs } => {
                let mut v = vec![ptr];
                v.extend(idxs.iter());
                v
            }
            Inst::Copy { val } => vec![val],
            Inst::Unreachable => vec![],
        }
    }

    /// Register names used by the instruction.
    pub fn used_regs(&self) -> Vec<&str> {
        self.operands()
            .into_iter()
            .filter_map(Operand::reg_name)
            .collect()
    }

    /// Does the instruction access memory (sequence point; paper §3.3.1)?
    pub fn is_memory_op(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Store { .. } | Inst::Alloca { .. } | Inst::Gep { .. }
        )
    }
}

/// A statement: an optional result register bound to an instruction.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Stmt {
    /// The defined register (None for `store`/`unreachable`).
    pub name: Option<String>,
    /// The instruction.
    pub inst: Inst,
}

/// A complete Alive transformation: `source => target` with an optional
/// precondition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transform {
    /// The optional `Name:` header.
    pub name: Option<String>,
    /// The precondition (`Pred::True` when absent).
    pub pre: Pred,
    /// Source template statements, in program order.
    pub source: Vec<Stmt>,
    /// Target template statements, in program order.
    pub target: Vec<Stmt>,
}

impl Transform {
    /// The root register: the value defined by the last source statement
    /// that produces a result.
    ///
    /// # Panics
    ///
    /// Panics if the source template defines no values (rejected by
    /// [`validate`](crate::validate::validate)).
    pub fn root(&self) -> &str {
        self.source
            .iter()
            .rev()
            .find_map(|s| s.name.as_deref())
            .expect("source template defines no values")
    }

    /// Registers defined in the source template, in order.
    pub fn source_defs(&self) -> Vec<&str> {
        self.source
            .iter()
            .filter_map(|s| s.name.as_deref())
            .collect()
    }

    /// Registers defined in the target template, in order.
    pub fn target_defs(&self) -> Vec<&str> {
        self.target
            .iter()
            .filter_map(|s| s.name.as_deref())
            .collect()
    }

    /// Input registers: used in the source but not defined by it.
    pub fn inputs(&self) -> Vec<&str> {
        let defs: Vec<&str> = self.source_defs();
        let mut out: Vec<&str> = Vec::new();
        for s in &self.source {
            for r in s.inst.used_regs() {
                if !defs.contains(&r) && !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        out
    }

    /// All abstract constant symbols appearing anywhere in the transform.
    pub fn constant_symbols(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut push = |e: &CExpr| {
            for s in e.symbols() {
                if !out.iter().any(|x| x == s) {
                    out.push(s.to_string());
                }
            }
        };
        for stmt in self.source.iter().chain(&self.target) {
            for op in stmt.inst.operands() {
                if let Operand::Const(e, _) = op {
                    push(e);
                }
            }
        }
        // Also collect from the precondition.
        fn pred_syms(p: &Pred, out: &mut Vec<String>) {
            match p {
                Pred::True => {}
                Pred::Not(a) => pred_syms(a, out),
                Pred::And(a, b) | Pred::Or(a, b) => {
                    pred_syms(a, out);
                    pred_syms(b, out);
                }
                Pred::Cmp(_, a, b) => {
                    for s in a.symbols().into_iter().chain(b.symbols()) {
                        if !out.iter().any(|x| x == s) {
                            out.push(s.to_string());
                        }
                    }
                }
                Pred::Fun(_, args) => {
                    for a in args {
                        if let PredArg::Expr(e) = a {
                            for s in e.symbols() {
                                if !out.iter().any(|x| x == s) {
                                    out.push(s.to_string());
                                }
                            }
                        }
                    }
                }
            }
        }
        pred_syms(&self.pre, &mut out);
        out
    }
}
