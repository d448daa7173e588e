//! Hash-consed SMT terms over booleans and bitvectors.
//!
//! All terms live in a [`TermPool`]; a [`TermId`] is an index into it.
//! Constructors perform light simplification (constant folding, identity and
//! annihilator rules) so the formulas handed to the bit-blaster stay small.
//! The seventeen binary bitvector operators are one [`Op::Bv`] variant, and
//! each is defined once, by its [`BvOp::def`] row: name, semantics,
//! commutativity and [`Law`]s — identity and annihilator rewrites such as
//! `and x, 0 → 0`, guarded word-level ones (division by a negation or
//! a shifted value, chains of divisions, a shift or a product divided),
//! and `add`, `mul` and `xor` distributed over a select.
//! Constant folding, [`crate::eval`], [`crate::substitute`] and the blaster
//! all read that row; the `op_table` test checks every law exhaustively at
//! widths 1–6, except that from i5 up a select law's last variable takes
//! only the edge values.
//! Bitvector equality also compares ring normal forms — polynomials over
//! opaque atoms with coefficients mod 2^w — so nonlinear identities such as
//! `(x·C1)·C2 = x·(C1·C2)` fold to `true` at every width without reaching
//! the blaster. The simplifications are validated against the reference
//! evaluator by property tests.

use crate::value::{BvVal, Sort, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Identifier of a term inside a [`TermPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Dense index of the term.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The operator (and children) of a term.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Boolean constant.
    BoolConst(bool),
    /// Bitvector constant.
    BvConst(BvVal),
    /// Free variable (never hash-consed together; carries a unique id).
    Var(u32),

    // Boolean connectives.
    /// Logical negation.
    Not(TermId),
    /// N-ary conjunction.
    And(Vec<TermId>),
    /// N-ary disjunction.
    Or(Vec<TermId>),
    /// Exclusive or.
    Xor(TermId, TermId),
    /// Implication.
    Implies(TermId, TermId),

    /// Equality at either sort.
    Eq(TermId, TermId),
    /// If-then-else; branches at either sort.
    Ite(TermId, TermId, TermId),

    // Bitvector unary operators.
    /// Bitwise complement.
    BvNot(TermId),
    /// Two's complement negation.
    BvNeg(TermId),

    /// A binary bitvector operator over two operands of one width.
    Bv(BvOp, TermId, TermId),

    // Width changes.
    /// Zero-extend to the result width.
    ZExt(TermId),
    /// Sign-extend to the result width.
    SExt(TermId),
    /// Extract bits hi..=lo.
    Extract(TermId, u32, u32),
    /// Concatenation (first operand is the high part).
    Concat(TermId, TermId),
}

impl Op {
    /// Children of the operator, in order.
    pub fn children(&self) -> Vec<TermId> {
        match self {
            Op::BoolConst(_) | Op::BvConst(_) | Op::Var(_) => vec![],
            Op::Not(a)
            | Op::BvNot(a)
            | Op::BvNeg(a)
            | Op::ZExt(a)
            | Op::SExt(a)
            | Op::Extract(a, _, _) => vec![*a],
            Op::And(cs) | Op::Or(cs) => cs.clone(),
            Op::Xor(a, b)
            | Op::Implies(a, b)
            | Op::Eq(a, b)
            | Op::Bv(_, a, b)
            | Op::Concat(a, b) => vec![*a, *b],
            Op::Ite(c, t, e) => vec![*c, *t, *e],
        }
    }

    /// Stable SMT-LIB-flavoured name of the operator kind, used to key
    /// per-op metrics (`blast.gates.<kind>`) and profiles.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::BoolConst(_) => "bool-const",
            Op::BvConst(_) => "bv-const",
            Op::Var(_) => "var",
            Op::Not(_) => "not",
            Op::And(_) => "and",
            Op::Or(_) => "or",
            Op::Xor(_, _) => "xor",
            Op::Implies(_, _) => "implies",
            Op::Eq(_, _) => "eq",
            Op::Ite(_, _, _) => "ite",
            Op::BvNot(_) => "bvnot",
            Op::BvNeg(_) => "bvneg",
            Op::Bv(op, _, _) => op.def().name,
            Op::ZExt(_) => "zext",
            Op::SExt(_) => "sext",
            Op::Extract(_, _, _) => "extract",
            Op::Concat(_, _) => "concat",
        }
    }
}

/// A binary bitvector operator: both operands share one width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BvOp {
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (SMT-LIB total semantics).
    Udiv,
    /// Unsigned remainder.
    Urem,
    /// Signed division.
    Sdiv,
    /// Signed remainder.
    Srem,
    /// Shift left.
    Shl,
    /// Logical shift right.
    Lshr,
    /// Arithmetic shift right.
    Ashr,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
}

/// A constant a law names, at the operands' width.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fixed {
    /// All bits clear.
    Zero,
    /// The value 1.
    One,
    /// All bits set.
    Ones,
    /// The signed minimum: only the sign bit set.
    Min,
}

impl Fixed {
    /// The constant at width `w`.
    pub fn at(self, w: u32) -> BvVal {
        match self {
            Fixed::Zero => BvVal::zero(w),
            Fixed::One => BvVal::one(w),
            Fixed::Ones => BvVal::ones(w),
            Fixed::Min => BvVal::int_min(w),
        }
    }
}

/// One operator's row of the [`BvOp`] table.
#[derive(Clone, Copy, Debug)]
pub struct BvDef {
    /// SMT-LIB name: the [`Op::kind_name`] (and so the `blast.gates.<kind>`
    /// key) and the head of [`TermPool::display`].
    pub name: &'static str,
    /// Semantics on constants; constant folding and [`crate::eval`] use it.
    pub apply: fn(BvVal, BvVal) -> Value,
    /// The result is a boolean (the comparisons), not a bitvector of the
    /// operands' width.
    pub predicate: bool,
    /// `a op b = b op a`: a term keeps its operands in `a <= b` order, and
    /// a law matches its operands in either order.
    pub commutes: bool,
    /// The operator's [`Law`]s, tried in order; the first that matches
    /// rewrites the term.
    pub laws: &'static [Law],
}

/// A term shape in a [`Law`]. On the left-hand side it matches an operand
/// and binds the law's variables; the guard and the right-hand side are
/// built from it through the pool's constructors. A commutative operator
/// on a left-hand side matches its operands in either order.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Law variable `i`: matches any term (one term at every occurrence)
    /// and builds the term it matched.
    Var(u8),
    /// Law variable `i` on a left-hand side, matching only a free variable
    /// (an input or an abstract constant), never a computed value: a law
    /// whose guard a precondition on such variables asserts then leaves
    /// alone the instances where nothing asserts it.
    Leaf(u8),
    /// A constant at the operands' width.
    Const(Fixed),
    /// A boolean constant; right-hand sides only.
    Bool(bool),
    /// Bitwise complement; right-hand sides only.
    Not(&'static Shape),
    /// Two's complement negation.
    Neg(&'static Shape),
    /// A binary operator of the table (operands in the order written).
    Bv(BvOp, &'static Shape, &'static Shape),
    /// Equality; guards only.
    Eq(&'static Shape, &'static Shape),
    /// Disequality; guards only.
    Ne(&'static Shape, &'static Shape),
    /// Conjunction; guards only.
    And(&'static Shape, &'static Shape),
    /// Disjunction; guards only.
    Or(&'static Shape, &'static Shape),
    /// If-then-else: a boolean condition and two operands of the
    /// operands' width.
    Ite(&'static Shape, &'static Shape, &'static Shape),
    /// Zero-extension to twice the operands' width; guards only.
    Zext2(&'static Shape),
}

/// A rewrite of one operator: a term whose operands match `lhs` becomes
/// `rhs` where `guard` holds. A guarded law builds `ite(guard, rhs, lhs)`,
/// so an instance whose guard is false keeps its value. Every law is an
/// identity of SMT-LIB semantics at every width.
///
/// Rewriting terminates. A law does not fire while its own right-hand side
/// or guard is being built (the pool keeps a stack of the laws it is
/// applying), so the stack holds each law at most once, it is never deeper
/// than the table has laws, and each level builds one finite shape. Without
/// that, `sdiv-shl` would loop: on `sdiv (a << b), (1 << c)` its right-hand
/// side divides `1 << c` by `1 << b`, which matches it again with `b` and
/// `c` swapped.
#[derive(Clone, Copy, Debug)]
pub struct Law {
    /// Name, `<op>-<operand>`; firings count under the trace counter
    /// `smt.laws.<name>`.
    pub name: &'static str,
    /// The shapes of the left and the right operand.
    pub lhs: [Shape; 2],
    /// Where the rewrite holds; `None` when it holds everywhere.
    pub guard: Option<Shape>,
    /// The rewritten term.
    pub rhs: Shape,
}

/// An unguarded law.
const fn law(name: &'static str, lhs: [Shape; 2], rhs: Shape) -> Law {
    Law {
        name,
        lhs,
        guard: None,
        rhs,
    }
}

/// The variables of the [`Law`] table.
const X: Shape = Shape::Var(0);
const Y: Shape = Shape::Var(1);
const C: Shape = Shape::Var(2);
/// The one boolean law variable: a select's condition.
const B: Shape = Shape::Var(3);

/// The constants of the [`Law`] table.
const ZERO: Shape = Shape::Const(Fixed::Zero);
const ONE: Shape = Shape::Const(Fixed::One);
const ONES: Shape = Shape::Const(Fixed::Ones);
const MIN: Shape = Shape::Const(Fixed::Min);

/// `c·y` and `1 << c`, shared by the signed division laws.
const CY: Shape = Shape::Bv(BvOp::Mul, &C, &Y);
const POW: Shape = Shape::Bv(BvOp::Shl, &ONE, &C);

/// Law variables a matched left-hand side binds.
type Binding = [Option<TermId>; 4];

/// `ite b, x, y` over free variables `x` and `y`, the left operand of the
/// select-distribution laws; their right operand is a free variable `c`.
const SELECT: Shape = Shape::Ite(&B, &Shape::Leaf(0), &Shape::Leaf(1));

/// `op (ite b, x, y), c → ite b, (op x, c), (op y, c)`: an operator on a
/// select of free variables and a free variable is the select of the two
/// results. Each firing builds two operators over free variables, and
/// nothing it builds is such a select under an operator again, so a chain
/// of selects grows linearly.
macro_rules! select_law {
    ($name:literal, $op:expr) => {
        law(
            $name,
            [SELECT, Shape::Leaf(2)],
            Shape::Ite(&B, &Shape::Bv($op, &X, &C), &Shape::Bv($op, &Y, &C)),
        )
    };
}

/// `srem x, −c = srem x, c`: the remainder takes the dividend's sign and
/// |−c| = |c|, also where −c = c (c = 0 and c = MIN).
const SREM_LAWS: &[Law] = &[
    law("srem-self", [X, X], ZERO),
    law("srem-one", [X, ONE], ZERO),
    law("srem-ones", [X, ONES], ZERO),
    law(
        "srem-neg",
        [X, Shape::Neg(&C)],
        Shape::Bv(BvOp::Srem, &X, &C),
    ),
];

/// `sdiv x, −1 = −x` (sdiv MIN, −1 wraps to MIN = −MIN);
/// `sdiv x, −c = −(sdiv x, c)`: truncating division is odd in the
/// divisor, except where −c = c (c = 0 and c = MIN);
/// `sdiv (sdiv x c), y = sdiv x, c·y` when both divisions are defined
/// (vcgen's shape: `c ≠ 0`, `y ≠ 0`, not `MIN / −1`) and `c·y` does not
/// overflow, which dividing it back by either factor shows: truncation
/// composes over the integers. `c` and `y` must be free variables, so the
/// guard's multiplier and two dividers are built only for a chain by
/// abstract constants, which a precondition can constrain;
/// `sdiv (x << c), y = sdiv x, (sdiv y, 1 << c)` when the shift keeps the
/// sign (the `shl nsw` form), `1 << c` is a positive power of two and
/// divides `y`: then `x·2^c / (k·2^c)` truncates like `x / k`.
const SDIV_LAWS: &[Law] = &[
    law("sdiv-one", [X, ONE], X),
    law("sdiv-ones", [X, ONES], Shape::Neg(&X)),
    Law {
        name: "sdiv-neg",
        lhs: [X, Shape::Neg(&C)],
        guard: Some(Shape::And(&Shape::Ne(&C, &ZERO), &Shape::Ne(&C, &MIN))),
        rhs: Shape::Neg(&Shape::Bv(BvOp::Sdiv, &X, &C)),
    },
    Law {
        name: "sdiv-sdiv",
        lhs: [Shape::Bv(BvOp::Sdiv, &X, &Shape::Leaf(2)), Shape::Leaf(1)],
        guard: Some(Shape::And(
            &Shape::And(&Shape::Ne(&C, &ZERO), &Shape::Ne(&Y, &ZERO)),
            &Shape::And(
                &Shape::Or(&Shape::Ne(&X, &MIN), &Shape::Ne(&C, &ONES)),
                &Shape::And(
                    &Shape::Eq(&Shape::Bv(BvOp::Sdiv, &CY, &C), &Y),
                    &Shape::Eq(&Shape::Bv(BvOp::Sdiv, &CY, &Y), &C),
                ),
            ),
        )),
        rhs: Shape::Bv(BvOp::Sdiv, &X, &CY),
    },
    Law {
        name: "sdiv-shl",
        lhs: [Shape::Bv(BvOp::Shl, &X, &C), Y],
        guard: Some(Shape::And(
            &Shape::Eq(
                &Shape::Bv(BvOp::Ashr, &Shape::Bv(BvOp::Shl, &X, &C), &C),
                &X,
            ),
            &Shape::And(
                &Shape::Eq(&Shape::Bv(BvOp::Srem, &Y, &POW), &ZERO),
                &Shape::And(&Shape::Ne(&POW, &ZERO), &Shape::Ne(&POW, &MIN)),
            ),
        )),
        rhs: Shape::Bv(BvOp::Sdiv, &X, &Shape::Bv(BvOp::Sdiv, &Y, &POW)),
    },
];

/// `udiv x, (y << c) = udiv (x >> c), y` when the shift keeps every bit
/// of `y` (the `shl nuw` form), so `y << c = y·2^c`; a shift by `c ≥ w`
/// keeps them only for y = 0, where both sides divide by zero; the amount
/// must be a free variable, so a computed one (`C1 − C2`) keeps its plain
/// divider;
/// `udiv (udiv x c), y = udiv x, c·y` when `c ≠ 0` and `c·y` does not wrap
/// (⌊⌊x/c⌋/y⌋ = ⌊x/(c·y)⌋ over the integers; both sides are all ones at
/// y = 0);
/// `udiv (x·y), y = x` when `y ≠ 0` and `x·y` does not wrap (the `mul nuw`
/// form), in either operand order of the product.
const UDIV_LAWS: &[Law] = &[
    law("udiv-one", [X, ONE], X),
    Law {
        name: "udiv-shl",
        lhs: [X, Shape::Bv(BvOp::Shl, &Y, &Shape::Leaf(2))],
        guard: Some(Shape::Eq(
            &Shape::Bv(BvOp::Lshr, &Shape::Bv(BvOp::Shl, &Y, &C), &C),
            &Y,
        )),
        rhs: Shape::Bv(BvOp::Udiv, &Shape::Bv(BvOp::Lshr, &X, &C), &Y),
    },
    Law {
        name: "udiv-udiv",
        lhs: [Shape::Bv(BvOp::Udiv, &X, &C), Y],
        guard: Some(Shape::And(
            &Shape::Ne(&C, &ZERO),
            &Shape::Eq(
                &Shape::Bv(BvOp::Udiv, &Shape::Bv(BvOp::Mul, &C, &Y), &C),
                &Y,
            ),
        )),
        rhs: Shape::Bv(BvOp::Udiv, &X, &Shape::Bv(BvOp::Mul, &C, &Y)),
    },
    Law {
        name: "udiv-mul",
        lhs: [Shape::Bv(BvOp::Mul, &X, &Y), Y],
        guard: Some(Shape::And(
            &Shape::Ne(&Y, &ZERO),
            &Shape::Eq(
                &Shape::Bv(BvOp::Mul, &Shape::Zext2(&X), &Shape::Zext2(&Y)),
                &Shape::Zext2(&Shape::Bv(BvOp::Mul, &X, &Y)),
            ),
        )),
        rhs: X,
    },
];

impl BvOp {
    /// Every operator.
    pub const ALL: [BvOp; 17] = [
        BvOp::And,
        BvOp::Or,
        BvOp::Xor,
        BvOp::Add,
        BvOp::Sub,
        BvOp::Mul,
        BvOp::Udiv,
        BvOp::Urem,
        BvOp::Sdiv,
        BvOp::Srem,
        BvOp::Shl,
        BvOp::Lshr,
        BvOp::Ashr,
        BvOp::Ult,
        BvOp::Ule,
        BvOp::Slt,
        BvOp::Sle,
    ];

    /// The operator's row of the table: its one definition.
    pub fn def(self) -> BvDef {
        let row = |name, apply: fn(BvVal, BvVal) -> Value| BvDef {
            name,
            apply,
            predicate: false,
            commutes: false,
            laws: &[],
        };
        match self {
            BvOp::And => BvDef {
                commutes: true,
                laws: const {
                    &[
                        law("and-self", [X, X], X),
                        law("and-zero", [X, ZERO], ZERO),
                        law("and-ones", [X, ONES], X),
                    ]
                },
                ..row("bvand", |x, y| x.and(y).into())
            },
            BvOp::Or => BvDef {
                commutes: true,
                laws: const {
                    &[
                        law("or-self", [X, X], X),
                        law("or-ones", [X, ONES], ONES),
                        law("or-zero", [X, ZERO], X),
                    ]
                },
                ..row("bvor", |x, y| x.or(y).into())
            },
            BvOp::Xor => BvDef {
                commutes: true,
                laws: const {
                    &[
                        law("xor-self", [X, X], ZERO),
                        law("xor-zero", [X, ZERO], X),
                        law("xor-ones", [X, ONES], Shape::Not(&X)),
                        select_law!("xor-ite", BvOp::Xor),
                    ]
                },
                ..row("bvxor", |x, y| x.xor(y).into())
            },
            BvOp::Add => BvDef {
                commutes: true,
                laws: const {
                    &[
                        law("add-zero", [X, ZERO], X),
                        select_law!("add-ite", BvOp::Add),
                    ]
                },
                ..row("bvadd", |x, y| x.add(y).into())
            },
            BvOp::Sub => BvDef {
                laws: const { &[law("sub-self", [X, X], ZERO), law("sub-zero", [X, ZERO], X)] },
                ..row("bvsub", |x, y| x.sub(y).into())
            },
            BvOp::Mul => BvDef {
                commutes: true,
                laws: const {
                    &[
                        law("mul-zero", [X, ZERO], ZERO),
                        law("mul-one", [X, ONE], X),
                        select_law!("mul-ite", BvOp::Mul),
                    ]
                },
                ..row("bvmul", |x, y| x.mul(y).into())
            },
            BvOp::Udiv => BvDef {
                laws: UDIV_LAWS,
                ..row("bvudiv", |x, y| x.udiv(y).into())
            },
            BvOp::Urem => BvDef {
                laws: const {
                    &[
                        law("urem-self", [X, X], ZERO),
                        law("urem-one", [X, ONE], ZERO),
                    ]
                },
                ..row("bvurem", |x, y| x.urem(y).into())
            },
            BvOp::Sdiv => BvDef {
                laws: SDIV_LAWS,
                ..row("bvsdiv", |x, y| x.sdiv(y).into())
            },
            BvOp::Srem => BvDef {
                laws: SREM_LAWS,
                ..row("bvsrem", |x, y| x.srem(y).into())
            },
            BvOp::Shl => BvDef {
                laws: const { &[law("shl-zero", [X, ZERO], X)] },
                ..row("bvshl", |x, y| x.shl(y).into())
            },
            BvOp::Lshr => BvDef {
                laws: const { &[law("lshr-zero", [X, ZERO], X)] },
                ..row("bvlshr", |x, y| x.lshr(y).into())
            },
            BvOp::Ashr => BvDef {
                laws: const { &[law("ashr-zero", [X, ZERO], X)] },
                ..row("bvashr", |x, y| x.ashr(y).into())
            },
            BvOp::Ult => BvDef {
                predicate: true,
                laws: const { &[law("ult-self", [X, X], Shape::Bool(false))] },
                ..row("bvult", |x, y| x.ult(y).into())
            },
            BvOp::Ule => BvDef {
                predicate: true,
                laws: const { &[law("ule-self", [X, X], Shape::Bool(true))] },
                ..row("bvule", |x, y| x.ule(y).into())
            },
            BvOp::Slt => BvDef {
                predicate: true,
                laws: const { &[law("slt-self", [X, X], Shape::Bool(false))] },
                ..row("bvslt", |x, y| x.slt(y).into())
            },
            BvOp::Sle => BvDef {
                predicate: true,
                laws: const { &[law("sle-self", [X, X], Shape::Bool(true))] },
                ..row("bvsle", |x, y| x.sle(y).into())
            },
        }
    }
}

/// A term: operator plus result sort.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Term {
    /// The operator and children.
    pub op: Op,
    /// The result sort.
    pub sort: Sort,
}

/// Arena of hash-consed terms.
///
/// # Examples
///
/// ```
/// use alive_smt::{TermPool, Sort, BvVal};
///
/// let mut p = TermPool::new();
/// let x = p.var("x", Sort::BitVec(8));
/// let zero = p.bv_const(BvVal::zero(8));
/// let sum = p.bv_add(x, zero);
/// assert_eq!(sum, x, "x + 0 simplifies to x");
/// ```
#[derive(Debug, Default)]
pub struct TermPool {
    terms: Vec<Term>,
    dedup: HashMap<Term, TermId>,
    var_names: Vec<String>,
    /// Memoized ring normal forms; `None` marks a term past the caps.
    ring_forms: HashMap<TermId, Option<Poly>>,
    ring_folds: u64,
    law_firings: BTreeMap<&'static str, u64>,
    /// The laws whose right-hand side or guard is being built; none of
    /// them fires until it is built (see [`Law`]).
    active_laws: Vec<&'static str>,
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> TermPool {
        TermPool::default()
    }

    /// Number of distinct terms allocated.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` if no terms exist yet.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Borrows a term.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// The sort of a term.
    pub fn sort(&self, id: TermId) -> Sort {
        self.terms[id.index()].sort
    }

    /// The bitwidth of a bitvector term.
    ///
    /// # Panics
    ///
    /// Panics if the term is boolean.
    pub fn width(&self, id: TermId) -> u32 {
        self.sort(id).width()
    }

    /// The display name of a variable term, if it is one.
    pub fn var_name(&self, id: TermId) -> Option<&str> {
        match self.term(id).op {
            Op::Var(v) => Some(&self.var_names[v as usize]),
            _ => None,
        }
    }

    /// The constant value of a term if it is a constant.
    pub fn as_const(&self, id: TermId) -> Option<Value> {
        match self.term(id).op {
            Op::BoolConst(b) => Some(Value::Bool(b)),
            Op::BvConst(v) => Some(Value::Bv(v)),
            _ => None,
        }
    }

    /// The constant bitvector value of a term, if any.
    pub fn as_bv_const(&self, id: TermId) -> Option<BvVal> {
        match self.term(id).op {
            Op::BvConst(v) => Some(v),
            _ => None,
        }
    }

    /// The constant boolean value of a term, if any.
    pub fn as_bool_const(&self, id: TermId) -> Option<bool> {
        match self.term(id).op {
            Op::BoolConst(b) => Some(b),
            _ => None,
        }
    }

    fn intern(&mut self, term: Term) -> TermId {
        if let Some(&id) = self.dedup.get(&term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.clone());
        self.dedup.insert(term, id);
        id
    }

    // ---- leaves ----

    /// Creates a fresh free variable of the given sort.
    ///
    /// Each call creates a distinct variable even for equal names; names are
    /// only for diagnostics and models.
    pub fn var(&mut self, name: impl Into<String>, sort: Sort) -> TermId {
        let v = self.var_names.len() as u32;
        self.var_names.push(name.into());
        // Vars are unique by id, so interning always creates a new slot.
        self.intern(Term {
            op: Op::Var(v),
            sort,
        })
    }

    /// Boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.intern(Term {
            op: Op::BoolConst(b),
            sort: Sort::Bool,
        })
    }

    /// The constant `true`.
    pub fn tru(&mut self) -> TermId {
        self.bool_const(true)
    }

    /// The constant `false`.
    pub fn fls(&mut self) -> TermId {
        self.bool_const(false)
    }

    /// Bitvector constant.
    pub fn bv_const(&mut self, v: BvVal) -> TermId {
        self.intern(Term {
            op: Op::BvConst(v),
            sort: Sort::BitVec(v.width()),
        })
    }

    /// Bitvector constant from width and bits.
    pub fn bv(&mut self, width: u32, bits: u128) -> TermId {
        self.bv_const(BvVal::new(width, bits))
    }

    // ---- boolean connectives ----

    /// Logical negation.
    pub fn not(&mut self, a: TermId) -> TermId {
        debug_assert_eq!(self.sort(a), Sort::Bool);
        if let Some(b) = self.as_bool_const(a) {
            return self.bool_const(!b);
        }
        if let Op::Not(inner) = self.term(a).op {
            return inner;
        }
        self.intern(Term {
            op: Op::Not(a),
            sort: Sort::Bool,
        })
    }

    /// N-ary conjunction (flattens, drops `true`, annihilates on `false`).
    pub fn and(&mut self, items: impl IntoIterator<Item = TermId>) -> TermId {
        let mut out: Vec<TermId> = Vec::new();
        for t in items {
            debug_assert_eq!(self.sort(t), Sort::Bool);
            match &self.term(t).op {
                Op::BoolConst(true) => {}
                Op::BoolConst(false) => return self.fls(),
                Op::And(inner) => out.extend(inner.iter().copied()),
                _ => out.push(t),
            }
        }
        out.sort_unstable();
        out.dedup();
        // x & !x = false
        for &t in &out {
            if let Op::Not(inner) = self.term(t).op {
                if out.binary_search(&inner).is_ok() {
                    return self.fls();
                }
            }
        }
        match out.len() {
            0 => self.tru(),
            1 => out[0],
            _ => self.intern(Term {
                op: Op::And(out),
                sort: Sort::Bool,
            }),
        }
    }

    /// Binary conjunction.
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and([a, b])
    }

    /// N-ary disjunction (flattens, drops `false`, annihilates on `true`).
    pub fn or(&mut self, items: impl IntoIterator<Item = TermId>) -> TermId {
        let mut out: Vec<TermId> = Vec::new();
        for t in items {
            debug_assert_eq!(self.sort(t), Sort::Bool);
            match &self.term(t).op {
                Op::BoolConst(false) => {}
                Op::BoolConst(true) => return self.tru(),
                Op::Or(inner) => out.extend(inner.iter().copied()),
                _ => out.push(t),
            }
        }
        out.sort_unstable();
        out.dedup();
        for &t in &out {
            if let Op::Not(inner) = self.term(t).op {
                if out.binary_search(&inner).is_ok() {
                    return self.tru();
                }
            }
        }
        match out.len() {
            0 => self.fls(),
            1 => out[0],
            _ => self.intern(Term {
                op: Op::Or(out),
                sort: Sort::Bool,
            }),
        }
    }

    /// Binary disjunction.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or([a, b])
    }

    /// Exclusive or of booleans.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.sort(a), Sort::Bool);
        debug_assert_eq!(self.sort(b), Sort::Bool);
        if a == b {
            return self.fls();
        }
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(x), Some(y)) => return self.bool_const(x ^ y),
            (Some(false), None) => return b,
            (None, Some(false)) => return a,
            (Some(true), None) => return self.not(b),
            (None, Some(true)) => return self.not(a),
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Term {
            op: Op::Xor(a, b),
            sort: Sort::Bool,
        })
    }

    /// Implication `a => b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(false), _) | (_, Some(true)) => return self.tru(),
            (Some(true), _) => return b,
            (_, Some(false)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.tru();
        }
        self.intern(Term {
            op: Op::Implies(a, b),
            sort: Sort::Bool,
        })
    }

    /// Equality (both operands must share a sort).
    ///
    /// Bitvector operands whose ring normal forms differ by a constant,
    /// with a product of atoms on either side, fold to that verdict (see
    /// [`TermPool::ring_folds`]).
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), self.sort(b), "eq sort mismatch");
        if a == b {
            return self.tru();
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bool_const(x == y);
        }
        if let Some(d) = self.ring_difference(a, b) {
            self.ring_folds += 1;
            return self.bool_const(d.is_zero());
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Term {
            op: Op::Eq(a, b),
            sort: Sort::Bool,
        })
    }

    /// Disequality.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// If-then-else over either sort. A branch that repeats the condition
    /// takes its own side of it: `ite(c, ite(c, t, _), e)` and
    /// `ite(c, t, ite(c, _, e))` are `ite(c, t, e)`, so substituting into a
    /// guarded [`Law`]'s instance builds the same term as the law.
    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        debug_assert_eq!(self.sort(c), Sort::Bool);
        assert_eq!(self.sort(t), self.sort(e), "ite branch sort mismatch");
        if let Some(b) = self.as_bool_const(c) {
            return if b { t } else { e };
        }
        let t = match self.term(t).op {
            Op::Ite(c2, t2, _) if c2 == c => t2,
            _ => t,
        };
        let e = match self.term(e).op {
            Op::Ite(c2, _, e2) if c2 == c => e2,
            _ => e,
        };
        if t == e {
            return t;
        }
        // Boolean-sorted ite with constant branches folds to connectives.
        if self.sort(t) == Sort::Bool {
            match (self.as_bool_const(t), self.as_bool_const(e)) {
                (Some(true), Some(false)) => return c,
                (Some(false), Some(true)) => return self.not(c),
                (Some(true), None) => return self.or2(c, e),
                (Some(false), None) => {
                    let nc = self.not(c);
                    return self.and2(nc, e);
                }
                (None, Some(true)) => {
                    let nc = self.not(c);
                    return self.or2(nc, t);
                }
                (None, Some(false)) => return self.and2(c, t),
                _ => {}
            }
        }
        let sort = self.sort(t);
        self.intern(Term {
            op: Op::Ite(c, t, e),
            sort,
        })
    }

    // ---- bitvector operators ----

    /// Bitwise complement.
    pub fn bv_not(&mut self, a: TermId) -> TermId {
        if let Some(v) = self.as_bv_const(a) {
            return self.bv_const(v.not());
        }
        if let Op::BvNot(inner) = self.term(a).op {
            return inner;
        }
        let sort = self.sort(a);
        self.intern(Term {
            op: Op::BvNot(a),
            sort,
        })
    }

    /// Two's complement negation.
    pub fn bv_neg(&mut self, a: TermId) -> TermId {
        if let Some(v) = self.as_bv_const(a) {
            return self.bv_const(v.neg());
        }
        if let Op::BvNeg(inner) = self.term(a).op {
            return inner;
        }
        let sort = self.sort(a);
        self.intern(Term {
            op: Op::BvNeg(a),
            sort,
        })
    }

    /// A binary bitvector operator, simplified by its [`BvOp::def`] row:
    /// two constants fold to the operator's value, then the first [`Law`]
    /// whose left-hand side matches rewrites the term. A commutative
    /// operator orders its operands, so `a op b` and `b op a` are one term,
    /// and its laws match the operands in either order. The right operand
    /// is matched first, so a variable it shares with the left one is
    /// bound before a commutative operator inside the left one picks its
    /// order (`udiv (x·y), y`).
    pub fn bv_binop(&mut self, op: BvOp, a: TermId, b: TermId) -> TermId {
        self.check_same_bv(a, b);
        let def = op.def();
        let w = self.width(a);
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.constant((def.apply)(x, y));
        }
        let (a, b) = if def.commutes && a > b {
            (b, a)
        } else {
            (a, b)
        };
        let sort = if def.predicate {
            Sort::Bool
        } else {
            Sort::BitVec(w)
        };
        let term = Term {
            op: Op::Bv(op, a, b),
            sort,
        };
        let orders = if def.commutes { 2 } else { 1 };
        for law in def.laws {
            if self.active_laws.contains(&law.name) {
                continue;
            }
            for (l, r) in [(a, b), (b, a)].into_iter().take(orders) {
                let mut env = [None; 4];
                if self.matches(law.lhs[1], r, &mut env) && self.matches(law.lhs[0], l, &mut env) {
                    return self.rewrite(law, &env, term, w);
                }
            }
        }
        self.intern(term)
    }

    /// Does `t` have the shape? Binds the shape's variables in `env`; a
    /// commutative operator binds them in the first operand order that
    /// matches.
    fn matches(&self, shape: Shape, t: TermId, env: &mut Binding) -> bool {
        match (shape, &self.term(t).op) {
            (Shape::Var(i), _) => *env[usize::from(i)].get_or_insert(t) == t,
            (Shape::Leaf(i), Op::Var(_)) => *env[usize::from(i)].get_or_insert(t) == t,
            (Shape::Const(k), Op::BvConst(v)) => *v == k.at(v.width()),
            (Shape::Neg(s), &Op::BvNeg(a)) => self.matches(*s, a, env),
            (Shape::Ite(c, p, q), &Op::Ite(a, b, d)) => {
                self.matches(*c, a, env) && self.matches(*p, b, env) && self.matches(*q, d, env)
            }
            (Shape::Bv(op, p, q), &Op::Bv(o, a, b)) if op == o => {
                let orders = if op.def().commutes { 2 } else { 1 };
                [(a, b), (b, a)].into_iter().take(orders).any(|(a, b)| {
                    let mut tried = *env;
                    let found = self.matches(*p, a, &mut tried) && self.matches(*q, b, &mut tried);
                    if found {
                        *env = tried;
                    }
                    found
                })
            }
            _ => false,
        }
    }

    /// Builds a shape over the variables `env` binds, at width `w`.
    fn build(&mut self, shape: Shape, env: &Binding, w: u32) -> TermId {
        let two = |p: &Shape, q: &Shape, pool: &mut TermPool| {
            (pool.build(*p, env, w), pool.build(*q, env, w))
        };
        match shape {
            Shape::Var(i) | Shape::Leaf(i) => {
                env[usize::from(i)].expect("a law's variables are bound by its left-hand side")
            }
            Shape::Const(k) => self.bv_const(k.at(w)),
            Shape::Bool(b) => self.bool_const(b),
            Shape::Not(s) => {
                let a = self.build(*s, env, w);
                self.bv_not(a)
            }
            Shape::Neg(s) => {
                let a = self.build(*s, env, w);
                self.bv_neg(a)
            }
            Shape::Bv(op, p, q) => {
                let (a, b) = two(p, q, self);
                self.bv_binop(op, a, b)
            }
            Shape::Eq(p, q) => {
                let (a, b) = two(p, q, self);
                self.eq(a, b)
            }
            Shape::Ne(p, q) => {
                let (a, b) = two(p, q, self);
                self.ne(a, b)
            }
            Shape::And(p, q) => {
                let (a, b) = two(p, q, self);
                self.and2(a, b)
            }
            Shape::Or(p, q) => {
                let (a, b) = two(p, q, self);
                self.or2(a, b)
            }
            Shape::Zext2(s) => {
                let a = self.build(*s, env, w);
                self.zext(a, 2 * w)
            }
            Shape::Ite(c, p, q) => {
                let c = self.build(*c, env, w);
                let (t, e) = two(p, q, self);
                self.ite(c, t, e)
            }
        }
    }

    /// Applies a law whose left-hand side matched `lhs`, counting the
    /// firing unless the guard folded to false.
    fn rewrite(&mut self, law: &Law, env: &Binding, lhs: Term, w: u32) -> TermId {
        self.active_laws.push(law.name);
        let rhs = self.build(law.rhs, env, w);
        let guard = law.guard.map(|guard| self.build(guard, env, w));
        self.active_laws.pop();
        let out = match guard {
            None => rhs,
            Some(guard) => {
                let lhs = self.intern(lhs);
                if self.as_bool_const(guard) == Some(false) {
                    return lhs;
                }
                self.ite(guard, rhs, lhs)
            }
        };
        *self.law_firings.entry(law.name).or_insert(0) += 1;
        out
    }

    /// The constant term of a value.
    pub(crate) fn constant(&mut self, v: Value) -> TermId {
        match v {
            Value::Bool(b) => self.bool_const(b),
            Value::Bv(v) => self.bv_const(v),
        }
    }

    /// Bitwise and.
    pub fn bv_and(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::And, a, b)
    }

    /// Bitwise or.
    pub fn bv_or(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Or, a, b)
    }

    /// Bitwise xor.
    pub fn bv_xor(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Xor, a, b)
    }

    /// Wrapping addition.
    pub fn bv_add(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Add, a, b)
    }

    /// Wrapping subtraction.
    pub fn bv_sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Sub, a, b)
    }

    /// Wrapping multiplication.
    pub fn bv_mul(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Mul, a, b)
    }

    /// Unsigned division (total, SMT-LIB semantics).
    pub fn bv_udiv(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Udiv, a, b)
    }

    /// Unsigned remainder.
    pub fn bv_urem(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Urem, a, b)
    }

    /// Signed division.
    pub fn bv_sdiv(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Sdiv, a, b)
    }

    /// Signed remainder.
    pub fn bv_srem(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Srem, a, b)
    }

    /// Shift left.
    pub fn bv_shl(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Shl, a, b)
    }

    /// Logical shift right.
    pub fn bv_lshr(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Lshr, a, b)
    }

    /// Arithmetic shift right.
    pub fn bv_ashr(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Ashr, a, b)
    }

    /// Unsigned less-than.
    pub fn bv_ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Ult, a, b)
    }

    /// Unsigned less-or-equal.
    pub fn bv_ule(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Ule, a, b)
    }

    /// Signed less-than.
    pub fn bv_slt(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Slt, a, b)
    }

    /// Signed less-or-equal.
    pub fn bv_sle(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(BvOp::Sle, a, b)
    }

    /// Unsigned greater-than (swapped `ult`).
    pub fn bv_ugt(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_ult(b, a)
    }

    /// Unsigned greater-or-equal (swapped `ule`).
    pub fn bv_uge(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_ule(b, a)
    }

    /// Signed greater-than (swapped `slt`).
    pub fn bv_sgt(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_slt(b, a)
    }

    /// Signed greater-or-equal (swapped `sle`).
    pub fn bv_sge(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_sle(b, a)
    }

    // ---- width changes ----

    /// Zero-extension to `new_width`.
    ///
    /// # Panics
    ///
    /// Panics if `new_width` is smaller than the operand's width.
    pub fn zext(&mut self, a: TermId, new_width: u32) -> TermId {
        let w = self.width(a);
        assert!(new_width >= w, "zext to smaller width");
        if new_width == w {
            return a;
        }
        if let Some(v) = self.as_bv_const(a) {
            return self.bv_const(v.zext(new_width));
        }
        self.intern(Term {
            op: Op::ZExt(a),
            sort: Sort::BitVec(new_width),
        })
    }

    /// Sign-extension to `new_width`.
    ///
    /// # Panics
    ///
    /// Panics if `new_width` is smaller than the operand's width.
    pub fn sext(&mut self, a: TermId, new_width: u32) -> TermId {
        let w = self.width(a);
        assert!(new_width >= w, "sext to smaller width");
        if new_width == w {
            return a;
        }
        if let Some(v) = self.as_bv_const(a) {
            return self.bv_const(v.sext(new_width));
        }
        self.intern(Term {
            op: Op::SExt(a),
            sort: Sort::BitVec(new_width),
        })
    }

    /// Truncation to `new_width` (an `Extract(new_width-1, 0)`).
    pub fn trunc(&mut self, a: TermId, new_width: u32) -> TermId {
        let w = self.width(a);
        assert!(new_width <= w, "trunc to larger width");
        if new_width == w {
            return a;
        }
        self.extract(a, new_width - 1, 0)
    }

    /// Extraction of bits `hi..=lo`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` is out of range.
    pub fn extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.width(a);
        assert!(hi >= lo && hi < w, "bad extract range [{hi}:{lo}] on i{w}");
        if lo == 0 && hi == w - 1 {
            return a;
        }
        if let Some(v) = self.as_bv_const(a) {
            return self.bv_const(v.extract(hi, lo));
        }
        self.intern(Term {
            op: Op::Extract(a, hi, lo),
            sort: Sort::BitVec(hi - lo + 1),
        })
    }

    /// Concatenation; `a` supplies the high bits.
    pub fn concat(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width(a) + self.width(b);
        assert!(w <= 128, "concat width {w} exceeds 128");
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.bv_const(x.concat(y));
        }
        self.intern(Term {
            op: Op::Concat(a, b),
            sort: Sort::BitVec(w),
        })
    }

    // ---- ring normal form ----

    /// How many [`TermPool::eq`] calls the ring normal form decided.
    pub fn ring_folds(&self) -> u64 {
        self.ring_folds
    }

    /// How many times each [`Law`] rewrote a term, by name.
    pub fn law_firings(&self) -> &BTreeMap<&'static str, u64> {
        &self.law_firings
    }

    /// `Some(c)` when the bitvector terms `a - b` normalize to the
    /// constant `c` and a side is nonlinear; `None` for booleans, linear
    /// equalities, non-constant differences and forms past the caps.
    fn ring_difference(&mut self, a: TermId, b: TermId) -> Option<BvVal> {
        let w = match self.sort(a) {
            Sort::BitVec(w) => w,
            Sort::Bool => return None,
        };
        // Two distinct atoms, or an atom and a constant, never differ by a
        // constant: skip the normalization most equalities would pay for.
        let is_ring_op = |id: TermId| {
            matches!(
                self.term(id).op,
                Op::BvNeg(_)
                    | Op::Bv(
                        BvOp::Add | BvOp::Sub | BvOp::Mul | BvOp::Shl | BvOp::Urem | BvOp::Srem,
                        ..
                    )
            )
        };
        if !is_ring_op(a) && !is_ring_op(b) {
            return None;
        }
        let p = self.ring_form(a)?;
        let q = self.ring_form(b)?;
        // Linear equalities stay with the solver: adders blast to small
        // circuits that CDCL decides and DRAT certifies. The fold, which
        // no certificate covers (docs/PROOFS.md), is kept to products of
        // atoms, where bit-level search does not scale with the width.
        if !p.is_nonlinear() && !q.is_nonlinear() {
            return None;
        }
        p.add(&q.scale(BvVal::ones(w))?)?.as_constant(w)
    }

    /// The ring normal form of a bitvector term (memoized), or `None` past
    /// [`RING_MAX_MONOMIALS`] / [`RING_MAX_DEGREE`].
    ///
    /// Every rule is an identity of ℤ/2^w under SMT-LIB semantics, so a
    /// term and its form agree on every assignment:
    /// `shl a, b = a·(1 << b)` (both 0 once b ≥ w), and
    /// `urem a, b = a − (a udiv b)·b`, `srem a, b = a − (a sdiv b)·b`
    /// (also at b = 0 and INT_MIN / −1).
    fn ring_form(&mut self, id: TermId) -> Option<Poly> {
        if let Some(p) = self.ring_forms.get(&id) {
            return p.clone();
        }
        let p = self.normalize(id);
        self.ring_forms.insert(id, p.clone());
        p
    }

    fn normalize(&mut self, id: TermId) -> Option<Poly> {
        let w = self.width(id);
        let minus_one = BvVal::ones(w);
        match self.term(id).op {
            Op::BvConst(v) => Some(Poly::constant(v)),
            Op::Bv(BvOp::Add, a, b) => self.ring_form(a)?.add(&self.ring_form(b)?),
            Op::Bv(BvOp::Sub, a, b) => self
                .ring_form(a)?
                .add(&self.ring_form(b)?.scale(minus_one)?),
            Op::BvNeg(a) => self.ring_form(a)?.scale(minus_one),
            Op::Bv(BvOp::Mul, a, b) => self.ring_form(a)?.mul(&self.ring_form(b)?),
            Op::Bv(BvOp::Shl, a, b) => match self.as_bv_const(b) {
                Some(k) => self.ring_form(a)?.scale(BvVal::one(w).shl(k)),
                None => self.ring_form(a)?.mul(&Poly::atom(Atom::Pow2(b), w)),
            },
            Op::Bv(BvOp::Udiv, a, b) => Some(Poly::atom(Atom::Udiv(a, b), w)),
            Op::Bv(BvOp::Sdiv, a, b) => Some(Poly::atom(Atom::Sdiv(a, b), w)),
            Op::Bv(BvOp::Urem, a, b) => self.rem_form(a, b, Atom::Udiv(a, b)),
            Op::Bv(BvOp::Srem, a, b) => self.rem_form(a, b, Atom::Sdiv(a, b)),
            _ => Some(Poly::atom(Atom::Term(id), w)),
        }
    }

    /// `a − quotient·b`, the form of a remainder.
    fn rem_form(&mut self, a: TermId, b: TermId, quotient: Atom) -> Option<Poly> {
        let w = self.width(a);
        let p = self.ring_form(a)?;
        let q = self.ring_form(b)?;
        let neg_quotient = Poly::atom(quotient, w).scale(BvVal::ones(w))?;
        p.add(&neg_quotient.mul(&q)?)
    }

    fn check_same_bv(&self, a: TermId, b: TermId) {
        let (sa, sb) = (self.sort(a), self.sort(b));
        assert!(
            matches!(sa, Sort::BitVec(_)) && sa == sb,
            "bitvector sort mismatch: {sa} vs {sb}"
        );
    }

    /// Renders a term as an S-expression for diagnostics.
    pub fn display(&self, id: TermId) -> String {
        let mut s = String::new();
        self.fmt_term(id, &mut s);
        s
    }

    fn fmt_term(&self, id: TermId, out: &mut String) {
        use std::fmt::Write;
        let t = self.term(id);
        let name = match &t.op {
            Op::BoolConst(b) => {
                let _ = write!(out, "{b}");
                return;
            }
            Op::BvConst(v) => {
                let _ = write!(out, "{v:?}");
                return;
            }
            Op::Var(v) => {
                let _ = write!(out, "{}", self.var_names[*v as usize]);
                return;
            }
            Op::Extract(_, hi, lo) => {
                let _ = write!(out, "(extract[{hi}:{lo}] ");
                self.fmt_term(t.op.children()[0], out);
                out.push(')');
                return;
            }
            Op::Implies(..) => "=>",
            Op::Eq(..) => "=",
            op => op.kind_name(),
        };
        let _ = write!(out, "({name}");
        for c in t.op.children() {
            out.push(' ');
            self.fmt_term(c, out);
        }
        out.push(')');
    }
}

impl fmt::Display for TermPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TermPool({} terms)", self.terms.len())
    }
}

/// Most monomials a ring normal form may hold. A larger form counts as
/// unnormalizable: a missed fold, never a wrong one.
const RING_MAX_MONOMIALS: usize = 64;

/// Highest monomial degree a ring normal form may hold (same contract; it
/// stops repeated squaring from growing a monomial without bound).
const RING_MAX_DEGREE: usize = 16;

/// An opaque factor of a ring normal form. Quotients and powers of two are
/// keyed by their operands, so the normal form never adds terms to the
/// pool: `urem a, b` and an existing `udiv a, b` share one atom either way.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Atom {
    /// Any term the ring rules do not look inside.
    Term(TermId),
    /// `bvshl 1, b` for a symbolic shift amount `b`.
    Pow2(TermId),
    /// `bvudiv a, b`.
    Udiv(TermId, TermId),
    /// `bvsdiv a, b`.
    Sdiv(TermId, TermId),
}

/// A polynomial over [`Atom`]s with coefficients mod 2^w: `(monomial,
/// coefficient)` pairs sorted by monomial, with no zero coefficient. A
/// monomial is a sorted multiset of atoms; the constant term's is empty.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Poly(Vec<(Vec<Atom>, BvVal)>);

impl Poly {
    fn constant(c: BvVal) -> Poly {
        Poly(if c.is_zero() {
            vec![]
        } else {
            vec![(vec![], c)]
        })
    }

    fn atom(a: Atom, w: u32) -> Poly {
        Poly(vec![(vec![a], BvVal::one(w))])
    }

    /// Sums `(monomial, coefficient)` pairs into normal form, or `None`
    /// past the caps.
    fn collect(mut items: Vec<(Vec<Atom>, BvVal)>) -> Option<Poly> {
        items.sort_by(|x, y| x.0.cmp(&y.0));
        let mut out: Vec<(Vec<Atom>, BvVal)> = Vec::with_capacity(items.len());
        for (m, c) in items {
            match out.last_mut() {
                Some((last, sum)) if *last == m => *sum = sum.add(c),
                _ => out.push((m, c)),
            }
        }
        out.retain(|(_, c)| !c.is_zero());
        (out.len() <= RING_MAX_MONOMIALS).then_some(Poly(out))
    }

    fn add(&self, other: &Poly) -> Option<Poly> {
        Poly::collect(self.0.iter().chain(&other.0).cloned().collect())
    }

    fn scale(&self, k: BvVal) -> Option<Poly> {
        Poly::collect(self.0.iter().map(|(m, c)| (m.clone(), c.mul(k))).collect())
    }

    fn mul(&self, other: &Poly) -> Option<Poly> {
        let mut items = Vec::with_capacity(self.0.len() * other.0.len());
        for (m, c) in &self.0 {
            for (n, d) in &other.0 {
                if m.len() + n.len() > RING_MAX_DEGREE {
                    return None;
                }
                let mut mn = [m.as_slice(), n.as_slice()].concat();
                mn.sort_unstable();
                items.push((mn, c.mul(*d)));
            }
        }
        Poly::collect(items)
    }

    /// Does a monomial multiply two or more atoms?
    fn is_nonlinear(&self) -> bool {
        self.0.iter().any(|(m, _)| m.len() >= 2)
    }

    /// The value of a constant polynomial at width `w`.
    fn as_constant(&self, w: u32) -> Option<BvVal> {
        match self.0.as_slice() {
            [] => Some(BvVal::zero(w)),
            [(m, c)] if m.is_empty() => Some(*c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        let y = p.var("y", Sort::BitVec(8));
        let a = p.bv_add(x, y);
        let b = p.bv_add(y, x); // commutative canonicalization
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_vars_are_distinct() {
        let mut p = TermPool::new();
        let x1 = p.var("x", Sort::BitVec(8));
        let x2 = p.var("x", Sort::BitVec(8));
        assert_ne!(x1, x2);
    }

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let a = p.bv(8, 3);
        let b = p.bv(8, 5);
        let s = p.bv_add(a, b);
        assert_eq!(p.as_bv_const(s), Some(BvVal::new(8, 8)));
        let c = p.bv_ult(a, b);
        assert_eq!(p.as_bool_const(c), Some(true));
    }

    #[test]
    fn identities() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        let zero = p.bv(8, 0);
        let ones = p.bv(8, 0xFF);
        assert_eq!(p.bv_add(x, zero), x);
        assert_eq!(p.bv_sub(x, zero), x);
        assert_eq!(p.bv_and(x, ones), x);
        assert_eq!(p.bv_or(x, zero), x);
        assert_eq!(p.bv_xor(x, zero), x);
        assert_eq!(p.bv_and(x, zero), zero);
        let notx = p.bv_not(x);
        assert_eq!(p.bv_xor(x, ones), notx);
        assert_eq!(p.bv_not(notx), x);
        assert_eq!(p.bv_sub(x, x), zero);
        let xx = p.bv_xor(x, x);
        assert_eq!(xx, zero);
    }

    #[test]
    fn boolean_simplifications() {
        let mut p = TermPool::new();
        let a = p.var("a", Sort::Bool);
        let t = p.tru();
        let f = p.fls();
        assert_eq!(p.and2(a, t), a);
        assert_eq!(p.and2(a, f), f);
        assert_eq!(p.or2(a, f), a);
        assert_eq!(p.or2(a, t), t);
        let na = p.not(a);
        assert_eq!(p.and2(a, na), f);
        assert_eq!(p.or2(a, na), t);
        assert_eq!(p.not(na), a);
        assert_eq!(p.implies(f, a), t);
        assert_eq!(p.implies(t, a), a);
        assert_eq!(p.eq(a, a), t);
    }

    #[test]
    fn ite_simplifications() {
        let mut p = TermPool::new();
        let c = p.var("c", Sort::Bool);
        let x = p.var("x", Sort::BitVec(4));
        let y = p.var("y", Sort::BitVec(4));
        let t = p.tru();
        assert_eq!(p.ite(t, x, y), x);
        assert_eq!(p.ite(c, x, x), x);
        let f = p.fls();
        let b = p.var("b", Sort::Bool);
        assert_eq!(p.ite(c, t, f), c);
        assert_eq!(p.ite(c, f, t), p.not(c));
        assert_eq!(p.ite(c, b, f), p.and2(c, b));
    }

    #[test]
    fn width_change_folding() {
        let mut p = TermPool::new();
        let v = p.bv(4, 0b1010);
        assert_eq!(p.as_bv_const(p.clone_id(v)), Some(BvVal::new(4, 0b1010)));
        let z = p.zext(v, 8);
        assert_eq!(p.as_bv_const(z), Some(BvVal::new(8, 0b1010)));
        let s = p.sext(v, 8);
        assert_eq!(p.as_bv_const(s), Some(BvVal::new(8, 0b1111_1010)));
        let x = p.var("x", Sort::BitVec(8));
        assert_eq!(p.zext(x, 8), x);
        assert_eq!(p.trunc(x, 8), x);
        let e = p.extract(x, 7, 0);
        assert_eq!(e, x);
    }

    #[test]
    fn a_law_does_not_fire_inside_its_own_rewrite() {
        // `sdiv-shl` rewrites `sdiv (a << b), (1 << c)` to a quotient whose
        // divisor `sdiv (1 << c), (1 << b)` matches it again, with `b` and
        // `c` swapped; it must not fire there.
        let mut p = TermPool::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| p.var(n, Sort::BitVec(8)));
        let one = p.bv(8, 1);
        let ab = p.bv_shl(a, b);
        let pow = p.bv_shl(one, c);
        let q = p.bv_sdiv(ab, pow);
        assert!(matches!(p.term(q).op, Op::Ite(..)), "{}", p.display(q));
        assert_eq!(p.law_firings().get("sdiv-shl"), Some(&1));
    }

    #[test]
    fn udiv_mul_matches_either_factor() {
        let mut p = TermPool::new();
        let [x, y] = ["x", "y"].map(|n| p.var(n, Sort::BitVec(8)));
        let xy = p.bv_mul(x, y);
        for (divisor, quotient) in [(y, x), (x, y)] {
            let q = p.bv_udiv(xy, divisor);
            assert!(
                matches!(p.term(q).op, Op::Ite(_, t, _) if t == quotient),
                "{}",
                p.display(q)
            );
        }
        assert_eq!(p.law_firings().get("udiv-mul"), Some(&2));
    }

    #[test]
    fn leaf_laws_skip_computed_operands() {
        // `sdiv-sdiv` and `udiv-shl` bind their divisor and shift amount
        // only to free variables.
        let mut p = TermPool::new();
        let [x, c, y] = ["x", "c", "y"].map(|n| p.var(n, Sort::BitVec(8)));
        let yc = p.bv_sub(y, c);
        let xc = p.bv_sdiv(x, c);
        let chain = p.bv_sdiv(xc, yc);
        assert!(matches!(p.term(chain).op, Op::Bv(BvOp::Sdiv, ..)));
        let shifted = p.bv_shl(y, yc);
        let q = p.bv_udiv(x, shifted);
        assert!(matches!(p.term(q).op, Op::Bv(BvOp::Udiv, ..)));
        assert!(p.law_firings().is_empty(), "{:?}", p.law_firings());
        let chain = p.bv_sdiv(xc, y);
        assert!(matches!(p.term(chain).op, Op::Ite(..)));
        assert_eq!(p.law_firings().get("sdiv-sdiv"), Some(&1));
    }

    #[test]
    fn a_select_of_constants_times_a_constant_is_the_select_of_products() {
        // Select:MulOfSelectConsts: the source value hash-conses to the
        // target's, so the value condition folds without a SAT call.
        let mut p = TermPool::new();
        let b = p.var("b", Sort::Bool);
        let [c1, c2, c3] = ["C1", "C2", "C3"].map(|n| p.var(n, Sort::BitVec(8)));
        let select = p.ite(b, c1, c2);
        let src = p.bv_mul(select, c3);
        let (t, e) = (p.bv_mul(c1, c3), p.bv_mul(c2, c3));
        assert_eq!(src, p.ite(b, t, e), "{}", p.display(src));
        assert_eq!(p.law_firings().get("mul-ite"), Some(&1));
    }

    #[test]
    fn a_chain_of_selects_grows_linearly() {
        // Each link multiplies a select of a computed value and a free
        // variable by a free variable: the law binds free variables only,
        // so it fires on the first link alone and every link adds a
        // bounded number of terms.
        let depth = 32;
        let mut p = TermPool::new();
        let mut acc = p.var("x", Sort::BitVec(8));
        let mut sizes = Vec::new();
        for i in 0..depth {
            let b = p.var(format!("b{i}"), Sort::Bool);
            let [y, z] = ["y", "z"].map(|n| p.var(format!("{n}{i}"), Sort::BitVec(8)));
            let select = p.ite(b, acc, y);
            acc = p.bv_mul(select, z);
            sizes.push(p.len());
        }
        let growth: Vec<usize> = sizes.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(growth.iter().all(|&g| g <= 8), "{growth:?}");
        assert_eq!(p.law_firings().get("mul-ite"), Some(&1));
        assert!(p.len() <= 8 * depth, "{} terms", p.len());
    }

    impl TermPool {
        fn clone_id(&self, id: TermId) -> TermId {
            id
        }
    }

    #[test]
    fn display_is_readable() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        let one = p.bv(8, 1);
        let s = p.bv_add(x, one);
        let d = p.display(s);
        assert!(d.contains("bvadd"), "{d}");
        assert!(d.contains('x'), "{d}");
    }

    /// The nine corpus ring identities, each as (source value, target
    /// value) built the way the encoder builds them, over `x`, `y` and the
    /// symbolic constants `c1`, `c2`.
    fn ring_identities(p: &mut TermPool, w: u32) -> Vec<(&'static str, TermId, TermId)> {
        let [x, y, c1, c2] = ["x", "y", "C1", "C2"].map(|n| p.var(n, Sort::BitVec(w)));
        let zero = p.bv(w, 0);
        let one = p.bv(w, 1);
        let mut out = Vec::new();
        let xc1 = p.bv_mul(x, c1);
        let src = p.bv_mul(xc1, c2);
        let c1c2 = p.bv_mul(c1, c2);
        let tgt = p.bv_mul(x, c1c2);
        out.push(("MulConstChain", src, tgt));
        out.push(("NuwMulConstChain", src, tgt));
        let nx = p.bv_sub(zero, x);
        let ny = p.bv_sub(zero, y);
        let src = p.bv_mul(nx, ny);
        let tgt = p.bv_mul(x, y);
        out.push(("MulNegNeg", src, tgt));
        let src = p.bv_mul(nx, c1);
        let nc1 = p.bv_neg(c1);
        let tgt = p.bv_mul(x, nc1);
        out.push(("MulNegConst", src, tgt));
        let shx = p.bv_shl(x, c1);
        let src = p.bv_mul(shx, c2);
        let c2c1 = p.bv_shl(c2, c1);
        let tgt = p.bv_mul(x, c2c1);
        out.push(("MulShlConst", src, tgt));
        let src = p.bv_shl(xc1, c2);
        let c1c2 = p.bv_shl(c1, c2);
        let tgt = p.bv_mul(x, c1c2);
        out.push(("MulThenShl", src, tgt));
        let src = p.bv_add(xc1, x);
        let c1p1 = p.bv_add(c1, one);
        let tgt = p.bv_mul(x, c1p1);
        out.push(("MulPlusSelf", src, tgt));
        let q = p.bv_udiv(x, y);
        let m = p.bv_mul(q, y);
        let src = p.bv_sub(x, m);
        let tgt = p.bv_urem(x, y);
        out.push(("UdivMulSubToUrem", src, tgt));
        let q = p.bv_sdiv(x, y);
        let m = p.bv_mul(q, y);
        let src = p.bv_sub(x, m);
        let tgt = p.bv_srem(x, y);
        out.push(("SdivMulSubToSrem", src, tgt));
        out
    }

    #[test]
    fn ring_identities_fold_to_true_at_every_width() {
        for w in [3, 8, 16, 32, 64] {
            let mut p = TermPool::new();
            for (name, src, tgt) in ring_identities(&mut p, w) {
                let folds = p.ring_folds();
                let e = p.eq(src, tgt);
                assert_eq!(p.as_bool_const(e), Some(true), "{name} at i{w}");
                assert_eq!(p.ring_folds(), folds + 1, "{name} at i{w}");
                let ne = p.ne(src, tgt);
                assert_eq!(p.as_bool_const(ne), Some(false), "{name} at i{w}");
            }
        }
    }

    #[test]
    fn constant_ring_difference_folds_to_false() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        let y = p.var("y", Sort::BitVec(8));
        let one = p.bv(8, 1);
        let xy = p.bv_mul(x, y);
        let inc = p.bv_add(xy, one);
        let e = p.eq(inc, xy);
        assert_eq!(p.as_bool_const(e), Some(false), "x·y + 1 == x·y");
        assert_eq!(p.ring_folds(), 1);
        // Not a constant difference: left to the solver.
        let e = p.eq(inc, x);
        assert!(matches!(p.term(e).op, Op::Eq(..)));
        // Linear: left to the solver, which certifies it.
        let x1 = p.bv_add(x, one);
        let e = p.eq(x1, x);
        assert!(matches!(p.term(e).op, Op::Eq(..)), "x + 1 == x");
        assert_eq!(p.ring_folds(), 1);
    }

    #[test]
    fn rem_rewrite_holds_at_zero_divisor_and_int_min_over_minus_one() {
        let w = 8;
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(w));
        let y = p.var("y", Sort::BitVec(w));
        let pairs = [
            (p.bv_urem(x, y), {
                let q = p.bv_udiv(x, y);
                let m = p.bv_mul(q, y);
                p.bv_sub(x, m)
            }),
            (p.bv_srem(x, y), {
                let q = p.bv_sdiv(x, y);
                let m = p.bv_mul(q, y);
                p.bv_sub(x, m)
            }),
        ];
        let points = [
            (BvVal::new(w, 5), BvVal::zero(w)),
            (BvVal::int_min(w), BvVal::zero(w)),
            (BvVal::int_min(w), BvVal::ones(w)),
            (BvVal::new(w, 0xF3), BvVal::new(w, 7)),
        ];
        for (rem, rewritten) in pairs {
            let e = p.eq(rem, rewritten);
            assert_eq!(p.as_bool_const(e), Some(true));
            for (a, b) in points {
                let mut env = crate::Assignment::new();
                env.set(x, a);
                env.set(y, b);
                let lhs = crate::eval(&p, rem, &env).unwrap();
                let rhs = crate::eval(&p, rewritten, &env).unwrap();
                assert_eq!(lhs, rhs, "{} at {a:?}, {b:?}", p.display(rem));
            }
        }
    }

    #[test]
    fn constant_shifts_scale_by_a_power_of_two_or_zero() {
        for w in [8, 64] {
            let mut p = TermPool::new();
            let x = p.var("x", Sort::BitVec(w));
            let y = p.var("y", Sort::BitVec(w));
            let xy = p.bv_mul(x, y);
            let three = p.bv(w, 3);
            let eight = p.bv(w, 8);
            let shifted = p.bv_shl(xy, three);
            let scaled = p.bv_mul(eight, xy);
            let e = p.eq(shifted, scaled);
            assert_eq!(p.as_bool_const(e), Some(true), "i{w}: xy << 3 == 8·xy");
            for k in [w, w + 1] {
                // Shifting by the width or more gives 0, never a wrapped
                // power of two.
                let k = p.bv(w, k as u128);
                let gone = p.bv_shl(xy, k);
                let e = p.eq(gone, xy);
                assert!(matches!(p.term(e).op, Op::Eq(..)), "i{w}: xy << {k:?}");
                let plus = p.bv_add(gone, xy);
                let e = p.eq(plus, xy);
                assert_eq!(p.as_bool_const(e), Some(true), "i{w}: (xy << {k:?}) + xy");
            }
        }
    }

    #[test]
    fn equal_functions_with_distinct_forms_stay_an_eq() {
        // 2^(w-1)·x² = 2^(w-1)·x holds (x² and x share parity), but the
        // normal forms differ: the fold must leave it to the solver and
        // never answer false.
        for w in [3, 8, 64] {
            let mut p = TermPool::new();
            let x = p.var("x", Sort::BitVec(w));
            let half = p.bv_const(BvVal::int_min(w));
            let xx = p.bv_mul(x, x);
            let lhs = p.bv_mul(half, xx);
            let rhs = p.bv_mul(half, x);
            let e = p.eq(lhs, rhs);
            assert!(matches!(p.term(e).op, Op::Eq(..)), "i{w}");
            assert_eq!(p.ring_folds(), 0);
        }
    }

    #[test]
    fn forms_past_the_caps_stay_an_eq() {
        let mut p = TermPool::new();
        let xs: Vec<TermId> = (0..12)
            .map(|i| p.var(format!("x{i}"), Sort::BitVec(8)))
            .collect();
        // (x0 + ... + x11)² has 78 monomials, past the cap; the two sums
        // associate differently so they are distinct terms.
        let left = xs[1..].iter().fold(xs[0], |acc, &x| p.bv_add(acc, x));
        let right = xs[..11]
            .iter()
            .rev()
            .fold(xs[11], |acc, &x| p.bv_add(x, acc));
        assert_ne!(left, right);
        let l2 = p.bv_mul(left, left);
        let r2 = p.bv_mul(right, right);
        let e = p.eq(l2, r2);
        assert!(matches!(p.term(e).op, Op::Eq(..)));
        // So does a monomial past the degree cap: x^32 by squaring against
        // x^32 by repeated multiplication.
        let x = xs[0];
        let squared = (0..5).fold(x, |a, _| p.bv_mul(a, a));
        let chained = (1..32).fold(x, |b, _| p.bv_mul(b, x));
        assert_ne!(squared, chained);
        let e = p.eq(squared, chained);
        assert!(matches!(p.term(e).op, Op::Eq(..)));
        assert_eq!(p.ring_folds(), 0);
    }

    #[test]
    #[should_panic(expected = "sort mismatch")]
    fn eq_sort_mismatch_panics() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::BitVec(8));
        let b = p.var("b", Sort::Bool);
        let _ = p.eq(x, b);
    }
}
