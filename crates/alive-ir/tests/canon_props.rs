//! Property tests for the canonicalizer: the canonical hash must be
//! invariant under alpha-renaming and commutative-operand order, and must
//! distinguish semantically different transforms (different opcodes,
//! different constants).

use alive_ir::ast::*;
use alive_ir::{canonical_hash, canonical_text, canonicalize, parse_transform, validate};
use proptest::prelude::*;

fn binop_strategy() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::UDiv),
        Just(BinOp::Shl),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
    ]
}

fn is_commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

/// A small well-formed transform: a chain of binops over inputs `%x`,
/// `%y`, a literal, and an abstract constant, rooted at the last.
fn transform_strategy() -> impl Strategy<Value = Transform> {
    let stmt = (binop_strategy(), -8i128..8, any::<bool>(), any::<bool>());
    (proptest::collection::vec(stmt, 1..4), any::<bool>()).prop_map(|(stmts, with_pre)| {
        let mut source = Vec::new();
        for (i, (op, lit, use_y, use_sym)) in stmts.iter().enumerate() {
            let a: Operand = if i > 0 {
                Operand::Reg(format!("t{}", i - 1), None)
            } else {
                Operand::Reg("x".to_string(), None)
            };
            let b: Operand = if *use_y {
                Operand::Reg("y".to_string(), None)
            } else if *use_sym {
                Operand::Const(CExpr::Sym("C".to_string()), None)
            } else {
                Operand::Const(CExpr::Lit(*lit), None)
            };
            source.push(Stmt {
                name: Some(format!("t{i}")),
                inst: Inst::BinOp {
                    op: *op,
                    flags: vec![],
                    a,
                    b,
                },
            });
        }
        let root = format!("t{}", stmts.len() - 1);
        let target = vec![Stmt {
            name: Some(root),
            inst: Inst::BinOp {
                op: BinOp::Xor,
                flags: vec![],
                a: Operand::Reg("x".to_string(), None),
                b: Operand::Reg("x".to_string(), None),
            },
        }];
        let pre = if with_pre {
            Pred::And(
                Box::new(Pred::Cmp(
                    PredCmpOp::Ne,
                    CExpr::Sym("C".to_string()),
                    CExpr::Lit(0),
                )),
                Box::new(Pred::Fun(
                    "isPowerOf2".to_string(),
                    vec![PredArg::Expr(CExpr::Sym("C".to_string()))],
                )),
            )
        } else {
            Pred::True
        };
        Transform {
            name: Some("generated".to_string()),
            pre,
            source,
            target,
        }
    })
}

/// One operand draw: `(kind, pick)`; see [`draw_operand`].
type OperandDraw = (u8, u8);
/// One statement draw: `(opcode, a, b)`; see [`draw_stmt`].
type StmtDraw = (u8, OperandDraw, OperandDraw);

/// Builds an operand. Kinds: 0–2 a fresh input register (in the target,
/// an existing one), 3 an existing register, 4 the abstract constant
/// `C<pick>`, 5 a product of two different constants, 6 a literal, 7
/// `width(%r)` of a fresh input register (in the target, an existing one).
/// Fresh registers are weighted up so that sites with two fresh operands,
/// the ones the orbit search must enumerate, are common.
fn draw_operand(regs: &mut Vec<String>, (kind, pick): OperandDraw, in_target: bool) -> Operand {
    let sym = |k: u8| CExpr::Sym(format!("C{}", k % 4 + 1));
    let mut reg = |fresh: bool| {
        if fresh || regs.is_empty() {
            regs.push(format!("x{}", regs.len()));
            regs.last().unwrap().clone()
        } else {
            regs[usize::from(pick) % regs.len()].clone()
        }
    };
    match kind {
        0..=2 => Operand::Reg(reg(!in_target), None),
        3 => Operand::Reg(reg(false), None),
        4 => Operand::Const(sym(pick), None),
        5 => Operand::Const(
            CExpr::Binop(CBinop::Mul, Box::new(sym(pick)), Box::new(sym(pick + 1))),
            None,
        ),
        6 => Operand::Const(CExpr::Lit(i128::from(pick) - 2), None),
        _ => Operand::Const(
            CExpr::Fun("width".to_string(), vec![CExprArg::Reg(reg(!in_target))]),
            None,
        ),
    }
}

/// Builds a statement: opcodes 0–4 are commutative binops, 5 is `sub`,
/// 6 and 7 are `icmp eq` and `icmp ne`.
fn draw_stmt(regs: &mut Vec<String>, (op, a, b): StmtDraw, in_target: bool) -> Inst {
    let a = draw_operand(regs, a, in_target);
    let b = draw_operand(regs, b, in_target);
    match op {
        0..=5 => Inst::BinOp {
            op: [
                BinOp::Add,
                BinOp::Mul,
                BinOp::And,
                BinOp::Or,
                BinOp::Xor,
                BinOp::Sub,
            ][usize::from(op)],
            flags: vec![],
            a,
            b,
        },
        6 => Inst::ICmp {
            pred: ICmpPred::Eq,
            a,
            b,
        },
        _ => Inst::ICmp {
            pred: ICmpPred::Ne,
            a,
            b,
        },
    }
}

/// A transform whose commutative sites are often *live* (their swap
/// renumbers a register or a constant): statements whose two operands
/// are both fresh inputs, constant operands carrying two different
/// symbols, `width(%x)` of a fresh input, `icmp eq`/`ne` sites, and
/// target-side sites over constants the source never mentions.
fn live_site_strategy() -> impl Strategy<Value = Transform> {
    let operand = (0u8..8, 0u8..8);
    let stmt = (0u8..8, operand.clone(), operand);
    (
        proptest::collection::vec(stmt.clone(), 1..6),
        proptest::collection::vec(stmt, 1..4),
    )
        .prop_map(|(src, tgt)| {
            let mut regs = Vec::new();
            let mut source = Vec::new();
            for (i, d) in src.into_iter().enumerate() {
                let inst = draw_stmt(&mut regs, d, false);
                regs.push(format!("t{i}"));
                source.push(Stmt {
                    name: regs.last().cloned(),
                    inst,
                });
            }
            let root = regs.last().cloned();
            let n = tgt.len();
            let mut target = Vec::new();
            for (i, d) in tgt.into_iter().enumerate() {
                let inst = draw_stmt(&mut regs, d, true);
                let name = if i + 1 == n {
                    root.clone()
                } else {
                    Some(format!("u{i}"))
                };
                regs.push(name.clone().unwrap());
                target.push(Stmt { name, inst });
            }
            Transform {
                name: None,
                pre: Pred::True,
                source,
                target,
            }
        })
}

/// Swaps the operands of the commutative sites (commutative binops and
/// `icmp eq`/`ne`, counted over source then target) whose bit is set in
/// `mask`.
fn commute_subset(t: &Transform, mask: u64) -> Transform {
    let mut out = t.clone();
    let mut k = 0;
    for s in out.source.iter_mut().chain(out.target.iter_mut()) {
        let (a, b) = match &mut s.inst {
            Inst::BinOp { op, a, b, .. } if is_commutative(*op) => (a, b),
            Inst::ICmp {
                pred: ICmpPred::Eq | ICmpPred::Ne,
                a,
                b,
            } => (a, b),
            _ => continue,
        };
        if mask >> (k % 64) & 1 == 1 {
            std::mem::swap(a, b);
        }
        k += 1;
    }
    out
}

/// Renames every register `r` to `q_<r>` and every `C` symbol to `K9`,
/// producing an alpha-variant with entirely different names.
fn alpha_variant(t: &Transform) -> Transform {
    fn ren_op(op: &Operand) -> Operand {
        match op {
            Operand::Reg(n, ty) => Operand::Reg(format!("q_{n}"), ty.clone()),
            Operand::Const(e, ty) => Operand::Const(ren_cexpr(e), ty.clone()),
            Operand::Undef(ty) => Operand::Undef(ty.clone()),
        }
    }
    fn ren_cexpr(e: &CExpr) -> CExpr {
        match e {
            CExpr::Sym(s) if s == "C" => CExpr::Sym("K9".to_string()),
            CExpr::Unop(op, a) => CExpr::Unop(*op, Box::new(ren_cexpr(a))),
            CExpr::Binop(op, a, b) => {
                CExpr::Binop(*op, Box::new(ren_cexpr(a)), Box::new(ren_cexpr(b)))
            }
            other => other.clone(),
        }
    }
    fn ren_stmt(s: &Stmt) -> Stmt {
        let inst = match &s.inst {
            Inst::BinOp { op, flags, a, b } => Inst::BinOp {
                op: *op,
                flags: flags.clone(),
                a: ren_op(a),
                b: ren_op(b),
            },
            other => other.clone(),
        };
        Stmt {
            name: s.name.as_ref().map(|n| format!("q_{n}")),
            inst,
        }
    }
    fn ren_pred(p: &Pred) -> Pred {
        match p {
            Pred::True => Pred::True,
            Pred::Not(a) => Pred::Not(Box::new(ren_pred(a))),
            Pred::And(a, b) => Pred::And(Box::new(ren_pred(a)), Box::new(ren_pred(b))),
            Pred::Or(a, b) => Pred::Or(Box::new(ren_pred(a)), Box::new(ren_pred(b))),
            Pred::Cmp(op, a, b) => Pred::Cmp(*op, ren_cexpr(a), ren_cexpr(b)),
            Pred::Fun(name, args) => Pred::Fun(
                name.clone(),
                args.iter()
                    .map(|a| match a {
                        PredArg::Reg(r) => PredArg::Reg(format!("q_{r}")),
                        PredArg::Expr(e) => PredArg::Expr(ren_cexpr(e)),
                    })
                    .collect(),
            ),
        }
    }
    Transform {
        name: Some("renamed".to_string()),
        pre: ren_pred(&t.pre),
        source: t.source.iter().map(ren_stmt).collect(),
        target: t.target.iter().map(ren_stmt).collect(),
    }
}

/// Swaps the operands of every commutative binop.
fn commuted_variant(t: &Transform) -> Transform {
    fn swap_stmt(s: &Stmt) -> Stmt {
        let inst = match &s.inst {
            Inst::BinOp { op, flags, a, b } if is_commutative(*op) => Inst::BinOp {
                op: *op,
                flags: flags.clone(),
                a: b.clone(),
                b: a.clone(),
            },
            other => other.clone(),
        };
        Stmt {
            name: s.name.clone(),
            inst,
        }
    }
    Transform {
        name: t.name.clone(),
        pre: t.pre.clone(),
        source: t.source.iter().map(swap_stmt).collect(),
        target: t.target.iter().map(swap_stmt).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn alpha_variants_hash_identically(t in transform_strategy()) {
        validate(&t).expect("generated transform is well-formed");
        let v = alpha_variant(&t);
        prop_assert_eq!(
            canonical_hash(&t),
            canonical_hash(&v),
            "alpha variant changed the hash:\n{}\nvs\n{}",
            canonical_text(&t),
            canonical_text(&v),
        );
    }

    #[test]
    fn commuted_variants_hash_identically(t in transform_strategy()) {
        validate(&t).expect("generated transform is well-formed");
        let v = commuted_variant(&t);
        prop_assert_eq!(
            canonical_hash(&t),
            canonical_hash(&v),
            "commuted variant changed the hash:\n{}\nvs\n{}",
            canonical_text(&t),
            canonical_text(&v),
        );
    }

    #[test]
    fn partially_commuted_variants_keep_their_text(
        t in live_site_strategy(),
        mask in any::<u64>(),
    ) {
        let v = commute_subset(&t, mask);
        prop_assert_eq!(
            canonical_text(&t),
            canonical_text(&v),
            "commuting a subset of sites changed the text of\n{}\nvs\n{}",
            t,
            v,
        );
        prop_assert_eq!(canonical_hash(&t), canonical_hash(&v));
    }

    #[test]
    fn canonical_text_reparses_to_the_same_hash(t in transform_strategy()) {
        let text = canonical_text(&t);
        let reparsed = parse_transform(&text)
            .unwrap_or_else(|e| panic!("canonical text failed to reparse: {e}\n{text}"));
        prop_assert_eq!(canonical_hash(&t), canonical_hash(&reparsed));
        // Idempotence: canonicalizing a canonical form is the identity.
        prop_assert_eq!(canonicalize(&reparsed).to_string(), text);
    }

    #[test]
    fn changing_the_root_opcode_changes_the_hash(t in transform_strategy()) {
        let mut other = t.clone();
        let last = other.source.last_mut().unwrap();
        if let Inst::BinOp { op, flags, .. } = &mut last.inst {
            // Swap the root op for a structurally different, never-equal
            // one; `udiv` and `shl` are in no commutative class together.
            *op = if *op == BinOp::UDiv { BinOp::Shl } else { BinOp::UDiv };
            flags.clear();
            prop_assert_ne!(canonical_hash(&t), canonical_hash(&other));
        }
    }
}
