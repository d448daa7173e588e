//! Type inference and feasible-type enumeration for Alive transformations.
//!
//! Alive transformations are polymorphic over types (paper §2.2): variables
//! need not have fixed bitwidths, and the verifier must check every
//! concrete *type assignment* that satisfies the typing rules of Fig. 3.
//! The paper encodes typing constraints in SMT (QF_LIA) and enumerates
//! models; this crate reaches the same enumeration through a union-find
//! unification engine plus explicit bounded search over integer widths,
//! which is both faster and easier to bias toward the small widths used
//! for counterexamples (§3.1.4).
//!
//! # Examples
//!
//! ```
//! use alive_ir::parse_transform;
//! use alive_typeck::{enumerate_typings, TypeckConfig};
//!
//! let t = parse_transform("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x").unwrap();
//! let typings = enumerate_typings(&t, &TypeckConfig::default()).unwrap();
//! // One free integer class; the literal 1 in `C-1` excludes width 1.
//! assert_eq!(typings.len(), TypeckConfig::default().widths.len() - 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use alive_ir::ast::{CExpr, CExprArg, ConvOp, Inst, Operand, Pred, PredArg, Stmt, Type};
use alive_ir::Transform;
use std::collections::HashMap;
use std::fmt;

/// Identifies a typed entity inside a transformation.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Key {
    /// A register (shared between source and target).
    Reg(String),
    /// An abstract constant symbol (`C`, `C1`, ...).
    Sym(String),
    /// A literal/undef/constant-expression operand occurrence:
    /// (in_target, statement index, operand index).
    Operand(bool, usize, usize),
}

/// A concrete type produced by enumeration.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ConcreteType {
    /// Integer of known width.
    Int(u32),
    /// Pointer to a concrete type (pointer width comes from the config).
    Ptr(Box<ConcreteType>),
    /// Array.
    Array(u64, Box<ConcreteType>),
    /// Void.
    Void,
}

impl ConcreteType {
    /// Bitwidth of the value as stored in a register: integers have their
    /// width; pointers have the configured pointer width.
    ///
    /// # Panics
    ///
    /// Panics for array and void types, which never live in registers.
    pub fn register_width(&self, ptr_width: u32) -> u32 {
        match self {
            ConcreteType::Int(w) => *w,
            ConcreteType::Ptr(_) => ptr_width,
            ConcreteType::Array(..) | ConcreteType::Void => {
                panic!("no register width for {self:?}")
            }
        }
    }

    /// Is this an integer type?
    pub fn is_int(&self) -> bool {
        matches!(self, ConcreteType::Int(_))
    }

    /// Allocation size in bits: the width rounded up to a byte boundary
    /// (paper §3.3.1; e.g. i5 allocates 8 bits).
    pub fn alloc_size_bits(&self, ptr_width: u32) -> u64 {
        match self {
            ConcreteType::Int(w) => (*w as u64).div_ceil(8) * 8,
            ConcreteType::Ptr(_) => ptr_width as u64,
            ConcreteType::Array(n, t) => n * t.alloc_size_bits(ptr_width),
            ConcreteType::Void => 0,
        }
    }
}

impl fmt::Display for ConcreteType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcreteType::Int(w) => write!(f, "i{w}"),
            ConcreteType::Ptr(t) => write!(f, "{t}*"),
            ConcreteType::Array(n, t) => write!(f, "[{n} x {t}]"),
            ConcreteType::Void => write!(f, "void"),
        }
    }
}

/// One feasible assignment of concrete types to every key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeAssignment {
    map: HashMap<Key, ConcreteType>,
    /// Pointer width used by this assignment.
    pub ptr_width: u32,
}

impl TypeAssignment {
    /// The concrete type of a key.
    ///
    /// # Panics
    ///
    /// Panics if the key was not part of the transformation.
    pub fn type_of(&self, key: &Key) -> &ConcreteType {
        self.map
            .get(key)
            .unwrap_or_else(|| panic!("no type recorded for {key:?}"))
    }

    /// The concrete type of a key, if recorded.
    pub fn get(&self, key: &Key) -> Option<&ConcreteType> {
        self.map.get(key)
    }

    /// Convenience: type of a register by name.
    pub fn reg(&self, name: &str) -> &ConcreteType {
        self.type_of(&Key::Reg(name.to_string()))
    }

    /// Convenience: register bitwidth of a register by name.
    pub fn reg_width(&self, name: &str) -> u32 {
        self.reg(name).register_width(self.ptr_width)
    }

    /// Iterates over all (key, type) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &ConcreteType)> {
        self.map.iter()
    }

    /// A short human-readable summary (e.g. `%x:i8, C:i8`).
    pub fn summary(&self) -> String {
        let mut entries: Vec<String> = self
            .map
            .iter()
            .filter_map(|(k, t)| match k {
                Key::Reg(n) => Some(format!("%{n}:{t}")),
                Key::Sym(n) => Some(format!("{n}:{t}")),
                Key::Operand(..) => None,
            })
            .collect();
        entries.sort();
        entries.join(", ")
    }
}

/// Configuration for type enumeration.
#[derive(Clone, Debug)]
pub struct TypeckConfig {
    /// Candidate integer widths, in enumeration order. Small widths first
    /// biases counterexamples toward readable 4/8-bit values (§3.1.4).
    pub widths: Vec<u32>,
    /// Pointer width (bits).
    pub ptr_width: u32,
    /// Cap on the number of assignments returned.
    pub max_assignments: usize,
}

impl Default for TypeckConfig {
    fn default() -> TypeckConfig {
        TypeckConfig {
            widths: vec![4, 8, 1, 16, 32],
            ptr_width: 32,
            max_assignments: 256,
        }
    }
}

impl TypeckConfig {
    /// The paper's exhaustive setting: all widths 1..=64 (slow; the paper
    /// itself notes multi-hour verifications for mul/div at large widths).
    pub fn exhaustive() -> TypeckConfig {
        TypeckConfig {
            widths: (1..=64).collect(),
            ptr_width: 64,
            max_assignments: 1 << 20,
        }
    }

    /// A fast setting for benchmarks: widths 4 and 8 only.
    pub fn fast() -> TypeckConfig {
        TypeckConfig {
            widths: vec![4, 8],
            ptr_width: 32,
            max_assignments: 64,
        }
    }
}

/// Type errors (infeasible constraints).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeError {
    /// Description of the conflict.
    pub message: String,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.message)
    }
}

impl std::error::Error for TypeError {}

fn terr(message: impl Into<String>) -> TypeError {
    TypeError {
        message: message.into(),
    }
}

// ---- unification engine ----

#[derive(Clone, Debug)]
enum Kind {
    /// Unconstrained (defaults to an integer at enumeration time).
    Any,
    /// Integer, width possibly unknown.
    Int,
    /// First-class (integer or pointer); refined on demand.
    FirstClass,
    /// Pointer to node.
    Ptr(usize),
    /// Array of node.
    Array(u64, usize),
    /// Void.
    Void,
}

#[derive(Clone, Debug)]
struct Node {
    parent: usize,
    rank: u32,
    kind: Kind,
    width: Option<u32>,
    /// Minimum width required (literal representability).
    min_width: u32,
}

#[derive(Debug, Default)]
struct Infer {
    nodes: Vec<Node>,
    /// Strict width orderings (a < b) from extend/trunc.
    lt_edges: Vec<(usize, usize)>,
    keys: HashMap<Key, usize>,
}

impl Infer {
    fn fresh(&mut self) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node {
            parent: id,
            rank: 0,
            kind: Kind::Any,
            width: None,
            min_width: 1,
        });
        id
    }

    fn find(&mut self, mut a: usize) -> usize {
        while self.nodes[a].parent != a {
            let gp = self.nodes[self.nodes[a].parent].parent;
            self.nodes[a].parent = gp;
            a = gp;
        }
        a
    }

    fn node_for(&mut self, key: Key) -> usize {
        if let Some(&n) = self.keys.get(&key) {
            return n;
        }
        let n = self.fresh();
        self.keys.insert(key, n);
        n
    }

    fn set_int(&mut self, a: usize) -> Result<(), TypeError> {
        let r = self.find(a);
        match self.nodes[r].kind {
            Kind::Any | Kind::FirstClass => {
                self.nodes[r].kind = Kind::Int;
                Ok(())
            }
            Kind::Int => Ok(()),
            ref k => Err(terr(format!("expected integer, found {k:?}"))),
        }
    }

    fn set_first_class(&mut self, a: usize) -> Result<(), TypeError> {
        let r = self.find(a);
        match self.nodes[r].kind {
            Kind::Any => {
                self.nodes[r].kind = Kind::FirstClass;
                Ok(())
            }
            Kind::Int | Kind::FirstClass | Kind::Ptr(_) => Ok(()),
            ref k => Err(terr(format!("expected first-class type, found {k:?}"))),
        }
    }

    fn set_width(&mut self, a: usize, w: u32) -> Result<(), TypeError> {
        self.set_int(a)?;
        let r = self.find(a);
        match self.nodes[r].width {
            None => {
                self.nodes[r].width = Some(w);
                Ok(())
            }
            Some(old) if old == w => Ok(()),
            Some(old) => Err(terr(format!("width conflict: i{old} vs i{w}"))),
        }
    }

    fn set_min_width(&mut self, a: usize, w: u32) -> Result<(), TypeError> {
        self.set_int(a)?;
        let r = self.find(a);
        if self.nodes[r].min_width < w {
            self.nodes[r].min_width = w;
        }
        Ok(())
    }

    fn make_ptr(&mut self, a: usize) -> Result<usize, TypeError> {
        let r = self.find(a);
        match self.nodes[r].kind {
            Kind::Ptr(c) => Ok(c),
            Kind::Any | Kind::FirstClass => {
                let c = self.fresh();
                self.nodes[r].kind = Kind::Ptr(c);
                Ok(c)
            }
            ref k => Err(terr(format!("expected pointer, found {k:?}"))),
        }
    }

    fn unify(&mut self, a: usize, b: usize) -> Result<(), TypeError> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return Ok(());
        }
        let ka = self.nodes[ra].kind.clone();
        let kb = self.nodes[rb].kind.clone();
        let merged = match (ka, kb) {
            (Kind::Any, k) | (k, Kind::Any) => k,
            (Kind::Int, Kind::Int) => Kind::Int,
            (Kind::FirstClass, Kind::FirstClass) => Kind::FirstClass,
            (Kind::FirstClass, Kind::Int) | (Kind::Int, Kind::FirstClass) => Kind::Int,
            (Kind::FirstClass, Kind::Ptr(c)) | (Kind::Ptr(c), Kind::FirstClass) => Kind::Ptr(c),
            (Kind::Ptr(c1), Kind::Ptr(c2)) => {
                self.unify(c1, c2)?;
                Kind::Ptr(c1)
            }
            (Kind::Array(n1, c1), Kind::Array(n2, c2)) => {
                if n1 != n2 {
                    return Err(terr(format!("array size conflict: {n1} vs {n2}")));
                }
                self.unify(c1, c2)?;
                Kind::Array(n1, c1)
            }
            (Kind::Void, Kind::Void) => Kind::Void,
            (ka, kb) => return Err(terr(format!("cannot unify {ka:?} with {kb:?}"))),
        };
        let w = match (self.nodes[ra].width, self.nodes[rb].width) {
            (None, w) | (w, None) => w,
            (Some(w1), Some(w2)) if w1 == w2 => Some(w1),
            (Some(w1), Some(w2)) => return Err(terr(format!("width conflict: i{w1} vs i{w2}"))),
        };
        let min_w = self.nodes[ra].min_width.max(self.nodes[rb].min_width);
        // Recompute roots: recursive unification may have reshaped the forest.
        let (ra, rb) = (self.find(ra), self.find(rb));
        if ra == rb {
            return Ok(());
        }
        let (root, child) = if self.nodes[ra].rank >= self.nodes[rb].rank {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.nodes[child].parent = root;
        if self.nodes[ra].rank == self.nodes[rb].rank {
            self.nodes[root].rank += 1;
        }
        self.nodes[root].kind = merged;
        self.nodes[root].width = w;
        self.nodes[root].min_width = min_w;
        Ok(())
    }

    fn apply_annotation(&mut self, node: usize, ty: &Type) -> Result<(), TypeError> {
        match ty {
            Type::Int(w) => self.set_width(node, *w),
            Type::Void => {
                let r = self.find(node);
                match self.nodes[r].kind {
                    Kind::Any => {
                        self.nodes[r].kind = Kind::Void;
                        Ok(())
                    }
                    Kind::Void => Ok(()),
                    ref k => Err(terr(format!("expected void, found {k:?}"))),
                }
            }
            Type::Ptr(inner) => {
                let c = self.make_ptr(node)?;
                self.apply_annotation(c, inner)
            }
            Type::Array(n, inner) => {
                let r = self.find(node);
                let c = match self.nodes[r].kind {
                    Kind::Array(m, c) => {
                        if m != *n {
                            return Err(terr("array size conflict"));
                        }
                        c
                    }
                    Kind::Any => {
                        let c = self.fresh();
                        self.nodes[r].kind = Kind::Array(*n, c);
                        c
                    }
                    ref k => return Err(terr(format!("expected array, found {k:?}"))),
                };
                self.apply_annotation(c, inner)
            }
        }
    }
}

fn collect_template(
    inf: &mut Infer,
    stmts: &[Stmt],
    in_target: bool,
    config: &TypeckConfig,
) -> Result<(), TypeError> {
    for (si, stmt) in stmts.iter().enumerate() {
        let mut operand_nodes: Vec<usize> = Vec::new();
        for (oi, op) in stmt.inst.operands().iter().enumerate() {
            let node = match op {
                Operand::Reg(name, _) => inf.node_for(Key::Reg(name.clone())),
                _ => inf.node_for(Key::Operand(in_target, si, oi)),
            };
            if let Some(ty) = op.type_annotation() {
                inf.apply_annotation(node, ty)?;
            }
            if let Operand::Const(e, _) = op {
                constrain_cexpr(inf, e, node)?;
            }
            operand_nodes.push(node);
        }
        let result = stmt
            .name
            .as_ref()
            .map(|n| inf.node_for(Key::Reg(n.clone())));

        match &stmt.inst {
            Inst::BinOp { .. } => {
                let r = result.ok_or_else(|| terr("binop must define a register"))?;
                inf.set_int(operand_nodes[0])?;
                inf.unify(operand_nodes[0], operand_nodes[1])?;
                inf.unify(operand_nodes[0], r)?;
            }
            Inst::Conv { op, to, .. } => {
                let r = result.ok_or_else(|| terr("conversion must define a register"))?;
                if let Some(ty) = to {
                    inf.apply_annotation(r, ty)?;
                }
                let arg = operand_nodes[0];
                match op {
                    ConvOp::ZExt | ConvOp::SExt => {
                        inf.set_int(arg)?;
                        inf.set_int(r)?;
                        let (fa, fr) = (inf.find(arg), inf.find(r));
                        inf.lt_edges.push((fa, fr));
                    }
                    ConvOp::Trunc => {
                        inf.set_int(arg)?;
                        inf.set_int(r)?;
                        let (fa, fr) = (inf.find(arg), inf.find(r));
                        inf.lt_edges.push((fr, fa));
                    }
                    ConvOp::Bitcast => {
                        inf.set_first_class(arg)?;
                        inf.set_first_class(r)?;
                        inf.unify(arg, r)?;
                    }
                    ConvOp::IntToPtr => {
                        inf.set_int(arg)?;
                        inf.make_ptr(r)?;
                    }
                    ConvOp::PtrToInt => {
                        inf.make_ptr(arg)?;
                        inf.set_int(r)?;
                    }
                }
            }
            Inst::Select { .. } => {
                let r = result.ok_or_else(|| terr("select must define a register"))?;
                inf.set_width(operand_nodes[0], 1)?;
                inf.set_first_class(operand_nodes[1])?;
                inf.unify(operand_nodes[1], operand_nodes[2])?;
                inf.unify(operand_nodes[1], r)?;
            }
            Inst::ICmp { .. } => {
                let r = result.ok_or_else(|| terr("icmp must define a register"))?;
                inf.set_first_class(operand_nodes[0])?;
                inf.unify(operand_nodes[0], operand_nodes[1])?;
                inf.set_width(r, 1)?;
            }
            Inst::Alloca { ty, .. } => {
                let r = result.ok_or_else(|| terr("alloca must define a register"))?;
                // The element count is a machine-word constant, not a
                // polymorphic value; pin it to the pointer width.
                inf.set_width(operand_nodes[0], config.ptr_width)?;
                let elem = inf.make_ptr(r)?;
                inf.apply_annotation(elem, ty)?;
            }
            Inst::Load { .. } => {
                let r = result.ok_or_else(|| terr("load must define a register"))?;
                let elem = inf.make_ptr(operand_nodes[0])?;
                inf.set_first_class(r)?;
                inf.unify(elem, r)?;
            }
            Inst::Store { .. } => {
                inf.set_first_class(operand_nodes[0])?;
                let elem = inf.make_ptr(operand_nodes[1])?;
                inf.unify(elem, operand_nodes[0])?;
            }
            Inst::Gep { idxs, .. } => {
                let r = result.ok_or_else(|| terr("gep must define a register"))?;
                let elem = inf.make_ptr(operand_nodes[0])?;
                for i in 0..idxs.len() {
                    inf.set_int(operand_nodes[1 + i])?;
                }
                // Simplified rule: the result points at the same element
                // type as the base (array-style indexing).
                let relem = inf.make_ptr(r)?;
                inf.unify(elem, relem)?;
            }
            Inst::Copy { .. } => {
                let r = result.ok_or_else(|| terr("copy must define a register"))?;
                inf.unify(operand_nodes[0], r)?;
            }
            Inst::Unreachable => {}
        }
    }
    Ok(())
}

fn constrain_cexpr(inf: &mut Infer, e: &CExpr, ambient: usize) -> Result<(), TypeError> {
    match e {
        CExpr::Lit(n) => inf.set_min_width(ambient, min_width_for_literal(*n)),
        CExpr::Sym(s) => {
            let node = inf.node_for(Key::Sym(s.clone()));
            inf.unify(node, ambient)
        }
        CExpr::Unop(_, a) => constrain_cexpr(inf, a, ambient),
        CExpr::Binop(_, a, b) => {
            constrain_cexpr(inf, a, ambient)?;
            constrain_cexpr(inf, b, ambient)
        }
        CExpr::Fun(name, args) => match name.as_str() {
            // width(x) yields a constant of the ambient type whose value is
            // the bitwidth of x; its argument is unconstrained here.
            "width" => Ok(()),
            _ => {
                for a in args {
                    if let CExprArg::Expr(e) = a {
                        constrain_cexpr(inf, e, ambient)?;
                    }
                }
                Ok(())
            }
        },
    }
}

fn constrain_pred(inf: &mut Infer, p: &Pred) -> Result<(), TypeError> {
    match p {
        Pred::True => Ok(()),
        Pred::Not(a) => constrain_pred(inf, a),
        Pred::And(a, b) | Pred::Or(a, b) => {
            constrain_pred(inf, a)?;
            constrain_pred(inf, b)
        }
        Pred::Cmp(_, a, b) => {
            let node = inf.fresh();
            inf.set_int(node)?;
            constrain_cexpr(inf, a, node)?;
            constrain_cexpr(inf, b, node)
        }
        Pred::Fun(_, args) => {
            // All arguments of one predicate application share a type
            // (e.g. MaskedValueIsZero(%V, ~C1) needs %V and C1 same width).
            let node = inf.fresh();
            for a in args {
                match a {
                    PredArg::Reg(r) => {
                        let rn = inf.node_for(Key::Reg(r.clone()));
                        inf.unify(rn, node)?;
                    }
                    PredArg::Expr(e) => constrain_cexpr(inf, e, node)?,
                }
            }
            Ok(())
        }
    }
}

fn min_width_for_literal(n: i128) -> u32 {
    // Literals are signed integers: positive literals need a sign bit so
    // that e.g. `1` means +1 (never -1 at i1). This mirrors the paper's
    // reading of `add nsw %x, 1; icmp sgt -> true`, which is only correct
    // when the literal 1 is positive. Explicitly annotated widths are not
    // subject to this bound.
    if n == 0 || n == -1 {
        1
    } else if n > 0 {
        (128 - n.leading_zeros()) + 1
    } else {
        128 - (-(n + 1)).leading_zeros() + 1
    }
}

fn concretize(inf: &mut Infer, n: usize, choice: &HashMap<usize, u32>) -> Option<ConcreteType> {
    let r = inf.find(n);
    match inf.nodes[r].kind.clone() {
        Kind::Int | Kind::Any | Kind::FirstClass => {
            let w = inf.nodes[r].width.or_else(|| choice.get(&r).copied())?;
            Some(ConcreteType::Int(w))
        }
        Kind::Ptr(c) => Some(ConcreteType::Ptr(Box::new(concretize(inf, c, choice)?))),
        Kind::Array(sz, c) => Some(ConcreteType::Array(
            sz,
            Box::new(concretize(inf, c, choice)?),
        )),
        Kind::Void => Some(ConcreteType::Void),
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    inf: &mut Infer,
    free: &[usize],
    idx: usize,
    config: &TypeckConfig,
    lt: &[(usize, usize)],
    choice: &mut HashMap<usize, u32>,
    keys: &[Key],
    out: &mut Vec<TypeAssignment>,
) {
    if out.len() >= config.max_assignments {
        return;
    }
    if idx == free.len() {
        for &(a, b) in lt {
            let (ra, rb) = (inf.find(a), inf.find(b));
            let wa = inf.nodes[ra].width.or_else(|| choice.get(&ra).copied());
            let wb = inf.nodes[rb].width.or_else(|| choice.get(&rb).copied());
            match (wa, wb) {
                (Some(wa), Some(wb)) if wa < wb => {}
                _ => return,
            }
        }
        let mut map = HashMap::new();
        for k in keys {
            let n = inf.keys[k];
            match concretize(inf, n, choice) {
                Some(ct) => {
                    map.insert(k.clone(), ct);
                }
                None => return,
            }
        }
        out.push(TypeAssignment {
            map,
            ptr_width: config.ptr_width,
        });
        return;
    }
    let r = free[idx];
    let min = inf.nodes[r].min_width;
    for &w in &config.widths {
        if w < min {
            continue;
        }
        choice.insert(r, w);
        dfs(inf, free, idx + 1, config, lt, choice, keys, out);
        if out.len() >= config.max_assignments {
            return;
        }
    }
    choice.remove(&r);
}

/// Enumerates all feasible type assignments for a transformation.
///
/// Assignments are produced in an order biased toward the widths listed
/// first in `config.widths`, mirroring the paper's small-width
/// counterexample bias.
///
/// # Errors
///
/// Returns [`TypeError`] if the typing constraints are unsatisfiable
/// within the configured width set.
pub fn enumerate_typings(
    t: &Transform,
    config: &TypeckConfig,
) -> Result<Vec<TypeAssignment>, TypeError> {
    let mut inf = Infer::default();
    collect_template(&mut inf, &t.source, false, config)?;
    collect_template(&mut inf, &t.target, true, config)?;
    constrain_pred(&mut inf, &t.pre)?;

    let keys: Vec<Key> = {
        let mut ks: Vec<Key> = inf.keys.keys().cloned().collect();
        ks.sort();
        ks
    };

    // Collect roots reachable from keys (following pointer/array children).
    let mut roots: Vec<usize> = Vec::new();
    for k in &keys {
        let n = inf.keys[k];
        let mut stack = vec![inf.find(n)];
        while let Some(r) = stack.pop() {
            if roots.contains(&r) {
                continue;
            }
            roots.push(r);
            match inf.nodes[r].kind.clone() {
                Kind::Ptr(c) | Kind::Array(_, c) => {
                    let rc = inf.find(c);
                    stack.push(rc);
                }
                _ => {}
            }
        }
    }
    let mut free: Vec<usize> = roots
        .iter()
        .copied()
        .filter(|&r| {
            matches!(inf.nodes[r].kind, Kind::Int | Kind::Any | Kind::FirstClass)
                && inf.nodes[r].width.is_none()
        })
        .collect();
    free.sort_unstable();
    free.dedup();

    let lt: Vec<(usize, usize)> = inf
        .lt_edges
        .clone()
        .into_iter()
        .map(|(a, b)| (inf.find(a), inf.find(b)))
        .collect();

    let mut out: Vec<TypeAssignment> = Vec::new();
    let mut choice: HashMap<usize, u32> = HashMap::new();
    let free_snapshot = free.clone();
    dfs(
        &mut inf,
        &free_snapshot,
        0,
        config,
        &lt,
        &mut choice,
        &keys,
        &mut out,
    );

    if out.is_empty() {
        return Err(terr(
            "no feasible type assignment within the configured width set",
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_ir::parse_transform;

    fn typings(src: &str) -> Vec<TypeAssignment> {
        let t = parse_transform(src).unwrap();
        enumerate_typings(&t, &TypeckConfig::default()).unwrap()
    }

    #[test]
    fn single_free_class() {
        // The target's literal 1 (in C-1) excludes i1.
        let ts = typings("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x");
        assert_eq!(ts.len(), TypeckConfig::default().widths.len() - 1);
        for t in &ts {
            assert_eq!(t.reg("1"), t.reg("2"));
            assert_eq!(t.reg("x"), t.type_of(&Key::Sym("C".into())));
        }
        assert_eq!(ts[0].reg_width("x"), 4);
    }

    #[test]
    fn explicit_annotation_pins_type() {
        let ts = typings("%1 = add nsw i32 %x, 1\n%2 = icmp sgt %1, %x\n=>\n%2 = true");
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].reg_width("x"), 32);
        assert_eq!(ts[0].reg_width("2"), 1);
    }

    #[test]
    fn icmp_result_is_i1() {
        let ts = typings("%c = icmp eq %a, %b\n=>\n%c = icmp ule %a, %b");
        for t in &ts {
            assert_eq!(t.reg_width("c"), 1);
            assert_eq!(t.reg("a"), t.reg("b"));
        }
    }

    #[test]
    fn zext_requires_strictly_larger_width() {
        let ts = typings("%r = zext %x\n=>\n%r = zext %x");
        for t in &ts {
            assert!(t.reg_width("x") < t.reg_width("r"));
        }
        // Widths {4,8,1,16,32}: 10 ordered pairs.
        assert_eq!(ts.len(), 10);
    }

    #[test]
    fn trunc_requires_strictly_smaller_width() {
        let ts = typings("%r = trunc i32 %x to i8\n=>\n%r = trunc i32 %x to i8");
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].reg_width("x"), 32);
        assert_eq!(ts[0].reg_width("r"), 8);
    }

    #[test]
    fn infeasible_widths_error() {
        let t = parse_transform("%r = zext i8 %x to i4\n=>\n%r = zext i8 %x to i4").unwrap();
        assert!(enumerate_typings(&t, &TypeckConfig::default()).is_err());
    }

    #[test]
    fn select_condition_is_i1() {
        let ts = typings("%r = select %c, %a, %b\n=>\n%r = select %c, %b, %a");
        for t in &ts {
            assert_eq!(t.reg_width("c"), 1);
            assert_eq!(t.reg("a"), t.reg("b"));
            assert_eq!(t.reg("a"), t.reg("r"));
        }
    }

    #[test]
    fn literal_representability_bounds_width() {
        // 3333 needs at least 13 bits signed, so widths 4, 8 and 1 are excluded.
        let ts = typings("%1 = xor %x, -1\n%2 = add %1, 3333\n=>\n%2 = sub 3332, %x");
        for t in &ts {
            assert!(t.reg_width("x") >= 12, "got {}", t.reg_width("x"));
        }
        assert_eq!(ts.len(), 2); // 16 and 32
    }

    #[test]
    fn memory_types() {
        let ts = typings("%p = alloca i8, 1\n%v = load %p\n=>\n%v = 0");
        assert_eq!(ts.len(), 1);
        assert_eq!(
            ts[0].reg("p"),
            &ConcreteType::Ptr(Box::new(ConcreteType::Int(8)))
        );
        assert_eq!(ts[0].reg_width("v"), 8);
    }

    #[test]
    fn store_unifies_value_with_pointee() {
        let ts = typings("%x = add %a, 1\nstore %x, %p\n%r = load %p\n=>\n%r = add %a, 1");
        for t in &ts {
            match t.reg("p") {
                ConcreteType::Ptr(inner) => assert_eq!(&**inner, t.reg("x")),
                other => panic!("expected pointer, got {other:?}"),
            }
        }
    }

    #[test]
    fn precondition_unifies_symbols() {
        let ts = typings(
            "Pre: MaskedValueIsZero(%V, ~C1)\n%t0 = or %B, %V\n%R = and %t0, C1\n=>\n%R = and %t0, C1",
        );
        for t in &ts {
            assert_eq!(t.reg("V"), t.type_of(&Key::Sym("C1".into())));
        }
    }

    #[test]
    fn min_width_for_literals() {
        assert_eq!(min_width_for_literal(0), 1);
        assert_eq!(min_width_for_literal(-1), 1);
        assert_eq!(min_width_for_literal(1), 2);
        assert_eq!(min_width_for_literal(2), 3);
        assert_eq!(min_width_for_literal(255), 9);
        assert_eq!(min_width_for_literal(256), 10);
        assert_eq!(min_width_for_literal(-2), 2);
        assert_eq!(min_width_for_literal(-8), 4);
        assert_eq!(min_width_for_literal(-9), 5);
        assert_eq!(min_width_for_literal(3333), 13);
    }

    #[test]
    fn alloc_size_rounds_to_bytes() {
        assert_eq!(ConcreteType::Int(5).alloc_size_bits(32), 8);
        assert_eq!(ConcreteType::Int(8).alloc_size_bits(32), 8);
        assert_eq!(ConcreteType::Int(9).alloc_size_bits(32), 16);
        assert_eq!(
            ConcreteType::Array(3, Box::new(ConcreteType::Int(16))).alloc_size_bits(32),
            48
        );
    }

    #[test]
    fn summary_is_stable() {
        let ts = typings("%r = add i8 %x, C\n=>\n%r = add i8 %x, C");
        assert_eq!(ts.len(), 1);
        let s = ts[0].summary();
        assert!(s.contains("%x:i8"), "{s}");
        assert!(s.contains("C:i8"), "{s}");
    }

    #[test]
    fn two_independent_classes_enumerate_product() {
        // %a/%b in one class; %p/%q in another (unrelated instruction).
        let ts = typings(
            "%r = add %a, %b\n%s = xor %p, %q\n%t = icmp eq %r, %r2\n=>\n%t = icmp ne %r2, %r",
        );
        // Hmm: %s unused would fail validation but typeck doesn't validate.
        // Two free classes -> 25 assignments.
        assert_eq!(ts.len(), 25);
    }
}
