//! Encoding of a whole Alive transformation into SMT terms.
//!
//! For a fixed type assignment, each template (source and target) is
//! translated instruction by instruction into three expressions per value
//! (paper §3.1.1):
//!
//! * ι — the result value,
//! * δ — the aggregated definedness constraint (Table 1, flowed along
//!   def-use chains and across memory sequence points),
//! * ρ — the aggregated poison-freedom constraint (Table 2).
//!
//! `undef` operands become fresh variables collected into the template's
//! `U` set. Memory uses the paper's §3.3.3 eager encoding: stores build an
//! ite-chain and loads fold it; reads of the initial memory are
//! Ackermannized against a registry shared by both templates.

use crate::cexpr::{eerr, encode_cexpr, encode_pred, EncodeError, NameEnv};
use crate::semantics::{binop_defined, binop_value, bool_to_bv1, bv1_to_bool, flag_poison_free};
use alive_ir::ast::{ConvOp, Inst, Operand, Stmt};
use alive_ir::Transform;
use alive_smt::{Sort, TermId, TermPool};
use alive_typeck::{ConcreteType, Key, TypeAssignment};
use std::collections::HashMap;

/// A pending byte store in the eager memory encoding.
#[derive(Clone, Debug)]
pub struct StoreEntry {
    /// Byte address.
    pub addr: TermId,
    /// The 8-bit value stored.
    pub byte: TermId,
    /// Store only happens if this guard holds (definedness so far).
    pub guard: TermId,
}

/// Registry of Ackermannized reads of the initial memory `m0`, shared
/// between source and target so both observe the same initial heap.
#[derive(Clone, Debug, Default)]
pub struct BaseMemory {
    reads: Vec<(TermId, TermId)>,
    constraints: Vec<TermId>,
}

impl BaseMemory {
    /// The reads so far: (byte address, the fresh byte `m0[i]`).
    pub fn reads(&self) -> &[(TermId, TermId)] {
        &self.reads
    }

    /// Functional-consistency constraints `a_i = a_j ⇒ v_i = v_j`.
    pub fn constraints(&self) -> &[TermId] {
        &self.constraints
    }

    /// The byte of initial memory at `addr` (cached per syntactic address).
    pub fn read(&mut self, pool: &mut TermPool, addr: TermId) -> TermId {
        if let Some(&(_, v)) = self.reads.iter().find(|(a, _)| *a == addr) {
            return v;
        }
        let v = pool.var(format!("m0[{}]", self.reads.len()), Sort::BitVec(8));
        for (a2, v2) in self.reads.clone() {
            let same_addr = pool.eq(addr, a2);
            let same_val = pool.eq(v, v2);
            self.constraints.push(pool.implies(same_addr, same_val));
        }
        self.reads.push((addr, v));
        v
    }
}

/// Memory state of one template during encoding.
#[derive(Clone, Debug, Default)]
pub struct MemState {
    /// Byte stores in program order (oldest first).
    pub stores: Vec<StoreEntry>,
    /// Whether the template contains any memory-accessing instruction.
    pub has_ops: bool,
    /// Definedness accumulated across side-effecting sequence points.
    pub sequence_def: Option<TermId>,
}

impl MemState {
    /// Reads the byte at `addr` through the store chain down to `m0`.
    pub fn read_byte(&self, pool: &mut TermPool, base: &mut BaseMemory, addr: TermId) -> TermId {
        let mut val = base.read(pool, addr);
        for entry in &self.stores {
            let same = pool.eq(addr, entry.addr);
            let hit = pool.and2(same, entry.guard);
            val = pool.ite(hit, entry.byte, val);
        }
        val
    }
}

/// Per-value encoding results for one template.
#[derive(Debug, Default)]
pub struct TemplateEnc {
    /// ι: value of each defined register.
    pub values: HashMap<String, TermId>,
    /// δ: aggregated definedness per register.
    pub defined: HashMap<String, TermId>,
    /// ρ: aggregated poison-freedom per register.
    pub poison_free: HashMap<String, TermId>,
    /// The template's `undef` variables (paper's U / Ū sets).
    pub undefs: Vec<TermId>,
    /// Memory state after the template runs.
    pub memory: MemState,
    /// α: allocation constraints (non-null, aligned, disjoint, no wrap).
    pub alloca_constraints: Vec<TermId>,
    /// Pointers returned by allocas with their sizes in bytes (for
    /// no-alias constraints and for exempting dead stack memory from the
    /// final-memory comparison).
    pub alloca_regions: Vec<(TermId, u64)>,
}

/// The complete encoding of a transformation at one type assignment.
#[derive(Debug)]
pub struct TransformEnc {
    /// Source template encoding.
    pub src: TemplateEnc,
    /// Target template encoding.
    pub tgt: TemplateEnc,
    /// Input register variables (paper's I, together with `consts`).
    pub inputs: HashMap<String, TermId>,
    /// Abstract constant variables.
    pub consts: HashMap<String, TermId>,
    /// φ: the precondition formula including analysis side constraints.
    pub pre: TermId,
    /// P: fresh booleans for approximated analyses.
    pub pre_aux: Vec<TermId>,
    /// The templates' reads of the initial memory, whose consistency
    /// constraints must be assumed in every query involving memory.
    pub base_mem: BaseMemory,
    /// The root register name.
    pub root: String,
    /// Pointer width of the type assignment (bits).
    pub ptr_width: u32,
}

impl TransformEnc {
    /// All existential variables of the negated verification conditions:
    /// inputs, constants, analysis booleans and the initial-memory bytes
    /// read (target undefs are added by the caller).
    pub fn exist_vars(&self) -> Vec<TermId> {
        let mut v: Vec<TermId> = self.inputs.values().copied().collect();
        v.extend(self.consts.values().copied());
        v.extend(self.pre_aux.iter().copied());
        v.extend(self.base_mem.reads().iter().map(|&(_, byte)| byte));
        v
    }

    /// ψ ≡ φ ∧ δ ∧ ρ for the root of the source template (paper §3.1.2),
    /// plus α, ᾱ and memory-consistency constraints when present.
    pub fn psi(&self, pool: &mut TermPool) -> TermId {
        let mut parts = vec![self.pre];
        parts.push(self.src.defined[&self.root]);
        parts.push(self.src.poison_free[&self.root]);
        parts.extend(self.src.alloca_constraints.iter().copied());
        parts.extend(self.tgt.alloca_constraints.iter().copied());
        parts.extend(self.base_mem.constraints().iter().copied());
        pool.and(parts)
    }
}

struct TemplateCtx<'a> {
    pool: &'a mut TermPool,
    typing: &'a TypeAssignment,
    inputs: &'a mut HashMap<String, TermId>,
    consts: &'a mut HashMap<String, TermId>,
    base_mem: &'a mut BaseMemory,
    /// Register name -> width, for `width(%x)` in constant expressions.
    reg_widths: HashMap<String, u32>,
    in_target: bool,
    /// Values (and δ/ρ) inherited from the source template (for target
    /// encoding): registers defined by the source and not overwritten.
    inherited: Option<&'a TemplateEnc>,
    enc: TemplateEnc,
}

impl TemplateCtx<'_> {
    /// Width of the value stored in a register-sized operand of a stmt.
    fn operand_width(&self, in_target: bool, si: usize, oi: usize, op: &Operand) -> u32 {
        let key = match op {
            Operand::Reg(name, _) => Key::Reg(name.clone()),
            _ => Key::Operand(in_target, si, oi),
        };
        self.typing
            .type_of(&key)
            .register_width(self.typing.ptr_width)
    }

    /// Resolves an operand into (value, δ, ρ).
    fn operand(
        &mut self,
        si: usize,
        oi: usize,
        op: &Operand,
    ) -> Result<(TermId, TermId, TermId), EncodeError> {
        let t = self.pool.tru();
        match op {
            Operand::Reg(name, _) => {
                // A register is: defined earlier in this template, inherited
                // from the source, or an input.
                if let Some(&v) = self.enc.values.get(name) {
                    return Ok((v, self.enc.defined[name], self.enc.poison_free[name]));
                }
                if let Some(inh) = self.inherited {
                    if let Some(&v) = inh.values.get(name) {
                        return Ok((v, inh.defined[name], inh.poison_free[name]));
                    }
                }
                if let Some(&v) = self.inputs.get(name) {
                    return Ok((v, t, t));
                }
                let w = self.operand_width(self.in_target, si, oi, op);
                let v = self.pool.var(format!("%{name}"), Sort::BitVec(w));
                self.inputs.insert(name.clone(), v);
                Ok((v, t, t))
            }
            Operand::Const(e, _) => {
                let w = self.operand_width(self.in_target, si, oi, op);
                // Ensure all symbols have variables of their typed width.
                for s in e.symbols() {
                    if !self.consts.contains_key(s) {
                        let sw = self
                            .typing
                            .type_of(&Key::Sym(s.to_string()))
                            .register_width(self.typing.ptr_width);
                        let v = self.pool.var(s.to_string(), Sort::BitVec(sw));
                        self.consts.insert(s.to_string(), v);
                    }
                }
                let env = NameEnv {
                    consts: self.consts,
                    regs: &HashMap::new(),
                    reg_widths: &self.reg_widths,
                };
                let v = encode_cexpr(self.pool, e, w, &env)?;
                Ok((v, t, t))
            }
            Operand::Undef(_) => {
                let w = self.operand_width(self.in_target, si, oi, op);
                let which = if self.in_target { "tgt" } else { "src" };
                let v = self
                    .pool
                    .var(format!("undef.{which}.{}.{}", si, oi), Sort::BitVec(w));
                self.enc.undefs.push(v);
                Ok((v, t, t))
            }
        }
    }

    fn define(&mut self, name: &str, value: TermId, defined: TermId, poison_free: TermId) {
        self.enc.values.insert(name.to_string(), value);
        self.enc.defined.insert(name.to_string(), defined);
        self.enc.poison_free.insert(name.to_string(), poison_free);
    }

    /// Records the definedness of a side-effecting instruction so later
    /// memory operations inherit it (sequence points, paper §3.3.1).
    fn sequence_point(&mut self, def: TermId) {
        let combined = match self.enc.memory.sequence_def {
            Some(prev) => self.pool.and2(prev, def),
            None => def,
        };
        self.enc.memory.sequence_def = Some(combined);
    }

    fn with_sequence(&mut self, def: TermId) -> TermId {
        match self.enc.memory.sequence_def {
            Some(seq) => self.pool.and2(seq, def),
            None => def,
        }
    }

    fn encode_stmts(&mut self, stmts: &[Stmt]) -> Result<(), EncodeError> {
        for (si, stmt) in stmts.iter().enumerate() {
            self.encode_stmt(si, stmt)?;
        }
        Ok(())
    }

    fn encode_stmt(&mut self, si: usize, stmt: &Stmt) -> Result<(), EncodeError> {
        let tru = self.pool.tru();
        match &stmt.inst {
            Inst::BinOp { op, flags, a, b } => {
                let (av, ad, ap) = self.operand(si, 0, a)?;
                let (bv, bd, bp) = self.operand(si, 1, b)?;
                let value = binop_value(self.pool, *op, av, bv);
                let own_def = binop_defined(self.pool, *op, av, bv);
                let defined = self.pool.and([own_def, ad, bd]);
                let mut own_poison = tru;
                for f in flags {
                    let pf = flag_poison_free(self.pool, *op, *f, av, bv);
                    own_poison = self.pool.and2(own_poison, pf);
                }
                let poison = self.pool.and([own_poison, ap, bp]);
                let name = stmt.name.as_deref().expect("binop defines a register");
                self.define(name, value, defined, poison);
            }
            Inst::Conv { op, arg, .. } => {
                let name = stmt.name.as_deref().expect("conv defines a register");
                let (av, ad, ap) = self.operand(si, 0, arg)?;
                let rw = self
                    .typing
                    .type_of(&Key::Reg(name.to_string()))
                    .register_width(self.typing.ptr_width);
                let value = match op {
                    ConvOp::ZExt => self.pool.zext(av, rw),
                    ConvOp::SExt => self.pool.sext(av, rw),
                    ConvOp::Trunc => self.pool.trunc(av, rw),
                    // Pointers are plain bitvectors of pointer width, so
                    // the pointer/integer reinterpretations are wirings
                    // (possibly with a width change for inttoptr/ptrtoint
                    // at differing widths).
                    ConvOp::Bitcast => av,
                    ConvOp::IntToPtr | ConvOp::PtrToInt => {
                        let aw = self.pool.width(av);
                        if rw > aw {
                            self.pool.zext(av, rw)
                        } else {
                            self.pool.trunc(av, rw)
                        }
                    }
                };
                self.define(name, value, ad, ap);
            }
            Inst::Select {
                cond,
                on_true,
                on_false,
            } => {
                let (cv, cd, cp) = self.operand(si, 0, cond)?;
                let (tv, td, tp) = self.operand(si, 1, on_true)?;
                let (ev, ed, ep) = self.operand(si, 2, on_false)?;
                let cb = bv1_to_bool(self.pool, cv);
                let value = self.pool.ite(cb, tv, ev);
                let defined = self.pool.and([cd, td, ed]);
                let poison = self.pool.and([cp, tp, ep]);
                let name = stmt.name.as_deref().expect("select defines a register");
                self.define(name, value, defined, poison);
            }
            Inst::ICmp { pred, a, b } => {
                let (av, ad, ap) = self.operand(si, 0, a)?;
                let (bv, bd, bp) = self.operand(si, 1, b)?;
                let c = crate::semantics::icmp_bool(self.pool, *pred, av, bv);
                let value = bool_to_bv1(self.pool, c);
                let defined = self.pool.and2(ad, bd);
                let poison = self.pool.and2(ap, bp);
                let name = stmt.name.as_deref().expect("icmp defines a register");
                self.define(name, value, defined, poison);
            }
            Inst::Copy { val } => {
                let (v, d, p) = self.operand(si, 0, val)?;
                let name = stmt.name.as_deref().expect("copy defines a register");
                self.define(name, v, d, p);
            }
            Inst::Alloca { ty: _, count } => {
                let name = stmt.name.as_deref().expect("alloca defines a register");
                self.enc.memory.has_ops = true;
                let pw = self.typing.ptr_width;
                let ptr = self.pool.var(format!("alloca.%{name}"), Sort::BitVec(pw));
                // Element type and count (count must be a literal constant).
                let elem_ty = match self.typing.type_of(&Key::Reg(name.to_string())) {
                    ConcreteType::Ptr(inner) => (**inner).clone(),
                    other => return Err(eerr(format!("alloca result is not a pointer: {other}"))),
                };
                let n = match count {
                    Operand::Const(alive_ir::CExpr::Lit(n), _) if *n > 0 => *n as u64,
                    _ => return Err(eerr("alloca count must be a positive literal")),
                };
                let elem_bytes = elem_ty.alloc_size_bits(pw) / 8;
                let size_bytes = elem_bytes.max(1) * n;

                // α constraints (paper §3.3.1): non-null, aligned, no wrap.
                let zero = self.pool.bv(pw, 0);
                let non_null = self.pool.ne(ptr, zero);
                self.enc.alloca_constraints.push(non_null);
                let align = elem_bytes.next_power_of_two().max(1);
                if align > 1 {
                    let mask = self.pool.bv(pw, (align - 1) as u128);
                    let low = self.pool.bv_and(ptr, mask);
                    let aligned = self.pool.eq(low, zero);
                    self.enc.alloca_constraints.push(aligned);
                }
                let size_t = self.pool.bv(pw, size_bytes as u128);
                let end = self.pool.bv_add(ptr, size_t);
                let no_wrap = self.pool.bv_ule(ptr, end);
                self.enc.alloca_constraints.push(no_wrap);
                // Disjointness from earlier allocations.
                for (prev, prev_size) in self.enc.alloca_regions.clone() {
                    let prev_size_t = self.pool.bv(pw, prev_size as u128);
                    let prev_end = self.pool.bv_add(prev, prev_size_t);
                    let before = self.pool.bv_ule(end, prev);
                    let after = self.pool.bv_ule(prev_end, ptr);
                    let disjoint = self.pool.or2(before, after);
                    self.enc.alloca_constraints.push(disjoint);
                }
                self.enc.alloca_regions.push((ptr, size_bytes));

                // Uninitialized contents: fresh bytes, members of U (loads
                // of uninitialized memory yield undef).
                for k in 0..size_bytes {
                    let b = self
                        .pool
                        .var(format!("uninit.%{name}.{k}"), Sort::BitVec(8));
                    self.enc.undefs.push(b);
                    let off = self.pool.bv(pw, k as u128);
                    let addr = self.pool.bv_add(ptr, off);
                    self.enc.memory.stores.push(StoreEntry {
                        addr,
                        byte: b,
                        guard: tru,
                    });
                }
                self.define(name, ptr, tru, tru);
                self.sequence_point(tru);
            }
            Inst::Load { ptr } => {
                let name = stmt.name.as_deref().expect("load defines a register");
                self.enc.memory.has_ops = true;
                let (pv, pd, pp) = self.operand(si, 0, ptr)?;
                let w = self
                    .typing
                    .type_of(&Key::Reg(name.to_string()))
                    .register_width(self.typing.ptr_width);
                let bytes = (w as u64).div_ceil(8);
                let pw = self.typing.ptr_width;

                // Little-endian byte concatenation.
                let mut value: Option<TermId> = None;
                for k in 0..bytes {
                    let off = self.pool.bv(pw, k as u128);
                    let addr = self.pool.bv_add(pv, off);
                    let byte = self.enc.memory.read_byte(self.pool, self.base_mem, addr);
                    value = Some(match value {
                        None => byte,
                        Some(acc) => self.pool.concat(byte, acc),
                    });
                }
                let mut v = value.expect("at least one byte");
                if bytes * 8 > w as u64 {
                    v = self.pool.trunc(v, w);
                }
                let own_def = self.load_store_defined(pv, bytes);
                let defined0 = self.pool.and2(pd, own_def);
                let defined = self.with_sequence(defined0);
                self.define(name, v, defined, pp);
                self.sequence_point(defined);
            }
            Inst::Store { val, ptr } => {
                self.enc.memory.has_ops = true;
                let (vv, vd, vp) = self.operand(si, 0, val)?;
                let (pv, pd, pp) = self.operand(si, 1, ptr)?;
                let w = self.pool.width(vv);
                let bytes = (w as u64).div_ceil(8);
                let pw = self.typing.ptr_width;
                let own_def = self.load_store_defined(pv, bytes);
                let defined0 = self.pool.and([vd, vp, pd, pp, own_def]);
                let guard = self.with_sequence(defined0);
                // Slice the value into bytes; pad the last byte with zeros.
                let padded = if !w.is_multiple_of(8) {
                    self.pool.zext(vv, (bytes * 8) as u32)
                } else {
                    vv
                };
                for k in 0..bytes {
                    let lo = (k * 8) as u32;
                    let byte = self.pool.extract(padded, lo + 7, lo);
                    let off = self.pool.bv(pw, k as u128);
                    let addr = self.pool.bv_add(pv, off);
                    self.enc
                        .memory
                        .stores
                        .push(StoreEntry { addr, byte, guard });
                }
                self.sequence_point(guard);
            }
            Inst::Gep { ptr, idxs } => {
                let name = stmt.name.as_deref().expect("gep defines a register");
                self.enc.memory.has_ops = true;
                let (pv, pd, pp) = self.operand(si, 0, ptr)?;
                let pw = self.typing.ptr_width;
                // Element size from the pointee type of the result.
                let elem_bytes = match self.typing.type_of(&Key::Reg(name.to_string())) {
                    ConcreteType::Ptr(inner) => inner.alloc_size_bits(pw) / 8,
                    other => return Err(eerr(format!("gep result is not a pointer: {other}"))),
                };
                let mut addr = pv;
                let mut defined = pd;
                let mut poison = pp;
                for (i, idx) in idxs.iter().enumerate() {
                    let (iv, id, ip) = self.operand(si, 1 + i, idx)?;
                    let iw = self.pool.width(iv);
                    let idx_ptr = if iw < pw {
                        self.pool.sext(iv, pw)
                    } else if iw > pw {
                        self.pool.trunc(iv, pw)
                    } else {
                        iv
                    };
                    let scale = self.pool.bv(pw, elem_bytes.max(1) as u128);
                    let scaled = self.pool.bv_mul(idx_ptr, scale);
                    addr = self.pool.bv_add(addr, scaled);
                    defined = self.pool.and2(defined, id);
                    poison = self.pool.and2(poison, ip);
                }
                self.define(name, addr, defined, poison);
            }
            Inst::Unreachable => {
                // Executing unreachable is immediate UB: it contributes an
                // always-false sequence-point definedness.
                let f = self.pool.fls();
                self.sequence_point(f);
            }
        }
        Ok(())
    }

    /// Definedness of a memory access: non-null pointer and, when the
    /// pointer is an alloca result, in-bounds for that allocation.
    fn load_store_defined(&mut self, ptr: TermId, bytes: u64) -> TermId {
        let pw = self.typing.ptr_width;
        let zero = self.pool.bv(pw, 0);
        let mut def = self.pool.ne(ptr, zero);
        // In-bounds constraint when the pointer is (syntactically) an
        // alloca result of this template or the inherited one.
        let regions: Vec<(TermId, u64)> = self
            .enc
            .alloca_regions
            .iter()
            .chain(self.inherited.iter().flat_map(|i| i.alloca_regions.iter()))
            .cloned()
            .collect();
        for (base, size) in regions {
            if base == ptr {
                if bytes > size {
                    def = self.pool.fls();
                } // else: access at the base of a sufficiently large block.
                return def;
            }
        }
        def
    }
}

/// Encodes a transformation at one type assignment.
///
/// # Errors
///
/// Fails on unknown predicates/functions or malformed memory operations.
pub fn encode_transform(
    pool: &mut TermPool,
    t: &Transform,
    typing: &TypeAssignment,
) -> Result<TransformEnc, EncodeError> {
    let mut inputs = HashMap::new();
    let mut consts = HashMap::new();
    let mut base_mem = BaseMemory::default();
    let reg_widths: HashMap<String, u32> = typing
        .iter()
        .filter_map(|(k, ct)| match k {
            alive_typeck::Key::Reg(n) => Some((n.clone(), ct.register_width(typing.ptr_width))),
            _ => None,
        })
        .collect();

    // Source template.
    let src = {
        let mut ctx = TemplateCtx {
            pool,
            typing,
            inputs: &mut inputs,
            consts: &mut consts,
            base_mem: &mut base_mem,
            reg_widths: reg_widths.clone(),
            in_target: false,
            inherited: None,
            enc: TemplateEnc::default(),
        };
        ctx.encode_stmts(&t.source)?;
        ctx.enc
    };

    // Target template (inherits source values for non-overwritten regs).
    let tgt = {
        let mut ctx = TemplateCtx {
            pool,
            typing,
            inputs: &mut inputs,
            consts: &mut consts,
            base_mem: &mut base_mem,
            reg_widths: reg_widths.clone(),
            in_target: true,
            inherited: Some(&src),
            enc: TemplateEnc::default(),
        };
        ctx.encode_stmts(&t.target)?;
        ctx.enc
    };

    // Make sure every constant symbol mentioned only in the precondition
    // also has a variable.
    for s in t.constant_symbols() {
        if let std::collections::hash_map::Entry::Vacant(e) = consts.entry(s.clone()) {
            let w = typing
                .get(&Key::Sym(s))
                .map(|ct| ct.register_width(typing.ptr_width))
                .unwrap_or(32);
            let v = pool.var(e.key().clone(), Sort::BitVec(w));
            e.insert(v);
        }
    }

    // Precondition. Register references resolve to source values or inputs.
    let mut pred_regs: HashMap<String, TermId> = HashMap::new();
    let mut reg_widths: HashMap<String, u32> = HashMap::new();
    for (name, &v) in inputs.iter() {
        pred_regs.insert(name.clone(), v);
        reg_widths.insert(name.clone(), pool.width(v));
    }
    for (name, &v) in src.values.iter() {
        pred_regs.insert(name.clone(), v);
        reg_widths.insert(name.clone(), pool.width(v));
    }
    let width_hint = |p: &alive_ir::Pred| -> u32 {
        // Width of a precondition comparison: the typed width of any
        // abstract constant it mentions (falling back to the root width,
        // then 32). Using the root width alone would be wrong for
        // icmp-rooted transformations whose root is i1.
        fn syms_of(p: &alive_ir::Pred, out: &mut Vec<String>) {
            match p {
                alive_ir::Pred::Cmp(_, a, b) => {
                    out.extend(a.symbols().iter().map(|s| s.to_string()));
                    out.extend(b.symbols().iter().map(|s| s.to_string()));
                }
                alive_ir::Pred::Not(a) => syms_of(a, out),
                alive_ir::Pred::And(a, b) | alive_ir::Pred::Or(a, b) => {
                    syms_of(a, out);
                    syms_of(b, out);
                }
                _ => {}
            }
        }
        let mut syms = Vec::new();
        syms_of(p, &mut syms);
        for s in syms {
            if let Some(ct) = typing.get(&Key::Sym(s)) {
                return ct.register_width(typing.ptr_width);
            }
        }
        typing
            .get(&Key::Reg(t.root().to_string()))
            .map(|ct| ct.register_width(typing.ptr_width))
            .unwrap_or(32)
    };
    let pre_enc = {
        let env = NameEnv {
            consts: &consts,
            regs: &pred_regs,
            reg_widths: &reg_widths,
        };
        encode_pred(pool, &t.pre, width_hint, &env)?
    };

    Ok(TransformEnc {
        src,
        tgt,
        inputs,
        consts,
        pre: pre_enc.formula,
        pre_aux: pre_enc.aux_vars,
        base_mem,
        root: t.root().to_string(),
        ptr_width: typing.ptr_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive_ir::parse_transform;
    use alive_smt::{eval, Assignment, BvVal, Value};
    use alive_typeck::{enumerate_typings, TypeckConfig};

    fn encode_at_width8(src: &str) -> (TermPool, TransformEnc) {
        let t = parse_transform(src).unwrap();
        let cfg = TypeckConfig {
            widths: vec![8],
            ..TypeckConfig::default()
        };
        let typings = enumerate_typings(&t, &cfg).unwrap();
        let mut pool = TermPool::new();
        let enc = encode_transform(&mut pool, &t, &typings[0]).unwrap();
        (pool, enc)
    }

    #[test]
    fn encodes_intro_example_values() {
        let (pool, enc) = encode_at_width8("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x");
        let x = enc.inputs["x"];
        let c = enc.consts["C"];
        let mut env = Assignment::new();
        env.set(x, BvVal::new(8, 10));
        env.set(c, BvVal::new(8, 3));
        // source: (x ^ -1) + C = (245) + 3 = 248
        let sv = eval(&pool, enc.src.values["2"], &env).unwrap();
        assert_eq!(sv, Value::Bv(BvVal::new(8, 248)));
        // target: (C-1) - x = 2 - 10 = 248 (mod 256)
        let tv = eval(&pool, enc.tgt.values["2"], &env).unwrap();
        assert_eq!(tv, Value::Bv(BvVal::new(8, 248)));
    }

    #[test]
    fn definedness_of_division() {
        let (pool, enc) = encode_at_width8("%r = sdiv %x, %y\n=>\n%r = sdiv %x, %y");
        let x = enc.inputs["x"];
        let y = enc.inputs["y"];
        let mut env = Assignment::new();
        env.set(x, BvVal::new(8, 10));
        env.set(y, BvVal::new(8, 0));
        assert_eq!(
            eval(&pool, enc.src.defined["r"], &env).unwrap(),
            Value::Bool(false)
        );
        env.set(y, BvVal::new(8, 2));
        assert_eq!(
            eval(&pool, enc.src.defined["r"], &env).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn definedness_flows_through_def_use() {
        // %a = udiv (may be undefined); %r = add %a, 1 inherits δ.
        let (pool, enc) = encode_at_width8("%a = udiv %x, %y\n%r = add %a, 1\n=>\n%r = add %a, 1");
        let y = enc.inputs["y"];
        let x = enc.inputs["x"];
        let mut env = Assignment::new();
        env.set(x, BvVal::new(8, 4));
        env.set(y, BvVal::new(8, 0));
        assert_eq!(
            eval(&pool, enc.src.defined["r"], &env).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn poison_flows_through_def_use() {
        let (pool, enc) =
            encode_at_width8("%a = add nsw %x, %y\n%r = xor %a, 1\n=>\n%r = xor %a, 1");
        let x = enc.inputs["x"];
        let y = enc.inputs["y"];
        let mut env = Assignment::new();
        env.set(x, BvVal::from_i128(8, 100));
        env.set(y, BvVal::from_i128(8, 100)); // signed overflow -> poison
        assert_eq!(
            eval(&pool, enc.src.poison_free["r"], &env).unwrap(),
            Value::Bool(false)
        );
        env.set(y, BvVal::from_i128(8, 27));
        assert_eq!(
            eval(&pool, enc.src.poison_free["r"], &env).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn undef_operands_become_fresh_vars() {
        let (_, enc) = encode_at_width8("%r = select undef, i8 -1, 0\n=>\n%r = ashr undef, 3");
        // The select condition is i1 undef in the source; the ashr operand
        // is i8 undef in the target.
        assert_eq!(enc.src.undefs.len(), 1);
        assert_eq!(enc.tgt.undefs.len(), 1);
    }

    #[test]
    fn target_inherits_source_temporaries() {
        let (pool, enc) = encode_at_width8(
            "%t0 = or %B, %V\n%t1 = and %t0, C1\n%t2 = and %B, C2\n%R = or %t1, %t2\n=>\n%R = and %t0, (C1 | C2)",
        );
        // Target's %R uses source's %t0 value.
        let b = enc.inputs["B"];
        let v = enc.inputs["V"];
        let c1 = enc.consts["C1"];
        let c2 = enc.consts["C2"];
        let mut env = Assignment::new();
        env.set(b, BvVal::new(8, 0b1010));
        env.set(v, BvVal::new(8, 0b0101));
        env.set(c1, BvVal::new(8, 0xF0));
        env.set(c2, BvVal::new(8, 0x0F));
        let tv = eval(&pool, enc.tgt.values["R"], &env).unwrap();
        assert_eq!(tv, Value::Bv(BvVal::new(8, 0b1111)));
    }

    #[test]
    fn store_then_load_forwards_value() {
        let (mut pool, enc) = encode_at_width8("store %v, %p\n%r = load %p\n=>\n%r = %v");
        let v = enc.inputs["v"];
        let p = enc.inputs["p"];
        // With p non-null, the load must return the stored value: the
        // negation is unsatisfiable.
        let nonnull = {
            let zero = pool.bv(32, 0);
            pool.ne(p, zero)
        };
        let differs = pool.ne(enc.src.values["r"], v);
        let mut s = alive_smt::SmtSolver::new();
        s.assert_term(&pool, nonnull);
        s.assert_term(&pool, differs);
        for &c in enc.base_mem.constraints() {
            s.assert_term(&pool, c);
        }
        assert_eq!(s.check(), alive_smt::SatResult::Unsat);
        // Definedness requires a non-null pointer.
        let zero = pool.bv(32, 0);
        let null = pool.eq(p, zero);
        let defined = enc.src.defined["r"];
        let mut s2 = alive_smt::SmtSolver::new();
        s2.assert_term(&pool, null);
        s2.assert_term(&pool, defined);
        assert_eq!(s2.check(), alive_smt::SatResult::Unsat);
    }

    #[test]
    fn alloca_generates_constraints_and_undef_bytes() {
        let (_, enc) = encode_at_width8("%p = alloca i8, 2\n%v = load %p\n=>\n%v = undef");
        assert_eq!(enc.src.alloca_regions.len(), 1);
        assert_eq!(enc.src.alloca_regions[0].1, 2);
        // Two uninitialized bytes join U.
        assert_eq!(enc.src.undefs.len(), 2);
        assert!(!enc.src.alloca_constraints.is_empty());
    }

    #[test]
    fn psi_includes_precondition() {
        let t = parse_transform("Pre: C1 == 1\n%r = shl %x, C1\n=>\n%r = add %x, %x").unwrap();
        let cfg = TypeckConfig {
            widths: vec![8],
            ..TypeckConfig::default()
        };
        let typing = &enumerate_typings(&t, &cfg).unwrap()[0];
        let mut pool = TermPool::new();
        let enc = encode_transform(&mut pool, &t, typing).unwrap();
        let psi = enc.psi(&mut pool);
        let x = enc.inputs["x"];
        let c1 = enc.consts["C1"];
        let mut env = Assignment::new();
        env.set(x, BvVal::new(8, 5));
        env.set(c1, BvVal::new(8, 2)); // violates precondition
        assert_eq!(eval(&pool, psi, &env).unwrap(), Value::Bool(false));
        env.set(c1, BvVal::new(8, 1));
        assert_eq!(eval(&pool, psi, &env).unwrap(), Value::Bool(true));
    }
}
