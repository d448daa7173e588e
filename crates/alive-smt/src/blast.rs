//! Bit-blasting of bitvector terms to CNF.
//!
//! Every term is translated to SAT literals (one per bit) with Tseitin
//! encoding: word-level operators become the usual hardware circuits —
//! ripple-carry adders, barrel shifters, shift-add multipliers and a
//! restoring divider. The translation is cached per term, so shared
//! subterms are encoded once (the term pool is hash-consed, making sharing
//! pervasive). Below the terms, every and/xor/mux gate is structurally
//! hashed on its normalized inputs, so a gate is built once per blaster
//! even when two different terms need it (`udiv` and `urem` of the same
//! operands share one divider).

use crate::term::{BvOp, Op, TermId, TermPool};
use crate::value::{BvVal, Sort};
use alive_sat::{Exhaustion, Lit, Solver};
use std::collections::HashMap;

/// How many term nodes are encoded between deadline/cancellation polls in
/// [`Blaster::try_blast`]. Wide terms expand to many gates, so polling per
/// few nodes keeps even divider-heavy blasts responsive.
const BLAST_POLL_INTERVAL: usize = 64;

/// The SAT-level image of a term: one literal (Bool) or a little-endian
/// vector of literals (BitVec).
#[derive(Clone, Debug)]
pub enum Blasted {
    /// Image of a boolean term.
    Bool(Lit),
    /// Image of a bitvector term, least-significant bit first.
    Bv(Vec<Lit>),
}

impl Blasted {
    fn as_bool(&self) -> Lit {
        match self {
            Blasted::Bool(l) => *l,
            Blasted::Bv(_) => panic!("expected boolean blasting"),
        }
    }

    fn as_bv(&self) -> &[Lit] {
        match self {
            Blasted::Bv(v) => v,
            Blasted::Bool(_) => panic!("expected bitvector blasting"),
        }
    }
}

/// Incremental bit-blasting context layered over a [`Solver`].
#[derive(Debug, Default)]
pub struct Blaster {
    cache: HashMap<TermId, Blasted>,
    lit_true: Option<Lit>,
    nodes_encoded: u64,
    gates_by_op: HashMap<&'static str, u64>,
    /// Structural hashing: the output literal of every gate built so far,
    /// keyed by its normalized inputs.
    gates: HashMap<Gate, Lit>,
    gate_hits: u64,
}

/// The normalized inputs of a gate: an `And` has its inputs sorted, an
/// `Xor` has two sorted positive inputs (the caller negates the output
/// when exactly one input was negative), and a `Mux` has a positive
/// selector (a negative one swaps the branches).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Gate {
    And(Lit, Lit),
    Xor(Lit, Lit),
    Mux(Lit, Lit, Lit),
}

impl Blaster {
    /// Number of term nodes actually encoded (cache misses) over this
    /// blaster's lifetime. Hash-consing makes sharing pervasive, so this
    /// is usually far below the term count of the asserted formulas.
    pub fn nodes_encoded(&self) -> u64 {
        self.nodes_encoded
    }

    /// Auxiliary SAT variables ("gates") introduced, keyed by the
    /// operator kind ([`Op::kind_name`]) whose encoding created them.
    pub fn gates_by_op(&self) -> &HashMap<&'static str, u64> {
        &self.gates_by_op
    }

    /// Gates found already built by structural hashing (each one a gate
    /// that created no variable and no clause).
    pub fn gate_hits(&self) -> u64 {
        self.gate_hits
    }

    /// Creates an empty blaster.
    pub fn new() -> Blaster {
        Blaster::default()
    }

    /// The constant-true literal (created on first use).
    pub fn lit_true(&mut self, sat: &mut Solver) -> Lit {
        match self.lit_true {
            Some(l) => l,
            None => {
                let v = sat.new_var();
                let l = v.positive();
                sat.add_clause([l]);
                self.lit_true = Some(l);
                l
            }
        }
    }

    /// The constant-false literal.
    pub fn lit_false(&mut self, sat: &mut Solver) -> Lit {
        !self.lit_true(sat)
    }

    fn lit_const(&mut self, sat: &mut Solver, b: bool) -> Lit {
        if b {
            self.lit_true(sat)
        } else {
            self.lit_false(sat)
        }
    }

    /// Looks up the cached blasting of a term, if present.
    pub fn cached(&self, id: TermId) -> Option<&Blasted> {
        self.cache.get(&id)
    }

    /// Blasts a boolean term to a single literal, polling the budget like
    /// [`Blaster::try_blast`].
    ///
    /// # Errors
    ///
    /// Returns the tripped limit when the solver's budget deadline passes
    /// or its cancellation token is raised mid-blast.
    pub fn try_blast_bool(
        &mut self,
        pool: &TermPool,
        sat: &mut Solver,
        id: TermId,
    ) -> Result<Lit, Exhaustion> {
        debug_assert_eq!(pool.sort(id), Sort::Bool);
        Ok(self.try_blast(pool, sat, id)?.as_bool())
    }

    /// Blasts any term, memoized, polling the solver's [`alive_sat::Budget`]
    /// (deadline and cancellation) every few encoded nodes.
    ///
    /// Aborting mid-blast is safe: the cache only ever holds fully encoded
    /// terms, so a later retry resumes from consistent state.
    ///
    /// # Errors
    ///
    /// Returns the tripped limit when the budget's soft checks fire.
    pub fn try_blast(
        &mut self,
        pool: &TermPool,
        sat: &mut Solver,
        root: TermId,
    ) -> Result<&Blasted, Exhaustion> {
        if let Some(e) = sat.budget().check_soft() {
            return Err(e);
        }
        // Iterative post-order to avoid deep recursion on ite-chains.
        let mut stack = vec![(root, false)];
        let mut encoded = 0usize;
        while let Some((id, expanded)) = stack.pop() {
            if self.cache.contains_key(&id) {
                continue;
            }
            if !expanded {
                stack.push((id, true));
                for c in pool.term(id).op.children() {
                    if !self.cache.contains_key(&c) {
                        stack.push((c, false));
                    }
                }
                continue;
            }
            encoded += 1;
            if encoded.is_multiple_of(BLAST_POLL_INTERVAL) {
                if let Some(e) = sat.budget().check_soft() {
                    return Err(e);
                }
            }
            let vars_before = sat.num_vars();
            // The cache is moved out while the node is encoded, so the
            // children's literals are borrowed from it, not copied, while
            // the gate builders take `&mut self`.
            let cache = std::mem::take(&mut self.cache);
            let b = self.encode(pool, sat, &cache, id);
            self.cache = cache;
            self.nodes_encoded += 1;
            let gates = (sat.num_vars() - vars_before) as u64;
            if gates > 0 {
                *self
                    .gates_by_op
                    .entry(pool.term(id).op.kind_name())
                    .or_insert(0) += gates;
            }
            self.cache.insert(id, b);
        }
        Ok(&self.cache[&root])
    }

    /// Encodes one term whose children are in `cache`.
    fn encode(
        &mut self,
        pool: &TermPool,
        sat: &mut Solver,
        cache: &HashMap<TermId, Blasted>,
        id: TermId,
    ) -> Blasted {
        let bit = |c: &TermId| cache[c].as_bool();
        let bits = |c: &TermId| cache[c].as_bv();
        let term = pool.term(id);
        let width = match term.sort {
            Sort::BitVec(w) => w,
            Sort::Bool => 0,
        };
        match &term.op {
            Op::BoolConst(b) => Blasted::Bool(self.lit_const(sat, *b)),
            Op::BvConst(v) => {
                let bits = (0..v.width())
                    .map(|i| self.lit_const(sat, v.bit(i)))
                    .collect();
                Blasted::Bv(bits)
            }
            Op::Var(_) => match term.sort {
                Sort::Bool => Blasted::Bool(sat.new_var().positive()),
                Sort::BitVec(w) => Blasted::Bv((0..w).map(|_| sat.new_var().positive()).collect()),
            },
            Op::Not(a) => Blasted::Bool(!bit(a)),
            Op::And(cs) => {
                let lits: Vec<Lit> = cs.iter().map(bit).collect();
                Blasted::Bool(self.mk_and_many(sat, &lits))
            }
            Op::Or(cs) => {
                let lits: Vec<Lit> = cs.iter().map(bit).collect();
                Blasted::Bool(self.mk_or_many(sat, &lits))
            }
            Op::Xor(a, b) => Blasted::Bool(self.mk_xor(sat, bit(a), bit(b))),
            Op::Implies(a, b) => Blasted::Bool(self.mk_or(sat, !bit(a), bit(b))),
            Op::Eq(a, b) => match pool.sort(*a) {
                Sort::Bool => Blasted::Bool(!self.mk_xor(sat, bit(a), bit(b))),
                Sort::BitVec(_) => {
                    let eqs: Vec<Lit> = bits(a)
                        .iter()
                        .zip(bits(b))
                        .map(|(&x, &y)| !self.mk_xor(sat, x, y))
                        .collect();
                    Blasted::Bool(self.mk_and_many(sat, &eqs))
                }
            },
            Op::Ite(c, t, e) => {
                let cl = bit(c);
                match pool.sort(*t) {
                    Sort::Bool => Blasted::Bool(self.mk_mux(sat, cl, bit(t), bit(e))),
                    Sort::BitVec(_) => {
                        let out = bits(t)
                            .iter()
                            .zip(bits(e))
                            .map(|(&x, &y)| self.mk_mux(sat, cl, x, y))
                            .collect();
                        Blasted::Bv(out)
                    }
                }
            }
            Op::BvNot(a) => Blasted::Bv(bits(a).iter().map(|&l| !l).collect()),
            Op::BvNeg(a) => Blasted::Bv(self.negate(sat, bits(a))),
            Op::Bv(op, a, b) => {
                let (av, bv) = (bits(a), bits(b));
                match op {
                    BvOp::And => self.bitwise(sat, av, bv, Blaster::mk_and),
                    BvOp::Or => self.bitwise(sat, av, bv, Blaster::mk_or),
                    BvOp::Xor => self.bitwise(sat, av, bv, Blaster::mk_xor),
                    BvOp::Add => {
                        let f = self.lit_false(sat);
                        Blasted::Bv(self.adder(sat, av, bv, f).0)
                    }
                    BvOp::Sub => {
                        let binv: Vec<Lit> = bv.iter().map(|&l| !l).collect();
                        let t = self.lit_true(sat);
                        Blasted::Bv(self.adder(sat, av, &binv, t).0)
                    }
                    BvOp::Mul => Blasted::Bv(self.multiplier(sat, av, bv)),
                    BvOp::Udiv => Blasted::Bv(self.divider(sat, av, bv).0),
                    BvOp::Urem => Blasted::Bv(self.divider(sat, av, bv).1),
                    BvOp::Sdiv => Blasted::Bv(self.signed_divrem(sat, av, bv).0),
                    BvOp::Srem => Blasted::Bv(self.signed_divrem(sat, av, bv).1),
                    BvOp::Shl | BvOp::Lshr => {
                        let f = self.lit_false(sat);
                        let dir = if *op == BvOp::Shl {
                            ShiftDir::Left
                        } else {
                            ShiftDir::Right
                        };
                        Blasted::Bv(self.barrel_shift(sat, av, bv, dir, f))
                    }
                    BvOp::Ashr => {
                        let sign = *av.last().expect("non-empty bv");
                        Blasted::Bv(self.barrel_shift(sat, av, bv, ShiftDir::Right, sign))
                    }
                    BvOp::Ult => Blasted::Bool(self.mk_ult(sat, av, bv)),
                    BvOp::Ule => Blasted::Bool(!self.mk_ult(sat, bv, av)),
                    BvOp::Slt | BvOp::Sle => {
                        // Flip sign bits to reduce signed compare to unsigned.
                        let (mut av, mut bv) = (av.to_vec(), bv.to_vec());
                        let n = av.len();
                        av[n - 1] = !av[n - 1];
                        bv[n - 1] = !bv[n - 1];
                        Blasted::Bool(if *op == BvOp::Slt {
                            self.mk_ult(sat, &av, &bv)
                        } else {
                            !self.mk_ult(sat, &bv, &av)
                        })
                    }
                }
            }
            Op::ZExt(a) => {
                let mut out = bits(a).to_vec();
                out.resize(width as usize, self.lit_false(sat));
                Blasted::Bv(out)
            }
            Op::SExt(a) => {
                let av = bits(a);
                let mut out = av.to_vec();
                out.resize(width as usize, *av.last().expect("non-empty bv"));
                Blasted::Bv(out)
            }
            Op::Extract(a, hi, lo) => Blasted::Bv(bits(a)[*lo as usize..=*hi as usize].to_vec()),
            // Low part first (little endian).
            Op::Concat(a, b) => Blasted::Bv([bits(b), bits(a)].concat()),
        }
    }

    fn bitwise(&mut self, sat: &mut Solver, av: &[Lit], bv: &[Lit], gate: GateFn) -> Blasted {
        let bits = av
            .iter()
            .zip(bv)
            .map(|(&x, &y)| gate(self, sat, x, y))
            .collect();
        Blasted::Bv(bits)
    }

    // ---- gates ----

    /// `g <-> a & b`, with constant/structural short-circuits.
    pub fn mk_and(&mut self, sat: &mut Solver, a: Lit, b: Lit) -> Lit {
        let t = self.lit_true(sat);
        let f = !t;
        if a == f || b == f || a == !b {
            return f;
        }
        if a == t {
            return b;
        }
        if b == t || a == b {
            return a;
        }
        let (a, b) = (a.min(b), a.max(b));
        if let Some(g) = self.shared(Gate::And(a, b)) {
            return g;
        }
        let g = sat.new_var().positive();
        sat.add_clause([!g, a]);
        sat.add_clause([!g, b]);
        sat.add_clause([g, !a, !b]);
        self.gates.insert(Gate::And(a, b), g);
        g
    }

    /// `g <-> a | b`.
    pub fn mk_or(&mut self, sat: &mut Solver, a: Lit, b: Lit) -> Lit {
        let g = self.mk_and(sat, !a, !b);
        !g
    }

    /// `g <-> a ^ b`.
    pub fn mk_xor(&mut self, sat: &mut Solver, a: Lit, b: Lit) -> Lit {
        let t = self.lit_true(sat);
        let f = !t;
        if a == f {
            return b;
        }
        if b == f {
            return a;
        }
        if a == t {
            return !b;
        }
        if b == t {
            return !a;
        }
        if a == b {
            return f;
        }
        if a == !b {
            return t;
        }
        // a ^ b == (|a| ^ |b|), negated when exactly one input is negative.
        let flip = a.is_positive() != b.is_positive();
        let (pa, pb) = (a.var().positive(), b.var().positive());
        let (a, b) = (pa.min(pb), pa.max(pb));
        let g = match self.shared(Gate::Xor(a, b)) {
            Some(g) => g,
            None => {
                let g = sat.new_var().positive();
                sat.add_clause([!g, a, b]);
                sat.add_clause([!g, !a, !b]);
                sat.add_clause([g, !a, b]);
                sat.add_clause([g, a, !b]);
                self.gates.insert(Gate::Xor(a, b), g);
                g
            }
        };
        if flip {
            !g
        } else {
            g
        }
    }

    /// `g <-> (s ? t : e)`.
    pub fn mk_mux(&mut self, sat: &mut Solver, s: Lit, t: Lit, e: Lit) -> Lit {
        let tt = self.lit_true(sat);
        let f = !tt;
        if s == tt {
            return t;
        }
        if s == f {
            return e;
        }
        if t == e {
            return t;
        }
        if t == tt && e == f {
            return s;
        }
        if t == f && e == tt {
            return !s;
        }
        let (s, t, e) = if s.is_positive() {
            (s, t, e)
        } else {
            (!s, e, t)
        };
        if let Some(g) = self.shared(Gate::Mux(s, t, e)) {
            return g;
        }
        let g = sat.new_var().positive();
        sat.add_clause([!g, !s, t]);
        sat.add_clause([g, !s, !t]);
        sat.add_clause([!g, s, e]);
        sat.add_clause([g, s, !e]);
        // Redundant but propagation-friendly clauses.
        sat.add_clause([!g, t, e]);
        sat.add_clause([g, !t, !e]);
        self.gates.insert(Gate::Mux(s, t, e), g);
        g
    }

    /// The output of an already built gate, counting the hit.
    fn shared(&mut self, gate: Gate) -> Option<Lit> {
        let g = self.gates.get(&gate).copied();
        self.gate_hits += u64::from(g.is_some());
        g
    }

    fn mk_and_many(&mut self, sat: &mut Solver, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_true(sat);
        for &l in lits {
            acc = self.mk_and(sat, acc, l);
        }
        acc
    }

    fn mk_or_many(&mut self, sat: &mut Solver, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_false(sat);
        for &l in lits {
            acc = self.mk_or(sat, acc, l);
        }
        acc
    }

    // ---- word-level circuits ----

    /// Ripple-carry adder; returns (sum bits, carry out).
    fn adder(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit], carry_in: Lit) -> (Vec<Lit>, Lit) {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = carry_in;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.mk_xor(sat, x, y);
            let s = self.mk_xor(sat, xy, carry);
            let c1 = self.mk_and(sat, x, y);
            let c2 = self.mk_and(sat, xy, carry);
            carry = self.mk_or(sat, c1, c2);
            sum.push(s);
        }
        (sum, carry)
    }

    /// Shift-add multiplier (low `w` bits of the product).
    fn multiplier(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let f = self.lit_false(sat);
        let mut acc: Vec<Lit> = vec![f; w];
        for i in 0..w {
            // Partial product: (a << i) & replicate(b[i]), but only the
            // affected upper bits need adding.
            let bi = b[i];
            if bi == f {
                continue;
            }
            let mut pp = vec![f; w];
            for j in i..w {
                pp[j] = self.mk_and(sat, a[j - i], bi);
            }
            let (s, _c) = self.adder(sat, &acc, &pp, f);
            acc = s;
        }
        acc
    }

    /// Unsigned comparator: `a <u b`.
    fn mk_ult(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut lt = self.lit_false(sat);
        for (&x, &y) in a.iter().zip(b) {
            // From LSB to MSB: lt = (x == y) ? lt : (!x & y)
            let xo = self.mk_xor(sat, x, y);
            let here = self.mk_and(sat, !x, y);
            lt = self.mk_mux(sat, xo, here, lt);
        }
        lt
    }

    /// Barrel shifter with overflow handling; `fill` supplies shifted-in /
    /// saturated bits (false for shl/lshr, the sign for ashr).
    fn barrel_shift(
        &mut self,
        sat: &mut Solver,
        a: &[Lit],
        amount: &[Lit],
        dir: ShiftDir,
        fill: Lit,
    ) -> Vec<Lit> {
        let w = a.len();
        let f = self.lit_false(sat);
        let stages = (0..).take_while(|&k| (1u128 << k) < w as u128).count();
        let mut cur: Vec<Lit> = a.to_vec();
        for (k, &bit) in amount.iter().enumerate().take(stages) {
            let s = 1usize << k;
            let mut next = Vec::with_capacity(w);
            for j in 0..w {
                let shifted = match dir {
                    ShiftDir::Left => {
                        if j >= s {
                            cur[j - s]
                        } else {
                            fill_for(dir, fill, f)
                        }
                    }
                    ShiftDir::Right => {
                        if j + s < w {
                            cur[j + s]
                        } else {
                            fill
                        }
                    }
                };
                next.push(self.mk_mux(sat, bit, shifted, cur[j]));
            }
            cur = next;
        }
        // Any amount bit at or above `stages` makes the shift >= w... unless
        // those bits exactly encode a value < w. Since 2^stages >= w, any
        // set bit in positions stages.. means amount >= 2^stages >= w.
        let high: Vec<Lit> = amount[stages..].to_vec();
        let overflow = self.mk_or_many(sat, &high);
        // Within-range amounts below 2^stages can still reach >= w when w is
        // not a power of two, but then the barrel stages have already
        // saturated the result to the fill pattern, so no extra check is
        // needed.
        let fill_bit = fill_for(dir, fill, f);
        cur.iter()
            .map(|&l| self.mk_mux(sat, overflow, fill_bit, l))
            .collect()
    }

    /// Restoring divider; returns `(quotient, remainder)` with SMT-LIB
    /// division-by-zero semantics (q = ones, r = dividend).
    fn divider(&mut self, sat: &mut Solver, a: &[Lit], d: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let f = self.lit_false(sat);
        // (w+1)-bit remainder register and zero-extended divisor.
        let mut r: Vec<Lit> = vec![f; w + 1];
        let mut dext: Vec<Lit> = d.to_vec();
        dext.push(f);
        let mut q = vec![f; w];
        for i in (0..w).rev() {
            // r = (r << 1) | a[i]
            let mut shifted = Vec::with_capacity(w + 1);
            shifted.push(a[i]);
            shifted.extend_from_slice(&r[..w]);
            // ge = shifted >= dext
            let lt = self.mk_ult(sat, &shifted, &dext);
            let ge = !lt;
            // r = ge ? shifted - dext : shifted
            let dinv: Vec<Lit> = dext.iter().map(|&l| !l).collect();
            let t = self.lit_true(sat);
            let (diff, _) = self.adder(sat, &shifted, &dinv, t);
            r = shifted
                .iter()
                .zip(&diff)
                .map(|(&s, &dl)| self.mk_mux(sat, ge, dl, s))
                .collect();
            q[i] = ge;
        }
        r.truncate(w);
        (q, r)
    }

    /// Signed division and remainder via sign fix-up around the unsigned
    /// divider (SMT-LIB `bvsdiv`/`bvsrem` semantics).
    fn signed_divrem(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let sign_a = a[w - 1];
        let sign_b = b[w - 1];
        let abs_a = self.abs(sat, a);
        let abs_b = self.abs(sat, b);
        let (uq, ur) = self.divider(sat, &abs_a, &abs_b);
        let q_sign = self.mk_xor(sat, sign_a, sign_b);
        let neg_q = self.negate(sat, &uq);
        let q: Vec<Lit> = uq
            .iter()
            .zip(&neg_q)
            .map(|(&p, &n)| self.mk_mux(sat, q_sign, n, p))
            .collect();
        let neg_r = self.negate(sat, &ur);
        let r: Vec<Lit> = ur
            .iter()
            .zip(&neg_r)
            .map(|(&p, &n)| self.mk_mux(sat, sign_a, n, p))
            .collect();
        (q, r)
    }

    fn abs(&mut self, sat: &mut Solver, a: &[Lit]) -> Vec<Lit> {
        let sign = a[a.len() - 1];
        let neg = self.negate(sat, a);
        a.iter()
            .zip(&neg)
            .map(|(&p, &n)| self.mk_mux(sat, sign, n, p))
            .collect()
    }

    fn negate(&mut self, sat: &mut Solver, a: &[Lit]) -> Vec<Lit> {
        let inv: Vec<Lit> = a.iter().map(|&l| !l).collect();
        let t = self.lit_true(sat);
        let one: Vec<Lit> = std::iter::once(t)
            .chain(std::iter::repeat(!t))
            .take(a.len())
            .collect();
        self.adder(sat, &inv, &one, !t).0
    }

    /// Reads the value of a blasted bitvector term from the SAT model.
    pub fn model_bv(&self, sat: &Solver, id: TermId, width: u32) -> Option<BvVal> {
        match self.cache.get(&id)? {
            Blasted::Bv(bits) => {
                let mut v = 0u128;
                for (i, &l) in bits.iter().enumerate() {
                    if sat.lit_model(l) {
                        v |= 1 << i;
                    }
                }
                Some(BvVal::new(width, v))
            }
            Blasted::Bool(_) => None,
        }
    }

    /// Reads the value of a blasted boolean term from the SAT model.
    pub fn model_bool(&self, sat: &Solver, id: TermId) -> Option<bool> {
        match self.cache.get(&id)? {
            Blasted::Bool(l) => Some(sat.lit_model(*l)),
            Blasted::Bv(_) => None,
        }
    }
}

/// A two-input gate builder ([`Blaster::mk_and`] and friends).
type GateFn = fn(&mut Blaster, &mut Solver, Lit, Lit) -> Lit;

#[derive(Clone, Copy, PartialEq, Eq)]
enum ShiftDir {
    Left,
    Right,
}

#[inline]
fn fill_for(dir: ShiftDir, fill: Lit, false_lit: Lit) -> Lit {
    match dir {
        ShiftDir::Left => false_lit,
        ShiftDir::Right => fill,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A blaster and solver with the constant literal already built, plus
    /// three fresh input literals.
    fn setup() -> (Blaster, Solver, [Lit; 3]) {
        let mut sat = Solver::new();
        let mut blaster = Blaster::new();
        blaster.lit_true(&mut sat);
        let lits = [(); 3].map(|_| sat.new_var().positive());
        (blaster, sat, lits)
    }

    #[test]
    fn division_and_remainder_share_one_divider() {
        type Build = fn(&mut TermPool, TermId, TermId) -> TermId;
        let pairs: [(Build, Build); 2] = [
            (TermPool::bv_udiv, TermPool::bv_urem),
            (TermPool::bv_sdiv, TermPool::bv_srem),
        ];
        for (div, rem) in pairs {
            let mut pool = TermPool::new();
            let a = pool.var("a", Sort::BitVec(8));
            let b = pool.var("b", Sort::BitVec(8));
            let q = div(&mut pool, a, b);
            let r = rem(&mut pool, a, b);
            let (mut blaster, mut sat) = (Blaster::new(), Solver::new());
            blaster.try_blast(&pool, &mut sat, q).unwrap();
            let (vars, hits) = (sat.num_vars(), blaster.gate_hits());
            blaster.try_blast(&pool, &mut sat, r).unwrap();
            assert_eq!(sat.num_vars(), vars, "{}", pool.display(r));
            assert!(blaster.gate_hits() > hits);
        }
    }

    #[test]
    fn xor_shares_across_input_signs() {
        let (mut blaster, mut sat, [a, b, _]) = setup();
        let g = blaster.mk_xor(&mut sat, a, b);
        let vars = sat.num_vars();
        assert_eq!(blaster.mk_xor(&mut sat, !a, b), !g);
        assert_eq!(blaster.mk_xor(&mut sat, a, !b), !g);
        assert_eq!(blaster.mk_xor(&mut sat, !b, !a), g);
        assert_eq!(sat.num_vars(), vars);
        assert_eq!(blaster.gate_hits(), 3);
    }

    #[test]
    fn mux_shares_across_selector_sign() {
        let (mut blaster, mut sat, [s, t, e]) = setup();
        let g = blaster.mk_mux(&mut sat, s, e, t);
        let vars = sat.num_vars();
        assert_eq!(blaster.mk_mux(&mut sat, !s, t, e), g);
        assert_eq!(sat.num_vars(), vars);
        // A different gate over the same inputs is not shared.
        assert_ne!(blaster.mk_mux(&mut sat, s, t, e), g);
    }

    #[test]
    fn and_shares_across_input_order() {
        let (mut blaster, mut sat, [a, b, _]) = setup();
        let g = blaster.mk_and(&mut sat, a, b);
        let vars = sat.num_vars();
        assert_eq!(blaster.mk_and(&mut sat, b, a), g);
        assert_eq!(blaster.mk_or(&mut sat, !a, !b), !g);
        assert_eq!(sat.num_vars(), vars);
    }
}
