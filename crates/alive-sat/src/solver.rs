//! The CDCL solver.
//!
//! A MiniSat-lineage solver: two-watched-literal propagation, first-UIP
//! conflict analysis with clause minimization, VSIDS branching with phase
//! saving, Luby restarts, and activity-based learned-clause reduction.
//! Solving under assumptions makes the solver incremental, which the SMT
//! layer uses for model enumeration and CEGIS.

use crate::budget::{Budget, Exhaustion};
use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};
use crate::proof::{ProofEvent, ProofLogger};
use alive_trace::Tracer;

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The configured [`Budget`] was exhausted (or the solve was cancelled);
    /// [`Solver::exhaustion`] says which limit tripped.
    Unknown,
}

/// Aggregate statistics of a solver's lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses deleted by DB reduction.
    pub deleted_clauses: u64,
    /// Number of learned-clause literals retained after minimization.
    pub learned_literals: u64,
    /// Number of `solve` calls answered (including `Unknown`).
    pub sat_calls: u64,
}

impl std::ops::AddAssign for SolverStats {
    /// Folds another solver's (or attempt's) counters into these totals.
    fn add_assign(&mut self, o: SolverStats) {
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.propagations += o.propagations;
        self.restarts += o.restarts;
        self.deleted_clauses += o.deleted_clauses;
        self.learned_literals += o.learned_literals;
        self.sat_calls += o.sat_calls;
    }
}

/// A watch-list entry, 8 bytes: the clause reference with a "binary" tag in
/// its top bit, and a blocker literal.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    /// `ClauseRef::with_tag(binary)`.
    tagged: u32,
    /// A literal of the clause; when it is true the clause is satisfied and
    /// need not be read. A binary clause's blocker is always its other
    /// literal, so propagation through it never reads the arena.
    blocker: Lit,
}

// The tag rides in the clause reference so a watcher stays two words.
const _: () = assert!(std::mem::size_of::<Watcher>() == 8);

impl Watcher {
    fn new(cref: ClauseRef, blocker: Lit, binary: bool) -> Watcher {
        Watcher {
            tagged: cref.with_tag(binary),
            blocker,
        }
    }

    #[inline]
    fn cref(self) -> ClauseRef {
        ClauseRef::untag(self.tagged).0
    }

    #[inline]
    fn is_binary(self) -> bool {
        ClauseRef::untag(self.tagged).1
    }
}

#[derive(Clone, Copy, Debug)]
struct VarData {
    reason: ClauseRef,
    level: u32,
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use alive_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.positive(), b.positive()]);
/// s.add_clause([a.negative()]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug)]
pub struct Solver {
    db: ClauseDb,
    /// Watch lists indexed by literal code: clauses watching `!lit`… by
    /// convention, `watches[l.code()]` are the clauses in which `l` is a
    /// watched literal whose falsification must be handled.
    watches: Vec<Vec<Watcher>>,
    /// Current value of every literal, indexed by literal code: a variable's
    /// two literals are written together, so reading a literal's value
    /// needs no sign test.
    vals: Vec<LBool>,
    vardata: Vec<VarData>,
    /// Saved phase per variable for phase-saving.
    polarity: Vec<bool>,
    activity: Vec<f64>,
    order: VarHeap,
    var_inc: f64,
    cla_inc: f64,

    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    /// Clauses of length 1 asserted at level 0.
    ok: bool,
    stats: SolverStats,
    budget: Budget,
    /// Which limit tripped when the last solve returned `Unknown`.
    exhaustion: Option<Exhaustion>,
    /// Propagation+decision tick at which the deadline/cancel flag is next
    /// polled (amortizes the `Instant::now` syscall and atomic load).
    next_soft_poll: u64,

    // Scratch buffers for conflict analysis, kept across conflicts so
    // analysis allocates nothing once they have grown.
    seen: Vec<bool>,
    analyze_toclear: Vec<Lit>,
    /// The clause `analyze` learns, asserting literal first.
    learnt: Vec<Lit>,
    /// `lit_redundant`'s DFS stack and the variables it marked.
    minimize_stack: Vec<Lit>,
    minimize_marked: Vec<Var>,
    /// Per decision level, the `lbd_stamp` of the last `compute_lbd` call
    /// that counted it.
    level_stamps: Vec<u64>,
    lbd_stamp: u64,
    /// Scratch buffer in which `add_clause` sorts and simplifies.
    add_buf: Vec<Lit>,

    /// Final conflict clause (in terms of assumptions) after Unsat-under-assumptions.
    conflict: Vec<Lit>,
    /// Snapshot of the assignment taken when `Sat` is returned.
    model: Vec<LBool>,

    max_learnts: f64,

    /// Optional DRAT-style proof sink; `None` (the default) keeps every
    /// logging site down to one branch, so solving is unaffected.
    proof: Option<Box<dyn ProofLogger>>,

    /// Structured-trace handle; disabled (one branch per site) by default.
    tracer: Tracer,
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
/// Deadline/cancellation are polled every this many propagation+decision
/// ticks: frequent enough that even conflict-free solves respond to SIGINT
/// within milliseconds, rare enough that `Instant::now` stays off the
/// propagation fast path.
const SOFT_POLL_INTERVAL: u64 = 2048;

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::default(),
            watches: Vec::new(),
            vals: Vec::new(),
            vardata: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            order: VarHeap::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            ok: true,
            stats: SolverStats::default(),
            budget: Budget::default(),
            exhaustion: None,
            next_soft_poll: 0,
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            learnt: Vec::new(),
            minimize_stack: Vec::new(),
            minimize_marked: Vec::new(),
            level_stamps: Vec::new(),
            lbd_stamp: 0,
            add_buf: Vec::new(),
            conflict: Vec::new(),
            model: Vec::new(),
            max_learnts: 1000.0,
            proof: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a structured-trace handle. The disabled tracer (the
    /// default) keeps every emission site down to one branch, mirroring
    /// [`Solver::set_proof_logger`]. While enabled, each solve emits a
    /// `sat.solve` span plus `sat.conflicts`/`sat.propagations`/
    /// `sat.decisions` counter deltas, restarts and DB reductions emit
    /// as they happen, and learned-clause lengths are sampled into the
    /// `sat.learned_len` histogram.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed trace handle (disabled unless [`Solver::set_tracer`]
    /// was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Installs (or removes) a DRAT-style proof logger.
    ///
    /// While a logger is installed, every original clause, learned clause,
    /// and deleted clause is reported as a [`ProofEvent`] in DIMACS literals.
    /// Transcripts of runs that end in [`SolveResult::Unsat`] *without
    /// assumptions* conclude with an empty learned clause and form a complete
    /// refutation; Unsat-under-assumptions answers depend on the assumption
    /// literals and do not produce an empty clause.
    ///
    /// Install the logger before adding clauses — clauses added earlier are
    /// not retroactively recorded.
    pub fn set_proof_logger(&mut self, logger: Option<Box<dyn ProofLogger>>) {
        self.proof = logger;
    }

    /// `true` if a proof logger is currently installed.
    pub fn is_proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    /// Logs one clause event if a logger is installed; free otherwise.
    #[inline]
    fn proof_log(&mut self, make: fn(Vec<i32>) -> ProofEvent, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.log(make(lits.iter().map(|l| l.to_dimacs()).collect()));
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.vardata.len()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Installs a resource [`Budget`] (deadline, conflicts, cancel). When it
    /// is exhausted [`Solver::solve`] returns [`SolveResult::Unknown`].
    ///
    /// The deadline and cancellation flag are polled every few thousand
    /// propagations/decisions, so even a conflict-free, propagation-heavy
    /// solve observes them promptly; the conflict limit is checked exactly.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The currently installed budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Why the most recent solve returned [`SolveResult::Unknown`]
    /// (`None` after a decisive answer).
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        self.exhaustion
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.vardata.len() as u32);
        self.vals.push(LBool::Undef);
        self.vals.push(LBool::Undef);
        self.vardata.push(VarData {
            reason: ClauseRef::UNDEF,
            level: 0,
        });
        self.polarity.push(false);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.seen.push(false);
        self.order.reserve_vars(self.vardata.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Adds a clause; returns `false` if the formula became trivially unsat.
    ///
    /// May be called between `solve` calls (the solver backtracks to level 0
    /// first). Tautologies are silently dropped; duplicate literals are
    /// removed.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        let mut c = std::mem::take(&mut self.add_buf);
        c.clear();
        c.extend(lits);
        c.sort_unstable();
        c.dedup();
        // Record the clause *before* level-0 simplification: the transcript
        // describes the formula as given, and the simplifications below are
        // all RUP consequences of previously recorded clauses.
        self.proof_log(ProofEvent::Original, &c);
        self.add_buf = c;
        // Drop tautologies and false literals in place; detect satisfied
        // clauses.
        let mut kept = 0;
        for i in 0..self.add_buf.len() {
            let l = self.add_buf[i];
            if self.add_buf.get(i + 1) == Some(&!l) {
                return true; // tautology: contains l and !l (adjacent after sort)
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => {
                    self.add_buf[kept] = l;
                    kept += 1;
                }
            }
        }
        match kept {
            0 => {
                // Every literal is false at level 0: the empty clause follows
                // by unit propagation over the recorded formula.
                self.proof_log(ProofEvent::Learned, &[]);
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(self.add_buf[0], ClauseRef::UNDEF);
                self.ok = self.propagate().is_none();
                if !self.ok {
                    self.proof_log(ProofEvent::Learned, &[]);
                }
                self.ok
            }
            _ => {
                let cref = self.db.alloc(&self.add_buf[..kept], false);
                self.attach_clause(cref);
                true
            }
        }
    }

    fn attach_clause(&mut self, cref: ClauseRef) {
        let (l0, l1) = (self.db.lit(cref, 0), self.db.lit(cref, 1));
        let binary = self.db.len(cref) == 2;
        self.watches[(!l0).code()].push(Watcher::new(cref, l1, binary));
        self.watches[(!l1).code()].push(Watcher::new(cref, l0, binary));
    }

    /// The model value of a variable from the most recent `Sat` answer.
    pub fn value(&self, v: Var) -> Option<bool> {
        self.model.get(v.index()).copied().and_then(LBool::to_bool)
    }

    /// The current value of a literal.
    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.vals[l.code()]
    }

    /// Model value of a literal after `Sat` (defaulting unassigned to false).
    pub fn lit_model(&self, l: Lit) -> bool {
        match self.value(l.var()) {
            Some(b) => b == l.is_positive(),
            None => !l.is_positive(),
        }
    }

    /// After a `solve` under assumptions returned `Unsat`, the subset of
    /// assumption literals involved in the contradiction (negated).
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict
    }

    #[inline]
    fn level(&self, v: Var) -> u32 {
        self.vardata[v.index()].level
    }

    #[inline]
    fn reason(&self, v: Var) -> ClauseRef {
        self.vardata[v.index()].reason
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        self.vals[l.code()] = LBool::True;
        self.vals[(!l).code()] = LBool::False;
        self.vardata[l.var().index()] = VarData {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = (!p).0;

            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut conflict = None;
            while i < ws.len() {
                let w = ws[i];
                // Fast path: blocker satisfied.
                let blocker_value = self.vals[w.blocker.code()];
                if blocker_value == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = w.cref();
                debug_assert!(!self.db.is_deleted(cref), "watch on a deleted clause");
                if w.is_binary() {
                    // The blocker is the other literal: the clause is unit
                    // or conflicting, and only a conflict reads the arena.
                    i += 1;
                    if blocker_value == LBool::False {
                        // Analysis sees the conflict in [other, false] order.
                        let lits = self.db.lits_mut(cref);
                        if lits[0] == false_lit {
                            lits.swap(0, 1);
                        }
                        conflict = Some(cref);
                        self.qhead = self.trail.len();
                        break;
                    }
                    self.unchecked_enqueue(w.blocker, cref);
                    continue;
                }
                let lits = self.db.lits_mut(cref);
                // Normalize: ensure the false literal (!p) is at slot 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = Lit(lits[0]);
                ws[i].blocker = first;
                if first != w.blocker && self.vals[first.code()] == LBool::True {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let vals = &self.vals;
                if let Some(k) = (2..lits.len()).find(|&k| vals[lits[k] as usize] != LBool::False) {
                    lits.swap(1, k);
                    self.watches[(!Lit(lits[1])).code()].push(Watcher::new(cref, first, false));
                    ws.swap_remove(i);
                    continue;
                }
                // No new watch: clause is unit or conflicting.
                i += 1;
                if self.vals[first.code()] == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                } else {
                    self.unchecked_enqueue(first, cref);
                }
            }
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for idx in (lim..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var();
            self.vals[l.code()] = LBool::Undef;
            self.vals[(!l).code()] = LBool::Undef;
            self.polarity[v.index()] = l.is_positive();
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn cla_bump(&mut self, cref: ClauseRef) {
        if self.db.bump(cref, self.cla_inc) > RESCALE_LIMIT {
            self.cla_inc *= 1e-20;
            self.db.scale_activities(1e-20);
        }
    }

    /// The slots of `r`, the reason `implied` was propagated by, that hold
    /// its antecedents. A long clause keeps the implied literal in slot 0;
    /// propagation never reorders a binary clause, so it may be in either.
    #[inline]
    fn antecedents(&self, r: ClauseRef, implied: Var) -> std::ops::Range<usize> {
        let len = self.db.len(r);
        if len == 2 && self.db.lit(r, 1).var() == implied {
            0..1
        } else {
            1..len
        }
    }

    /// First-UIP conflict analysis into `self.learnt`, the asserting literal
    /// first. Returns the backtrack level.
    fn analyze(&mut self, mut confl: ClauseRef) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit(0)); // slot for asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            debug_assert_ne!(confl, ClauseRef::UNDEF);
            self.cla_bump(confl);
            let slots = match p {
                Some(pl) => self.antecedents(confl, pl.var()),
                None => 0..self.db.len(confl),
            };
            for k in slots {
                let q = self.db.lit(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level(v) > 0 {
                    self.seen[v.index()] = true;
                    self.var_bump(v);
                    if self.level(v) >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to expand from the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.reason(pl.var());
            p = Some(pl);
        }

        // Conflict-clause minimization (recursive, reason-subsumption),
        // compacting `learnt` in place.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learnt);
        for l in &self.analyze_toclear {
            self.seen[l.var().index()] = true;
        }
        let mut kept = 1;
        for k in 1..learnt.len() {
            let l = learnt[k];
            if self.reason(l.var()) == ClauseRef::UNDEF || !self.lit_redundant(l) {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);

        for l in &self.analyze_toclear {
            self.seen[l.var().index()] = false;
        }
        // Also clear seen flags for any remaining learnt lits (idempotent).
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }

        // Find the backtrack level: the max level among learnt[1..].
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level(learnt[i].var()) > self.level(learnt[max_i].var()) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level(learnt[1].var())
        };
        self.learnt = learnt;
        bt
    }

    /// Is `l` redundant in the learnt clause (implied by the other lits)?
    fn lit_redundant(&mut self, l: Lit) -> bool {
        let mut stack = std::mem::take(&mut self.minimize_stack);
        let mut marked = std::mem::take(&mut self.minimize_marked);
        stack.clear();
        marked.clear();
        stack.push(l);
        let mut redundant = true;
        'dfs: while let Some(q) = stack.pop() {
            let r = self.reason(q.var());
            if r == ClauseRef::UNDEF {
                redundant = false;
                break;
            }
            for k in self.antecedents(r, q.var()) {
                let p = self.db.lit(r, k);
                let v = p.var();
                if !self.seen[v.index()] && self.level(v) > 0 {
                    if self.reason(v) == ClauseRef::UNDEF {
                        redundant = false;
                        break 'dfs;
                    }
                    self.seen[v.index()] = true;
                    marked.push(v);
                    stack.push(p);
                }
            }
        }
        if redundant {
            // Keep marks: they only help subsume further literals this
            // round, and analyze_toclear clears them afterwards.
            self.analyze_toclear
                .extend(marked.iter().map(|v| v.positive()));
        } else {
            for v in &marked {
                self.seen[v.index()] = false;
            }
        }
        self.minimize_stack = stack;
        self.minimize_marked = marked;
        redundant
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        loop {
            let v = self.order.pop(&self.activity)?;
            if self.lit_value(v.positive()) == LBool::Undef {
                self.stats.decisions += 1;
                return Some(v.lit(self.polarity[v.index()]));
            }
        }
    }

    fn reduce_db(&mut self) {
        let mut deleted_this_pass = 0u64;
        let mut learnts = self.db.learnt_refs();
        // Sort ascending by activity: delete the least active half, keeping
        // binary/glue clauses. The sort is stable, so ties keep allocation
        // order.
        learnts.sort_by(|&a, &b| {
            self.db
                .activity(a)
                .partial_cmp(&self.db.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: Vec<bool> = learnts
            .iter()
            .map(|&cref| {
                let first = self.db.lit(cref, 0);
                self.lit_value(first) == LBool::True && self.reason(first.var()) == cref
            })
            .collect();
        let half = learnts.len() / 2;
        for (i, &cref) in learnts.iter().enumerate() {
            if i >= half {
                break;
            }
            if self.db.len(cref) <= 2 || self.db.lbd(cref) <= 3 || locked[i] {
                continue;
            }
            if self.proof.is_some() {
                let lits = self.db.lits(cref);
                self.proof_log(ProofEvent::Deleted, &lits);
            }
            self.db.free(cref);
            self.stats.deleted_clauses += 1;
            deleted_this_pass += 1;
        }
        self.tracer
            .mark("sat.reduce", String::new, deleted_this_pass);
        for list in &mut self.watches {
            list.retain(|w| !self.db.is_deleted(w.cref()));
        }
        if self.db.needs_compaction() {
            self.compact_db();
        }
    }

    /// Compacts the clause arena and rewrites every reference into it: the
    /// watchers and the reasons of assigned variables. Reasons of
    /// unassigned variables are stale and never read, so they stay as they
    /// are. Only unlocked learnt clauses are ever deleted, so every
    /// reference rewritten here names a live clause.
    fn compact_db(&mut self) {
        let reloc = self.db.compact();
        for list in &mut self.watches {
            for w in list {
                *w = Watcher::new(reloc.get(w.cref()), w.blocker, w.is_binary());
            }
        }
        for l in &self.trail {
            let data = &mut self.vardata[l.var().index()];
            if data.reason != ClauseRef::UNDEF {
                data.reason = reloc.get(data.reason);
            }
        }
    }

    /// The number of distinct decision levels among `self.learnt`.
    fn compute_lbd(&mut self) -> u32 {
        self.lbd_stamp += 1;
        let mut lbd = 0;
        for l in &self.learnt {
            let level = self.level(l.var()) as usize;
            if level >= self.level_stamps.len() {
                self.level_stamps.resize(level + 1, 0);
            }
            if self.level_stamps[level] != self.lbd_stamp {
                self.level_stamps[level] = self.lbd_stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On `Unsat`, [`Solver::unsat_core`] lists the subset of assumptions
    /// (negated) that participated in the contradiction.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        #[cfg(feature = "fault-injection")]
        {
            let injected = crate::fault::fire(crate::fault::FaultSite::Sat);
            match injected {
                Some(crate::fault::FaultKind::ForceUnknown) => {
                    self.exhaustion = Some(Exhaustion::Injected);
                    return SolveResult::Unknown;
                }
                Some(crate::fault::FaultKind::Panic) => {
                    panic!("injected fault: panic in alive_sat::Solver::solve")
                }
                Some(crate::fault::FaultKind::Hang) => {
                    // Simulate a query that never terminates on its own: only
                    // the budget's deadline or cancellation flag can end it.
                    loop {
                        if let Some(e) = self.budget.check_soft() {
                            self.exhaustion = Some(e);
                            return SolveResult::Unknown;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                Some(crate::fault::FaultKind::HangHard) => {
                    // A query whose thread can only be abandoned: ignores
                    // the budget and the cancel token alike. The supervised
                    // driver's watchdog must detach the worker running it.
                    loop {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                Some(crate::fault::FaultKind::CorruptModel) => {
                    let r = self.solve_inner(assumptions);
                    if r == SolveResult::Sat {
                        self.corrupt_model();
                    }
                    return r;
                }
                // I/O fault kinds model disk/socket failures; a solver call
                // has no I/O to fail, so they are inert here.
                Some(crate::fault::FaultKind::IoError | crate::fault::FaultKind::TornWrite)
                | None => {}
            }
        }
        self.solve_inner(assumptions)
    }

    /// Flips every assigned value in the stored model — a deliberately
    /// wrong answer used by fault-injection tests to prove downstream
    /// model re-validation catches solver defects. Public so higher
    /// layers (the SMT solver's own fault site) can reuse it.
    #[cfg(feature = "fault-injection")]
    pub fn corrupt_model(&mut self) {
        for v in &mut self.model {
            *v = v.negate();
        }
    }

    fn solve_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.sat_calls += 1;
        if !self.tracer.enabled() {
            return self.solve_loop(assumptions);
        }
        let tracer = self.tracer.clone();
        let _span = tracer.span("sat.solve");
        let before = self.stats;
        let r = self.solve_loop(assumptions);
        tracer.counter("sat.conflicts", self.stats.conflicts - before.conflicts);
        tracer.counter(
            "sat.propagations",
            self.stats.propagations - before.propagations,
        );
        tracer.counter("sat.decisions", self.stats.decisions - before.decisions);
        r
    }

    fn solve_loop(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.conflict.clear();
        self.exhaustion = None;
        if !self.ok {
            return SolveResult::Unsat;
        }
        // Pre-flight: an already-expired deadline or raised cancel flag must
        // not start a search at all.
        if let Some(e) = self.budget.check_soft() {
            self.exhaustion = Some(e);
            return SolveResult::Unknown;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.proof_log(ProofEvent::Learned, &[]);
            self.ok = false;
            return SolveResult::Unsat;
        }

        // The conflict limit is per call: it measures from this snapshot.
        let conflicts_at_start = self.stats.conflicts;
        // Force a soft poll within the first interval of work.
        self.next_soft_poll = (self.stats.propagations + self.stats.decisions) + SOFT_POLL_INTERVAL;
        let mut luby_idx = 0u64;
        loop {
            let restart_limit = 100 * luby(luby_idx);
            luby_idx += 1;
            match self.search(assumptions, restart_limit, conflicts_at_start) {
                Some(r) => {
                    self.cancel_until(0);
                    return r;
                }
                None => {
                    self.stats.restarts += 1;
                    self.tracer.counter("sat.restarts", 1);
                    self.cancel_until(0);
                }
            }
        }
    }

    /// Checks the conflict limit against the conflicts spent since
    /// `conflicts_at_start`; deadline/cancellation are polled on an
    /// amortized tick.
    fn budget_exceeded(&mut self, conflicts_at_start: u64) -> Option<Exhaustion> {
        if let Some(max) = self.budget.conflicts {
            if self.stats.conflicts - conflicts_at_start >= max {
                return Some(Exhaustion::Conflicts);
            }
        }
        let ticks = self.stats.propagations + self.stats.decisions;
        if ticks >= self.next_soft_poll {
            self.next_soft_poll = ticks + SOFT_POLL_INTERVAL;
            if let Some(e) = self.budget.check_soft() {
                return Some(e);
            }
        }
        None
    }

    /// Runs the CDCL loop until sat/unsat/restart/budget.
    /// `None` means "restart requested".
    fn search(
        &mut self,
        assumptions: &[Lit],
        restart_limit: u64,
        conflicts_at_start: u64,
    ) -> Option<SolveResult> {
        let mut conflicts_this_run = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_run += 1;
                if self.decision_level() == 0 {
                    // Conflict from level-0 propagation alone: the formula is
                    // unsat and the empty clause is RUP over the transcript.
                    self.proof_log(ProofEvent::Learned, &[]);
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                // Conflict below/at assumption levels: extract the core.
                let bt_level = self.analyze(confl);
                let learnt_len = self.learnt.len();
                self.stats.learned_literals += learnt_len as u64;
                self.tracer.sample("sat.learned_len", learnt_len as u64);
                let assumption_level = self.num_assumption_levels(assumptions);
                if self.decision_level() <= assumption_level {
                    self.analyze_final(confl);
                    return Some(SolveResult::Unsat);
                }
                let learnt = std::mem::take(&mut self.learnt);
                self.proof_log(ProofEvent::Learned, &learnt);
                self.learnt = learnt;
                self.cancel_until(bt_level);
                let lbd = self.compute_lbd();
                let first = self.learnt[0];
                if learnt_len == 1 {
                    if self.lit_value(first) == LBool::False {
                        // The learnt unit contradicts the level-0 trail.
                        self.proof_log(ProofEvent::Learned, &[]);
                        self.ok = false;
                        return Some(SolveResult::Unsat);
                    }
                    if self.decision_level() > 0 {
                        self.cancel_until(0);
                    }
                    if self.lit_value(first) == LBool::Undef {
                        self.unchecked_enqueue(first, ClauseRef::UNDEF);
                    }
                } else {
                    let cref = self.db.alloc(&self.learnt, true);
                    self.db.set_lbd(cref, lbd);
                    self.attach_clause(cref);
                    self.cla_bump(cref);
                    self.unchecked_enqueue(first, cref);
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;

                if let Some(e) = self.budget_exceeded(conflicts_at_start) {
                    self.exhaustion = Some(e);
                    return Some(SolveResult::Unknown);
                }
                if self.db.num_learnt as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.2;
                }
                if conflicts_this_run >= restart_limit {
                    return None; // restart
                }
            } else {
                // No conflict: a propagation-heavy or decision-heavy solve
                // must still observe the deadline and the cancellation flag
                // (a satisfiable-but-huge query may never conflict at all).
                if let Some(e) = self.budget_exceeded(conflicts_at_start) {
                    self.exhaustion = Some(e);
                    return Some(SolveResult::Unknown);
                }
                // Extend with assumptions, then decide.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already satisfied: create a pseudo level so the
                            // indexing over assumptions advances.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            // Conflicting assumption.
                            self.final_core_for(a);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, ClauseRef::UNDEF);
                        }
                    }
                } else if let Some(l) = self.pick_branch_lit() {
                    self.trail_lim.push(self.trail.len());
                    self.unchecked_enqueue(l, ClauseRef::UNDEF);
                } else {
                    // A variable's value is that of its positive literal.
                    self.model.clear();
                    self.model.extend(self.vals.iter().step_by(2));
                    return Some(SolveResult::Sat);
                }
            }
        }
    }

    fn num_assumption_levels(&self, assumptions: &[Lit]) -> u32 {
        (assumptions.len() as u32).min(self.decision_level())
    }

    /// Builds the unsat core into `self.conflict` when a conflict happened
    /// within assumption levels.
    fn analyze_final(&mut self, confl: ClauseRef) {
        self.conflict.clear();
        for k in 0..self.db.len(confl) {
            let v = self.db.lit(confl, k).var();
            if self.level(v) > 0 {
                self.seen[v.index()] = true;
            }
        }
        self.collect_core(None);
    }

    /// Builds the unsat core into `self.conflict` when assumption `a` was
    /// directly falsified by earlier assumptions.
    fn final_core_for(&mut self, a: Lit) {
        self.conflict.clear();
        self.conflict.push(!a);
        self.seen[a.var().index()] = true;
        self.collect_core(Some(!a));
    }

    /// Walks the trail backwards, expanding the reason of each variable
    /// marked in `seen` and adding the negation of each marked decision
    /// literal above level 0 (other than `skip`) to `self.conflict`. Leaves
    /// `seen` clear: every marked variable is on the trail.
    fn collect_core(&mut self, skip: Option<Lit>) {
        for idx in (0..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var();
            if !self.seen[v.index()] {
                continue;
            }
            let r = self.reason(v);
            if r == ClauseRef::UNDEF {
                if self.level(v) > 0 && Some(l) != skip {
                    self.conflict.push(!l); // decision/assumption literal
                }
            } else {
                for k in self.antecedents(r, v) {
                    let w = self.db.lit(r, k).var();
                    if self.level(w) > 0 {
                        self.seen[w.index()] = true;
                    }
                }
            }
            self.seen[v.index()] = false;
        }
    }
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence that contains index i, and the index within.
    let mut k = 1u32;
    loop {
        if i + 2 == (1u64 << k) {
            return 1u64 << (k - 1);
        }
        if i + 2 < (1u64 << k) {
            i -= (1u64 << (k - 1)) - 1;
            k = 1;
            continue;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expect.len() as u64).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause([a.positive()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn contradiction_detected() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause([a.positive()]));
        assert!(!s.add_clause([a.negative()]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause([w[0].negative(), w[1].positive()]);
        }
        s.add_clause([vars[0].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in &vars {
            assert_eq!(s.value(*v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: var p(i,j) = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause([row[0].positive(), row[1].positive()]);
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                for (a, b) in p[i].iter().zip(&p[k]) {
                    s.add_clause([a.negative(), b.negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_are_respected() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.negative(), b.positive()]);
        assert_eq!(s.solve_with_assumptions(&[a.positive()]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
        // Solver stays reusable; opposite assumption also sat.
        assert_eq!(s.solve_with_assumptions(&[a.negative()]), SolveResult::Sat);
        assert_eq!(s.value(a), Some(false));
    }

    #[test]
    fn unsat_under_assumptions_reports_core() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.negative(), b.negative()]);
        assert_eq!(
            s.solve_with_assumptions(&[a.positive(), b.positive()]),
            SolveResult::Unsat
        );
        assert!(!s.unsat_core().is_empty());
        // Still satisfiable without assumptions.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unsat_core_is_sufficient_for_unsat() {
        // (!a | !b) makes {a, b} contradictory; c and d are irrelevant
        // padding assumptions that must not be required by the core.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let d = s.new_var();
        s.add_clause([a.negative(), b.negative()]);
        s.add_clause([c.positive(), d.positive()]);
        let assumptions = [c.positive(), a.positive(), d.positive(), b.positive()];
        assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Unsat);
        let core: Vec<Lit> = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        // Each core literal is the negation of one of the assumptions.
        for l in &core {
            assert!(
                assumptions.contains(&!*l),
                "core lit {l} not from assumptions"
            );
        }
        // The core alone must reproduce the contradiction.
        let core_assumptions: Vec<Lit> = core.iter().map(|l| !*l).collect();
        assert_eq!(
            s.solve_with_assumptions(&core_assumptions),
            SolveResult::Unsat
        );
        // Dropping any single core literal must make the query satisfiable —
        // i.e. for this formula the core is minimal, not just sufficient.
        for skip in 0..core_assumptions.len() {
            let weakened: Vec<Lit> = core_assumptions
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| *l)
                .collect();
            assert_eq!(s.solve_with_assumptions(&weakened), SolveResult::Sat);
        }
    }

    #[test]
    fn unsat_core_remains_valid_across_incremental_additions() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let e = s.new_var();
        s.add_clause([a.negative(), b.negative()]);
        assert_eq!(
            s.solve_with_assumptions(&[a.positive(), b.positive()]),
            SolveResult::Unsat
        );
        let core_assumptions: Vec<Lit> = s.unsat_core().iter().map(|l| !*l).collect();
        // Clause addition only strengthens the formula, so the old core must
        // still be contradictory after more constraints arrive.
        s.add_clause([e.positive(), a.positive()]);
        s.add_clause([e.negative(), b.positive()]);
        assert_eq!(
            s.solve_with_assumptions(&core_assumptions),
            SolveResult::Unsat
        );
        // And the solver stays usable for satisfiable queries afterwards.
        assert_eq!(s.solve_with_assumptions(&[a.positive()]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(false));
    }

    #[test]
    fn proof_logging_is_off_by_default() {
        let s = Solver::new();
        assert!(!s.is_proof_logging());
    }

    #[test]
    fn proof_transcript_refutes_pigeonhole() {
        use crate::proof::{ProofEvent, SharedDratRecorder};
        let handle = SharedDratRecorder::new();
        let mut s = Solver::new();
        s.set_proof_logger(Some(Box::new(handle.clone())));
        assert!(s.is_proof_logging());
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        let mut num_original = 0usize;
        for row in &p {
            s.add_clause([row[0].positive(), row[1].positive()]);
            num_original += 1;
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                for (a, b) in p[i].iter().zip(&p[k]) {
                    s.add_clause([a.negative(), b.negative()]);
                    num_original += 1;
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        let events = handle.snapshot();
        assert!(handle.has_refutation());
        let originals = events
            .iter()
            .filter(|e| matches!(e, ProofEvent::Original(_)))
            .count();
        assert_eq!(originals, num_original);
        // Every original clause is recorded in DIMACS with no zeros.
        for e in &events {
            assert!(e.lits().iter().all(|&l| l != 0));
        }
    }

    #[test]
    fn sat_run_produces_no_refutation() {
        use crate::proof::SharedDratRecorder;
        let handle = SharedDratRecorder::new();
        let mut s = Solver::new();
        s.set_proof_logger(Some(Box::new(handle.clone())));
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.positive(), b.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(!handle.has_refutation());
        assert_eq!(handle.len(), 1); // just the original clause
    }

    #[test]
    fn add_clause_contradiction_logs_empty_clause() {
        use crate::proof::SharedDratRecorder;
        let handle = SharedDratRecorder::new();
        let mut s = Solver::new();
        s.set_proof_logger(Some(Box::new(handle.clone())));
        let a = s.new_var();
        assert!(s.add_clause([a.positive()]));
        assert!(!s.add_clause([a.negative()]));
        assert!(handle.has_refutation());
    }

    #[test]
    fn unsat_under_assumptions_yields_no_refutation() {
        // Assumption-dependent Unsat is not a refutation of the formula, so
        // the transcript must not end with an empty clause.
        use crate::proof::SharedDratRecorder;
        let handle = SharedDratRecorder::new();
        let mut s = Solver::new();
        s.set_proof_logger(Some(Box::new(handle.clone())));
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.negative(), b.negative()]);
        assert_eq!(
            s.solve_with_assumptions(&[a.positive(), b.positive()]),
            SolveResult::Unsat
        );
        assert!(!handle.has_refutation());
        // The formula itself is satisfiable and must stay so.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(!handle.has_refutation());
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.positive(), b.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([a.negative()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
        s.add_clause([b.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Counts `sat.reduce` marks, i.e. learned-clause reductions.
    #[derive(Debug, Default)]
    struct Reductions(std::sync::atomic::AtomicU64);

    impl alive_trace::TraceSink for Reductions {
        fn record(&self, event: &alive_trace::Event) {
            if event.name == "sat.reduce" {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    /// Solves with a reduction-counting tracer; returns the answer and the
    /// number of reductions.
    fn solve_counting_reductions(s: &mut Solver) -> (SolveResult, u64) {
        let sink = std::sync::Arc::new(Reductions::default());
        s.set_tracer(Tracer::new(Box::new(sink.clone())));
        let r = s.solve();
        (r, sink.0.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// The arena after a run that reduced the clause database: compaction
    /// ran (without it every deleted clause, at least 5 words, would still
    /// be there) and left at most as many dead words as live ones.
    fn assert_compacted(s: &Solver) {
        let (arena, live) = (s.db.arena_words(), s.db.live_words());
        assert!(arena <= 2 * live, "arena {arena} words, {live} live");
        let deleted = s.stats.deleted_clauses as usize;
        assert!(arena < live + 5 * deleted, "no compaction ran");
    }

    #[test]
    fn reductions_compact_the_arena_on_pigeonhole() {
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..8)
            .map(|_| (0..7).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.positive()));
        }
        for i in 0..8 {
            for k in (i + 1)..8 {
                for (a, b) in p[i].iter().zip(&p[k]) {
                    s.add_clause([a.negative(), b.negative()]);
                }
            }
        }
        let (r, reductions) = solve_counting_reductions(&mut s);
        assert_eq!(r, SolveResult::Unsat);
        assert!(reductions >= 3, "only {reductions} reductions");
        assert_compacted(&s);
    }

    #[test]
    fn reductions_compact_the_arena_on_random_3sat() {
        // A seeded random 3-SAT instance just under the threshold ratio
        // (200 variables, 848 clauses) that is satisfiable after thousands
        // of conflicts. Brute force is out of reach at this size; the
        // model itself is the certificate, checked against every clause.
        let mut state = 3u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let n = 200;
        let cnf: Vec<[(usize, bool); 3]> = (0..n * 424 / 100)
            .map(|_| [(); 3].map(|_| (next(n as u64) as usize, next(2) == 0)))
            .collect();
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for c in &cnf {
            s.add_clause(c.iter().map(|&(v, sign)| vars[v].lit(sign)));
        }
        let (r, reductions) = solve_counting_reductions(&mut s);
        assert_eq!(r, SolveResult::Sat);
        assert!(reductions >= 3, "only {reductions} reductions");
        assert_compacted(&s);
        for c in &cnf {
            assert!(c.iter().any(|&(v, sign)| s.value(vars[v]) == Some(sign)));
        }
    }
}
