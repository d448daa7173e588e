//! Pins the CDCL search itself: exact solver counters and unsat cores on
//! fixed instances.
//!
//! A change that only makes a conflict cheaper (data layout, buffer reuse,
//! watch representation) must leave every number here as it is. A change
//! to the blocker update, the watch-list order, VSIDS tie-breaking, or the
//! restart and reduction schedules moves them, and this file says so in
//! seconds instead of through a corpus-wide golden diff.
//!
//! To see the current values after a deliberate search change, run
//! `cargo test -p alive-sat --test search_golden -- --nocapture` and read
//! the `got` lines of the failures.

use alive_sat::{Lit, SolveResult, Solver, Var};

/// A deterministic xorshift generator, so every instance reproduces exactly.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// A clause of `len` random literals over `vars` (repeats allowed: the
    /// solver drops duplicates and tautologies).
    fn clause(&mut self, vars: &[Var], len: usize) -> Vec<Lit> {
        (0..len)
            .map(|_| vars[self.below(vars.len() as u64) as usize].lit(self.below(2) == 0))
            .collect()
    }
}

/// The answer and the search counters of the solver's lifetime so far.
fn summary(s: &Solver, r: SolveResult) -> String {
    let st = s.stats();
    format!(
        "{r:?} conflicts={} decisions={} propagations={} restarts={} deleted={} learned_lits={}",
        st.conflicts,
        st.decisions,
        st.propagations,
        st.restarts,
        st.deleted_clauses,
        st.learned_literals
    )
}

/// The unsat core as DIMACS literals, in the order the solver reports it.
fn core(s: &Solver) -> Vec<i32> {
    s.unsat_core().iter().map(|l| l.to_dimacs()).collect()
}

fn new_vars(s: &mut Solver, n: usize) -> Vec<Var> {
    (0..n).map(|_| s.new_var()).collect()
}

#[track_caller]
fn check(got: &[String], want: &[&str]) {
    for g in got {
        println!("got: {g}");
    }
    assert_eq!(got, want);
}

#[test]
fn pigeonhole_8_7() {
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..8).map(|_| new_vars(&mut s, 7)).collect();
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
    let r = s.solve();
    check(&[summary(&s, r)], &[
            "Unsat conflicts=5668 decisions=6857 propagations=79318 restarts=29 deleted=3664 learned_lits=94046",
        ]);
}

#[test]
fn random_3sat_200_at_ratio_4_26() {
    let mut rng = XorShift(0x35a7_0200);
    let mut s = Solver::new();
    let vars = new_vars(&mut s, 200);
    for _ in 0..852 {
        let c = rng.clause(&vars, 3);
        s.add_clause(c);
    }
    let r = s.solve();
    check(&[summary(&s, r)], &[
            "Sat conflicts=3550 decisions=4414 propagations=139327 restarts=17 deleted=2588 learned_lits=38303",
        ]);
}

#[test]
fn half_binary_cnf() {
    // A random 3-CNF at the threshold ratio over 150 variables, each
    // variable split into an equivalence chain of four copies (six binary
    // clauses) and each clause literal drawn from a random copy: more than
    // half the clauses are binary, like a bit-blasted circuit's gate
    // definitions, and most propagation reasons are binary.
    let mut got = Vec::new();
    for seed in 1..=4u64 {
        let mut rng = XorShift(0xb1_0a77 ^ (seed << 32));
        let mut s = Solver::new();
        let chains: Vec<Vec<Var>> = (0..150).map(|_| new_vars(&mut s, 4)).collect();
        for chain in &chains {
            for w in chain.windows(2) {
                s.add_clause([w[0].negative(), w[1].positive()]);
                s.add_clause([w[0].positive(), w[1].negative()]);
            }
        }
        for _ in 0..639 {
            let c: Vec<Lit> = (0..3)
                .map(|_| {
                    let chain = &chains[rng.below(150) as usize];
                    chain[rng.below(4) as usize].lit(rng.below(2) == 0)
                })
                .collect();
            s.add_clause(c);
        }
        let r = s.solve();
        got.push(summary(&s, r));
    }
    check(&got, &[
            "Unsat conflicts=3325 decisions=4055 propagations=433943 restarts=16 deleted=1684 learned_lits=31338",
            "Sat conflicts=1412 decisions=1779 propagations=182922 restarts=9 deleted=479 learned_lits=12358",
            "Sat conflicts=618 decisions=818 propagations=87850 restarts=5 deleted=0 learned_lits=7204",
            "Unsat conflicts=2165 decisions=2652 propagations=267515 restarts=13 deleted=1025 learned_lits=20231",
        ]);
}

#[test]
fn solves_under_assumptions() {
    let mut rng = XorShift(0xa55_0e5);
    let mut s = Solver::new();
    let vars = new_vars(&mut s, 120);
    for i in 0..330 {
        let c = rng.clause(&vars, if i % 4 == 0 { 2 } else { 3 });
        s.add_clause(c);
    }
    let mut got = Vec::new();
    for _ in 0..12 {
        let assumptions = rng.clause(&vars, 6);
        let r = s.solve_with_assumptions(&assumptions);
        got.push(format!("{} core={:?}", summary(&s, r), core(&s)));
    }
    check(&got, &[
            "Unsat conflicts=1 decisions=0 propagations=15 restarts=0 deleted=0 learned_lits=2 core=[-106, 74]",
            "Sat conflicts=2 decisions=21 propagations=142 restarts=0 deleted=0 learned_lits=7 core=[]",
            "Sat conflicts=2 decisions=55 propagations=262 restarts=0 deleted=0 learned_lits=7 core=[]",
            "Sat conflicts=2 decisions=91 propagations=382 restarts=0 deleted=0 learned_lits=7 core=[]",
            "Unsat conflicts=4 decisions=92 propagations=458 restarts=0 deleted=0 learned_lits=15 core=[77, -113, 102, 22]",
            "Unsat conflicts=5 decisions=92 propagations=499 restarts=0 deleted=0 learned_lits=17 core=[6, 11]",
            "Sat conflicts=8 decisions=113 propagations=738 restarts=0 deleted=0 learned_lits=42 core=[]",
            "Sat conflicts=15 decisions=150 propagations=1000 restarts=0 deleted=0 learned_lits=73 core=[]",
            "Unsat conflicts=16 decisions=150 propagations=1075 restarts=0 deleted=0 learned_lits=75 core=[107, -33, 96, 102]",
            "Unsat conflicts=18 decisions=151 propagations=1174 restarts=0 deleted=0 learned_lits=86 core=[-6, -113, -49, -119]",
            "Sat conflicts=21 decisions=175 propagations=1344 restarts=0 deleted=0 learned_lits=101 core=[]",
            "Unsat conflicts=23 decisions=177 propagations=1408 restarts=0 deleted=0 learned_lits=109 core=[-94, 89, -62, -51]",
        ]);
}

#[test]
fn add_then_solve_incrementally() {
    let mut rng = XorShift(0x1ac_4e3e);
    let mut s = Solver::new();
    let vars = new_vars(&mut s, 160);
    let mut got = Vec::new();
    for _ in 0..12 {
        for _ in 0..60 {
            let c = rng.clause(&vars, 3);
            s.add_clause(c);
        }
        let r = s.solve();
        got.push(summary(&s, r));
        if r == SolveResult::Unsat {
            break;
        }
    }
    check(&got, &[
            "Sat conflicts=0 decisions=144 propagations=160 restarts=0 deleted=0 learned_lits=0",
            "Sat conflicts=0 decisions=277 propagations=320 restarts=0 deleted=0 learned_lits=0",
            "Sat conflicts=0 decisions=391 propagations=480 restarts=0 deleted=0 learned_lits=0",
            "Sat conflicts=0 decisions=486 propagations=640 restarts=0 deleted=0 learned_lits=0",
            "Sat conflicts=0 decisions=582 propagations=800 restarts=0 deleted=0 learned_lits=0",
            "Sat conflicts=0 decisions=660 propagations=960 restarts=0 deleted=0 learned_lits=0",
            "Sat conflicts=0 decisions=721 propagations=1120 restarts=0 deleted=0 learned_lits=0",
            "Sat conflicts=41 decisions=814 propagations=2501 restarts=0 deleted=0 learned_lits=457",
            "Sat conflicts=169 decisions=1014 propagations=7442 restarts=1 deleted=0 learned_lits=2070",
            "Sat conflicts=217 decisions=1129 propagations=9529 restarts=1 deleted=0 learned_lits=2560",
            "Unsat conflicts=2997 decisions=4464 propagations=105331 restarts=15 deleted=1685 learned_lits=24903",
        ]);
}
