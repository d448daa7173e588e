//! Cross-validation: transcripts produced by the real CDCL solver must be
//! accepted by the independent checker, and mutations of them rejected.
//!
//! These tests are the contract between `alive-sat`'s proof logging and
//! `alive-proof`'s checking: every Unsat answer the solver gives must come
//! with a transcript the checker accepts.

use alive_proof::{check_refutation, CheckError, Step};
use alive_sat::{Lit, ProofEvent, SolveResult, Solver, Var};

/// Converts a solver transcript into checker steps.
fn to_steps(events: &[ProofEvent]) -> Vec<Step> {
    events
        .iter()
        .map(|e| match e {
            ProofEvent::Original(c) => Step::Add(c.clone()),
            ProofEvent::Learned(c) => Step::Learn(c.clone()),
            ProofEvent::Deleted(c) => Step::Delete(c.clone()),
        })
        .collect()
}

/// Builds a solver with its proof log on.
fn logging_solver() -> Solver {
    let mut solver = Solver::new();
    solver.enable_proof_log();
    solver
}

/// Encodes the pigeonhole principle PHP(n+1, n) — always unsatisfiable.
fn pigeonhole(solver: &mut Solver, pigeons: usize, holes: usize) {
    let vars: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| solver.new_var()).collect())
        .collect();
    for row in &vars {
        solver.add_clause(row.iter().map(|v| v.positive()));
    }
    for i in 0..pigeons {
        for k in (i + 1)..pigeons {
            for (a, b) in vars[i].iter().zip(&vars[k]) {
                solver.add_clause([a.negative(), b.negative()]);
            }
        }
    }
}

#[test]
fn pigeonhole_transcripts_check() {
    for n in 2..=5 {
        let mut solver = logging_solver();
        pigeonhole(&mut solver, n + 1, n);
        assert_eq!(solver.solve(), SolveResult::Unsat, "php({}, {n})", n + 1);
        let steps = to_steps(solver.proof());
        let num_vars = solver.num_vars();
        let report = check_refutation(num_vars, &steps)
            .unwrap_or_else(|e| panic!("php({}, {n}) transcript rejected: {e}", n + 1));
        assert!(report.learned_checked >= 1);
    }
}

#[test]
fn transcript_across_clause_db_reductions_checks() {
    // PHP(8, 7) takes thousands of conflicts, enough for several
    // learned-clause reductions and arena compactions: the transcript's
    // deletions must name exactly the clauses the solver dropped.
    let mut solver = logging_solver();
    pigeonhole(&mut solver, 8, 7);
    assert_eq!(solver.solve(), SolveResult::Unsat);
    assert!(solver.stats().deleted_clauses > 0, "no clause was deleted");
    let steps = to_steps(solver.proof());
    assert!(steps.iter().any(|s| matches!(s, Step::Delete(_))));
    let report = check_refutation(solver.num_vars(), &steps)
        .unwrap_or_else(|e| panic!("php(8, 7) transcript rejected: {e}"));
    assert!(report.learned_checked >= 1000);
}

/// A deterministic xorshift generator, so the random-CNF sweep needs no
/// external crates and reproduces exactly.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn random_unsat_cnf_transcripts_check() {
    // Random 3-CNF at clause/variable ratio ~5.2 is almost always unsat;
    // check every instance the solver refutes.
    let mut rng = XorShift(0x5eed_cafe_f00d_1234);
    let mut refuted = 0;
    for _ in 0..40 {
        let num_vars = 12 + rng.below(8) as usize;
        let num_clauses = num_vars * 26 / 5;
        let mut solver = logging_solver();
        let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
        for _ in 0..num_clauses {
            let mut clause = Vec::with_capacity(3);
            for _ in 0..3 {
                let v = vars[rng.below(num_vars as u64) as usize];
                clause.push(v.lit(rng.below(2) == 0));
            }
            if !solver.add_clause(clause) {
                break;
            }
        }
        match solver.solve() {
            SolveResult::Unsat => {
                refuted += 1;
                let steps = to_steps(solver.proof());
                check_refutation(num_vars, &steps)
                    .unwrap_or_else(|e| panic!("random transcript rejected: {e}"));
            }
            SolveResult::Sat => {
                assert!(!solver.proof().iter().any(ProofEvent::is_refutation));
            }
            SolveResult::Unknown => unreachable!("no budget configured"),
        }
    }
    assert!(refuted >= 10, "only {refuted} unsat instances; weak test");
}

#[test]
fn incremental_transcripts_check() {
    // Clauses added between solve calls land in the same transcript, and
    // the final refutation covers the accumulated formula.
    let mut solver = logging_solver();
    let a = solver.new_var();
    let b = solver.new_var();
    let c = solver.new_var();
    solver.add_clause([a.positive(), b.positive()]);
    solver.add_clause([a.negative(), c.positive()]);
    assert_eq!(solver.solve(), SolveResult::Sat);
    solver.add_clause([b.negative()]);
    assert_eq!(solver.solve(), SolveResult::Sat);
    solver.add_clause([c.negative()]);
    assert_eq!(solver.solve(), SolveResult::Unsat);
    let steps = to_steps(solver.proof());
    assert!(check_refutation(solver.num_vars(), &steps).is_ok());
}

#[test]
fn mutated_solver_transcripts_are_rejected() {
    let mut solver = logging_solver();
    pigeonhole(&mut solver, 5, 4);
    assert_eq!(solver.solve(), SolveResult::Unsat);
    let steps = to_steps(solver.proof());
    let num_vars = solver.num_vars();
    assert!(check_refutation(num_vars, &steps).is_ok());

    // Removing the final empty clause always leaves no refutation.
    let mut no_refutation = steps.clone();
    let last_learn = no_refutation
        .iter()
        .rposition(|s| matches!(s, Step::Learn(c) if c.is_empty()))
        .expect("refutation present");
    no_refutation.remove(last_learn);
    assert_eq!(
        check_refutation(num_vars, &no_refutation),
        Err(CheckError::NoRefutation)
    );

    // Flipping a literal of learned clauses must be caught for at least
    // some (in practice almost all) positions: either the flipped clause
    // stops being RUP, or a later step stops checking.
    let learned_positions: Vec<usize> = steps
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Step::Learn(c) if !c.is_empty()))
        .map(|(i, _)| i)
        .collect();
    assert!(!learned_positions.is_empty());
    let mut rejected = 0;
    for &pos in &learned_positions {
        let mut mutated = steps.clone();
        if let Step::Learn(c) = &mut mutated[pos] {
            c[0] = -c[0];
        }
        if check_refutation(num_vars, &mutated).is_err() {
            rejected += 1;
        }
    }
    assert!(
        rejected * 2 > learned_positions.len(),
        "only {rejected}/{} flipped-literal mutants rejected",
        learned_positions.len()
    );

    // Dropping an axiom must be caught for at least some axioms.
    let axiom_positions: Vec<usize> = steps
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Step::Add(_)))
        .map(|(i, _)| i)
        .collect();
    let mut rejected = 0;
    for &pos in &axiom_positions {
        let mut mutated = steps.clone();
        mutated.remove(pos);
        if check_refutation(num_vars, &mutated).is_err() {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "dropping axioms never rejected");
}

#[test]
fn deletion_heavy_transcripts_check() {
    // Force clause-database reductions so Deleted events appear, then make
    // the formula unsat and validate the full transcript.
    let mut rng = XorShift(0xdead_beef_0bad_cafe);
    let mut solver = logging_solver();
    let num_vars = 60;
    let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
    // A hard-ish satisfiable portion to generate learning and reduction…
    for _ in 0..num_vars * 4 {
        let mut clause = Vec::with_capacity(3);
        for _ in 0..3 {
            let v = vars[rng.below(num_vars as u64) as usize];
            clause.push(v.lit(rng.below(2) == 0));
        }
        if !solver.add_clause(clause) {
            break;
        }
    }
    let first = solver.solve();
    // …then pin every variable false, which contradicts some clause.
    if first != SolveResult::Unsat {
        for v in &vars {
            if !solver.add_clause([v.negative()]) {
                break;
            }
        }
    }
    assert_eq!(solver.solve(), SolveResult::Unsat);
    let steps = to_steps(solver.proof());
    assert!(check_refutation(num_vars, &steps).is_ok());
}

#[test]
fn binary_heavy_transcripts_check() {
    // Bit-blasted circuits are mostly binary clauses, and the solver
    // propagates a binary clause without reordering it, so the implied
    // literal of a binary reason may sit in either slot. Random 3-CNFs over
    // equivalence chains (each variable four copies, six binary clauses)
    // keep more than half the clauses binary and still need learning.
    let mut rng = XorShift(0xb1_4a27_5eed_0001);
    let (mut refuted, mut satisfied) = (0, 0);
    for _ in 0..40 {
        let n = 20 + rng.below(16) as usize;
        let mut solver = logging_solver();
        let chains: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..4).map(|_| solver.new_var()).collect())
            .collect();
        let mut cnf: Vec<Vec<Lit>> = Vec::new();
        for chain in &chains {
            for w in chain.windows(2) {
                cnf.push(vec![w[0].negative(), w[1].positive()]);
                cnf.push(vec![w[0].positive(), w[1].negative()]);
            }
        }
        for _ in 0..n * 43 / 10 {
            let clause = (0..3)
                .map(|_| {
                    let chain = &chains[rng.below(n as u64) as usize];
                    chain[rng.below(4) as usize].lit(rng.below(2) == 0)
                })
                .collect();
            cnf.push(clause);
        }
        assert!(2 * cnf.iter().filter(|c| c.len() == 2).count() >= cnf.len());
        for clause in &cnf {
            if !solver.add_clause(clause.iter().copied()) {
                break;
            }
        }
        match solver.solve() {
            SolveResult::Unsat => {
                refuted += 1;
                let steps = to_steps(solver.proof());
                check_refutation(solver.num_vars(), &steps)
                    .unwrap_or_else(|e| panic!("binary-heavy transcript rejected: {e}"));
            }
            SolveResult::Sat => {
                satisfied += 1;
                for clause in &cnf {
                    assert!(
                        clause.iter().any(|&l| solver.lit_model(l)),
                        "model falsifies {clause:?}"
                    );
                }
            }
            SolveResult::Unknown => unreachable!("no budget configured"),
        }
    }
    assert!(
        refuted >= 10 && satisfied >= 10,
        "{refuted} unsat and {satisfied} sat instances; weak test"
    );
}
