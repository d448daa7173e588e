//! Property tests: the CDCL solver must agree with brute-force enumeration
//! on random small CNFs, and models it returns must satisfy the formula.

use alive_sat::{SolveResult, Solver, Var};
use proptest::prelude::*;

/// A CNF over `nvars` variables: clause literals are (var, sign) pairs.
type Cnf = Vec<Vec<(usize, bool)>>;

fn cnf_strategy(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = (usize, Cnf)> {
    (2..=max_vars).prop_flat_map(move |nvars| {
        let clause = proptest::collection::vec((0..nvars, any::<bool>()), 1..=4);
        let clauses = proptest::collection::vec(clause, 0..=max_clauses);
        (Just(nvars), clauses)
    })
}

fn brute_force_sat(nvars: usize, cnf: &Cnf) -> bool {
    for bits in 0u32..(1 << nvars) {
        let ok = cnf.iter().all(|clause| {
            clause
                .iter()
                .any(|&(v, sign)| ((bits >> v) & 1 == 1) == sign)
        });
        if ok {
            return true;
        }
    }
    false
}

fn run_solver(nvars: usize, cnf: &Cnf) -> (SolveResult, Option<Vec<bool>>) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
    for clause in cnf {
        s.add_clause(clause.iter().map(|&(v, sign)| vars[v].lit(sign)));
    }
    let r = s.solve();
    let model = (r == SolveResult::Sat)
        .then(|| vars.iter().map(|&v| s.value(v).unwrap_or(false)).collect());
    (r, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn agrees_with_brute_force((nvars, cnf) in cnf_strategy(8, 24)) {
        let expect = brute_force_sat(nvars, &cnf);
        let (got, model) = run_solver(nvars, &cnf);
        prop_assert_eq!(got, if expect { SolveResult::Sat } else { SolveResult::Unsat });
        if let Some(m) = model {
            for clause in &cnf {
                prop_assert!(clause.iter().any(|&(v, sign)| m[v] == sign),
                    "returned model does not satisfy clause {:?}", clause);
            }
        }
    }

    #[test]
    fn units_after_solve_agree_with_conditioned_formula(
        (nvars, cnf) in cnf_strategy(6, 16),
        unit_bits in any::<u8>(),
    ) {
        // Solve the formula, then fix the first two variables with units on
        // the same solver; each answer must match brute force on the CNF
        // conditioned so far.
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
        for clause in &cnf {
            s.add_clause(clause.iter().map(|&(v, sign)| vars[v].lit(sign)));
        }
        let expect = |cnf: &Cnf| {
            if brute_force_sat(nvars, cnf) { SolveResult::Sat } else { SolveResult::Unsat }
        };
        let mut conditioned = cnf.clone();
        prop_assert_eq!(s.solve(), expect(&conditioned));
        for (v, &var) in vars.iter().enumerate().take(2) {
            let sign = (unit_bits >> v) & 1 == 1;
            conditioned.push(vec![(v, sign)]);
            s.add_clause([var.lit(sign)]);
            prop_assert_eq!(s.solve(), expect(&conditioned));
        }
    }
}
