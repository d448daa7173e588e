//! Budget (conflicts, deadline, cancellation) and statistics behavior.

use alive_sat::{Budget, CancelToken, Exhaustion, SolveResult, Solver, Var};
use proptest::prelude::*;
use std::time::Duration;

/// A hard random-ish 3-SAT-style instance the solver cannot finish within
/// a one-conflict budget.
fn hard_instance(s: &mut Solver, n: usize) -> Vec<Var> {
    let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
    // Pigeonhole: n pigeons, n-1 holes encoded positionally.
    let holes = n - 1;
    let mut p = vec![vec![Var::from_index(0); holes]; n];
    for row in p.iter_mut() {
        for slot in row.iter_mut() {
            *slot = s.new_var();
        }
    }
    for row in &p {
        s.add_clause(row.iter().map(|v| v.positive()));
    }
    for i in 0..n {
        for k in (i + 1)..n {
            for (a, b) in p[i].iter().zip(&p[k]) {
                s.add_clause([a.negative(), b.negative()]);
            }
        }
    }
    vars
}

#[test]
fn budget_exhaustion_returns_unknown() {
    let mut s = Solver::new();
    let _ = hard_instance(&mut s, 8);
    s.set_budget(Budget::default().with_conflicts(1));
    assert_eq!(s.solve(), SolveResult::Unknown);
    // Removing the budget lets the solver finish (unsat).
    s.set_budget(Budget::default());
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn stats_accumulate() {
    let mut s = Solver::new();
    let _ = hard_instance(&mut s, 7);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let st = s.stats();
    assert!(st.conflicts > 0);
    assert!(st.decisions > 0);
    assert!(st.propagations > 0);
}

/// A long implication chain: once seeded with a unit on its first variable,
/// solved by propagation alone, without a single conflict or decision.
fn propagation_chain(s: &mut Solver, n: usize) -> Vec<Var> {
    let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
    for w in vars.windows(2) {
        s.add_clause([w[0].negative(), w[1].positive()]);
    }
    vars
}

#[test]
fn expired_deadline_preempts_search() {
    let mut s = Solver::new();
    let _ = hard_instance(&mut s, 8);
    s.set_budget(Budget::default().deadline_in(Duration::ZERO));
    assert_eq!(s.solve(), SolveResult::Unknown);
    assert_eq!(s.exhaustion(), Some(Exhaustion::Deadline));
    s.set_budget(Budget::default());
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn cancellation_yields_unknown_and_solver_stays_usable() {
    let token = CancelToken::new();
    let mut s = Solver::new();
    let _ = hard_instance(&mut s, 8);
    s.set_budget(Budget::default().with_cancel(token.clone()));
    token.cancel();
    assert_eq!(s.solve(), SolveResult::Unknown);
    assert_eq!(s.exhaustion(), Some(Exhaustion::Cancelled));
    // A fresh budget clears the cancellation; the instance still decides.
    s.set_budget(Budget::default());
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn raising_the_budget_after_unknown_gives_correct_answers() {
    // Unsat side: pigeonhole exhausts a one-conflict budget, then a raised
    // budget resolves the very same instance.
    let mut s = Solver::new();
    let _ = hard_instance(&mut s, 8);
    s.set_budget(Budget::default().with_conflicts(1));
    assert_eq!(s.solve(), SolveResult::Unknown);
    assert_eq!(s.exhaustion(), Some(Exhaustion::Conflicts));
    s.set_budget(Budget::default().with_conflicts(1_000_000));
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert_eq!(s.exhaustion(), None);

    // Sat side: a conflict-free chain stopped by an expired deadline,
    // retried under a fresh budget on the same solver instance.
    let mut s = Solver::new();
    let vars = propagation_chain(&mut s, 3000);
    s.add_clause([vars[0].positive()]);
    s.set_budget(Budget::default().deadline_in(Duration::ZERO));
    assert_eq!(s.solve(), SolveResult::Unknown);
    assert_eq!(s.exhaustion(), Some(Exhaustion::Deadline));
    s.set_budget(Budget::default().with_conflicts(1_000_000));
    assert_eq!(s.solve(), SolveResult::Sat);
    for v in &vars {
        assert_eq!(s.value(*v), Some(true));
    }
}

#[test]
fn solver_is_reusable_after_unknown() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause([a.positive(), b.positive()]);
    s.set_budget(Budget::default().with_conflicts(0));
    // Trivial formula may still solve without conflicts; force budget off
    // afterwards and confirm correctness either way.
    let first = s.solve();
    s.set_budget(Budget::default());
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(matches!(first, SolveResult::Sat | SolveResult::Unknown));
}

// ---------------------------------------------------------------------------
// Property tests: Budget arithmetic and CancelToken visibility. These pin
// the invariants the supervised driver leans on — a watchdog that re-arms
// deadlines per attempt and escalates budgets across retries must never be
// able to build a Budget that panics, silently drops a limit, or misses a
// cancellation raised from another thread.
// ---------------------------------------------------------------------------

proptest! {
    /// `deadline_in` saturates instead of panicking: absurd timeouts
    /// (beyond what `Instant` can represent) degrade to "no deadline",
    /// which only ever makes the budget *more* permissive — the safe
    /// direction for a limit that exists to stop runaway queries.
    #[test]
    fn deadline_in_never_panics_and_saturates(secs in 0u64..=u64::MAX) {
        let b = Budget::default().deadline_in(Duration::from_secs(secs));
        if let Some(d) = b.deadline {
            // A representable deadline is never in the past at build time
            // (modulo the zero-timeout case, where "now" already passed).
            if secs > 0 {
                prop_assert!(d > std::time::Instant::now() - Duration::from_secs(1));
            }
        } else {
            // Saturation: only huge timeouts may lose the deadline, and an
            // hour is comfortably representable on every platform.
            prop_assert!(secs > 3600, "a {secs}s deadline must be representable");
        }
        // Saturated or not, a far-future deadline never trips the soft check.
        if secs > 3600 {
            prop_assert_ne!(b.check_soft(), Some(Exhaustion::Deadline));
        }
    }

    /// Builder composition: each setter touches exactly its own field,
    /// order is irrelevant, and the last write to a field wins.
    #[test]
    fn limit_composition_is_order_independent(
        conflicts in proptest::option::of(0u64..1_000_000),
        deadline in any::<bool>(),
        cancel in any::<bool>(),
        overwrite in proptest::option::of(0u64..1_000_000),
        order in 0usize..6,
    ) {
        let apply = |mut b: Budget, which: usize| -> Budget {
            match which {
                0 => {
                    if let Some(n) = conflicts {
                        b = b.with_conflicts(n);
                    }
                    b
                }
                1 => {
                    if deadline {
                        b = b.deadline_in(Duration::from_secs(3600));
                    }
                    b
                }
                _ => {
                    if cancel {
                        b = b.with_cancel(CancelToken::new());
                    }
                    b
                }
            }
        };
        let orders = [
            [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
        ];
        let mut b = Budget::default();
        for &step in &orders[order] {
            b = apply(b, step);
        }
        prop_assert_eq!(b.conflicts, conflicts);
        prop_assert_eq!(b.deadline.is_some(), deadline);
        prop_assert_eq!(b.cancel.is_some(), cancel);
        // Re-applying a setter replaces the old limit wholesale (the
        // driver's retry escalation depends on this, not on min/max).
        if let Some(n) = overwrite {
            let b2 = b.clone().with_conflicts(n);
            prop_assert_eq!(b2.conflicts, Some(n));
            prop_assert_eq!(b2.deadline, b.deadline);
            prop_assert_eq!(b2.cancel.is_some(), cancel);
        }
        // The conflict limit never trips the soft check — it is the
        // solver's job; check_soft covers only cancel and deadline.
        prop_assert_eq!(b.check_soft(), None);
    }

    /// A cancellation raised on one thread is visible through every clone
    /// of the token on another thread, with no polling deadline to miss:
    /// the flip happens-before the join, so one check suffices.
    #[test]
    fn cancel_token_is_visible_across_threads(clones in 1usize..8) {
        let token = CancelToken::new();
        let budgets: Vec<Budget> = (0..clones)
            .map(|_| Budget::default().with_cancel(token.clone()))
            .collect();
        for b in &budgets {
            prop_assert_eq!(b.check_soft(), None);
        }
        let t = token.clone();
        std::thread::spawn(move || t.cancel())
            .join()
            .expect("cancelling thread panicked");
        prop_assert!(token.is_cancelled());
        for b in &budgets {
            prop_assert_eq!(b.check_soft(), Some(Exhaustion::Cancelled));
        }
    }

    /// Cancellation outranks an expired deadline whenever both apply, and
    /// clearing the budget clears both — the retry loop builds a fresh
    /// Budget per attempt and must start clean.
    #[test]
    fn cancellation_outranks_deadline_under_composition(
        conflicts in proptest::option::of(1u64..1000),
    ) {
        let token = CancelToken::new();
        let mut b = Budget::default()
            .deadline_in(Duration::ZERO)
            .with_cancel(token.clone());
        if let Some(n) = conflicts {
            b = b.with_conflicts(n);
        }
        prop_assert_eq!(b.check_soft(), Some(Exhaustion::Deadline));
        token.cancel();
        prop_assert_eq!(b.check_soft(), Some(Exhaustion::Cancelled));
        prop_assert_eq!(Budget::default().check_soft(), None);
    }
}
