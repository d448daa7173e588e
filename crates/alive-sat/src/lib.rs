//! A CDCL SAT solver.
//!
//! This crate is the decision-procedure substrate of the `alive-rs`
//! reproduction of *Provably Correct Peephole Optimizations with Alive*
//! (PLDI 2015). The paper uses the Z3 SMT solver; since that is not
//! available here, the SMT stack is built from scratch, and this crate
//! provides the propositional core: a MiniSat-lineage conflict-driven
//! clause-learning solver with
//!
//! * clauses stored inline in one flat `u32` arena (header word, then the
//!   literals; activity and LBD in side vectors), compacted once deleted
//!   learnt clauses outweigh live ones,
//! * two-watched-literal unit propagation over values indexed by literal
//!   code, with binary clauses resolved from their watcher (tagged
//!   "binary" in the top bit of its clause reference) without reading the
//!   arena,
//! * first-UIP conflict analysis with recursive clause minimization, into
//!   buffers reused from conflict to conflict,
//! * VSIDS branching with phase saving,
//! * Luby-sequence restarts,
//! * activity-based learned-clause database reduction,
//! * incremental clause addition between `solve` calls,
//! * an optional DRAT-style proof log ([`Solver::enable_proof_log`]) whose
//!   refutations the `alive-proof` crate re-checks, and
//! * a resource governor ([`Budget`]/[`CancelToken`]) polled throughout the
//!   search loop, so deadlines, the conflict limit, and cooperative
//!   cancellation all degrade a solve to [`SolveResult::Unknown`] (with the
//!   cause in [`Solver::exhaustion`]) instead of running away.
//!
//! With the `fault-injection` feature the `fault` module adds
//! deterministic failure hooks used by resilience tests.
//!
//! # Examples
//!
//! ```
//! use alive_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! // (x | y) & (!x | y) & (x | !y)  =>  x = y = true
//! solver.add_clause([x.positive(), y.positive()]);
//! solver.add_clause([x.negative(), y.positive()]);
//! solver.add_clause([x.positive(), y.negative()]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.value(x), Some(true));
//! assert_eq!(solver.value(y), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod budget;
mod clause;
#[cfg(feature = "fault-injection")]
pub mod fault;
mod heap;
mod lit;
mod proof;
mod solver;

pub use budget::{Budget, CancelToken, Exhaustion};
pub use lit::{LBool, Lit, Var};
pub use proof::ProofEvent;
pub use solver::{SolveResult, Solver, SolverStats};

// Re-exported so callers can install a tracer without depending on
// `alive-trace` directly (mirrors how `Budget` travels with the solver).
pub use alive_trace::Tracer;
