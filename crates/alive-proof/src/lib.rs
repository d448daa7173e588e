//! Machine-checkable refinement certificates for the `alive-rs` stack.
//!
//! The verifier in this workspace answers "does the optimized instruction
//! sequence refine the original?" by bit-blasting the refinement conditions
//! of *Provably Correct Peephole Optimizations with Alive* (PLDI 2015) to
//! CNF and running a CDCL SAT solver. A `Valid` verdict therefore rests on
//! the solver being bug-free — an uncomfortable place for a tool whose whole
//! purpose is to remove trust from hand-reasoned compiler transforms.
//!
//! This crate removes the solver from the trusted base. The solver, when
//! asked (see `alive_sat::Solver::enable_proof_log`), emits a DRAT-style
//! transcript of its run: the original clauses, every clause it learned, and
//! every clause it deleted. For unsatisfiable formulas the transcript ends
//! with the empty clause and constitutes a *refutation proof* that this
//! crate re-checks from scratch:
//!
//! * [`checker`] implements reverse-unit-propagation (RUP) checking with its
//!   own clause store and its own two-watched-literal propagation — no code,
//!   no types, and no dependencies are shared with `alive-sat` (this crate
//!   deliberately has zero dependencies).
//! * [`certificate`] wraps a proof in a [`Certificate`]: metadata naming the
//!   transform, the concrete type assignment, and the refinement condition
//!   that was discharged, plus the CNF and the proof, with a text
//!   serialization that round-trips and detects truncation.
//!
//! The result: a `Valid` verdict can ship with a certificate, and accepting
//! the verdict requires trusting only this small checker (and the
//! bit-blaster's encoding), not the far larger search-optimized solver.
//!
//! # Example
//!
//! ```
//! use alive_proof::{check_refutation, Step};
//!
//! // (x ∨ y) ∧ (¬x ∨ y) ∧ (x ∨ ¬y) ∧ (¬x ∨ ¬y) is unsatisfiable.
//! let steps = vec![
//!     Step::Add(vec![1, 2]),
//!     Step::Add(vec![-1, 2]),
//!     Step::Add(vec![1, -2]),
//!     Step::Add(vec![-1, -2]),
//!     Step::Learn(vec![2]),
//!     Step::Learn(vec![]),
//! ];
//! assert!(check_refutation(2, &steps).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod certificate;
pub mod checker;

pub use certificate::{Certificate, CertificateMeta, ParseError};
pub use checker::{check_refutation, CheckError, CheckReport, Step};
