//! Grammar-aware fuzzing and paranoid self-checking for the Alive toolchain.
//!
//! This crate turns the verifier on itself:
//!
//! * [`gen`] — a seeded generator of well-typed random transforms;
//! * [`mod@lower`] — lowering of a typed transform to the mini-LLVM IR so the
//!   concrete interpreter can execute it;
//! * [`oracle`] — the paranoid differential oracle: SAT counterexamples
//!   replayed concretely, UNSAT answers re-checked against their
//!   refutation certificates, and small-width verdicts cross-checked by
//!   brute-force enumeration;
//! * [`mod@minimize`] — a delta-debugging minimizer that shrinks a failing
//!   transform while preserving its failure signature;
//! * [`corpus`] — a crash corpus with failure-signature dedup;
//! * [`fuzz`] — the driver tying it all together (`alive fuzz`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod fuzz;
pub mod gen;
pub mod lower;
pub mod minimize;
pub mod oracle;

pub use corpus::{Corpus, FailureClass, Signature};
pub use fuzz::{replay_corpus, run_fuzz, FailureCase, FuzzConfig, FuzzReport};
pub use gen::{case_seed, gen_case, gen_transform, GenConfig};
pub use lower::{lower, LowerError, Lowered};
pub use minimize::{minimize, MinimizeStats};
pub use oracle::{paranoid_audit, AuditResult, OracleConfig};
