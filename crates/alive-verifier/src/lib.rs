//! The Alive refinement verifier.
//!
//! Given a parsed Alive transformation, this crate
//!
//! * enumerates feasible type assignments (via [`alive_typeck`]),
//! * encodes both templates (via [`alive_vcgen`]),
//! * discharges the four correctness conditions of the paper (§3.1.2 and
//!   §3.3.2) by refutation, handling the `∃∀` alternation from source
//!   `undef` values with CEGIS,
//! * produces Fig. 5-style [`Counterexample`]s for incorrect
//!   transformations, and
//! * infers optimal `nsw`/`nuw`/`exact` attribute placements (§3.4).
//!
//! # Examples
//!
//! ```
//! use alive_ir::parse_transform;
//! use alive_verifier::{verify, VerifyConfig};
//!
//! // The paper's (x+1) > x  ==>  true optimization, justified by nsw.
//! let t = parse_transform(r"
//! %1 = add nsw %x, 1
//! %2 = icmp sgt %1, %x
//! =>
//! %2 = true
//! ").unwrap();
//! let verdict = verify(&t, &VerifyConfig::fast()).unwrap();
//! assert!(verdict.is_valid());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attrs;
mod counterexample;
mod driver;
pub mod durable;
mod pool;
pub mod store;
mod verify;

pub use attrs::{infer_attributes, AttrInferenceResult, FlagPos};
pub use counterexample::{Counterexample, FailureKind};
pub use driver::{verify_single, Attempt, DriverConfig, OutcomeKind, RunReport, TransformOutcome};
pub use pool::{run_supervised, run_transforms_parallel, PoolConfig, TaskSpec};
pub use store::{
    compact_store, config_description, config_fingerprint, evicted_path, fingerprint_diff,
    lock_path, needs_compaction, plan_resume, quarantine_path, scrub_store, CompactReport,
    ResumePlan, ScrubReport, StoreLock, StoreOpen, StoreRecord, VerdictStore,
};
pub use verify::{
    verify, verify_with_certificates, PhaseTimes, UnknownReason, Verdict, VerifyConfig,
    VerifyError, VerifyStats,
};
