//! Deterministic fault injection for resilience testing.
//!
//! Compiled only with the `fault-injection` cargo feature. A process-wide
//! [`FailurePlan`] lists faults to fire at the Nth operation reaching a
//! given [`FaultSite`]; each site's hook calls [`fire`] and acts on the
//! returned [`FaultKind`]. Counters are plain atomics, so a plan is exactly
//! reproducible for a fixed workload — the integration tests rely on this
//! to prove the verification driver survives panics, hangs, forced
//! Unknowns, and corrupted models without lying about any healthy query,
//! and the torture sweeps rely on it to crash the process at every
//! durable operation in turn.
//!
//! Plans are written `site:kind@n` (1-based), comma-separated:
//! `sat:panic@3,durable:abort@7`. The CLI reads one from `ALIVE_FAULT`.
//! Sites:
//!
//! * `sat` — every `Solver::solve`, so every `SmtSolver::check` that
//!   reaches the SAT solver;
//! * `durable` — every operation of `alive-verifier`'s durable-I/O seam
//!   (`create`, `append`, `sync`, `truncate`, `rename`, `fsync_parent`),
//!   whichever file it writes;
//! * `serve` — every daemon verify/batch request.
//!
//! Kinds are `unknown`, `panic`, `hang`, `hang-hard` and `corrupt-model`
//! (meaningful at `sat`), `abort` (at `durable`), and `io-error` and
//! `torn` (at `durable` and `serve`). At `durable`, `io-error` fails the
//! operation without performing it and `torn` lands half an append's
//! bytes, then kills the process (any other operation just dies). At
//! `serve`, `io-error` fails the response write and `torn` lands a
//! partial response line, then fails the write. A kind is inert at a site
//! it has no meaning for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What the injected fault does at its trigger point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Return `Unknown` as if a resource limit had tripped.
    ForceUnknown,
    /// Panic, exercising the caller's isolation boundary.
    Panic,
    /// Spin until the active budget's deadline or cancellation fires,
    /// simulating a query that would never terminate on its own.
    Hang,
    /// Spin forever, ignoring the budget *and* the cancel token — a query
    /// whose thread can only be abandoned. Exercises the supervised
    /// driver's watchdog detach path; in sequential runs this fault hangs
    /// the process (that is the point).
    HangHard,
    /// Solve normally, then flip every model value of a `Sat` answer,
    /// exercising the verifier's concrete model re-validation.
    CorruptModel,
    /// Fail an I/O operation cleanly (nothing written), simulating a full
    /// disk or a failed fsync on a durable operation, or a broken pipe on
    /// a response write.
    IoError,
    /// Complete an I/O operation *partially*: half an append lands and the
    /// process dies (the torn write `kill -9` mid-`write` leaves), or a
    /// partial response line goes out and the write fails.
    TornWrite,
    /// Kill the process before the durable operation performs — the power
    /// cut at that exact durability boundary.
    Abort,
}

/// Which hook's operation counter a fault is keyed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// `alive-sat`: one count per `solve` call.
    Sat,
    /// `alive-verifier::durable`: one count per durable operation.
    Durable,
    /// `alive-serve`: one count per daemon `verify`/`batch` request.
    Serve,
}

/// One scheduled fault: fire `kind` at the `at`-th (1-based) operation
/// reaching `site`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fault {
    /// The hook the fault is keyed to.
    pub site: FaultSite,
    /// The behavior to inject.
    pub kind: FaultKind,
    /// 1-based operation ordinal at `site`.
    pub at: u64,
}

/// A deterministic schedule of faults for one run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FailurePlan {
    /// The scheduled faults. Multiple faults may target the same site.
    pub faults: Vec<Fault>,
}

impl FailurePlan {
    /// Parses a comma-separated `site:kind@n` spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed specs.
    pub fn parse(spec: &str) -> Result<FailurePlan, String> {
        let mut faults = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (site_s, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("fault '{part}': expected site:kind@n"))?;
            let (kind_s, at_s) = rest
                .split_once('@')
                .ok_or_else(|| format!("fault '{part}': expected site:kind@n"))?;
            let site = match site_s {
                "sat" => FaultSite::Sat,
                "durable" => FaultSite::Durable,
                "serve" => FaultSite::Serve,
                other => return Err(format!("fault '{part}': unknown site '{other}'")),
            };
            let kind = match kind_s {
                "unknown" => FaultKind::ForceUnknown,
                "panic" => FaultKind::Panic,
                "hang" => FaultKind::Hang,
                "hang-hard" => FaultKind::HangHard,
                "corrupt-model" => FaultKind::CorruptModel,
                "io-error" => FaultKind::IoError,
                "torn" => FaultKind::TornWrite,
                "abort" => FaultKind::Abort,
                other => return Err(format!("fault '{part}': unknown kind '{other}'")),
            };
            let at: u64 = at_s
                .parse()
                .map_err(|_| format!("fault '{part}': bad ordinal '{at_s}'"))?;
            if at == 0 {
                return Err(format!("fault '{part}': ordinals are 1-based"));
            }
            faults.push(Fault { site, kind, at });
        }
        if faults.is_empty() {
            return Err("empty fault plan".to_string());
        }
        Ok(FailurePlan { faults })
    }
}

static PLAN: Mutex<Option<FailurePlan>> = Mutex::new(None);
/// One operation counter per [`FaultSite`], indexed by the site.
static COUNTS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Installs a plan (or clears it with `None`) and resets every site's
/// counter. The plan is process-global; concurrent tests sharing one
/// process must serialize around it.
pub fn install(plan: Option<FailurePlan>) {
    let mut slot = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    rearm();
    *slot = plan;
}

/// Resets every site's counter, keeping the installed plan, so its faults
/// fire again from the first operation.
pub fn rearm() {
    for count in &COUNTS {
        count.store(0, Ordering::SeqCst);
    }
}

/// Counts one operation at `site` and returns the fault scheduled for
/// that ordinal, if any. Called by each site's hook; cheap when no plan
/// is installed beyond one mutex lock per operation.
pub fn fire(site: FaultSite) -> Option<FaultKind> {
    let slot = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let plan = slot.as_ref()?;
    let ordinal = COUNTS[site as usize].fetch_add(1, Ordering::SeqCst) + 1;
    plan.faults
        .iter()
        .find(|f| f.site == site && f.at == ordinal)
        .map(|f| f.kind)
}

/// Number of operations counted at `site` since the last [`install`].
pub fn queries_seen(site: FaultSite) -> u64 {
    COUNTS[site as usize].load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_sites_and_kinds_parse() {
        let plan =
            FailurePlan::parse("durable:io-error@1,durable:torn@2,durable:abort@4,serve:hang@3")
                .unwrap();
        assert_eq!(
            plan.faults,
            vec![
                Fault {
                    site: FaultSite::Durable,
                    kind: FaultKind::IoError,
                    at: 1
                },
                Fault {
                    site: FaultSite::Durable,
                    kind: FaultKind::TornWrite,
                    at: 2
                },
                Fault {
                    site: FaultSite::Durable,
                    kind: FaultKind::Abort,
                    at: 4
                },
                Fault {
                    site: FaultSite::Serve,
                    kind: FaultKind::Hang,
                    at: 3
                },
            ]
        );
    }

    #[test]
    fn plan_parsing_round_trips() {
        let plan = FailurePlan::parse("sat:panic@3, sat:corrupt-model@1,sat:hang@9").unwrap();
        assert_eq!(
            plan.faults,
            vec![
                Fault {
                    site: FaultSite::Sat,
                    kind: FaultKind::Panic,
                    at: 3
                },
                Fault {
                    site: FaultSite::Sat,
                    kind: FaultKind::CorruptModel,
                    at: 1
                },
                Fault {
                    site: FaultSite::Sat,
                    kind: FaultKind::Hang,
                    at: 9
                },
            ]
        );
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "",
            "panic@3",
            "sat:panic",
            "sat:oops@1",
            "sat:panic@0",
            "disk:panic@1",
            "smt:panic@1",
            "store:io-error@1",
            "durable:sync-fail@1",
        ] {
            assert!(FailurePlan::parse(bad).is_err(), "{bad}");
        }
    }
}
