//! Resource governance for the solver stack.
//!
//! A [`Budget`] bundles every resource limit a long-running query can be
//! held to: a wall-clock deadline, a conflict counter, and a cooperative
//! [`CancelToken`]. One budget value is shared
//! across a whole verification query — the deadline is an *absolute*
//! instant, so cloning the budget into several SAT calls (as the CEGIS loop
//! does) still enforces a single overall time limit rather than restarting
//! the clock per call.
//!
//! The CDCL search loop, the bit-blaster, and the CEGIS driver all poll the
//! budget; when it trips they report *why* via [`Exhaustion`].

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag shared between a driver and its solvers.
///
/// Cloning the token shares the underlying flag: cancelling any clone
/// cancels them all. Cancellation is observed at the solver's next budget
/// poll (a few thousand propagations at most), never mid-assignment, so a
/// cancelled solver is left in a reusable state.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; safe to call from any thread (and from
    /// a signal-watcher thread).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has [`CancelToken::cancel`] been called on any clone?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a solve gave up without an answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Exhaustion {
    /// The wall-clock deadline passed.
    Deadline,
    /// The conflict budget was spent.
    Conflicts,
    /// The [`CancelToken`] was raised.
    Cancelled,
    /// A deterministic fault-injection hook forced the answer (only ever
    /// produced by builds with the `fault-injection` feature).
    Injected,
}

impl fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Exhaustion::Deadline => "wall-clock deadline exceeded",
            Exhaustion::Conflicts => "conflict budget exhausted",
            Exhaustion::Cancelled => "cancelled",
            Exhaustion::Injected => "injected fault",
        })
    }
}

/// A resource budget for one query (or one family of related queries).
///
/// The default budget is unlimited. The `conflicts` limit applies per
/// solve call; `deadline` and `cancel` are absolute and therefore shared
/// by every call holding a clone of the budget.
///
/// # Examples
///
/// ```
/// use alive_sat::{Budget, CancelToken};
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// let b = Budget::default()
///     .deadline_in(Duration::from_secs(5))
///     .with_conflicts(100_000)
///     .with_cancel(token.clone());
/// assert!(b.check_soft().is_none());
/// token.cancel();
/// assert!(b.check_soft().is_some());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Maximum conflicts per solve call.
    pub conflicts: Option<u64>,
    /// Cooperative cancellation flag.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// Sets the deadline to `timeout` from now.
    #[must_use]
    pub fn deadline_in(mut self, timeout: Duration) -> Budget {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Sets the per-call conflict limit.
    #[must_use]
    pub fn with_conflicts(mut self, n: u64) -> Budget {
        self.conflicts = Some(n);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Checks the limits that do not need solver counters: cancellation
    /// first (it is the cheaper read and the more urgent signal), then the
    /// deadline. The conflict limit is the solver's job.
    pub fn check_soft(&self) -> Option<Exhaustion> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(Exhaustion::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Exhaustion::Deadline);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = Budget::default();
        assert!(b.deadline.is_none() && b.conflicts.is_none() && b.cancel.is_none());
        assert_eq!(b.check_soft(), None);
    }

    #[test]
    fn expired_deadline_trips_soft_check() {
        let b = Budget::default().deadline_in(Duration::ZERO);
        assert_eq!(b.check_soft(), Some(Exhaustion::Deadline));
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let token = CancelToken::new();
        let b = Budget::default().with_cancel(token.clone());
        let b2 = b.clone();
        assert_eq!(b2.check_soft(), None);
        token.cancel();
        assert_eq!(b.check_soft(), Some(Exhaustion::Cancelled));
        assert_eq!(b2.check_soft(), Some(Exhaustion::Cancelled));
    }

    #[test]
    fn cancellation_outranks_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let b = Budget::default()
            .deadline_in(Duration::ZERO)
            .with_cancel(token);
        assert_eq!(b.check_soft(), Some(Exhaustion::Cancelled));
    }
}
