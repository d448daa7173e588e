//! Canonical metric names for the `alive serve` verdict cache.
//!
//! Counter, gauge, and sample names are plain strings throughout the
//! tracer, which makes typos silent: a dashboard watching `serve.hit`
//! never learns that the server started emitting `serve.hits`. Service
//! metrics — unlike the solver's, which live next to a single call site —
//! are emitted from several places (cache path, coalescing path, both
//! transports) and read back by the bench harness and the CI smoke job,
//! so their names are pinned here once and imported everywhere.
//!
//! ```
//! use alive_trace::{serve, StatsSink, Tracer};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(StatsSink::new());
//! let tracer = Tracer::new(Box::new(Arc::clone(&sink)));
//! tracer.counter(serve::HIT, 1);
//! assert_eq!(sink.snapshot().unwrap().counters[serve::HIT], 1);
//! ```

/// Counter: requests answered from the verdict store.
pub const HIT: &str = "serve.hit";

/// Counter: requests that fell through to a real verification.
pub const MISS: &str = "serve.miss";

/// Counter: requests that joined an in-flight verification of the same
/// canonical transform instead of starting a duplicate one.
pub const JOIN: &str = "serve.join";

/// Counter: requests rejected before verification (parse or validation
/// failure, malformed protocol line).
pub const ERROR: &str = "serve.error";

/// Gauge: verifications currently in flight.
pub const INFLIGHT: &str = "serve.inflight";

/// Sample (µs): end-to-end latency of cache hits.
pub const HIT_US: &str = "serve.hit_us";

/// Sample (µs): end-to-end latency of cache misses (includes the
/// verification itself).
pub const MISS_US: &str = "serve.miss_us";

/// Counter: requests refused with a `busy` response because the
/// verification queue was at `--queue-depth`.
pub const BUSY: &str = "serve.busy";

/// Counter: connections shed at accept because `--max-connections`
/// were already open.
pub const SHED: &str = "serve.shed";

/// Sample (ms): how long the drain phase of a graceful shutdown took
/// (accept stop → last connection closed or force-close).
pub const DRAIN_MS: &str = "serve.drain_ms";

/// Counter: connections closed for sending nothing within the idle
/// timeout (the slow-loris defense).
pub const IDLE_CLOSE: &str = "serve.idle_close";

/// Counter: corrupt store lines quarantined by `alive scrub` (and torn
/// tail lines truncated at store open).
pub const QUARANTINED: &str = "store.quarantined";

/// Span: one wire request, end to end; `arg` carries the request id
/// (client-supplied `id` or daemon-minted `rq-<n>`), so `alive stats
/// --request <rid>` can carve out a single request's subtree.
pub const REQUEST: &str = "serve.request";

/// Span: one verdict-store lookup (lock acquisition + hash-bucket
/// probe + full-text compare).
pub const LOOKUP: &str = "serve.lookup";

/// Span: canonicalizing one request's transform and hashing the
/// canonical text (the cache key every lookup needs).
pub const CANON: &str = "serve.canon";

/// Span: the wait a coalesced request spends joined to another
/// client's in-flight verification.
pub const COALESCE: &str = "serve.coalesce";

/// Sample (µs): end-to-end latency of coalesced joins.
pub const JOIN_US: &str = "serve.join_us";

/// Sample (µs): time a request waits before its verification starts
/// (leader) or its joined verdict arrives (follower).
pub const QUEUE_WAIT_US: &str = "serve.queue_wait_us";

/// Sample (µs): canonicalization + hashing time per request.
pub const CANON_US: &str = "serve.canon_us";

/// Sample (µs): verdict-store append time per miss.
pub const APPEND_US: &str = "serve.append_us";

/// Counter: misses whose verification exceeded the `--slow-ms`
/// threshold and were recorded in the slow-query log.
pub const SLOW: &str = "serve.slow";

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_distinct_and_prefixed() {
        let names = [
            super::HIT,
            super::MISS,
            super::JOIN,
            super::ERROR,
            super::INFLIGHT,
            super::HIT_US,
            super::MISS_US,
            super::BUSY,
            super::SHED,
            super::DRAIN_MS,
            super::IDLE_CLOSE,
            super::REQUEST,
            super::LOOKUP,
            super::CANON,
            super::COALESCE,
            super::JOIN_US,
            super::QUEUE_WAIT_US,
            super::CANON_US,
            super::APPEND_US,
            super::SLOW,
        ];
        for (i, a) in names.iter().enumerate() {
            assert!(a.starts_with("serve."), "{a}");
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // The scrub counter is store-scoped, not serve-scoped.
        assert!(super::QUARANTINED.starts_with("store."));
    }
}
