//! Windowed, lock-cheap latency telemetry for the serve daemon.
//!
//! The daemon records one `u64` microsecond sample per request outcome
//! (hit, miss, join, ...) into a [`Windowed`] series: an atomic log2
//! histogram for lifetime percentiles plus a fixed ring of time slots
//! for sliding-window rates. Recording is a handful of relaxed atomic
//! adds — no locks, no allocation — so it stays on even when tracing
//! is off.
//!
//! Windows work by slot rotation: time is divided into `slot_ms`-wide
//! slots, each mapping onto `ring[slot_index % SLOTS]`. A slot tags
//! itself with the slot index it currently holds; the first recorder
//! to arrive in a new slot index CAS-claims the slot and zeroes it.
//! A snapshot sums only slots whose tag falls inside the window, so
//! old traffic ages out one slot at a time. Under rotation a racing
//! recorder can land a sample in a slot mid-reset — windowed counts
//! are operator telemetry, approximate by design; lifetime counts are
//! exact.
//!
//! All clock plumbing takes an explicit `now_ms` so tests drive the
//! window deterministically ([`Telemetry`] owns the real clock).

use crate::hist::{quantile_over, Histogram, NUM_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Slots per sliding window.
pub const SLOTS: usize = 6;

/// Default slot width: 10 s × 6 slots = a one-minute window.
pub const DEFAULT_SLOT_MS: u64 = 10_000;

/// One ring slot: a sample count tagged with the slot index it holds.
#[derive(Debug)]
struct Slot {
    /// Which absolute slot index (`now_ms / slot_ms`) this slot's count
    /// belongs to. A stale tag means the slot has aged out of the window.
    tag: AtomicU64,
    count: AtomicU64,
}

/// One latency series: lifetime log2 histogram + sliding-window ring.
#[derive(Debug)]
pub struct Windowed {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    ring: [Slot; SLOTS],
    slot_ms: u64,
}

/// Point-in-time summary of one [`Windowed`] series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Lifetime sample count.
    pub count: u64,
    /// Lifetime mean, microseconds (0 when empty).
    pub mean_us: u64,
    /// Lifetime p50 upper bound, microseconds.
    pub p50_us: u64,
    /// Lifetime p90 upper bound, microseconds.
    pub p90_us: u64,
    /// Lifetime p99 upper bound, microseconds.
    pub p99_us: u64,
    /// Lifetime maximum, microseconds.
    pub max_us: u64,
    /// Samples inside the sliding window.
    pub window_count: u64,
    /// Window rate in milli-events per second (`window_count` scaled by
    /// the window span, ×1000 so low rates survive integer rendering).
    pub rate_x1000: u64,
}

impl Windowed {
    /// An empty series whose window spans `SLOTS * slot_ms`
    /// milliseconds.
    pub fn new(slot_ms: u64) -> Windowed {
        Windowed {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            ring: std::array::from_fn(|_| Slot {
                tag: AtomicU64::new(u64::MAX),
                count: AtomicU64::new(0),
            }),
            slot_ms: slot_ms.max(1),
        }
    }

    /// The full window span in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.slot_ms * SLOTS as u64
    }

    /// Records one sample at an explicit timestamp (milliseconds since
    /// the registry's epoch). Production callers go through
    /// [`Telemetry`], which supplies the real clock; tests call this
    /// directly to drive window rotation deterministically.
    pub fn record_at(&self, value: u64, now_ms: u64) {
        self.buckets[Histogram::index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);

        let idx = now_ms / self.slot_ms;
        let slot = &self.ring[(idx % SLOTS as u64) as usize];
        let tag = slot.tag.load(Ordering::Acquire);
        if tag != idx {
            // First arrival in a new slot index claims and resets the
            // slot. A loser either sees the new tag (and just counts)
            // or a racing older tag (its sample lands in a slot about
            // to be zeroed — an accepted windowing approximation).
            if slot
                .tag
                .compare_exchange(tag, idx, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                slot.count.store(0, Ordering::Release);
            }
        }
        slot.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Lifetime sample count (exact, unlike the windowed counts).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Summarizes the series as of `now_ms`.
    pub fn snapshot_at(&self, now_ms: u64) -> SeriesSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);

        let cur = now_ms / self.slot_ms;
        let oldest = cur.saturating_sub(SLOTS as u64 - 1);
        let mut window_count = 0u64;
        for slot in &self.ring {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag != u64::MAX && (oldest..=cur).contains(&tag) {
                window_count += slot.count.load(Ordering::Relaxed);
            }
        }
        // Early in life the window has not filled yet; rate over the
        // elapsed span, not the nominal window, avoids under-reporting.
        let span_ms = self.window_ms().min(now_ms).max(1);

        SeriesSnapshot {
            count,
            mean_us: sum.checked_div(count).unwrap_or(0),
            p50_us: quantile_over(&buckets, count, max, 0.50).unwrap_or(0),
            p90_us: quantile_over(&buckets, count, max, 0.90).unwrap_or(0),
            p99_us: quantile_over(&buckets, count, max, 0.99).unwrap_or(0),
            max_us: max,
            window_count,
            rate_x1000: window_count.saturating_mul(1_000_000) / span_ms,
        }
    }
}

/// The daemon's telemetry registry: one [`Windowed`] series per tracked
/// latency, sharing one wall clock.
#[derive(Debug)]
pub struct Telemetry {
    epoch: Instant,
    /// Store-hit request latency.
    pub hit: Windowed,
    /// Cache-miss request latency (includes the verification).
    pub miss: Windowed,
    /// Coalesced-join request latency.
    pub join: Windowed,
    /// Time a request waits before its verification starts (leader) or
    /// its joined verdict arrives (follower).
    pub queue_wait: Windowed,
    /// Canonicalization + hashing time.
    pub canon: Windowed,
    /// Verdict-store append time.
    pub append: Windowed,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new(DEFAULT_SLOT_MS)
    }
}

impl Telemetry {
    /// A fresh registry; `slot_ms` sizes the sliding window
    /// (`SLOTS * slot_ms`).
    pub fn new(slot_ms: u64) -> Telemetry {
        Telemetry {
            epoch: Instant::now(),
            hit: Windowed::new(slot_ms),
            miss: Windowed::new(slot_ms),
            join: Windowed::new(slot_ms),
            queue_wait: Windowed::new(slot_ms),
            canon: Windowed::new(slot_ms),
            append: Windowed::new(slot_ms),
        }
    }

    /// Milliseconds since the registry was created — the `now_ms` to
    /// feed `record_at`/`snapshot_at`.
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Summarizes every series at the current clock.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let now = self.now_ms();
        TelemetrySnapshot {
            uptime_ms: now,
            window_ms: self.hit.window_ms(),
            hit: self.hit.snapshot_at(now),
            miss: self.miss.snapshot_at(now),
            join: self.join.snapshot_at(now),
            queue_wait: self.queue_wait.snapshot_at(now),
            canon: self.canon.snapshot_at(now),
            append: self.append.snapshot_at(now),
        }
    }
}

/// Point-in-time summary of the whole registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Milliseconds since the registry was created.
    pub uptime_ms: u64,
    /// Sliding-window span shared by every series.
    pub window_ms: u64,
    /// Store-hit latency summary.
    pub hit: SeriesSnapshot,
    /// Cache-miss latency summary.
    pub miss: SeriesSnapshot,
    /// Coalesced-join latency summary.
    pub join: SeriesSnapshot,
    /// Queue-wait summary.
    pub queue_wait: SeriesSnapshot,
    /// Canonicalization-time summary.
    pub canon: SeriesSnapshot,
    /// Store-append-time summary.
    pub append: SeriesSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_percentiles_and_mean() {
        let w = Windowed::new(1_000);
        for v in [10u64, 20, 30, 40, 1000] {
            w.record_at(v, 0);
        }
        let s = w.snapshot_at(0);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean_us, 220);
        assert_eq!(s.max_us, 1000);
        // p50 rank 3 → value 30, bucket [16,31] → upper bound 31.
        assert_eq!(s.p50_us, 31);
        // p99 rank 5 → value 1000, bucket [512,1023] capped at max.
        assert_eq!(s.p99_us, 1000);
    }

    #[test]
    fn window_counts_age_out_slot_by_slot() {
        let w = Windowed::new(1_000); // 6 s window
        for i in 0..6u64 {
            w.record_at(1, i * 1_000); // one sample per slot
        }
        assert_eq!(w.snapshot_at(5_999).window_count, 6);
        // Each new slot boundary expires exactly one old slot.
        assert_eq!(w.snapshot_at(6_500).window_count, 5);
        assert_eq!(w.snapshot_at(8_500).window_count, 3);
        // Far future: everything aged out; lifetime count survives.
        let s = w.snapshot_at(60_000);
        assert_eq!(s.window_count, 0);
        assert_eq!(s.rate_x1000, 0);
        assert_eq!(s.count, 6);
    }

    #[test]
    fn rate_uses_elapsed_span_before_window_fills() {
        let w = Windowed::new(1_000);
        for _ in 0..10 {
            w.record_at(5, 500);
        }
        // 10 samples over 500 ms elapsed → 20/s → 20_000 milli-events/s.
        assert_eq!(w.snapshot_at(500).rate_x1000, 20_000);
        // At the end of the window the denominator is the full span:
        // 10 samples over 5.999 s → ~1.666/s.
        assert_eq!(w.snapshot_at(5_999).rate_x1000, 1_666);
    }

    #[test]
    fn slot_reuse_resets_the_count() {
        let w = Windowed::new(1_000);
        w.record_at(1, 0); // slot index 0 → ring[0]
        w.record_at(1, 6_000); // slot index 6 → ring[0] again, new tag
        let s = w.snapshot_at(6_000);
        // The old slot-0 sample must not leak into the reused slot.
        assert_eq!(s.window_count, 1);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn registry_snapshot_carries_every_series() {
        let t = Telemetry::new(1_000);
        t.hit.record_at(7, t.now_ms());
        t.miss.record_at(9_000, t.now_ms());
        let s = t.snapshot();
        assert_eq!(s.window_ms, 6_000);
        assert_eq!(s.hit.count, 1);
        assert_eq!(s.miss.count, 1);
        assert_eq!(s.join.count, 0);
    }
}
