//! Per-layer cost, measured from outside the program.
//!
//! The benchmark installs one [`Tracer`] through the public
//! `VerifyConfig.ef.tracer` / `ServeConfig.tracer` fields and wraps its own
//! `bench.*` span around every public call it makes, so the spans the
//! layers already emit (`typeck`, `typing`, `encode`, `blast`,
//! `cegis.round`, `sat.solve`, `check-model`, `serve.lookup`) nest under
//! it. Events go to an [`alive::trace::MemorySink`]; after each call the
//! sink is swapped for an empty one and its events are folded through
//! [`alive::trace::TraceStats::from_events`], so memory stays bounded by
//! one call's events however long the round is.

use alive::trace::stats::PhaseAgg;
use alive::trace::{Event, MemorySink, Span, TraceEvent, TraceSink, TraceStats, Tracer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Prefix of the spans the benchmark itself opens around public calls.
pub const BENCH_SPAN_PREFIX: &str = "bench.";

/// Forwards every event to the current [`MemorySink`], which
/// [`LayerTrace::absorb`] replaces between calls.
#[derive(Debug, Default)]
struct SwapSink {
    current: Mutex<Arc<MemorySink>>,
}

impl SwapSink {
    fn take(&self) -> Arc<MemorySink> {
        let mut current = self.current.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *current)
    }
}

impl TraceSink for SwapSink {
    fn record(&self, event: &Event) {
        self.current
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(event);
    }
}

/// Span and counter totals of one traced round.
#[derive(Debug)]
pub struct LayerTrace {
    sink: Arc<SwapSink>,
    tracer: Tracer,
    phases: BTreeMap<String, PhaseAgg>,
    counters: BTreeMap<String, u64>,
}

impl Default for LayerTrace {
    fn default() -> LayerTrace {
        let sink = Arc::new(SwapSink::default());
        LayerTrace {
            tracer: Tracer::new(Box::new(Arc::clone(&sink))),
            sink,
            phases: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl LayerTrace {
    /// The tracer to install in the layers under test.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Opens the benchmark's own span around one public call.
    pub fn span(&self, name: &'static str) -> Span {
        debug_assert!(name.starts_with(BENCH_SPAN_PREFIX));
        self.tracer.span(name)
    }

    /// Folds every event recorded since the last call into the totals.
    /// Call only with no span open.
    ///
    /// # Errors
    ///
    /// Reports a span-nesting violation found by [`TraceStats`].
    pub fn absorb(&mut self) -> Result<(), String> {
        let events: Vec<TraceEvent> = self.sink.take().snapshot().iter().map(owned).collect();
        let stats = TraceStats::from_events(&events).map_err(|e| e.to_string())?;
        if stats.open_spans != 0 {
            return Err(format!("{} trace span(s) left open", stats.open_spans));
        }
        for (name, agg) in stats.phases {
            let total = self.phases.entry(name).or_default();
            total.count += agg.count;
            total.total_us += agg.total_us;
            total.self_us += agg.self_us;
        }
        for (name, v) in stats.counters {
            *self.counters.entry(name).or_default() += v;
        }
        Ok(())
    }

    /// Totals for spans named `name` (zero when none closed).
    pub fn phase(&self, name: &str) -> PhaseAgg {
        self.phases.get(name).copied().unwrap_or_default()
    }

    /// Summed deltas of counter `name`; `blast.gates.<op>` for a sub-key.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Share of the benchmark spans' time that layer spans account for.
    /// What is left is time spent in the called code outside any span
    /// (and the benchmark's own bookkeeping inside its spans).
    pub fn coverage(&self) -> f64 {
        let (total, own) = self
            .phases
            .iter()
            .filter(|(name, _)| name.starts_with(BENCH_SPAN_PREFIX))
            .fold((0u64, 0u64), |(t, s), (_, agg)| {
                (t + agg.total_us, s + agg.self_us)
            });
        if total == 0 {
            0.0
        } else {
            1.0 - own as f64 / total as f64
        }
    }
}

/// A live event as the owned form [`TraceStats`] replays.
fn owned(e: &Event) -> TraceEvent {
    TraceEvent {
        kind: e.kind,
        id: e.id,
        parent: e.parent,
        tid: e.tid,
        us: e.us,
        name: e.name.to_string(),
        arg: e.arg.clone(),
        value: e.value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_layer_spans_fold_into_self_time() {
        let mut layers = LayerTrace::default();
        let tracer = layers.tracer();
        for _ in 0..2 {
            {
                let _outer = layers.span("bench.verify");
                let _inner = tracer.span("sat.solve");
                tracer.counter("sat.conflicts", 3);
            }
            layers.absorb().unwrap();
        }
        assert_eq!(layers.phase("sat.solve").count, 2);
        assert_eq!(layers.phase("bench.verify").count, 2);
        assert_eq!(layers.counter("sat.conflicts"), 6);
        assert_eq!(layers.phase("typeck").count, 0);
        let c = layers.coverage();
        assert!((0.0..=1.0).contains(&c), "{c}");
    }
}
