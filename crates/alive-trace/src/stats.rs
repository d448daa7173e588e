//! Trace aggregation: the engine behind `alive stats` and `--metrics`.
//!
//! [`TraceStats::from_events`] replays a parsed trace per thread (and
//! [`StatsSink`] folds live events through the same step),
//! validating span nesting (every `end` must match the innermost open
//! span on its thread; spans still open at end-of-trace are legal — a
//! detached worker never gets to close its `pool.task`), and aggregates:
//!
//! * per-phase totals and **self time** (duration minus child spans), so
//!   the phase breakdown sums exactly to the traced wall time instead of
//!   double-counting nested work;
//! * the top-N slowest `pool.task` spans (i.e. slowest transforms);
//! * flamegraph-style folded stacks (`root;child;leaf <self_us>`),
//!   consumable by `inferno` / `flamegraph.pl`;
//! * counter totals and sample histograms.

use crate::hist::Histogram;
use crate::jsonl::TraceEvent;
use crate::{Event, EventKind, TraceSink};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Mutex;

/// Aggregate for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Completed spans with this name.
    pub count: u64,
    /// Summed full durations (µs); nested phases double-count here.
    pub total_us: u64,
    /// Summed self time (µs): duration minus time spent in child spans.
    /// Self times across all phases partition the traced time exactly.
    pub self_us: u64,
}

/// A nesting violation found while replaying a trace.
#[derive(Clone, Debug)]
pub struct NestingError {
    /// Index of the offending event (0-based, in file order).
    pub event: usize,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for NestingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace event {}: {}", self.event, self.detail)
    }
}

impl std::error::Error for NestingError {}

/// How many slowest tasks `alive stats` lists by default, and all that
/// a [`StatsSink`] keeps.
pub const TOP: usize = 10;

/// One open span during replay.
#[derive(Debug)]
struct Open {
    id: u64,
    name: String,
    arg: String,
    child_us: u64,
    path: String,
}

/// The aggregated view of one trace, produced by
/// [`TraceStats::from_events`] or a live [`StatsSink`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Per-span-name aggregates, keyed by name.
    pub phases: BTreeMap<String, PhaseAgg>,
    /// Completed `pool.task` spans as `(transform, duration µs)`,
    /// slowest first.
    pub tasks: Vec<(String, u64)>,
    /// Folded stacks: `a;b;c` path → summed self time (µs).
    pub folded: BTreeMap<String, u64>,
    /// Counter name → summed deltas.
    pub counters: BTreeMap<String, u64>,
    /// Sample name → histogram of values.
    pub samples: BTreeMap<String, Histogram>,
    /// Spans never closed (detached workers, torn runs).
    pub open_spans: usize,
    /// Span of event timestamps (earliest to latest, µs).
    pub wall_us: u64,
}

/// Slowest first, ties by name, so any event order lists tasks alike.
fn sort_tasks(tasks: &mut [(String, u64)]) {
    tasks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// Replay state between events: each thread's open spans and the
/// timestamp range seen so far. [`Fold::step`] folds one event into a
/// [`TraceStats`]; [`Fold::finish`] fills in what only the whole stream
/// knows.
#[derive(Debug, Default)]
struct Fold {
    stacks: HashMap<u32, Vec<Open>>,
    first_us: Option<u64>,
    last_us: u64,
    /// Events folded so far (the next event's index).
    seen: usize,
    /// Keep only this many slowest tasks (`None` keeps every one).
    top: Option<usize>,
}

impl Fold {
    fn step(&mut self, stats: &mut TraceStats, ev: &TraceEvent) -> Result<(), NestingError> {
        let i = self.seen;
        self.seen += 1;
        self.first_us = Some(self.first_us.map_or(ev.us, |f| f.min(ev.us)));
        self.last_us = self.last_us.max(ev.us);
        match ev.kind {
            EventKind::Start => {
                let stack = self.stacks.entry(ev.tid).or_default();
                let top_id = stack.last().map(|o| o.id).unwrap_or(0);
                if ev.parent != top_id {
                    return Err(NestingError {
                        event: i,
                        detail: format!(
                            "span {} '{}' opened under parent {} but the innermost \
                             open span on tid {} is {}",
                            ev.id, ev.name, ev.parent, ev.tid, top_id
                        ),
                    });
                }
                let path = match stack.last() {
                    Some(parent) => format!("{};{}", parent.path, ev.name),
                    None => ev.name.clone(),
                };
                stack.push(Open {
                    id: ev.id,
                    name: ev.name.clone(),
                    arg: ev.arg.clone(),
                    child_us: 0,
                    path,
                });
            }
            EventKind::End => {
                let stack = self.stacks.get_mut(&ev.tid);
                let Some(top) = stack.and_then(|s| s.pop()) else {
                    return Err(NestingError {
                        event: i,
                        detail: format!(
                            "end of span {} '{}' on tid {} with no span open",
                            ev.id, ev.name, ev.tid
                        ),
                    });
                };
                if top.id != ev.id || top.name != ev.name {
                    return Err(NestingError {
                        event: i,
                        detail: format!(
                            "end of span {} '{}' does not match innermost open \
                             span {} '{}' on tid {}",
                            ev.id, ev.name, top.id, top.name, ev.tid
                        ),
                    });
                }
                let dur = ev.value;
                let self_us = dur.saturating_sub(top.child_us);
                let agg = stats.phases.entry(top.name.clone()).or_default();
                agg.count += 1;
                agg.total_us += dur;
                agg.self_us += self_us;
                *stats.folded.entry(top.path).or_insert(0) += self_us;
                // Work units for the slowest-list: a pool task (arg =
                // transform name) or a serve request (arg = request
                // id). Without this, serve-side spans would only show
                // up as anonymous phase rows.
                if top.name == "pool.task" || top.name == "serve.request" {
                    let label = if top.arg.is_empty() {
                        format!("task-{}", top.id)
                    } else {
                        top.arg
                    };
                    stats.tasks.push((label, dur));
                    if let Some(k) = self.top {
                        sort_tasks(&mut stats.tasks);
                        stats.tasks.truncate(k);
                    }
                }
                // A thread with nothing open drops its entry, so a daemon
                // spawning a thread per connection keeps no dead stacks.
                match self.stacks.get_mut(&ev.tid).and_then(|s| s.last_mut()) {
                    Some(parent) => parent.child_us += dur,
                    None => {
                        self.stacks.remove(&ev.tid);
                    }
                }
            }
            EventKind::Counter => {
                let key = if ev.arg.is_empty() {
                    ev.name.clone()
                } else {
                    format!("{}.{}", ev.name, ev.arg)
                };
                *stats.counters.entry(key).or_insert(0) += ev.value;
            }
            EventKind::Gauge | EventKind::Mark => {}
            EventKind::Sample => {
                stats
                    .samples
                    .entry(ev.name.clone())
                    .or_default()
                    .record(ev.value);
            }
        }
        Ok(())
    }

    fn finish(&self, mut stats: TraceStats) -> TraceStats {
        stats.open_spans = self.stacks.values().map(Vec::len).sum();
        stats.wall_us = self.last_us - self.first_us.unwrap_or(0);
        sort_tasks(&mut stats.tasks);
        stats
    }
}

impl TraceStats {
    /// Replays `events`, checking nesting per thread and aggregating.
    pub fn from_events(events: &[TraceEvent]) -> Result<TraceStats, NestingError> {
        let mut fold = Fold::default();
        let mut stats = TraceStats::default();
        for ev in events {
            fold.step(&mut stats, ev)?;
        }
        Ok(fold.finish(stats))
    }

    /// Aggregates only the events belonging to one request: the
    /// `serve.request` span whose `arg` equals `rid` (or, for batch
    /// items, the per-item span tagged `<batch-id>#<index>`) and
    /// everything nested inside it on the same thread. Returns
    /// `Ok(None)` when no span carries that request id.
    ///
    /// The subtree is carved out by span id: once the tagged start is
    /// seen on a thread, every event on that thread is included until
    /// the matching end closes it. Multiple spans with the same rid
    /// (a retried request) all contribute.
    pub fn for_request(
        events: &[TraceEvent],
        rid: &str,
    ) -> Result<Option<TraceStats>, NestingError> {
        // tid → id of the open serve.request span being captured.
        let mut capture: HashMap<u32, u64> = HashMap::new();
        let mut picked: Vec<TraceEvent> = Vec::new();
        for ev in events {
            match capture.get(&ev.tid).copied() {
                Some(root_id) => {
                    picked.push(ev.clone());
                    if ev.kind == EventKind::End && ev.id == root_id {
                        capture.remove(&ev.tid);
                    }
                }
                None => {
                    if ev.kind == EventKind::Start && ev.name == "serve.request" && ev.arg == rid {
                        capture.insert(ev.tid, ev.id);
                        picked.push(ev.clone());
                    }
                }
            }
        }
        if picked.is_empty() {
            return Ok(None);
        }
        // The captured roots had parents in the full trace (e.g. a batch
        // item's span under the connection's request span); reparent them
        // so the replay's nesting check accepts the carved-out subtree.
        let roots: std::collections::HashSet<u64> = picked
            .iter()
            .filter(|e| e.kind == EventKind::Start && e.name == "serve.request" && e.arg == rid)
            .map(|e| e.id)
            .collect();
        for ev in &mut picked {
            if ev.kind == EventKind::Start && roots.contains(&ev.id) {
                ev.parent = 0;
            }
        }
        TraceStats::from_events(&picked).map(Some)
    }

    /// Total traced self time across all phases (µs). Because self times
    /// partition span time, this equals the summed duration of all
    /// completed root spans.
    pub fn total_self_us(&self) -> u64 {
        self.phases.values().map(|a| a.self_us).sum()
    }

    /// Folded-stack output (`path self_us` per line, sorted by path),
    /// ready for `inferno` / `flamegraph.pl`.
    pub fn folded_output(&self) -> String {
        let mut out = String::new();
        for (path, us) in &self.folded {
            out.push_str(&format!("{path} {us}\n"));
        }
        out
    }

    /// The human-readable report: time by phase (self-time percentages),
    /// top-`n` slowest tasks, counters, and open-span note.
    pub fn render(&self, n: usize) -> String {
        let mut out = String::new();
        let total = self.total_self_us().max(1);
        out.push_str(&format!(
            "{:<18} {:>8} {:>12} {:>12} {:>7}\n",
            "phase", "count", "total", "self", "self%"
        ));
        let mut phases: Vec<_> = self.phases.iter().collect();
        phases.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
        for (name, agg) in phases {
            out.push_str(&format!(
                "{:<18} {:>8} {:>10}us {:>10}us {:>6.1}%\n",
                name,
                agg.count,
                agg.total_us,
                agg.self_us,
                agg.self_us as f64 * 100.0 / total as f64,
            ));
        }
        out.push_str(&format!(
            "\ntraced: {}us across {} phases (wall span {}us)\n",
            self.total_self_us(),
            self.phases.len(),
            self.wall_us,
        ));
        if !self.tasks.is_empty() {
            out.push_str(&format!("\nslowest transforms (top {n}):\n"));
            for (name, dur) in self.tasks.iter().take(n) {
                out.push_str(&format!("  {dur:>10}us  {name}\n"));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("\n{:<28} {:>12}\n", "counter", "total"));
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<28} {v:>12}\n"));
            }
        }
        if !self.samples.is_empty() {
            out.push_str(&format!(
                "\n{:<22} {:>8} {:>8} {:>8} {:>8}\n",
                "histogram", "count", "mean", "p95", "max"
            ));
            for (name, h) in &self.samples {
                out.push_str(&format!(
                    "{:<22} {:>8} {:>8} {:>8} {:>8}\n",
                    name,
                    h.count(),
                    h.mean().unwrap_or(0.0).round() as u64,
                    h.quantile(0.95).unwrap_or(0),
                    h.max().unwrap_or(0),
                ));
            }
        }
        if self.open_spans > 0 {
            out.push_str(&format!(
                "\nnote: {} span(s) never closed (detached or interrupted workers)\n",
                self.open_spans
            ));
        }
        out
    }
}

/// A [`TraceSink`] folding live events through the same step as
/// [`TraceStats::from_events`]: the sink behind `--metrics`, whose table
/// is therefore exactly what `alive stats` prints for the run's trace.
/// It keeps only the [`TOP`] slowest tasks, so a long-running daemon's
/// memory stays flat.
#[derive(Debug)]
pub struct StatsSink {
    /// The fold so far, or the first nesting error (which ends it).
    state: Mutex<Result<(Fold, TraceStats), NestingError>>,
}

impl Default for StatsSink {
    fn default() -> StatsSink {
        let fold = Fold {
            top: Some(TOP),
            ..Fold::default()
        };
        StatsSink {
            state: Mutex::new(Ok((fold, TraceStats::default()))),
        }
    }
}

impl StatsSink {
    /// Creates an empty aggregator.
    pub fn new() -> StatsSink {
        StatsSink::default()
    }

    /// The aggregate of every event recorded so far, or the nesting
    /// violation that stopped the fold.
    pub fn snapshot(&self) -> Result<TraceStats, NestingError> {
        match &*self.state.lock().unwrap_or_else(|e| e.into_inner()) {
            Ok((fold, stats)) => Ok(fold.finish(stats.clone())),
            Err(e) => Err(e.clone()),
        }
    }
}

impl TraceSink for StatsSink {
    fn record(&self, event: &Event) {
        let ev = TraceEvent::from(event);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Ok((fold, stats)) = &mut *state {
            if let Err(e) = fold.step(stats, &ev) {
                *state = Err(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        kind: EventKind,
        id: u64,
        parent: u64,
        tid: u32,
        us: u64,
        name: &str,
        value: u64,
    ) -> TraceEvent {
        TraceEvent {
            kind,
            id,
            parent,
            tid,
            us,
            name: name.to_string(),
            arg: String::new(),
            value,
        }
    }

    #[test]
    fn self_time_partitions_root_duration() {
        // pool.task(100us) containing sat.solve(60us): self 40 + 60.
        let mut start = ev(EventKind::Start, 1, 0, 0, 0, "pool.task", 0);
        start.arg = "mul_shift".to_string();
        let events = vec![
            start,
            ev(EventKind::Start, 2, 1, 0, 10, "sat.solve", 0),
            ev(EventKind::End, 2, 0, 0, 70, "sat.solve", 60),
            ev(EventKind::End, 1, 0, 0, 100, "pool.task", 100),
        ];
        let stats = TraceStats::from_events(&events).unwrap();
        assert_eq!(stats.phases["pool.task"].self_us, 40);
        assert_eq!(stats.phases["sat.solve"].self_us, 60);
        assert_eq!(stats.total_self_us(), 100);
        assert_eq!(stats.tasks, vec![("mul_shift".to_string(), 100)]);
        assert_eq!(stats.folded["pool.task"], 40);
        assert_eq!(stats.folded["pool.task;sat.solve"], 60);
        let folded = stats.folded_output();
        assert!(folded.contains("pool.task;sat.solve 60\n"));
        let report = stats.render(5);
        assert!(report.contains("sat.solve"));
        assert!(report.contains("mul_shift"));
    }

    #[test]
    fn mismatched_end_is_rejected() {
        let events = vec![
            ev(EventKind::Start, 1, 0, 0, 0, "pool.task", 0),
            ev(EventKind::Start, 2, 1, 0, 1, "typeck", 0),
            ev(EventKind::End, 1, 0, 0, 2, "pool.task", 2),
        ];
        let err = TraceStats::from_events(&events).unwrap_err();
        assert_eq!(err.event, 2);
        assert!(err.detail.contains("does not match"));
    }

    #[test]
    fn end_without_start_is_rejected() {
        let events = vec![ev(EventKind::End, 1, 0, 0, 2, "typeck", 2)];
        assert!(TraceStats::from_events(&events).is_err());
    }

    #[test]
    fn threads_nest_independently_and_open_spans_are_legal() {
        let events = vec![
            ev(EventKind::Start, 1, 0, 0, 0, "pool.task", 0),
            ev(EventKind::Start, 2, 0, 1, 1, "pool.task", 0),
            ev(EventKind::End, 1, 0, 0, 5, "pool.task", 5),
            // Span 2 never ends: a detached worker. Legal.
        ];
        let stats = TraceStats::from_events(&events).unwrap();
        assert_eq!(stats.open_spans, 1);
        assert_eq!(stats.phases["pool.task"].count, 1);
        assert!(stats.render(3).contains("never closed"));
    }

    #[test]
    fn for_request_carves_out_one_request_subtree() {
        let mut r1 = ev(EventKind::Start, 1, 0, 0, 0, "serve.request", 0);
        r1.arg = "c1-1".to_string();
        let mut r2 = ev(EventKind::Start, 4, 0, 1, 5, "serve.request", 0);
        r2.arg = "c1-2".to_string();
        let events = vec![
            r1,
            ev(EventKind::Start, 2, 1, 0, 1, "serve.lookup", 0),
            ev(EventKind::End, 2, 0, 0, 3, "serve.lookup", 2),
            ev(EventKind::Start, 3, 1, 0, 4, "sat.solve", 0),
            ev(EventKind::End, 3, 0, 0, 40, "sat.solve", 36),
            ev(EventKind::End, 1, 0, 0, 50, "serve.request", 50),
            // A different request on another thread: must be excluded.
            r2,
            ev(EventKind::End, 4, 0, 1, 9, "serve.request", 4),
        ];
        let stats = TraceStats::for_request(&events, "c1-1").unwrap().unwrap();
        assert_eq!(stats.phases["serve.request"].count, 1);
        assert_eq!(stats.phases["serve.lookup"].total_us, 2);
        assert_eq!(stats.phases["sat.solve"].total_us, 36);
        assert_eq!(stats.phases["serve.request"].self_us, 50 - 2 - 36);
        assert_eq!(stats.tasks, vec![("c1-1".to_string(), 50)]);
        assert!(TraceStats::for_request(&events, "nope").unwrap().is_none());
        // Full-trace view lists both requests as work units.
        let all = TraceStats::from_events(&events).unwrap();
        assert_eq!(all.tasks.len(), 2);
    }

    #[test]
    fn counters_and_samples_aggregate() {
        let mut c = ev(EventKind::Counter, 0, 0, 0, 1, "sat.conflicts", 7);
        c.parent = 0;
        let events = vec![
            c.clone(),
            ev(EventKind::Counter, 0, 0, 1, 2, "sat.conflicts", 3),
            ev(EventKind::Sample, 0, 0, 0, 3, "sat.learned_len", 9),
        ];
        let stats = TraceStats::from_events(&events).unwrap();
        assert_eq!(stats.counters["sat.conflicts"], 10);
        assert_eq!(stats.samples["sat.learned_len"].count(), 1);
    }

    #[test]
    fn wall_span_runs_from_earliest_to_latest_event() {
        // A thread that read the clock first can reach the sink second.
        let events = vec![
            ev(EventKind::Counter, 0, 0, 0, 10, "sat.conflicts", 1),
            ev(EventKind::Counter, 0, 0, 1, 5, "sat.conflicts", 1),
            ev(EventKind::Counter, 0, 0, 0, 20, "sat.conflicts", 1),
        ];
        assert_eq!(TraceStats::from_events(&events).unwrap().wall_us, 15);
    }

    /// One thread's events, in emission order: a task holding a solve
    /// with a tagged counter and a sample, then a task left open.
    fn thread_events(tid: u32, base: u64, task: &str) -> Vec<Event> {
        let id = u64::from(tid) * 10;
        let e = |kind, id, parent, us, name, arg: &str, value| Event {
            kind,
            id,
            parent,
            tid,
            us: base + us,
            name,
            arg: arg.to_string(),
            value,
        };
        vec![
            e(EventKind::Start, id + 1, 0, 0, "pool.task", task, 0),
            e(EventKind::Start, id + 2, id + 1, 2, "sat.solve", "", 0),
            e(EventKind::Counter, 0, id + 2, 3, "blast.gates", "bvmul", 4),
            e(EventKind::Counter, 0, id + 2, 4, "sat.conflicts", "", 7),
            e(EventKind::Sample, 0, id + 2, 5, "sat.learned_len", "", 9),
            e(EventKind::Gauge, 0, id + 2, 5, "pool.queue_depth", "", 3),
            e(EventKind::End, id + 2, 0, 8, "sat.solve", "", 6),
            e(EventKind::End, id + 1, 0, 10, "pool.task", "", 10),
            e(EventKind::Start, id + 3, 0, 11, "pool.task", "open", 0),
        ]
    }

    #[test]
    fn live_sink_and_replay_agree_under_any_interleaving() {
        // Thread 1 started earlier but its events arrive second.
        let a = thread_events(0, 100, "first");
        let b = thread_events(1, 50, "second");
        let serial: Vec<Event> = a.iter().chain(&b).cloned().collect();
        let mut alternating = Vec::new();
        for (x, y) in b.iter().zip(&a) {
            alternating.push(x.clone());
            alternating.push(y.clone());
        }
        for (live_order, file_order) in [(&serial, &alternating), (&alternating, &serial)] {
            let sink = StatsSink::new();
            for ev in live_order {
                sink.record(ev);
            }
            let live = sink.snapshot().unwrap();
            let file: Vec<TraceEvent> = file_order.iter().map(TraceEvent::from).collect();
            let replay = TraceStats::from_events(&file).unwrap();
            assert_eq!(live, replay);
            assert_eq!(live.render(TOP), replay.render(TOP));
            assert_eq!(live.counters["blast.gates.bvmul"], 8);
            assert_eq!(live.counters["sat.conflicts"], 14);
            assert_eq!(live.samples["sat.learned_len"].count(), 2);
            assert_eq!(live.folded["pool.task;sat.solve"], 12);
            assert_eq!(live.open_spans, 2);
            assert_eq!(live.wall_us, 111 - 50);
        }
    }

    #[test]
    fn live_sink_keeps_only_the_slowest_tasks() {
        let request = |kind, k: u64, arg: String| Event {
            kind,
            id: k + 1,
            parent: 0,
            tid: 0,
            us: k,
            name: "serve.request",
            arg,
            value: if kind == EventKind::End { k } else { 0 },
        };
        let sink = StatsSink::new();
        let mut file = Vec::new();
        for k in 0..3 * TOP as u64 {
            for ev in [
                request(EventKind::Start, k, format!("rq-{k}")),
                request(EventKind::End, k, String::new()),
            ] {
                sink.record(&ev);
                file.push(TraceEvent::from(&ev));
            }
        }
        let live = sink.snapshot().unwrap();
        let replay = TraceStats::from_events(&file).unwrap();
        assert_eq!(live.tasks.len(), TOP);
        assert_eq!(replay.tasks.len(), 3 * TOP);
        assert_eq!(live.tasks[..], replay.tasks[..TOP]);
        assert_eq!(live.render(TOP), replay.render(TOP));
    }

    #[test]
    fn live_sink_reports_the_first_nesting_error() {
        let sink = StatsSink::new();
        sink.record(&Event {
            kind: EventKind::End,
            id: 1,
            parent: 0,
            tid: 0,
            us: 0,
            name: "typeck",
            arg: String::new(),
            value: 0,
        });
        sink.record(&Event {
            kind: EventKind::Counter,
            id: 0,
            parent: 0,
            tid: 0,
            us: 1,
            name: "sat.conflicts",
            arg: String::new(),
            value: 1,
        });
        let err = sink.snapshot().unwrap_err();
        assert_eq!(err.event, 0);
        assert!(err.detail.contains("no span open"));
    }
}
