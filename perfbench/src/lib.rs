//! The seeded benchmark of the alive verifier described by the repository's
//! `BENCHMARK.json`: four closed-loop workloads, end-to-end metrics measured
//! with tracing off, and a separate traced round for per-layer metrics.
//! See `README.md` in this directory for the command, the workloads and the
//! metric tables.

pub mod compare;
mod cpus;
pub mod json;
mod layers;
mod stats;
pub mod workloads;

pub use workloads::{run_workload, Params, Workload};

/// End-to-end metrics, reported by every workload with tracing off, as
/// `(name, unit)`. Bounds and directions live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdicts_per_s", "verdicts/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Operator kinds whose bit-blasting is reported as `smt.gates.<op>`;
/// gates of any other kind are summed into `smt.gates.other`.
pub const GATE_OPS: &[&str] = &[
    "var", "eq", "and", "or", "ite", "bvand", "bvor", "bvxor", "bvneg", "bvadd", "bvsub", "bvmul",
    "bvudiv", "bvurem", "bvsdiv", "bvsrem", "bvshl", "bvlshr", "bvashr", "bvult", "bvule", "bvslt",
    "bvsle",
];

/// Per-layer metrics, reported by every workload from its traced round
/// (zero where the workload does not reach the layer), as `(name, unit)`;
/// `smt.gates.<op>` for each of [`GATE_OPS`] follows `smt.gates`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    const BEFORE_GATES: &[(&str, &str)] = &[
        ("ir.parse_us", "us"),
        ("ir.canon_us", "us"),
        ("typeck.self_us", "us"),
        ("typeck.typings", "count"),
        ("vcgen.encode_self_us", "us"),
        ("vcgen.encodes", "count"),
        ("smt.blast_self_us", "us"),
        ("smt.blast_calls", "count"),
        ("smt.blast_nodes", "count"),
        ("smt.gates", "count"),
    ];
    const AFTER_GATES: &[(&str, &str)] = &[
        ("cegis.rounds", "count"),
        ("cegis.round_self_us", "us"),
        ("sat.self_us", "us"),
        ("sat.calls", "count"),
        ("sat.conflicts", "count"),
        ("sat.decisions", "count"),
        ("sat.propagations", "count"),
        ("sat.restarts", "count"),
        ("sat.wasted_conflict_share", "ratio"),
        ("verifier.queries", "count"),
        ("verifier.retries", "count"),
        ("verifier.retry_decided_share", "ratio"),
        ("verifier.check_model_self_us", "us"),
        ("verifier.counterexamples", "count"),
        ("verifier.other_self_us", "us"),
        ("proof.certificates", "count"),
        ("proof.steps", "count"),
        ("proof.check_us", "us"),
        ("serve.lookup_us", "us"),
        ("serve.verify_us", "us"),
        ("serve.residual_us", "us"),
        ("serve.hits", "count"),
        ("serve.misses", "count"),
        ("serve.hit_p50_us", "us"),
        ("serve.hit_p99_us", "us"),
        ("serve.miss_p50_ms", "ms"),
        ("serve.miss_p99_ms", "ms"),
        ("store.reopen_ms", "ms"),
        ("store.bytes", "bytes"),
        ("trace.overhead_share", "ratio"),
        ("trace.coverage", "ratio"),
    ];
    let named = |list: &[(&str, &'static str)]| {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect::<Vec<_>>()
    };
    let mut out = named(BEFORE_GATES);
    out.extend(
        GATE_OPS
            .iter()
            .chain(&["other"])
            .map(|op| (format!("smt.gates.{op}"), "count")),
    );
    out.extend(named(AFTER_GATES));
    out
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run of one workload reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The workload run.
    pub workload: Workload,
    /// Its input seed.
    pub seed: u64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// Verdicts produced (inputs × rounds).
    pub attempted: u64,
    /// What went wrong: errors, internal-error unknowns, wrong verdicts,
    /// rejected certificates, and rounds that did not reproduce the first.
    pub failures: Vec<String>,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Sample counts and the tail percentile used, for the text output.
    pub notes: Vec<String>,
}

impl RunResult {
    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// `metrics` (`{"<name>": {"value": v, "unit": u}, ...}`).
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            self.metrics_json()
        )
    }

    /// The record `alive_bench --out` appends and `alive_bench compare`
    /// reads: the summary plus workload, seed and trace flag.
    pub fn record_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.correct(),
            self.attempted,
            self.failures.len(),
            self.metrics_json()
        )
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(&m.name),
                    m.value,
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
