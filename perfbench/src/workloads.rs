//! The four workloads: their inputs (made from the seed), their rounds,
//! their correctness gates, and the metrics they report.
//!
//! Every workload is a closed loop on one thread: the next input is sent
//! only after the previous verdict arrived, with no transport in between.
//! Verifier work runs under counter budgets only, never a wall-clock
//! deadline, so verdicts and solver counters repeat exactly and every round
//! must reproduce the first one.

use crate::cpus::Rotation;
use crate::layers::LayerTrace;
use crate::stats::{median, percentile, tail_per_mille};
use crate::{per_layer, Metric, RunResult, END_TO_END, GATE_OPS};
use alive::fuzz::{case_seed, gen_case, paranoid_audit, GenConfig, OracleConfig};
use alive::ir::{BinOp, CBinop, CExpr, CExprArg, Inst, Operand, Pred, PredArg, Transform};
use alive::serve::{ServeConfig, ServeLimits, Server};
use alive::suite::SuiteEntry;
use alive::trace::Tracer;
use alive::verifier::{verify_single, DriverConfig, OutcomeKind, TransformOutcome};
use alive::VerifyConfig;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper-corpus transforms that use mul, udiv, sdiv, urem or srem.
    CorpusMulDiv,
    /// The rest of the paper corpus.
    CorpusNoMulDiv,
    /// Seeded generated transforms with many `undef` operands, with
    /// certificates re-checked by `alive-proof`.
    GenUndef,
    /// Seeded resubmissions and fresh transforms against a verdict store.
    ServeReplay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CorpusMulDiv,
        Workload::CorpusNoMulDiv,
        Workload::GenUndef,
        Workload::ServeReplay,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusMulDiv => "corpus-muldiv",
            Workload::CorpusNoMulDiv => "corpus-nomuldiv",
            Workload::GenUndef => "gen-undef",
            Workload::ServeReplay => "serve-replay",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is made.
#[derive(Clone, Debug)]
pub struct Params {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time: untraced rounds repeat until the next one would
    /// overrun it. At least three rounds always run.
    pub seconds: f64,
    /// Report per-layer metrics from one traced round (after three
    /// untraced ones) instead of end-to-end metrics.
    pub trace: bool,
    /// Inputs per round; `None` is the workload's standard size.
    pub size: Option<usize>,
    /// Directory the serve workload keeps its verdict store in; created
    /// and removed by the run.
    pub scratch: PathBuf,
}

/// Rounds every run makes at least. An input's time is its fastest round,
/// and the rounds take the allowed CPUs in turn, so neither a slow CPU nor
/// a burst of contention sets it; the determinism gate needs a second
/// round anyway.
const MIN_ROUNDS: usize = 3;
/// Generated transforms per `gen-undef` round.
const GEN_UNDEF_CASES: usize = 2000;
/// Requests per `serve-replay` round; one in [`SERVE_FRESH_EVERY`] is a
/// fresh transform.
const SERVE_REQUESTS: usize = 10_000;
/// See [`SERVE_REQUESTS`].
const SERVE_FRESH_EVERY: usize = 5;
/// CEGIS round cap for generated transforms. Under the default cap of
/// 4,096 a few generated cases run for tens of seconds each, because every
/// round costs more than the one before.
const GENERATED_MAX_ITERATIONS: usize = 64;
/// Set-up repetitions whose median is `setup_s`, per workload kind.
const CORPUS_SETUPS: usize = 20;
const GEN_SETUPS: usize = 10;
const STORE_REOPENS: usize = 10;
/// Generator streams of the fixed transform sets the seed arranges.
const GEN_UNDEF_STREAM: u64 = 0x4745_4e55;
const SERVE_STREAM: u64 = 0x5345_5256;
/// Salt of the seed's own stream (orders, request kinds, renames).
const ARRANGE_SALT: u64 = 0x5348_5546;

/// The verifier budget of the corpus workloads: the `BENCH_core` profile
/// (fast widths, 50 conflicts, two retries at ×8), without a wall-clock
/// deadline so verdicts and counters are reproducible.
fn bench_driver() -> DriverConfig {
    DriverConfig {
        verify: VerifyConfig::fast(),
        conflict_budget: Some(50),
        max_retries: 2,
        retry_multiplier: 8,
        ..DriverConfig::default()
    }
}

/// The verifier budget of generated transforms: [`bench_driver`] without
/// retries and with [`GENERATED_MAX_ITERATIONS`]. With the retry ladder,
/// one set of 2,000 generated transforms took 1.4 s and another 21.7 s;
/// bounded per case, a round's time stays predictable.
fn generated_driver() -> DriverConfig {
    let mut d = bench_driver();
    d.max_retries = 0;
    d.verify.ef.max_iterations = GENERATED_MAX_ITERATIONS;
    d
}

/// Runs one workload.
///
/// # Errors
///
/// I/O failures of the serve workload's store and span-nesting violations
/// in a traced round; wrong answers are reported in
/// [`RunResult::failures`] instead.
pub fn run_workload(w: Workload, p: &Params) -> Result<RunResult, String> {
    let run = match w {
        Workload::CorpusMulDiv | Workload::CorpusNoMulDiv => run_corpus(w, p)?,
        Workload::GenUndef => run_gen_undef(p)?,
        Workload::ServeReplay => run_serve(p)?,
    };
    run.finish(w, p)
}

// ---------------------------------------------------------------- inputs

/// Does the transform use mul, udiv, sdiv, urem or srem anywhere: in an
/// instruction, a constant expression or the precondition?
pub fn uses_muldiv(t: &Transform) -> bool {
    fn cexpr(e: &CExpr) -> bool {
        match e {
            CExpr::Lit(_) | CExpr::Sym(_) => false,
            CExpr::Unop(_, a) => cexpr(a),
            CExpr::Binop(op, a, b) => {
                matches!(
                    op,
                    CBinop::Mul | CBinop::SDiv | CBinop::UDiv | CBinop::SRem | CBinop::URem
                ) || cexpr(a)
                    || cexpr(b)
            }
            CExpr::Fun(_, args) => args
                .iter()
                .any(|a| matches!(a, CExprArg::Expr(e) if cexpr(e))),
        }
    }
    fn pred(p: &Pred) -> bool {
        match p {
            Pred::True => false,
            Pred::Not(a) => pred(a),
            Pred::And(a, b) | Pred::Or(a, b) => pred(a) || pred(b),
            Pred::Cmp(_, a, b) => cexpr(a) || cexpr(b),
            Pred::Fun(_, args) => args
                .iter()
                .any(|a| matches!(a, PredArg::Expr(e) if cexpr(e))),
        }
    }
    let inst = |i: &Inst| {
        matches!(i, Inst::BinOp { op, .. } if *op == BinOp::Mul || op.is_div_rem())
            || i.operands()
                .iter()
                .any(|o| matches!(o, Operand::Const(e, _) if cexpr(e)))
    };
    pred(&t.pre) || t.source.iter().chain(&t.target).any(|s| inst(&s.inst))
}

/// The paper corpus split into (uses mul/div, does not), each in corpus
/// order.
pub fn corpus_split(corpus: Vec<SuiteEntry>) -> (Vec<SuiteEntry>, Vec<SuiteEntry>) {
    corpus.into_iter().partition(|e| uses_muldiv(&e.transform))
}

/// The `i`-th draw of the seed's own stream; `purpose` keeps the orders,
/// kinds and renames of one seed independent of each other.
fn draw(seed: u64, purpose: u64, i: usize) -> u64 {
    case_seed(seed ^ ARRANGE_SALT ^ purpose.rotate_left(32), i as u64)
}

/// Shuffles `items` with a Fisher–Yates pass driven by the seed.
fn shuffle<T>(items: &mut [T], seed: u64, purpose: u64) {
    for i in (1..items.len()).rev() {
        let j = draw(seed, purpose, i) % (i as u64 + 1);
        items.swap(i, j as usize);
    }
}

/// The corpus workload's inputs: its half of the split, cut to `size`,
/// in an order drawn from the seed.
fn corpus_inputs(
    corpus: Vec<SuiteEntry>,
    w: Workload,
    seed: u64,
    size: Option<usize>,
) -> Vec<SuiteEntry> {
    let (muldiv, rest) = corpus_split(corpus);
    let mut entries = if w == Workload::CorpusMulDiv {
        muldiv
    } else {
        rest
    };
    entries.truncate(size.unwrap_or(usize::MAX));
    shuffle(&mut entries, seed, 0);
    entries
}

/// The generator settings of `gen-undef`: defaults, except that three
/// in ten leaf operands are `undef`.
fn gen_undef_config() -> GenConfig {
    GenConfig {
        undef_prob: 0.3,
        ..GenConfig::default()
    }
}

/// The `gen-undef` inputs: the first `n` transforms of a fixed generator
/// stream, in an order drawn from `seed`.
///
/// The set is fixed because what a set of generated transforms costs to
/// verify depends on which ones it holds far more than a bound could
/// allow: the slowest 1% take half the time, and across ten freshly
/// generated sets of 2,000 the total spread 18% and the p99 28%.
pub fn gen_undef_cases(seed: u64, n: usize) -> Vec<(String, Transform)> {
    let cfg = gen_undef_config();
    let mut cases: Vec<_> = (0..n as u64)
        .map(|i| (format!("gen-{i}"), gen_case(GEN_UNDEF_STREAM, i, &cfg)))
        .collect();
    shuffle(&mut cases, seed, 1);
    cases
}

/// The `serve-replay` request stream: `n` requests (rounded down to a
/// multiple of five) arranged by `seed`.
///
/// A fixed generated set (fixed for the reason given at
/// [`gen_undef_cases`]) of `n / 5` transforms is sent in a seeded order,
/// evenly spaced through the stream. Each is then resubmitted four times
/// at seeded later points, half of those with every register renamed, so
/// only canonicalization can tell they repeat. Every seed sends the same
/// requests; it decides their order.
pub fn serve_requests(seed: u64, n: usize) -> Vec<(String, Transform)> {
    let cfg = GenConfig::default();
    let fresh = (n / SERVE_FRESH_EVERY).max(1);
    let mut pool: Vec<Transform> = (0..fresh as u64)
        .map(|i| gen_case(SERVE_STREAM, i, &cfg))
        .collect();
    shuffle(&mut pool, seed, 2);
    // (time in [0, 1], transform, copy): copy 0 is the fresh submission.
    let mut slots: Vec<(f64, usize, usize)> = Vec::with_capacity(fresh * SERVE_FRESH_EVERY);
    for k in 0..fresh {
        let sent = k as f64 / fresh as f64;
        for copy in 0..SERVE_FRESH_EVERY {
            let u =
                (draw(seed, 3, k * SERVE_FRESH_EVERY + copy) >> 11) as f64 / (1u64 << 53) as f64;
            let later = if copy == 0 { 0.0 } else { u };
            slots.push((sent + later * (1.0 - sent), k, copy));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
    slots
        .into_iter()
        .map(|(_, k, copy)| match copy {
            0 => (format!("fresh-{k}"), pool[k].clone()),
            c if c % 2 == 0 => (
                format!("resubmit-{k}"),
                rename_registers(&pool[k], draw(seed, 4, k * SERVE_FRESH_EVERY + c)),
            ),
            _ => (format!("resubmit-{k}"), pool[k].clone()),
        })
        .collect()
}

/// The transform with every register renamed to `r<salt>_<k>`, `k`
/// counting registers in order of first definition or use. All names
/// change at once, so no renamed register can collide with an old one.
pub fn rename_registers(t: &Transform, salt: u64) -> Transform {
    struct Names(HashMap<String, String>, u64);
    impl Names {
        fn map(&mut self, name: &mut String) {
            let next = format!("r{}_{}", self.1, self.0.len());
            *name = self.0.entry(name.clone()).or_insert(next).clone();
        }
        fn operand(&mut self, o: &mut Operand) {
            match o {
                Operand::Reg(name, _) => self.map(name),
                Operand::Const(e, _) => self.cexpr(e),
                Operand::Undef(_) => {}
            }
        }
        fn cexpr(&mut self, e: &mut CExpr) {
            match e {
                CExpr::Lit(_) | CExpr::Sym(_) => {}
                CExpr::Unop(_, a) => self.cexpr(a),
                CExpr::Binop(_, a, b) => {
                    self.cexpr(a);
                    self.cexpr(b);
                }
                CExpr::Fun(_, args) => {
                    for a in args {
                        match a {
                            CExprArg::Expr(e) => self.cexpr(e),
                            CExprArg::Reg(name) => self.map(name),
                        }
                    }
                }
            }
        }
        fn pred(&mut self, p: &mut Pred) {
            match p {
                Pred::True => {}
                Pred::Not(a) => self.pred(a),
                Pred::And(a, b) | Pred::Or(a, b) => {
                    self.pred(a);
                    self.pred(b);
                }
                Pred::Cmp(_, a, b) => {
                    self.cexpr(a);
                    self.cexpr(b);
                }
                Pred::Fun(_, args) => {
                    for a in args {
                        match a {
                            PredArg::Reg(name) => self.map(name),
                            PredArg::Expr(e) => self.cexpr(e),
                        }
                    }
                }
            }
        }
        fn inst(&mut self, i: &mut Inst) {
            match i {
                Inst::BinOp { a, b, .. } | Inst::ICmp { a, b, .. } => {
                    self.operand(a);
                    self.operand(b);
                }
                Inst::Select {
                    cond,
                    on_true,
                    on_false,
                } => {
                    self.operand(cond);
                    self.operand(on_true);
                    self.operand(on_false);
                }
                Inst::Conv { arg: o, .. }
                | Inst::Alloca { count: o, .. }
                | Inst::Load { ptr: o }
                | Inst::Copy { val: o } => self.operand(o),
                Inst::Store { val, ptr } => {
                    self.operand(val);
                    self.operand(ptr);
                }
                Inst::Gep { ptr, idxs } => {
                    self.operand(ptr);
                    idxs.iter_mut().for_each(|o| self.operand(o));
                }
                Inst::Unreachable => {}
            }
        }
    }
    let mut out = t.clone();
    let mut names = Names(HashMap::new(), salt % 1000);
    for s in out.source.iter_mut().chain(out.target.iter_mut()) {
        names.inst(&mut s.inst);
        if let Some(name) = &mut s.name {
            names.map(name);
        }
    }
    names.pred(&mut out.pre);
    out
}

// ------------------------------------------------------------ correctness

/// What one input's answer was; every round must reproduce it exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    /// The verdict.
    pub kind: OutcomeKind,
    /// Answered from the verdict store (serve only).
    pub cached: bool,
    /// SAT conflicts the verification spent (0 for store hits).
    pub conflicts: u64,
}

/// Why a verdict counts as failed regardless of the input: errors, hung
/// workers and internal-error unknowns (a panic in the verifier).
pub fn outcome_failure(name: &str, kind: OutcomeKind, detail: &str) -> Option<String> {
    match kind {
        OutcomeKind::Error | OutcomeKind::Hung => {
            Some(format!("{name}: {}: {detail}", kind.as_str()))
        }
        OutcomeKind::Unknown if detail.contains("internal error") => {
            Some(format!("{name}: {detail}"))
        }
        _ => None,
    }
}

/// Why a corpus verdict is wrong, if it is: besides
/// [`outcome_failure`], a decided verdict must match the entry's
/// `expected_bug`. Unknown (budget exhausted) is an honest answer.
pub fn corpus_failure(
    name: &str,
    expected_bug: bool,
    kind: OutcomeKind,
    detail: &str,
) -> Option<String> {
    let wrong = match kind {
        OutcomeKind::Valid => expected_bug,
        OutcomeKind::Invalid => !expected_bug,
        _ => false,
    };
    if wrong {
        let expected = if expected_bug { "invalid" } else { "valid" };
        return Some(format!(
            "{name}: verdict {} but the corpus expects {expected}",
            kind.as_str()
        ));
    }
    outcome_failure(name, kind, detail)
}

/// One line per input whose answer in a later round differs from the
/// first round's (verdict, store hit, or conflict count).
pub fn round_mismatches(rounds: &[Vec<Answer>]) -> Vec<String> {
    let Some((first, rest)) = rounds.split_first() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (r, round) in rest.iter().enumerate() {
        if round.len() != first.len() {
            out.push(format!(
                "round {} answered {} inputs, round 1 answered {}",
                r + 2,
                round.len(),
                first.len()
            ));
            continue;
        }
        for (i, (a, b)) in first.iter().zip(round).enumerate() {
            if a != b {
                out.push(format!(
                    "input {i}: round {} answered {b:?}, round 1 answered {a:?}",
                    r + 2
                ));
            }
        }
    }
    out
}

// ----------------------------------------------------------------- rounds

/// What the verifier spent on one verification (per-layer metrics).
#[derive(Clone, Copy, Debug)]
struct Spent {
    kind: OutcomeKind,
    queries: u64,
    retries: u64,
    conflicts: u64,
    /// Conflicts spent in attempts that ended Unknown.
    wasted_conflicts: u64,
}

impl Spent {
    fn of(o: &TransformOutcome) -> Spent {
        Spent {
            kind: o.kind,
            queries: o.queries as u64,
            retries: u64::from(o.retries),
            conflicts: o.conflicts,
            wasted_conflicts: o
                .attempts
                .iter()
                .filter(|a| a.outcome.starts_with("unknown"))
                .map(|a| a.conflicts)
                .sum(),
        }
    }
}

/// One pass over a workload's inputs.
#[derive(Debug, Default)]
struct Round {
    answers: Vec<Answer>,
    /// Seconds from request to verdict, per input.
    secs: Vec<f64>,
    /// One entry per verification actually run.
    spent: Vec<Spent>,
    failures: Vec<String>,
    /// Workload-specific per-layer totals (`proof.*`, `serve.*`, ...).
    layer: BTreeMap<&'static str, f64>,
}

impl Round {
    fn push(&mut self, answer: Answer, start: Instant) {
        self.secs.push(start.elapsed().as_secs_f64());
        self.answers.push(answer);
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.layer.entry(key).or_default() += v;
    }

    fn wall(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Timing samples, each with the rotation slot of the CPU it ran on.
type Samples = Vec<(usize, f64)>;

/// The median of the samples taken on the fastest CPU (0 when empty).
fn fastest_median(samples: &Samples) -> f64 {
    let mut by_cpu: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(slot, x) in samples {
        by_cpu.entry(slot).or_default().push(x);
    }
    by_cpu
        .values()
        .filter_map(|v| median(v))
        .reduce(f64::min)
        .unwrap_or(0.0)
}

/// Calls `f` `n` times, the `i`-th call pinned to the `i`-th allowed CPU
/// in turn, and returns the last result.
fn rotate<T>(n: usize, mut f: impl FnMut(usize) -> T) -> Option<T> {
    let cpus = Rotation::new();
    (0..n).map(|i| f(cpus.pin(i))).last()
}

/// A workload's measurements before they become metrics.
#[derive(Debug, Default)]
struct Run {
    /// Set-up samples, s.
    setup: Samples,
    /// Corpus parse samples, µs (`ir.parse_us`).
    parse_us: Samples,
    /// Untraced rounds.
    rounds: Vec<Round>,
    /// The traced round and its layer totals, when tracing.
    traced: Option<(Round, LayerTrace)>,
    /// Failures found outside the rounds (the paranoid audit).
    failures: Vec<String>,
}

/// The untraced rounds, and the traced round with its layer totals.
type Measured = (Vec<Round>, Option<(Round, LayerTrace)>);

/// Runs untraced rounds until `p.seconds` would be overrun (at least
/// [`MIN_ROUNDS`]; exactly that many when tracing), each pinned to the
/// next allowed CPU in turn, then the traced round on the CPU of the
/// fastest untraced one.
fn measure(
    p: &Params,
    mut round: impl FnMut(Option<&mut LayerTrace>) -> Result<Round, String>,
) -> Result<Measured, String> {
    let cpus = Rotation::new();
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        cpus.pin(rounds.len());
        rounds.push(round(None)?);
        let n = rounds.len();
        if n < MIN_ROUNDS {
            continue;
        }
        let spent = start.elapsed().as_secs_f64();
        if p.trace || spent + spent / n as f64 > p.seconds {
            break;
        }
    }
    let traced = if p.trace {
        let fastest = (0..rounds.len())
            .min_by(|&a, &b| rounds[a].wall().total_cmp(&rounds[b].wall()))
            .unwrap_or(0);
        cpus.pin(fastest);
        let mut layers = LayerTrace::default();
        let r = round(Some(&mut layers))?;
        Some((r, layers))
    } else {
        None
    };
    Ok((rounds, traced))
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn run_corpus(w: Workload, p: &Params) -> Result<Run, String> {
    let mut run = Run::default();
    let entries = rotate(CORPUS_SETUPS, |cpu| {
        let start = Instant::now();
        let corpus = alive::suite::full_corpus();
        run.parse_us.push((cpu, seconds_since(start) * 1e6));
        let entries = corpus_inputs(corpus, w, p.seed, p.size);
        run.setup.push((cpu, seconds_since(start)));
        entries
    })
    .unwrap_or_default();
    let (rounds, traced) = measure(p, |mut layers| {
        let mut driver = bench_driver();
        driver.verify.ef.tracer = layers
            .as_ref()
            .map_or_else(Tracer::disabled, |l| l.tracer());
        let mut round = Round::default();
        for e in &entries {
            let start = Instant::now();
            let span = layers.as_ref().map(|l| l.span("bench.verify"));
            let o = verify_single(&e.name, &e.transform, &driver);
            drop(span);
            round.push(answer(&o), start);
            if let Some(l) = layers.as_deref_mut() {
                l.absorb()?;
            }
            round.spent.push(Spent::of(&o));
            round
                .failures
                .extend(corpus_failure(&e.name, e.expected_bug, o.kind, &o.detail));
        }
        Ok(round)
    })?;
    run.rounds = rounds;
    run.traced = traced;
    Ok(run)
}

fn answer(o: &TransformOutcome) -> Answer {
    Answer {
        kind: o.kind,
        cached: false,
        conflicts: o.conflicts,
    }
}

fn run_gen_undef(p: &Params) -> Result<Run, String> {
    let n = p.size.unwrap_or(GEN_UNDEF_CASES);
    let mut run = Run::default();
    let cases = rotate(GEN_SETUPS, |cpu| {
        let start = Instant::now();
        let cases = gen_undef_cases(p.seed, n);
        run.setup.push((cpu, seconds_since(start)));
        cases
    })
    .unwrap_or_default();
    let (rounds, traced) = measure(p, |mut layers| {
        let mut driver = generated_driver();
        driver.with_certificates = true;
        driver.verify.ef.tracer = layers
            .as_ref()
            .map_or_else(Tracer::disabled, |l| l.tracer());
        let mut round = Round::default();
        for (name, t) in &cases {
            let start = Instant::now();
            let span = layers.as_ref().map(|l| l.span("bench.verify"));
            let o = verify_single(name, t, &driver);
            drop(span);
            for (k, cert) in o.certificates.iter().enumerate() {
                let span = layers.as_ref().map(|l| l.span("bench.proof"));
                let checked = cert.check();
                drop(span);
                if let Err(e) = checked {
                    round
                        .failures
                        .push(format!("{name}: certificate {k} rejected: {e}"));
                }
            }
            round.push(answer(&o), start);
            if let Some(l) = layers.as_deref_mut() {
                l.absorb()?;
            }
            round.add("proof.certificates", o.certificates.len() as f64);
            round.add(
                "proof.steps",
                o.certificates.iter().map(|c| c.steps.len() as f64).sum(),
            );
            round.spent.push(Spent::of(&o));
            round
                .failures
                .extend(outcome_failure(name, o.kind, &o.detail));
        }
        Ok(round)
    })?;
    // The independent oracle, once per case, outside the timed rounds:
    // brute force at small widths must agree with every decided verdict.
    let vcfg = generated_driver().verify;
    let oracle = OracleConfig {
        check_certificates: false,
        ..OracleConfig::default()
    };
    for ((name, t), a) in cases.iter().zip(&rounds[0].answers) {
        let audit = paranoid_audit(t, a.kind, &[], &vcfg, &oracle);
        run.failures.extend(
            audit
                .disagreements
                .into_iter()
                .map(|d| format!("{name}: paranoid audit: {d}")),
        );
    }
    run.rounds = rounds;
    run.traced = traced;
    Ok(run)
}

fn run_serve(p: &Params) -> Result<Run, String> {
    let requests = serve_requests(p.seed, p.size.unwrap_or(SERVE_REQUESTS));
    let dir = p
        .scratch
        .join(format!("serve-replay-{}", std::process::id()));
    let store = dir.join("store.jsonl");
    let result = measure(p, |layers| serve_round(&requests, &dir, &store, layers)).and_then(
        |(rounds, traced)| {
            // Set-up is what a restarted server pays: replaying the store
            // a round left (every round leaves the same one).
            let mut setup = Vec::with_capacity(STORE_REOPENS);
            let mut failed = None;
            rotate(STORE_REOPENS, |cpu| {
                let start = Instant::now();
                let reopened = Server::open(serve_config(&store, Tracer::disabled()));
                setup.push((cpu, seconds_since(start)));
                if let Err(e) = reopened {
                    failed.get_or_insert(e);
                }
            });
            if let Some(e) = failed {
                return Err(format!("reopen {}: {e}", store.display()));
            }
            Ok(Run {
                setup,
                rounds,
                traced,
                ..Run::default()
            })
        },
    );
    // Remove the store whether or not the run succeeded.
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn serve_config(store: &Path, tracer: Tracer) -> ServeConfig {
    ServeConfig {
        driver: generated_driver(),
        store_path: store.to_path_buf(),
        workers: 1,
        tracer,
        limits: ServeLimits {
            request_timeout: None,
            ..ServeLimits::default()
        },
        ..ServeConfig::default()
    }
}

/// One pass of the request stream against a fresh `store` in `dir`.
fn serve_round(
    requests: &[(String, Transform)],
    dir: &Path,
    store: &Path,
    mut layers: Option<&mut LayerTrace>,
) -> Result<Round, String> {
    let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", dir.display());
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| io("cannot create", e))?;
    let tracer = layers
        .as_ref()
        .map_or_else(Tracer::disabled, |l| l.tracer());
    let span = layers.as_ref().map(|l| l.span("bench.serve.open"));
    let (mut server, _) = Server::open(serve_config(store, tracer)).map_err(|e| io("open", e))?;
    drop(span);
    // The real verifier, wrapped only to see what each miss spent.
    let spent: Arc<Mutex<Option<Spent>>> = Arc::default();
    let slot = Arc::clone(&spent);
    server.set_verifier(move |name, t, driver| {
        let o = verify_single(name, t, driver);
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(Spent::of(&o));
        o
    });

    let mut round = Round::default();
    let mut first_served: HashMap<String, OutcomeKind> = HashMap::new();
    for (name, t) in requests {
        let start = Instant::now();
        let span = layers.as_ref().map(|l| l.span("bench.serve.check"));
        let a = server.check(name, t);
        drop(span);
        round.push(
            Answer {
                kind: a.verdict,
                cached: a.cached,
                conflicts: 0,
            },
            start,
        );
        if let Some(l) = layers.as_deref_mut() {
            l.absorb()?;
        }
        let wall_us = round.secs.last().copied().unwrap_or(0.0) * 1e6;
        if let Some(s) = spent.lock().unwrap_or_else(|e| e.into_inner()).take() {
            round.spent.push(s);
            if let Some(last) = round.answers.last_mut() {
                last.conflicts = s.conflicts;
            }
        }
        let tm = a.timing;
        // A miss's queue time already covers its canonicalization and
        // lookups; a hit has none.
        let before_verify = if tm.queue_us > 0 {
            tm.queue_us
        } else {
            tm.canon_us + tm.lookup_us
        };
        round.add("ir.canon_us", tm.canon_us as f64);
        round.add("serve.lookup_us", tm.lookup_us as f64);
        round.add("serve.verify_us", tm.verify_us as f64);
        round.add(
            "serve.residual_us",
            (wall_us - (before_verify + tm.verify_us) as f64).max(0.0),
        );
        round
            .failures
            .extend(outcome_failure(name, a.verdict, &a.reason));
        let first = *first_served.entry(a.hash.clone()).or_insert(a.verdict);
        if a.cached && first != a.verdict {
            round.failures.push(format!(
                "{name}: hit answered {} but hash {} was first served {}",
                a.verdict.as_str(),
                a.hash,
                first.as_str()
            ));
        }
    }
    drop(server);
    round.add(
        "store.bytes",
        std::fs::metadata(store)
            .map_err(|e| io("stat store in", e))?
            .len() as f64,
    );
    Ok(round)
}

// ---------------------------------------------------------------- metrics

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Per-input seconds, each the fastest of `rounds`: machine noise only
/// ever adds time, and the rounds ran on every allowed CPU in turn.
fn per_input_best(rounds: &[Round]) -> Vec<f64> {
    let n = rounds.first().map_or(0, |r| r.secs.len());
    (0..n)
        .map(|i| {
            rounds
                .iter()
                .map(|r| r.secs[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

impl Run {
    fn finish(self, w: Workload, p: &Params) -> Result<RunResult, String> {
        let n = self.rounds[0].answers.len();
        let mut failures = self.failures;
        let mut answer_rounds: Vec<Vec<Answer>> =
            self.rounds.iter().map(|r| r.answers.clone()).collect();
        if let Some((traced, _)) = &self.traced {
            // Tracing must not change a single verdict or counter.
            answer_rounds.push(traced.answers.clone());
        }
        failures.extend(round_mismatches(&answer_rounds));
        for r in self.rounds.iter().chain(self.traced.iter().map(|(r, _)| r)) {
            failures.extend(r.failures.iter().cloned());
        }
        let rounds_run = answer_rounds.len();
        let mut notes = vec![format!(
            "{}: {n} inputs x {} rounds{}",
            w.name(),
            self.rounds.len(),
            if p.trace { " + 1 traced round" } else { "" }
        )];
        let metrics = if p.trace {
            let (traced, layers) = self.traced.as_ref().expect("traced run has a traced round");
            layer_metrics(w, &self.rounds, traced, layers, &self.parse_us, &self.setup)
        } else {
            let tail = tail_per_mille(n).unwrap_or(500);
            notes.push(format!(
                "verdict_tail_ms is p{} of {n} per-input times (fastest of {} rounds)",
                tail as f64 / 10.0,
                self.rounds.len()
            ));
            let decided = self.rounds[0]
                .answers
                .iter()
                .filter(|a| matches!(a.kind, OutcomeKind::Valid | OutcomeKind::Invalid))
                .count();
            let mut per_input = per_input_best(&self.rounds);
            let busy: f64 = per_input.iter().sum();
            per_input.sort_by(f64::total_cmp);
            let values = [
                fastest_median(&self.setup),
                n as f64 / busy,
                percentile(&per_input, 500).unwrap_or(0.0) * 1e3,
                percentile(&per_input, tail).unwrap_or(0.0) * 1e3,
                decided as f64 / n as f64,
                peak_rss_mb()?,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| Metric {
                    name: name.to_string(),
                    value,
                    unit,
                })
                .collect()
        };
        if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("metric {} is not a number", bad.name));
        }
        Ok(RunResult {
            workload: w,
            seed: p.seed,
            trace: p.trace,
            attempted: (n * rounds_run) as u64,
            failures,
            metrics,
            notes,
        })
    }
}

/// The per-layer metrics of one traced round. Times are summed over the
/// round, µs; counts are totals over the round.
fn layer_metrics(
    w: Workload,
    rounds: &[Round],
    traced: &Round,
    layers: &LayerTrace,
    parse_us: &Samples,
    setup: &Samples,
) -> Vec<Metric> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    let self_us = |phase: &str| layers.phase(phase).self_us as f64;
    let count = |phase: &str| layers.phase(phase).count as f64;
    let counter = |name: &str| layers.counter(name) as f64;

    set("ir.parse_us", fastest_median(parse_us));
    set("typeck.self_us", self_us("typeck"));
    set("typeck.typings", count("typing"));
    set("vcgen.encode_self_us", self_us("encode"));
    set("vcgen.encodes", count("encode"));
    set("smt.blast_self_us", self_us("blast"));
    set("smt.blast_calls", count("blast"));
    set("smt.blast_nodes", counter("blast.nodes"));
    let gates = counter("blast.gates");
    set("smt.gates", gates);
    let mut listed = 0.0;
    for op in GATE_OPS {
        let g = counter(&format!("blast.gates.{op}"));
        listed += g;
        set(&format!("smt.gates.{op}"), g);
    }
    set("smt.gates.other", gates - listed);
    set("cegis.rounds", counter("cegis.rounds"));
    set("cegis.round_self_us", self_us("cegis.round"));
    set("sat.self_us", self_us("sat.solve"));
    set("sat.calls", count("sat.solve"));
    for c in ["conflicts", "decisions", "propagations", "restarts"] {
        set(&format!("sat.{c}"), counter(&format!("sat.{c}")));
    }

    let spent = &traced.spent;
    let sum = |f: fn(&Spent) -> u64| spent.iter().map(f).sum::<u64>() as f64;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    set(
        "sat.wasted_conflict_share",
        share(sum(|s| s.wasted_conflicts), sum(|s| s.conflicts)),
    );
    set("verifier.queries", sum(|s| s.queries));
    set("verifier.retries", sum(|s| s.retries));
    let retried: Vec<&Spent> = spent.iter().filter(|s| s.retries > 0).collect();
    let retried_decided = retried
        .iter()
        .filter(|s| matches!(s.kind, OutcomeKind::Valid | OutcomeKind::Invalid))
        .count();
    set(
        "verifier.retry_decided_share",
        share(retried_decided as f64, retried.len() as f64),
    );
    set("verifier.check_model_self_us", self_us("check-model"));
    set(
        "verifier.counterexamples",
        spent
            .iter()
            .filter(|s| s.kind == OutcomeKind::Invalid)
            .count() as f64,
    );
    set(
        "verifier.other_self_us",
        self_us("typing") + self_us("bench.verify"),
    );
    set(
        "proof.check_us",
        layers.phase("bench.proof").total_us as f64,
    );

    // Workload totals of the traced round (proof counts), and the serve
    // timings of the fastest untraced round, free of tracing cost.
    for (k, x) in &traced.layer {
        set(k, *x);
    }
    let fastest = rounds
        .iter()
        .min_by(|a, b| a.wall().total_cmp(&b.wall()))
        .expect("at least one untraced round");
    for key in [
        "ir.canon_us",
        "serve.lookup_us",
        "serve.verify_us",
        "serve.residual_us",
    ] {
        if let Some(&x) = fastest.layer.get(key) {
            set(key, x);
        }
    }
    if w == Workload::ServeReplay {
        let per_input = per_input_best(rounds);
        let (mut hit, mut miss): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        for (secs, a) in per_input.iter().zip(&rounds[0].answers) {
            if a.cached {
                hit.push(*secs);
            } else {
                miss.push(*secs);
            }
        }
        hit.sort_by(f64::total_cmp);
        miss.sort_by(f64::total_cmp);
        set("serve.hits", hit.len() as f64);
        set("serve.misses", miss.len() as f64);
        set(
            "serve.hit_p50_us",
            percentile(&hit, 500).unwrap_or(0.0) * 1e6,
        );
        set(
            "serve.hit_p99_us",
            percentile(&hit, 990).unwrap_or(0.0) * 1e6,
        );
        set(
            "serve.miss_p50_ms",
            percentile(&miss, 500).unwrap_or(0.0) * 1e3,
        );
        set(
            "serve.miss_p99_ms",
            percentile(&miss, 990).unwrap_or(0.0) * 1e3,
        );
        set("store.reopen_ms", fastest_median(setup) * 1e3);
    }

    // The traced round ran on the CPU of the fastest untraced round.
    let base = fastest.wall();
    set("trace.overhead_share", share(traced.wall() - base, base));
    set("trace.coverage", layers.coverage());

    per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = v.get(&name).copied().unwrap_or(0.0);
            Metric { name, value, unit }
        })
        .collect()
}
