//! Supervised parallel driver: worker pool correctness, deterministic
//! reports, crash-safe verdict stores, resume planning — and, under
//! `--features fault-injection`, the watchdog's detach of a worker stuck
//! in a query that ignores both its budget and its cancel token.
//!
//! The fault plan is process-global, so every test here serializes on one
//! mutex; tests in other binaries run in other processes and are unaffected.

use alive_ir::canon::canonical_text;
use alive_ir::Transform;
use alive_verifier::{
    config_fingerprint, plan_resume, run_supervised, run_transforms, run_transforms_parallel,
    DriverConfig, OutcomeKind, PoolConfig, RunReport, StoreOpen, TaskSpec, TransformOutcome,
    VerdictStore, VerifyConfig,
};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The paper's intro transform (valid) and a broken variant (invalid).
const INTRO: &str = "%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x";
const INTRO_BAD: &str = "%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C, %x";

fn narrow() -> VerifyConfig {
    let mut vc = VerifyConfig::fast();
    vc.typeck.widths = vec![4];
    vc
}

fn named(name: &str, src: &str) -> (String, Transform) {
    (
        name.to_string(),
        alive_ir::parse_transform(src).expect(name),
    )
}

fn kinds(report: &RunReport) -> Vec<OutcomeKind> {
    report.outcomes.iter().map(|o| o.kind).collect()
}

/// A corpus with a deterministic verdict pattern: valid/invalid
/// alternating, 8 transforms.
fn mixed_corpus() -> Vec<(String, Transform)> {
    (0..8)
        .map(|i| {
            if i % 2 == 0 {
                named(&format!("t{i}"), INTRO)
            } else {
                named(&format!("t{i}"), INTRO_BAD)
            }
        })
        .collect()
}

/// Like [`mixed_corpus`], but every transform is textually distinct, so
/// each one gets its own store key ((x ^ -1) + k ==> (k-1) - x, valid
/// for every k; the invalid variants use k instead of k-1).
fn distinct_corpus() -> Vec<(String, Transform)> {
    (0..8)
        .map(|i| {
            let k = i + 1;
            let target = if i % 2 == 0 { k - 1 } else { k };
            named(
                &format!("t{i}"),
                &format!("%1 = xor %x, -1\n%2 = add %1, {k}\n=>\n%2 = sub {target}, %x"),
            )
        })
        .collect()
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("alive-supervised-{}-{name}", std::process::id()));
    p
}

fn canons(corpus: &[(String, Transform)]) -> Vec<String> {
    corpus.iter().map(|(_, t)| canonical_text(t)).collect()
}

/// Opens the store at `path` for `config`, at epoch 0, as `alive
/// --journal`/`--resume` do.
fn open_store(path: &Path, config: &VerifyConfig) -> (VerdictStore, StoreOpen) {
    VerdictStore::open(path, config_fingerprint(config), 0, None).unwrap()
}

/// Runs `tasks` the way `alive --journal` does: the observer inserts each
/// live outcome into `store` before the pool counts it.
fn run_journaled(
    corpus: &[(String, Transform)],
    tasks: Vec<TaskSpec>,
    preset: Vec<(usize, TransformOutcome)>,
    config: &DriverConfig,
    pool: &PoolConfig,
    store: &mut VerdictStore,
) -> RunReport {
    let canons = canons(corpus);
    run_supervised(corpus, tasks, preset, config, pool, |i, o| {
        if !o.resumed {
            let wall_ms = o.wall.as_millis() as u64;
            store
                .insert(&canons[i], o.kind, &o.detail, wall_ms, "")
                .unwrap();
        }
    })
}

fn fresh_tasks(corpus: &[(String, Transform)]) -> Vec<TaskSpec> {
    (0..corpus.len()).map(TaskSpec::fresh).collect()
}

/// Masks the volatile fields (timings, worker attribution) in a v3
/// report, leaving what must be byte-identical across runs.
fn normalize(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while !rest.is_empty() {
        let hit = [
            "\"wall_ms\": ",
            "\"worker\": ",
            "\"typeck_us\": ",
            "\"encode_us\": ",
            "\"solve_us\": ",
            "\"check_us\": ",
        ]
        .iter()
        .filter_map(|m| rest.find(m).map(|p| (p, m.len())))
        .min();
        match hit {
            Some((pos, len)) => {
                let end = pos + len;
                out.push_str(&rest[..end]);
                out.push('N');
                rest = rest[end..].trim_start_matches(|c: char| c.is_ascii_digit());
            }
            None => {
                out.push_str(rest);
                break;
            }
        }
    }
    out
}

#[test]
fn parallel_run_matches_sequential_verdicts() {
    let _g = serial();
    let corpus = mixed_corpus();
    let config = DriverConfig {
        verify: narrow(),
        keep_going: true,
        ..DriverConfig::default()
    };
    let sequential = run_transforms(&corpus, &config);
    let parallel = run_transforms_parallel(
        &corpus,
        &config,
        &PoolConfig {
            jobs: 4,
            ..PoolConfig::default()
        },
    );
    assert_eq!(kinds(&sequential), kinds(&parallel));
    // Input order is preserved regardless of completion order.
    let names: Vec<&str> = parallel.outcomes.iter().map(|o| o.name.as_str()).collect();
    assert_eq!(names, ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"]);
    assert_eq!(parallel.exit_code(), sequential.exit_code());
}

#[test]
fn parallel_report_is_deterministic_modulo_volatile_fields() {
    let _g = serial();
    let corpus = mixed_corpus();
    let config = DriverConfig {
        verify: narrow(),
        keep_going: true,
        ..DriverConfig::default()
    };
    let pool = PoolConfig {
        jobs: 4,
        ..PoolConfig::default()
    };
    let a = normalize(&run_transforms_parallel(&corpus, &config, &pool).to_json());
    let b = normalize(&run_transforms_parallel(&corpus, &config, &pool).to_json());
    assert_eq!(a, b, "normalized v2 reports must be byte-identical");
    // And a jobs=1 pool run produces the same normalized report too.
    let c = normalize(&run_transforms_parallel(&corpus, &config, &PoolConfig::default()).to_json());
    assert_eq!(a, c);
}

#[test]
fn preset_outcomes_are_reported_before_fresh_work_in_input_order() {
    let _g = serial();
    let corpus = mixed_corpus();
    let config = DriverConfig {
        verify: narrow(),
        keep_going: true,
        ..DriverConfig::default()
    };
    // Pretend transforms 0..4 are already stored; only 4..8 get tasks.
    let full = run_transforms(&corpus, &config);
    let preset: Vec<_> = full.outcomes[..4]
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, mut o)| {
            o.resumed = true;
            (i, o)
        })
        .collect();
    let tasks: Vec<TaskSpec> = (4..8).map(TaskSpec::fresh).collect();
    let mut seen = Vec::new();
    let report = run_supervised(
        &corpus,
        tasks,
        preset,
        &config,
        &PoolConfig {
            jobs: 2,
            ..PoolConfig::default()
        },
        |i, o| seen.push((i, o.resumed)),
    );
    assert_eq!(kinds(&report), kinds(&full));
    assert_eq!(&seen[..4], &[(0, true), (1, true), (2, true), (3, true)]);
    for (i, resumed) in &seen[4..] {
        assert!(*i >= 4 && !*resumed, "fresh work mislabeled: {i} {resumed}");
    }
    assert!(report.outcomes[..4].iter().all(|o| o.resumed));
    assert!(report.outcomes[4..].iter().all(|o| !o.resumed));
}

#[test]
fn journal_survives_a_run_and_plans_a_complete_resume() {
    let _g = serial();
    let corpus = distinct_corpus();
    let config = DriverConfig {
        verify: narrow(),
        keep_going: true,
        ..DriverConfig::default()
    };
    let path = tmp_path("journal-full.jsonl");
    std::fs::remove_file(&path).ok();
    let (mut store, _) = open_store(&path, &config.verify);
    let pool = PoolConfig {
        jobs: 4,
        ..PoolConfig::default()
    };
    let report = run_journaled(
        &corpus,
        fresh_tasks(&corpus),
        Vec::new(),
        &config,
        &pool,
        &mut store,
    );
    drop(store);

    let (store, how) = open_store(&path, &config.verify);
    assert_eq!(
        how,
        StoreOpen::Loaded {
            records: corpus.len(),
            discarded: 0
        }
    );
    let plan = plan_resume(&store, &canons(&corpus));
    assert_eq!(plan.reuse.len(), corpus.len(), "all verdicts reusable");
    assert!(plan.requeue.is_empty());
    assert!(plan.fresh.is_empty());
    // Replaying the store reproduces the verdicts without verification.
    for (i, rec) in &plan.reuse {
        let o = rec.to_outcome(&corpus[*i].0);
        assert_eq!(o.kind, report.outcomes[*i].kind);
        assert!(o.resumed);
    }
    drop(store);
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_journal_tail_is_discarded_and_the_rest_reused() {
    let _g = serial();
    let corpus = distinct_corpus();
    let config = DriverConfig {
        verify: narrow(),
        keep_going: true,
        ..DriverConfig::default()
    };
    let pool = PoolConfig::default();
    let path = tmp_path("journal-torn.jsonl");
    std::fs::remove_file(&path).ok();
    let (mut store, _) = open_store(&path, &config.verify);
    run_journaled(
        &corpus,
        fresh_tasks(&corpus),
        Vec::new(),
        &config,
        &pool,
        &mut store,
    );
    drop(store);

    // Simulate kill -9 mid-write: chop the file mid-record.
    let bytes = std::fs::read(&path).unwrap();
    let cut = bytes.len() - 17;
    std::fs::write(&path, &bytes[..cut]).unwrap();

    // Opening truncates the torn tail so new records stay parseable.
    let (mut store, how) = open_store(&path, &config.verify);
    assert_eq!(
        how,
        StoreOpen::Loaded {
            records: corpus.len() - 1,
            discarded: 1
        },
        "exactly the torn record is dropped"
    );
    let plan = plan_resume(&store, &canons(&corpus));
    assert_eq!(plan.reuse.len(), corpus.len() - 1);
    assert_eq!(plan.fresh, vec![corpus.len() - 1]);

    let missing: Vec<TaskSpec> = plan.fresh.iter().map(|&i| TaskSpec::fresh(i)).collect();
    let preset: Vec<_> = plan
        .reuse
        .iter()
        .map(|(i, r)| (*i, r.to_outcome(&corpus[*i].0)))
        .collect();
    let resumed = run_journaled(&corpus, missing, preset, &config, &pool, &mut store);
    drop(store);
    assert_eq!(kinds(&resumed), kinds(&run_transforms(&corpus, &config)));
    let (store, how) = open_store(&path, &config.verify);
    assert!(
        matches!(how, StoreOpen::Loaded { discarded: 0, .. }),
        "truncation removed the torn tail: {how:?}"
    );
    assert_eq!(
        plan_resume(&store, &canons(&corpus)).reuse.len(),
        corpus.len()
    );
    drop(store);
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_from_other_config_reuses_nothing() {
    let _g = serial();
    let corpus = vec![named("t", INTRO)];
    assert_ne!(
        config_fingerprint(&narrow()),
        config_fingerprint(&VerifyConfig::fast())
    );
    let config = DriverConfig {
        verify: narrow(),
        ..DriverConfig::default()
    };
    let path = tmp_path("journal-config.jsonl");
    std::fs::remove_file(&path).ok();
    let (mut store, _) = open_store(&path, &config.verify);
    run_journaled(
        &corpus,
        vec![TaskSpec::fresh(0)],
        Vec::new(),
        &config,
        &PoolConfig::default(),
        &mut store,
    );
    drop(store);
    // The wider config evicts the store rather than reuse its verdicts.
    let (store, how) = open_store(&path, &VerifyConfig::fast());
    assert!(matches!(how, StoreOpen::Evicted { .. }), "{how:?}");
    let plan = plan_resume(&store, &canons(&corpus));
    assert!(plan.reuse.is_empty(), "different config must not reuse");
    assert_eq!(plan.fresh, vec![0]);
    drop(store);
    for p in [path.clone(), alive_verifier::evicted_path(&path, 0)] {
        std::fs::remove_file(p).ok();
    }
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use alive_sat::fault::{self, FailurePlan};
    use std::time::Duration;

    fn with_plan<T>(spec: &str, f: impl FnOnce() -> T) -> T {
        fault::install(Some(FailurePlan::parse(spec).expect(spec)));
        let out = f();
        fault::install(None);
        out
    }

    /// The tentpole acceptance scenario: one query ignores its budget AND
    /// its cancel token (`hang-hard`), so cooperative cancellation cannot
    /// touch it. The watchdog must cancel at the deadline, wait out the
    /// grace period, detach the stuck worker (leaking its thread), record
    /// the transform as hung, and spawn a replacement so every other
    /// transform still verifies.
    #[test]
    fn watchdog_detaches_a_hard_hang_and_the_pool_recovers() {
        let _g = serial();
        let corpus: Vec<(String, Transform)> =
            (1..=6).map(|i| named(&format!("t{i}"), INTRO)).collect();
        let config = DriverConfig {
            verify: narrow(),
            timeout: Some(Duration::from_millis(200)),
            keep_going: true,
            max_retries: 0,
            ..DriverConfig::default()
        };
        let pool = PoolConfig {
            jobs: 4,
            grace: Duration::from_millis(100),
        };
        // One typing, one SAT query per transform: ordinal 3 is t3.
        let report = with_plan("sat:hang-hard@3", || {
            run_transforms_parallel(&corpus, &config, &pool)
        });
        let hung: Vec<&str> = report
            .outcomes
            .iter()
            .filter(|o| o.kind == OutcomeKind::Hung)
            .map(|o| o.name.as_str())
            .collect();
        assert_eq!(hung.len(), 1, "exactly one hung transform: {report:?}");
        assert_eq!(
            report.count(OutcomeKind::Valid),
            corpus.len() - 1,
            "all other transforms must verify: {report:?}"
        );
        let victim = report
            .outcomes
            .iter()
            .find(|o| o.kind == OutcomeKind::Hung)
            .unwrap();
        assert!(
            victim.detail.contains("detached"),
            "hung detail must say so: {}",
            victim.detail
        );
        assert!(!report.cancelled);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.exit_code(), 2, "hung-only runs are inconclusive");
        let json = report.to_json();
        assert!(json.contains("\"hung\": 1"));
        assert!(json.contains("\"verdict\": \"hung\""));
    }

    /// A journaled run with a hard hang: the hung verdict lands in the
    /// store too, and `plan_resume` requeues it while reusing the rest.
    #[test]
    fn hung_journal_entries_are_requeued_on_resume() {
        let _g = serial();
        // Textually distinct (one store key each), one SAT query each.
        let corpus: Vec<(String, Transform)> = (1..=4)
            .map(|k| {
                named(
                    &format!("t{k}"),
                    &format!(
                        "%1 = xor %x, -1\n%2 = add %1, {k}\n=>\n%2 = sub {}, %x",
                        k - 1
                    ),
                )
            })
            .collect();
        let config = DriverConfig {
            verify: narrow(),
            timeout: Some(Duration::from_millis(200)),
            keep_going: true,
            max_retries: 0,
            ..DriverConfig::default()
        };
        let pool = PoolConfig {
            jobs: 2,
            grace: Duration::from_millis(100),
        };
        let path = tmp_path("journal-hang.jsonl");
        std::fs::remove_file(&path).ok();
        let (mut store, _) = open_store(&path, &config.verify);
        let tasks = fresh_tasks(&corpus);
        with_plan("sat:hang-hard@2", || {
            run_journaled(&corpus, tasks, Vec::new(), &config, &pool, &mut store)
        });
        drop(store);
        let (store, how) = open_store(&path, &config.verify);
        assert!(
            matches!(how, StoreOpen::Loaded { records: 4, .. }),
            "{how:?}"
        );
        let plan = plan_resume(&store, &canons(&corpus));
        assert_eq!(plan.requeue.len(), 1, "the hung entry is requeued");
        assert_eq!(plan.reuse.len(), corpus.len() - 1);
        assert!(plan.fresh.is_empty());
        let hung = &canons(&corpus)[plan.requeue[0]];
        assert_eq!(store.lookup(hung).unwrap().verdict, OutcomeKind::Hung);
        drop(store);
        std::fs::remove_file(&path).ok();
    }
}
