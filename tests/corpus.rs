//! Corpus-wide integration tests.
//!
//! The deterministic sample keeps the default test run fast; the full
//! sweep (every entry at the fast profile, ~4 minutes) runs with
//! `cargo test -p integration --test corpus -- --ignored`.

use alive::fuzz::GenConfig;
use alive::typeck::enumerate_typings;
use alive::verifier::{verify_single, DriverConfig, OutcomeKind, TransformOutcome};
use alive::{generate_cpp, TypeckConfig, VerifyConfig};
use std::collections::BTreeMap;

#[test]
fn sampled_corpus_verifies_as_expected() {
    let all = alive::suite::full_corpus();
    let config = VerifyConfig::fast();
    // Deterministic sample: every 4th entry plus all expected bugs.
    for (i, e) in all.iter().enumerate() {
        if i % 4 != 0 && !e.expected_bug {
            continue;
        }
        let v =
            alive::verify(&e.transform, &config).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert_eq!(
            v.is_invalid(),
            e.expected_bug,
            "{}: verifier disagrees with expectation: {v}",
            e.name
        );
    }
}

#[test]
#[ignore = "full corpus sweep takes minutes; run explicitly"]
fn full_corpus_verifies_as_expected() {
    let config = VerifyConfig::fast();
    for e in alive::suite::full_corpus() {
        let v =
            alive::verify(&e.transform, &config).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert_eq!(v.is_invalid(), e.expected_bug, "{}: {v}", e.name);
    }
}

/// The verdict-invariance gate: the verdict and conflict count of every
/// corpus entry at the benchmark profile (`VerifyConfig::fast()`, 50
/// conflicts, 2 retries at x8, no deadline) must match
/// `tests/golden/corpus_bench_budget.txt` row for row.
#[test]
fn corpus_verdicts_and_conflicts_match_golden() {
    check_golden("corpus_bench_budget.txt", VerifyConfig::fast(), &[]);
}

/// The same gate at the default profile (widths 4, 8, 1, 16 and 32)
/// against `tests/golden/corpus_default_budget.txt`. It takes seconds in a
/// release build, so it runs there:
/// `cargo test --release -p integration --test corpus -- --ignored default_profile`.
#[test]
#[ignore = "default-profile sweep; run in release"]
fn default_profile_verdicts_and_conflicts_match_golden() {
    check_golden("corpus_default_budget.txt", VerifyConfig::default(), &[]);
}

/// The same gate at the exhaustive profile (widths 1–64, 64-bit pointers)
/// against `tests/golden/corpus_exhaustive_budget.txt`. It takes about a
/// minute in a release build:
/// `cargo test --release -p integration --test corpus -- --ignored exhaustive_profile`.
/// Two entries the corpus files as correct have real counterexamples with
/// 64-bit pointers (EXPERIMENTS.md lists them as findings): GepChain's i32
/// index sum wraps where the source's sign-extended offsets do not, and
/// PtrIntRoundTrip's `ptrtoint %p to i32` truncates the pointer.
#[test]
#[ignore = "exhaustive-profile sweep; run in release"]
fn exhaustive_profile_verdicts_and_conflicts_match_golden() {
    let verify = VerifyConfig {
        typeck: TypeckConfig::exhaustive(),
        ..VerifyConfig::default()
    };
    let findings = [
        "LoadStoreAlloca:GepChain",
        "LoadStoreAlloca:PtrIntRoundTrip",
    ];
    check_golden("corpus_exhaustive_budget.txt", verify, &findings);
}

/// Checks every corpus entry's verdict and conflict count at `verify`,
/// under the benchmark budget (50 conflicts, 2 retries at x8, no
/// deadline), against the golden file `file` row for row. A decided entry
/// must also agree with the corpus's `expected_bug`, except the `findings`:
/// entries filed as correct that are Invalid at this profile (their golden
/// rows still pin the verdict).
fn check_golden(file: &str, verify: VerifyConfig, findings: &[&str]) {
    let path = format!("{}/../../tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).expect("read golden file");
    let mut expected: BTreeMap<&str, (&str, u64)> = BTreeMap::new();
    for line in golden
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let row: Vec<&str> = line.split(' ').collect();
        let [name, verdict, conflicts] = row[..] else {
            panic!("malformed golden row: {line:?}");
        };
        let conflicts = conflicts.parse().expect("conflict count");
        assert!(
            expected.insert(name, (verdict, conflicts)).is_none(),
            "duplicate row {name}"
        );
    }

    let driver = DriverConfig {
        verify,
        conflict_budget: Some(50),
        max_retries: 2,
        retry_multiplier: 8,
        ..DriverConfig::default()
    };
    let mut actual = String::new();
    let mut problems = Vec::new();
    for e in alive::suite::full_corpus() {
        let o = verify_single(&e.name, &e.transform, &driver);
        let (verdict, conflicts) = (o.kind.as_str(), o.conflicts);
        actual.push_str(&format!("{} {verdict} {conflicts}\n", e.name));
        let decided = matches!(o.kind, OutcomeKind::Valid | OutcomeKind::Invalid);
        let finding = findings.contains(&e.name.as_str());
        if decided && !finding && (o.kind == OutcomeKind::Invalid) != e.expected_bug {
            problems.push(format!(
                "{}: {verdict}, but the corpus expects bug={}",
                e.name, e.expected_bug
            ));
        }
        let Some((want, want_conflicts)) = expected.remove(e.name.as_str()) else {
            problems.push(format!("{}: no golden row (new corpus entry)", e.name));
            continue;
        };
        let was_decided = matches!(want, "valid" | "invalid");
        if want != verdict {
            let kind = if was_decided && decided {
                "FLIP (Valid<->Invalid is never allowed)"
            } else if was_decided {
                "REGRESSION (decided -> unknown)"
            } else if decided {
                "unknown -> decided (update the golden file in the same change, note it in CHANGES.md)"
            } else {
                "verdict change"
            };
            problems.push(format!("{}: {want} -> {verdict}: {kind}", e.name));
        } else if want_conflicts != conflicts {
            problems.push(format!(
                "{}: conflict drift {want_conflicts} -> {conflicts} (update the golden \
                 file in the same change, note it in CHANGES.md)",
                e.name
            ));
        }
    }
    for name in expected.keys() {
        problems.push(format!(
            "{name}: golden row for an entry no longer in the corpus"
        ));
    }
    if !problems.is_empty() {
        let out = std::env::temp_dir().join(file.replace(".txt", ".actual.txt"));
        std::fs::write(&out, &actual).expect("write actual rows");
        panic!(
            "{} row(s) differ from {path} (actual rows written to {}):\n{}",
            problems.len(),
            out.display(),
            problems.join("\n")
        );
    }
}

/// A retry resumes at the condition that ran out instead of re-proving the
/// conditions earlier attempts refuted. At the benchmark profile
/// `MulDivRem:UremLtDivisor` is decided only by the third attempt (50, 400,
/// then 3,200 conflicts); re-running each attempt from the first typing
/// took 15 queries.
#[test]
fn retries_resume_at_the_condition_that_ran_out() {
    let e = alive::suite::full_corpus()
        .into_iter()
        .find(|e| e.name == "MulDivRem:UremLtDivisor")
        .expect("corpus entry");
    let retried = DriverConfig {
        verify: VerifyConfig::fast(),
        conflict_budget: Some(50),
        max_retries: 2,
        retry_multiplier: 8,
        with_certificates: true,
        ..DriverConfig::default()
    };
    let once = DriverConfig {
        conflict_budget: Some(3200),
        max_retries: 0,
        ..retried.clone()
    };
    let r = verify_single(&e.name, &e.transform, &retried);
    let o = verify_single(&e.name, &e.transform, &once);
    assert_eq!((r.kind, o.kind), (OutcomeKind::Valid, OutcomeKind::Valid));
    assert_eq!((r.retries, o.retries), (2, 0));

    // The attempts' certificates, concatenated, are the unretried run's.
    let labels = |o: &TransformOutcome| -> Vec<(String, String)> {
        o.certificates
            .iter()
            .map(|c| (c.meta.typing.clone(), c.meta.check.clone()))
            .collect()
    };
    assert_eq!(labels(&r), labels(&o));
    for c in &r.certificates {
        c.check()
            .unwrap_or_else(|err| panic!("{} {}: {err}", c.meta.typing, c.meta.check));
    }

    let typings = enumerate_typings(&e.transform, &VerifyConfig::fast().typeck)
        .expect("typings")
        .len();
    assert_eq!((r.typings, o.typings), (typings, typings));
    // Each retry re-solves only the condition that ran out.
    assert_eq!(r.queries, o.queries + r.retries as usize);
    assert!(r.queries < 15, "{} queries", r.queries);
}

#[test]
fn corpus_covers_every_table3_category() {
    let all = alive::suite::corpus();
    for file in alive::suite::InstCombineFile::all() {
        let n = all.iter().filter(|e| e.file == file).count();
        assert!(n >= 8, "{file}: only {n} entries");
    }
    assert!(all.len() >= 140, "corpus size: {}", all.len());
}

#[test]
fn cpp_generation_covers_non_memory_corpus() {
    let mut generated = 0;
    let mut skipped = 0;
    for e in alive::suite::corpus() {
        let has_memory = e
            .transform
            .source
            .iter()
            .chain(&e.transform.target)
            .any(|s| s.inst.is_memory_op());
        match generate_cpp(&e.transform) {
            Ok(cpp) => {
                assert!(!has_memory, "{}: memory op slipped through", e.name);
                assert!(cpp.contains("match(I,"), "{}: {cpp}", e.name);
                generated += 1;
            }
            Err(_) => {
                assert!(has_memory, "{}: unexpected codegen failure", e.name);
                skipped += 1;
            }
        }
    }
    assert!(generated > 120, "generated {generated}");
    assert!(skipped <= 10, "skipped {skipped}");
}

#[test]
fn suite_names_resolve() {
    for e in alive::suite::full_corpus() {
        assert!(alive::suite::by_name(&e.name).is_some(), "{}", e.name);
    }
}

/// FNV-1a over the NUL-separated canonical texts of the first `n`
/// transforms of one generator stream.
fn canonical_digest(stream: u64, n: u64, cfg: &GenConfig) -> u64 {
    let mut bytes = Vec::new();
    for i in 0..n {
        let t = alive::fuzz::gen_case(stream, i, cfg);
        bytes.extend_from_slice(alive::ir::canonical_text(&t).as_bytes());
        bytes.push(0);
    }
    alive::ir::canon::fnv1a64(&bytes)
}

/// The canonical-text pin: store keys, verdict-store records and every
/// cached hash are derived from `canonical_text`, so a change to it
/// silently turns every stored verdict into a miss. The corpus hashes
/// must match `tests/golden/canonical_hashes.txt` (the output of
/// `alive hash crates/alive-suite/opts/*.opt`), and three fixed generated
/// sets must reproduce their recorded digests.
#[test]
fn canonical_hashes_match_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/canonical_hashes.txt"
    );
    let golden = std::fs::read_to_string(path).expect("read golden file");
    let expected: BTreeMap<&str, &str> = golden
        .lines()
        .map(|l| {
            let (hash, name) = l
                .split_once("  ")
                .unwrap_or_else(|| panic!("malformed golden row: {l:?}"));
            (name, hash)
        })
        .collect();
    let all = alive::suite::full_corpus();
    assert_eq!(all.len(), expected.len(), "corpus size vs golden rows");
    for e in &all {
        let actual = format!("{:016x}", alive::ir::canonical_hash(&e.transform));
        assert_eq!(
            Some(&actual.as_str()),
            expected.get(e.name.as_str()),
            "{}: canonical hash drifted",
            e.name
        );
    }

    let sets = [
        (
            "serve",
            0x5345_5256,
            GenConfig::default(),
            0x76da_5ee4_7595_ac6a,
        ),
        (
            "gen-undef",
            0x4745_4e55,
            GenConfig {
                undef_prob: 0.3,
                ..GenConfig::default()
            },
            0x6880_be6d_8f0c_bd0b,
        ),
        (
            "multi-site",
            0x4d55_4c54,
            GenConfig {
                max_insts: 10,
                pre_prob: 0.8,
                ..GenConfig::default()
            },
            0xb43a_c36f_9a17_73c0,
        ),
    ];
    let mut drift = Vec::new();
    for (name, stream, cfg, want) in &sets {
        let got = canonical_digest(*stream, 2_000, cfg);
        if got != *want {
            drift.push(format!("{name}: {got:#018x}, golden {want:#018x}"));
        }
    }
    assert!(
        drift.is_empty(),
        "canonical digests drifted:\n{}",
        drift.join("\n")
    );
}
