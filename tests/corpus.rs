//! Corpus-wide integration tests.
//!
//! The deterministic sample keeps the default test run fast; the full
//! sweep (every entry at the fast profile, ~4 minutes) runs with
//! `cargo test -p integration --test corpus -- --ignored`.

use alive::verifier::{verify_single, DriverConfig, OutcomeKind};
use alive::{generate_cpp, VerifyConfig};
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
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/corpus_bench_budget.txt"
    );
    let golden = std::fs::read_to_string(path).expect("read golden file");
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
        verify: VerifyConfig::fast(),
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
        if decided && (o.kind == OutcomeKind::Invalid) != e.expected_bug {
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
        let out = std::env::temp_dir().join("corpus_bench_budget.actual.txt");
        std::fs::write(&out, &actual).expect("write actual rows");
        panic!(
            "{} row(s) differ from {path} (actual rows written to {}):\n{}",
            problems.len(),
            out.display(),
            problems.join("\n")
        );
    }
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
