//! Workload definitions and the benchmark's own correctness gates.

use alive::verifier::OutcomeKind;
use alive_perfbench::json::{self, Json};
use alive_perfbench::workloads::{
    corpus_failure, corpus_split, gen_undef_cases, rename_registers, round_mismatches,
    serve_requests, uses_muldiv, Answer,
};
use alive_perfbench::{per_layer, run_workload, Params, Workload, END_TO_END};
use std::collections::HashSet;
use std::path::PathBuf;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the package");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("no {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn corpus_split_partitions_the_full_corpus() {
    let all = alive::suite::full_corpus();
    let (muldiv, rest) = corpus_split(all.clone());
    assert_eq!(muldiv.len() + rest.len(), all.len());
    assert_eq!((muldiv.len(), rest.len()), (55, 169));
    let seen: HashSet<&str> = muldiv
        .iter()
        .chain(&rest)
        .map(|e| e.name.as_str())
        .collect();
    let want: HashSet<&str> = all.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(seen, want);
    assert!(muldiv.iter().all(|e| uses_muldiv(&e.transform)));
    assert!(!rest.iter().any(|e| uses_muldiv(&e.transform)));
}

#[test]
fn muldiv_is_found_in_instructions_constants_and_preconditions() {
    let found = |text: &str| uses_muldiv(&alive::parse_transform(text).unwrap());
    assert!(found("%r = mul %x, 3\n=>\n%r = shl %x, 1"));
    assert!(found("%r = add %x, C*2\n=>\n%r = add %x, C"));
    assert!(found(
        "Pre: C1 / C2 == 1\n%r = add %x, C1\n=>\n%r = add %x, C1"
    ));
    assert!(!found(
        "Pre: isPowerOf2(C)\n%r = and %x, C\n=>\n%r = and %x, C"
    ));
}

#[test]
fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
    assert_eq!(gen_undef_cases(7, 40), gen_undef_cases(7, 40));
    assert_ne!(gen_undef_cases(7, 40), gen_undef_cases(8, 40));
    assert_eq!(serve_requests(7, 200), serve_requests(7, 200));
    assert_ne!(serve_requests(7, 200), serve_requests(8, 200));
}

#[test]
fn serve_stream_mixes_fresh_and_renamed_resubmissions() {
    let requests = serve_requests(3, 500);
    let fresh = requests
        .iter()
        .filter(|(name, _)| name.starts_with("fresh-"))
        .count();
    assert_eq!(fresh, 100);
    assert!(requests[0].0.starts_with("fresh-"));
    let renamed = requests
        .iter()
        .filter(|(name, t)| {
            let k: usize = match name.strip_prefix("resubmit-") {
                Some(k) => k.parse().unwrap(),
                None => return false,
            };
            let original = &requests
                .iter()
                .find(|(n, _)| *n == format!("fresh-{k}"))
                .unwrap()
                .1;
            assert_eq!(
                alive::ir::canonical_hash(t),
                alive::ir::canonical_hash(original)
            );
            t != original
        })
        .count();
    assert_eq!(renamed, 200);
    // Every seed sends the same requests, up to renaming, in its own order.
    let hashes = |seed| {
        let mut v: Vec<u64> = serve_requests(seed, 500)
            .iter()
            .map(|(_, t)| alive::ir::canonical_hash(t))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(hashes(3), hashes(4));
}

#[test]
fn renaming_changes_every_register_and_keeps_the_meaning() {
    let t = alive::parse_transform(
        "Pre: MaskedValueIsZero(%a, C)\n%a = and %x, C\n%r = or %a, width(%x)\n=>\n%r = or %a, 8",
    )
    .unwrap();
    let r = rename_registers(&t, 5);
    let text = r.to_string();
    for old in ["%a", "%x", "%r "] {
        assert!(!text.contains(old), "{old} survived in {text}");
    }
    alive::validate(&r).unwrap();
    assert_eq!(alive::ir::canonical_hash(&r), alive::ir::canonical_hash(&t));
}

#[test]
fn wrong_verdicts_fail_the_checker() {
    assert!(corpus_failure("bug", true, OutcomeKind::Valid, "").is_some());
    assert!(corpus_failure("ok", false, OutcomeKind::Invalid, "").is_some());
    assert!(corpus_failure("ok", false, OutcomeKind::Valid, "").is_none());
    assert!(corpus_failure("bug", true, OutcomeKind::Invalid, "").is_none());
    // Unknown is honest; a panic inside the verifier is not.
    assert!(corpus_failure("ok", false, OutcomeKind::Unknown, "budget exhausted").is_none());
    assert!(corpus_failure("ok", false, OutcomeKind::Unknown, "internal error: boom").is_some());
    assert!(corpus_failure("ok", false, OutcomeKind::Error, "ill-typed").is_some());
}

#[test]
fn rounds_that_do_not_repeat_fail_the_gate() {
    let a = |kind, conflicts| Answer {
        kind,
        cached: false,
        conflicts,
    };
    let first = vec![a(OutcomeKind::Valid, 3), a(OutcomeKind::Unknown, 50)];
    assert!(round_mismatches(&[first.clone(), first.clone()]).is_empty());
    let conflicts_moved = vec![a(OutcomeKind::Valid, 4), a(OutcomeKind::Unknown, 50)];
    assert_eq!(round_mismatches(&[first.clone(), conflicts_moved]).len(), 1);
    let verdict_moved = vec![a(OutcomeKind::Valid, 3), a(OutcomeKind::Valid, 50)];
    assert_eq!(round_mismatches(&[first.clone(), verdict_moved]).len(), 1);
    let mut hit = first.clone();
    hit[0].cached = true;
    assert_eq!(round_mismatches(&[first, hit]).len(), 1);
}

#[test]
fn benchmark_json_matches_the_code() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names(&doc, "per_layer"), layers);
    // setup_s carries the largest bound, and no bound exceeds a quarter.
    let bounds: Vec<(String, f64)> = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("bound").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
    assert!(bounds
        .iter()
        .all(|&(_, b)| b > 0.0 && b <= setup && b <= 0.25));
}

#[test]
fn every_workload_reports_every_listed_metric_and_answers_correctly() {
    let doc = benchmark_json();
    let want = |list: &str| -> Vec<String> { names(&doc, list).into_iter().map(|p| p.0).collect() };
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("alive-perfbench-test");
    for w in Workload::ALL {
        let size = match w {
            Workload::CorpusMulDiv => 4,
            Workload::CorpusNoMulDiv => 12,
            Workload::GenUndef => 30,
            Workload::ServeReplay => 60,
        };
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let params = Params {
                seed: 11,
                seconds: 0.01,
                trace,
                size: Some(size),
                scratch: scratch.clone(),
            };
            let r = run_workload(w, &params).unwrap();
            assert!(r.correct(), "{}: {:?}", w.name(), r.failures);
            let got: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(got, want(list), "{} trace={trace}", w.name());
            assert!(r.attempted >= size as u64 * 3);
            if !trace {
                assert!(
                    r.metrics.iter().all(|m| m.value > 0.0),
                    "{}: {:?}",
                    w.name(),
                    r.metrics
                );
            }
            let line = json::parse(&r.summary_json()).unwrap();
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
    assert!(!scratch
        .join(format!("serve-replay-{}", std::process::id()))
        .exists());
}
