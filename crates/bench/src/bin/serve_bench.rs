//! Serving benchmark: cache hit latency, miss latency, and the corpus
//! dedupe ratio, written to `BENCH_serve.json`.
//!
//! The serve cache's pitch is that a warm daemon answers a re-submitted
//! transform in microseconds instead of re-running the solver. This bench
//! measures that directly, in-process (no transport noise):
//!
//! 1. **cold pass** — the full paper corpus against a fresh store; every
//!    distinct canonical form pays for a real verification (miss), and
//!    canonical duplicates within the corpus already hit (the dedupe
//!    ratio).
//! 2. **warm pass** — the same corpus again; every request must be a
//!    cache hit, and the pass must run ≥10x faster than the cold one.
//! 3. **compaction pass** — the store is bloated with 3x superseding
//!    churn (every record re-appended twice; replay is last-record-wins,
//!    so the copies are dead), then compacted; store bytes and
//!    warm-reopen time are recorded before and after — the numbers
//!    behind the store-growth guidance in `docs/SERVING.md`.
//!
//! Run with: `cargo run --release -p bench --bin serve_bench [out.json] [limit]`

use alive::serve::{ServeConfig, Server};
use alive::verifier::DriverConfig;
use alive::VerifyConfig;
use bench::percentile;
use std::time::Instant;

/// Latency summary of one pass, in microseconds.
struct Lat {
    count: usize,
    total_us: u64,
    mean_us: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
}

fn summarize(mut micros: Vec<u64>) -> Lat {
    micros.sort_unstable();
    let count = micros.len();
    let total_us: u64 = micros.iter().sum();
    Lat {
        count,
        total_us,
        mean_us: total_us / count.max(1) as u64,
        p50_us: percentile(&micros, 50),
        p90_us: percentile(&micros, 90),
        p99_us: percentile(&micros, 99),
        max_us: *micros.last().unwrap_or(&0),
    }
}

fn render(l: &Lat) -> String {
    format!(
        "{{\"count\": {}, \"total_us\": {}, \"mean_us\": {}, \"p50_us\": {}, \
         \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
        l.count, l.total_us, l.mean_us, l.p50_us, l.p90_us, l.p99_us, l.max_us
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let limit: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(usize::MAX);

    let corpus: Vec<_> = alive::suite::full_corpus()
        .into_iter()
        .take(limit)
        .collect();
    let distinct = corpus
        .iter()
        .map(|e| alive::ir::canonical_hash(&e.transform))
        .collect::<std::collections::HashSet<_>>()
        .len();

    let dir = std::env::temp_dir().join(format!("alive-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    // The paper corpus has a handful of solver-hostile mul/div queries; a
    // conflict budget keeps the cold pass honest-but-bounded, exactly like
    // the CI budget smoke run. Bounded verdicts cache like any other.
    let config = ServeConfig {
        driver: DriverConfig {
            verify: VerifyConfig::fast(),
            conflict_budget: Some(50),
            max_retries: 2,
            ..DriverConfig::default()
        },
        store_path: dir.join("store.jsonl"),
        ..Default::default()
    };
    let (server, _how) = Server::open(config).expect("open store");

    let run_pass = |label: &str| -> (Vec<(u64, bool)>, usize, u64) {
        let pass = Instant::now();
        let mut timings = Vec::with_capacity(corpus.len());
        let mut hits = 0usize;
        for entry in &corpus {
            let start = Instant::now();
            let answer = server.check(&entry.name, &entry.transform);
            timings.push((start.elapsed().as_micros() as u64, answer.cached));
            hits += usize::from(answer.cached);
        }
        let wall = pass.elapsed();
        println!(
            "{label}: {} transform(s), {} hit(s), {:.2}s",
            corpus.len(),
            hits,
            wall.as_secs_f64()
        );
        (timings, hits, wall.as_micros() as u64)
    };

    let (cold, cold_hits, cold_wall_us) = run_pass("cold pass");
    let (warm, warm_hits, warm_wall_us) = run_pass("warm pass");

    // Cold-pass hits are canonical duplicates inside the corpus itself.
    let dedupe_ratio = cold_hits as f64 / corpus.len().max(1) as f64;
    // Cold-pass misses are the real verifications; cold-pass hits count
    // with the warm numbers — both are answered from the store.
    let mut miss_us = Vec::new();
    let mut hit_us = Vec::new();
    for (us, cached) in cold.into_iter().chain(warm) {
        if cached {
            hit_us.push(us);
        } else {
            miss_us.push(us);
        }
    }
    let miss = summarize(miss_us);
    let hit = summarize(hit_us);
    let speedup = cold_wall_us as f64 / warm_wall_us.max(1) as f64;

    // Compaction pass: release the store lock, inject 3x superseding
    // churn, and measure size + warm-reopen latency around the rewrite.
    drop(server);
    let store_path = dir.join("store.jsonl");
    let text = std::fs::read_to_string(&store_path).expect("read store");
    let records: Vec<&str> = text.lines().skip(1).collect();
    let mut bloated = text.clone();
    for _ in 0..2 {
        for r in &records {
            bloated.push_str(r);
            bloated.push('\n');
        }
    }
    std::fs::write(&store_path, &bloated).expect("bloat store");

    let fingerprint = alive::verifier::config_fingerprint(&VerifyConfig::fast());
    let reopen = |label: &str| -> (u64, f64) {
        let bytes = std::fs::metadata(&store_path)
            .expect("store metadata")
            .len();
        let start = Instant::now();
        let (store, _how) = alive::verifier::VerdictStore::open(&store_path, fingerprint, 0, None)
            .expect("warm reopen");
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        drop(store);
        println!("{label}: {bytes} bytes, warm reopen {ms:.3}ms");
        (bytes, ms)
    };
    let (bytes_pre, reopen_ms_pre) = reopen("pre-compact");
    let report = alive::verifier::compact_store(&store_path).expect("compact");
    let (bytes_post, reopen_ms_post) = reopen("post-compact");
    assert!(
        bytes_post < bytes_pre,
        "compaction must shrink a store with dead records ({bytes_pre} -> {bytes_post})"
    );

    let json = format!(
        "{{\n  \"schema\": \"alive-bench-serve/v3\",\n  \"corpus\": {},\n  \
         \"distinct_canonical\": {distinct},\n  \"dedupe_ratio\": {dedupe_ratio:.4},\n  \
         \"cold_pass_hits\": {cold_hits},\n  \"warm_pass_hits\": {warm_hits},\n  \
         \"cold_wall_us\": {cold_wall_us},\n  \"warm_wall_us\": {warm_wall_us},\n  \
         \"warm_speedup\": {speedup:.1},\n  \"miss\": {},\n  \"hit\": {},\n  \
         \"store\": {{\"bytes_pre_compact\": {bytes_pre}, \
         \"reopen_ms_pre_compact\": {reopen_ms_pre:.3}, \
         \"bytes_post_compact\": {bytes_post}, \
         \"reopen_ms_post_compact\": {reopen_ms_post:.3}, \
         \"replayed\": {}, \"live\": {}, \"dropped\": {}}}\n}}\n",
        corpus.len(),
        render(&miss),
        render(&hit),
        report.replayed,
        report.live,
        report.dropped,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    print!("{json}");
    println!("written to {out_path}");

    let _ = std::fs::remove_dir_all(&dir);
    // A warm daemon must answer the whole corpus from cache; anything
    // else means the canonical identity broke between passes.
    assert_eq!(
        warm_hits,
        corpus.len(),
        "warm pass was not fully cached ({warm_hits}/{})",
        corpus.len()
    );
}
