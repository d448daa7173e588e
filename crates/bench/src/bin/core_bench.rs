//! Core verification benchmark: one solver-backed sweep over the paper
//! corpus, written to `BENCH_core.json` — the tracked trajectory for
//! per-transform verification time.
//!
//! Where `serve_bench` measures the *cache* (hit vs. miss latency), this
//! measures the *verifier*: every corpus transform is verified fresh, no
//! store, and the per-transform wall times summarize to the percentiles
//! the repo tracks across PRs. The config matches the CI smoke profile
//! (fast widths, bounded conflicts, escalating retries) so numbers are
//! comparable run-over-run.
//!
//! Run with: `cargo run --release -p bench [out.json] [limit]`
//! (`core_bench` is the bench crate's default binary.)

use alive::verifier::{verify_single, DriverConfig};
use alive::VerifyConfig;
use bench::percentile;
use std::time::Instant;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_core.json".to_string());
    let limit: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(usize::MAX);

    let corpus: Vec<_> = alive::suite::full_corpus()
        .into_iter()
        .take(limit)
        .collect();
    let driver = DriverConfig {
        verify: VerifyConfig::fast(),
        conflict_budget: Some(50),
        max_retries: 2,
        ..DriverConfig::default()
    };

    let sweep = Instant::now();
    let mut rows: Vec<(String, String, u64, u64)> = Vec::with_capacity(corpus.len());
    for entry in &corpus {
        let start = Instant::now();
        let outcome = verify_single(&entry.name, &entry.transform, &driver);
        rows.push((
            entry.name.clone(),
            outcome.kind.as_str().to_string(),
            start.elapsed().as_micros() as u64,
            outcome.conflicts,
        ));
    }
    let wall_us = sweep.elapsed().as_micros() as u64;

    let mut micros: Vec<u64> = rows.iter().map(|r| r.2).collect();
    micros.sort_unstable();
    let total_us: u64 = micros.iter().sum();
    let mut verdicts = std::collections::BTreeMap::<&str, usize>::new();
    for (_, verdict, _, _) in &rows {
        *verdicts.entry(verdict).or_default() += 1;
    }
    let verdict_json: Vec<String> = verdicts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();

    // The tracked trajectory keeps the slowest transforms by name so a
    // regression points at a specific transform, not just a percentile.
    let mut slowest: Vec<_> = rows.iter().collect();
    slowest.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    let slowest_json: Vec<String> = slowest
        .iter()
        .take(10)
        .map(|(name, verdict, us, conflicts)| {
            format!(
                "{{\"name\": \"{name}\", \"verdict\": \"{verdict}\", \"wall_us\": {us}, \
                 \"conflicts\": {conflicts}}}"
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"schema\": \"alive-bench-core/v1\",\n  \"corpus\": {},\n  \
         \"wall_us\": {wall_us},\n  \"total_us\": {total_us},\n  \
         \"mean_us\": {},\n  \"p50_us\": {},\n  \"p90_us\": {},\n  \
         \"p99_us\": {},\n  \"max_us\": {},\n  \"verdicts\": {{{}}},\n  \
         \"slowest\": [\n    {}\n  ]\n}}\n",
        corpus.len(),
        total_us / micros.len().max(1) as u64,
        percentile(&micros, 50),
        percentile(&micros, 90),
        percentile(&micros, 99),
        micros.last().copied().unwrap_or(0),
        verdict_json.join(", "),
        slowest_json.join(",\n    "),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_core.json");
    print!("{json}");
    println!(
        "core sweep: {} transform(s) in {:.2}s, written to {out_path}",
        corpus.len(),
        wall_us as f64 / 1e6
    );
}
