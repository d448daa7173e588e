//! Shared helpers for the reproduction binaries and Criterion benches.

use alive::suite::SuiteEntry;
use alive::{Transform, Verdict, VerifyConfig};

/// Verifies one corpus entry, returning whether a bug was found.
///
/// # Panics
///
/// Panics if verification errors out (corpus entries are well-formed).
pub fn entry_found_bug(entry: &SuiteEntry, config: &VerifyConfig) -> bool {
    match alive::verify(&entry.transform, config) {
        Ok(v) => v.is_invalid(),
        Err(e) => panic!("{}: {e}", entry.name),
    }
}

/// Verifies one corpus entry, returning the verdict.
///
/// # Panics
///
/// Panics if verification errors out.
pub fn entry_verdict(entry: &SuiteEntry, config: &VerifyConfig) -> Verdict {
    alive::verify(&entry.transform, config).unwrap_or_else(|e| panic!("{}: {e}", entry.name))
}

/// The corpus as (name, transform) pairs for the peephole pass, restricted
/// to entries the interpreted matcher supports (no memory ops).
pub fn pass_templates() -> Vec<(String, Transform)> {
    alive::suite::corpus()
        .into_iter()
        .filter(|e| {
            !e.transform
                .source
                .iter()
                .chain(&e.transform.target)
                .any(|s| s.inst.is_memory_op())
        })
        .map(|e| (e.name, e.transform))
        .collect()
}

/// The `p`-th percentile (nearest rank below) of an ascending slice, or 0
/// for an empty one.
pub fn percentile(sorted: &[u64], p: usize) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[(n - 1) * p / 100],
    }
}

/// A one-line histogram bar for terminal output (log scale).
pub fn log_bar(count: u64, max: u64) -> String {
    if count == 0 || max == 0 {
        return String::new();
    }
    let ratio = ((count as f64).ln_1p() / (max as f64).ln_1p() * 50.0).ceil() as usize;
    "#".repeat(ratio.max(1))
}
