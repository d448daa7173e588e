//! `alive_bench compare`: two sets of runs, judged metric by metric
//! against the bounds in `BENCHMARK.json`.
//!
//! For each end-to-end metric and workload, each side's runs give a
//! median and a spread (interquartile distance over the median). The row
//! reads `unresolved` when either spread exceeds the metric's bound —
//! unless every run of one side beats every run of the other — and
//! otherwise `worse`, `better` or `same` by whether the second median moved
//! by more than the bound. Per-layer counts are compared seed by seed and
//! read `same` only when they repeat exactly.

use crate::json::{self, Json};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// An end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the first median by which the second may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds and the names of the `per_layer`
/// metrics whose unit is `count` from a `BENCHMARK.json` text.
///
/// # Errors
///
/// Malformed JSON or a metric entry missing its fields.
pub fn read_benchmark(text: &str) -> Result<(Vec<Bound>, Vec<String>), String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))
    };
    let field = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("metric entry without {key}: {m:?}"))
    };
    let mut bounds = Vec::new();
    for m in list("end_to_end")? {
        bounds.push(Bound {
            name: field(m, "name")?,
            lower_is_better: field(m, "better")? == "lower",
            bound: m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric entry without bound: {m:?}"))?,
        });
    }
    let mut counts = Vec::new();
    for m in list("per_layer")? {
        if field(m, "unit")? == "count" {
            counts.push(field(m, "name")?);
        }
    }
    Ok((bounds, counts))
}

/// One run's record, as `alive_bench --out` writes it.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Reads a results file: one record per line, blank lines ignored.
///
/// # Errors
///
/// Names the first line that is not a well-formed record.
pub fn read_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("results line {}: {what}", i + 1);
        let doc = json::parse(line).map_err(|e| bad(&e))?;
        let num = |key: &str| doc.get(key).and_then(Json::as_f64);
        let mut metrics = BTreeMap::new();
        for (name, m) in doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no metrics object"))?
        {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("metric {name} has no value")))?;
            metrics.insert(name.clone(), value);
        }
        out.push(Record {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("no workload"))?
                .to_string(),
            seed: num("seed").ok_or_else(|| bad("no seed"))? as u64,
            trace: num("trace").ok_or_else(|| bad("no trace flag"))? != 0.0,
            metrics,
        });
    }
    Ok(out)
}

/// How the second set of runs compares with the first on one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// Better by more than the bound.
    Better,
    /// Within the bound (or, for a count, identical on every seed).
    Same,
    /// Worse by more than the bound.
    Worse,
    /// A spread wider than the bound hides the difference.
    Unresolved,
    /// A per-layer count that did not repeat exactly.
    Differs,
}

impl Call {
    /// Lower-case label for the table.
    pub fn as_str(self) -> &'static str {
        match self {
            Call::Better => "better",
            Call::Same => "same",
            Call::Worse => "worse",
            Call::Unresolved => "unresolved",
            Call::Differs => "differs",
        }
    }
}

/// One line of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Runs on each side.
    pub runs: (usize, usize),
    /// Median on each side.
    pub medians: (f64, f64),
    /// Relative change of the second median, positive when better.
    pub change: f64,
    /// The wider of the two sides' spreads.
    pub spread: f64,
    /// The verdict.
    pub call: Call,
}

/// Judges one end-to-end metric of one workload.
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (Call, f64, f64) {
    let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
    let change = if ma == 0.0 {
        0.0
    } else if bound.lower_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let wider = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let call = if wider > bound.bound {
        if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
            Call::Better
        } else if a.iter().all(|&x| b.iter().all(|&y| better(x, y))) {
            Call::Worse
        } else {
            Call::Unresolved
        }
    } else if change < -bound.bound {
        Call::Worse
    } else if change > bound.bound {
        Call::Better
    } else {
        Call::Same
    };
    (call, change, wider)
}

/// Compares two sets of runs: one row per end-to-end metric and workload
/// (untraced records), then one per per-layer count and workload (traced
/// records), in workload order of first appearance.
pub fn compare(bounds: &[Bound], counts: &[String], a: &[Record], b: &[Record]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().chain(b) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let values = |side: &[Record], w: &str, trace: bool, metric: &str| -> Vec<(u64, f64)> {
        side.iter()
            .filter(|r| r.workload == w && r.trace == trace)
            .filter_map(|r| r.metrics.get(metric).map(|&v| (r.seed, v)))
            .collect()
    };
    let only = |v: &[(u64, f64)]| v.iter().map(|&(_, x)| x).collect::<Vec<f64>>();
    let mut rows = Vec::new();
    for &w in &workloads {
        for bound in bounds {
            let (va, vb) = (
                values(a, w, false, &bound.name),
                values(b, w, false, &bound.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (xa, xb) = (only(&va), only(&vb));
            let (call, change, spread) = judge(bound, &xa, &xb);
            rows.push(Row {
                workload: w.to_string(),
                metric: bound.name.clone(),
                runs: (xa.len(), xb.len()),
                medians: (median(&xa).unwrap_or(0.0), median(&xb).unwrap_or(0.0)),
                change,
                spread,
                call,
            });
        }
        for name in counts {
            let (va, vb) = (values(a, w, true, name), values(b, w, true, name));
            let by_seed: BTreeMap<u64, f64> = va.iter().copied().collect();
            let shared: Vec<(f64, f64)> = vb
                .iter()
                .filter_map(|&(seed, y)| by_seed.get(&seed).map(|&x| (x, y)))
                .collect();
            if shared.is_empty() {
                continue;
            }
            let (xa, xb) = (only(&va), only(&vb));
            let (ma, mb) = (median(&xa).unwrap_or(0.0), median(&xb).unwrap_or(0.0));
            rows.push(Row {
                workload: w.to_string(),
                metric: name.clone(),
                runs: (xa.len(), xb.len()),
                medians: (ma, mb),
                change: if ma == 0.0 { 0.0 } else { (mb - ma) / ma },
                spread: 0.0,
                call: if shared.iter().all(|(x, y)| x == y) {
                    Call::Same
                } else {
                    Call::Differs
                },
            });
        }
    }
    rows
}

/// The comparison as a fixed-width table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<28} {:>5} {:>14} {:>14} {:>8} {:>7}  {}\n",
        "workload", "metric", "runs", "median A", "median B", "change", "spread", "call"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<28} {:>5} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            format!("{}/{}", r.runs.0, r.runs.1),
            r.medians.0,
            r.medians.1,
            r.change * 100.0,
            r.spread * 100.0,
            r.call.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn judge_applies_bound_and_direction() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        assert_eq!(judge(&bound(true, 0.1), &a, &a).0, Call::Same);
        assert_eq!(judge(&bound(true, 0.1), &a, &slower).0, Call::Worse);
        assert_eq!(judge(&bound(false, 0.1), &a, &slower).0, Call::Better);
        assert_eq!(judge(&bound(true, 0.25), &a, &slower).0, Call::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_disjoint() {
        let noisy = [5.0, 10.0, 15.0, 8.0, 12.0];
        let shifted = [6.0, 11.0, 16.0, 9.0, 13.0];
        assert_eq!(
            judge(&bound(true, 0.1), &noisy, &shifted).0,
            Call::Unresolved
        );
        let far = [50.0, 60.0, 70.0];
        assert_eq!(judge(&bound(true, 0.1), &noisy, &far).0, Call::Worse);
    }

    #[test]
    fn counts_compare_seed_by_seed() {
        let rec = |seed: u64, v: f64| Record {
            workload: "w".into(),
            seed,
            trace: true,
            metrics: [("sat.conflicts".to_string(), v)].into_iter().collect(),
        };
        let counts = vec!["sat.conflicts".to_string()];
        let a = [rec(1, 5.0), rec(2, 7.0)];
        let rows = compare(&[], &counts, &a, &[rec(2, 7.0), rec(1, 5.0)]);
        assert_eq!(rows[0].call, Call::Same);
        let rows = compare(&[], &counts, &a, &[rec(1, 6.0), rec(2, 7.0)]);
        assert_eq!(rows[0].call, Call::Differs);
    }

    #[test]
    fn records_round_trip_through_results_lines() {
        let line = r#"{"workload": "w", "seed": 3, "trace": 0, "correct": true, "attempted": 4, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#;
        let recs = read_records(&format!("{line}\n\n{line}\n")).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].metrics["setup_s"], 0.5);
        assert!(!recs[0].trace);
        assert!(read_records("{\"workload\": 1}").is_err());
    }
}
