//! `compare A.json B.json`: one row per workload × end-to-end metric,
//! parent (A) against change (B), judged by the bounds of [`END_TO_END`].

use crate::json::Json;
use crate::run::END_TO_END;
use crate::stats::{median, quartiles};

/// Pseudo-metric: failed operations as a share of attempted. Lower is
/// better and it may not rise at all.
const FAILED_SHARE: &str = "ops_failed_share";

/// What the runs of the change say against the runs of the parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of the change beats every run of the parent, by more
    /// than the parent's own run-to-run spread.
    Improved,
    /// The change's median is no worse than the parent's by more than the
    /// bound, and the spread is tight enough to say so.
    Unchanged,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// Run-to-run spread exceeds the bound and the two sides' runs
    /// interleave: the data cannot carry a verdict.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `parent` (one value per run on each side) for a
/// metric that is better when lower.
pub fn verdict(p: &[f64], c: &[f64], bound: f64) -> Verdict {
    let (p_med, c_med) = (median(p), median(c));
    let scale = p_med.abs();
    let iqr = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        if q1.is_nan() {
            0.0
        } else {
            q3 - q1
        }
    };
    let (p_iqr, c_iqr) = (iqr(p), iqr(c));
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let all_better = max(c) < min(p);
    let all_worse = min(c) > max(p);
    let repeated = p.len() >= 2 && c.len() >= 2;

    if repeated && all_better && p_med - c_med > p_iqr {
        return Verdict::Improved;
    }
    let worse_by = c_med - p_med;
    let spread_exceeds = p_iqr.max(c_iqr) > bound * scale;
    if worse_by > bound * scale && (!spread_exceeds || all_worse) {
        return Verdict::Regressed;
    }
    if spread_exceeds {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// One side's runs of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Runs.
    pub n: usize,
    /// First quartile (`NaN` below two runs).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (`NaN` below two runs).
    pub q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            q1,
            median: median(values),
            q3,
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// File A.
    pub parent: Summary,
    /// File B.
    pub change: Summary,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// `workload → values of `metric`, one per run` for a result file.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter_map(|run| run.get("workloads")?.as_arr())
        .flatten()
        .filter(|w| w.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|w| {
            if metric == FAILED_SHARE {
                Some(w.get("ops_failed")?.as_f64()? / w.get("ops_attempted")?.as_f64()?)
            } else {
                w.get("metrics")?.get(metric)?.get("value")?.as_f64()
            }
        })
        .collect()
}

fn workloads(doc: &Json) -> Vec<String> {
    let mut names = Vec::new();
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    for w in runs
        .iter()
        .filter_map(|r| r.get("workloads")?.as_arr())
        .flatten()
    {
        if let Some(name) = w.get("workload").and_then(Json::as_str) {
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
    }
    names
}

/// Compare two result files written by `run`.
pub fn compare(parent: &Json, change: &Json) -> Result<Vec<Row>, String> {
    if parent.get("quick") != change.get("quick") {
        return Err("one file is a --quick run and the other is not".into());
    }
    let mut rows = Vec::new();
    for workload in workloads(parent) {
        let gates = END_TO_END
            .iter()
            .map(|g| (g.name, g.unit, g.bound))
            .chain([(FAILED_SHARE, "ratio", 0.0)]);
        for (metric, unit, bound) in gates {
            let p = values(parent, &workload, metric);
            let c = values(change, &workload, metric);
            if p.is_empty() || c.is_empty() {
                return Err(format!(
                    "{workload} / {metric}: missing from one of the files"
                ));
            }
            rows.push(Row {
                workload: workload.clone(),
                metric,
                unit,
                parent: Summary::of(&p),
                change: Summary::of(&c),
                bound,
                verdict: verdict(&p, &c, bound),
            });
        }
    }
    if rows.is_empty() {
        return Err("no workloads in the parent file".into());
    }
    Ok(rows)
}

/// Print the table; returns whether every row is `improved` or
/// `unchanged`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<22} {:<24} {:>38} {:>38} {:>6}  verdict",
        "workload", "metric", "parent q1/median/q3 (n)", "change q1/median/q3 (n)", "bound"
    );
    // Four decimals for seconds and ratios, none for byte counts.
    let num = |v: f64| {
        if v.abs() >= 1e4 {
            format!("{v:.0}")
        } else {
            format!("{v:.4}")
        }
    };
    let cell = |s: &Summary| format!("{}/{}/{} ({})", num(s.q1), num(s.median), num(s.q3), s.n);
    for r in rows {
        println!(
            "{:<22} {:<24} {:>38} {:>38} {:>6}  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            cell(&r.parent),
            cell(&r.change),
            r.bound,
            r.verdict.label()
        );
    }
    rows.iter()
        .all(|r| matches!(r.verdict, Verdict::Improved | Verdict::Unchanged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_runs_within_bound_are_unchanged() {
        let p = [1.00, 1.01, 0.99, 1.00];
        let c = [1.03, 1.04, 1.02, 1.03];
        assert_eq!(verdict(&p, &c, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn beyond_bound_is_regressed() {
        let p = [1.00, 1.01, 0.99, 1.00];
        let c = [1.20, 1.21, 1.19, 1.20];
        assert_eq!(verdict(&p, &c, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&c, &p, 0.10), Verdict::Improved);
    }

    #[test]
    fn separated_and_beyond_parent_spread_is_improved() {
        let p = [1.00, 1.02, 0.98, 1.00];
        let c = [0.90, 0.91, 0.89, 0.90];
        assert_eq!(verdict(&p, &c, 0.10), Verdict::Improved);
        // Better on the median but interleaved: not a gain.
        let c = [0.97, 1.01, 0.95, 0.99];
        assert_eq!(verdict(&p, &c, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn wide_interleaved_runs_are_unresolved() {
        let p = [1.0, 1.3, 0.8, 1.1];
        let c = [1.1, 0.9, 1.4, 1.0];
        assert_eq!(verdict(&p, &c, 0.10), Verdict::Unresolved);
        // Wide, but every change run is worse than every parent run.
        let c = [1.6, 1.9, 1.5, 1.7];
        assert_eq!(verdict(&p, &c, 0.10), Verdict::Regressed);
    }

    #[test]
    fn exact_metrics_with_zero_bound() {
        assert_eq!(verdict(&[6.0, 6.0], &[6.0, 6.0], 0.0), Verdict::Unchanged);
        assert_eq!(verdict(&[6.0, 6.0], &[7.0, 7.0], 0.0), Verdict::Regressed);
        assert_eq!(verdict(&[6.0, 6.0], &[5.0, 5.0], 0.0), Verdict::Improved);
        // The failed share may not rise from zero.
        assert_eq!(verdict(&[0.0, 0.0], &[0.1, 0.0], 0.0), Verdict::Unresolved);
        assert_eq!(verdict(&[0.0, 0.0], &[0.1, 0.1], 0.0), Verdict::Regressed);
    }

    #[test]
    fn single_runs_can_regress_but_never_improve() {
        assert_eq!(verdict(&[1.0], &[1.2], 0.10), Verdict::Regressed);
        assert_eq!(verdict(&[1.0], &[0.5], 0.10), Verdict::Unchanged);
    }

    fn file(sweep: &[f64], failed: f64) -> Json {
        let runs = sweep.iter().map(|&s| {
            let metrics = END_TO_END.iter().map(|g| {
                let value = if g.name == "sweep_s" { s } else { 1.0 };
                (
                    g.name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(g.unit))]),
                )
            });
            Json::obj([(
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("workload", Json::str("w")),
                    ("ops_attempted", Json::Num(10.0)),
                    ("ops_failed", Json::Num(failed)),
                    ("metrics", Json::obj(metrics)),
                ])]),
            )])
        });
        Json::obj([
            ("quick", Json::Bool(false)),
            ("runs", Json::Arr(runs.collect())),
        ])
    }

    #[test]
    fn files_compare_row_by_row() {
        let rows = compare(
            &file(&[1.0, 1.01, 0.99], 0.0),
            &file(&[1.3, 1.31, 1.29], 0.0),
        )
        .unwrap();
        assert_eq!(rows.len(), END_TO_END.len() + 1);
        for r in &rows {
            let want = if r.metric == "sweep_s" {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            };
            assert_eq!(r.verdict, want, "{}", r.metric);
        }
        assert!(!print(&rows));
        let rows = compare(&file(&[1.0, 1.0], 0.0), &file(&[1.0, 1.0], 1.0)).unwrap();
        assert_eq!(rows.last().unwrap().metric, FAILED_SHARE);
        assert_eq!(rows.last().unwrap().verdict, Verdict::Regressed);
    }

    #[test]
    fn mismatched_files_are_errors() {
        let quick = Json::obj([("quick", Json::Bool(true)), ("runs", Json::Arr(vec![]))]);
        assert!(compare(&file(&[1.0], 0.0), &quick).is_err());
        let empty = Json::obj([("quick", Json::Bool(false)), ("runs", Json::Arr(vec![]))]);
        assert!(compare(&empty, &file(&[1.0], 0.0)).is_err());
        assert!(compare(&file(&[1.0], 0.0), &empty).is_err());
    }
}
