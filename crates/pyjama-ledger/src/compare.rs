//! `pyjama-ledger compare A.json B.json`: per workload × end-to-end metric,
//! both values, the ratio with its base, the bound, and a verdict.

use crate::json::Json;
use crate::schema::{Better, MetricSpec, END_TO_END, FAIL_SHARE_SLACK};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// A side's own slice-to-slice spread is wider than the bound, so a
    /// bound-sized change could not be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value and the per-slice values it
/// is the median of (empty for metrics read once per run).
#[derive(Clone, Debug, Default)]
pub struct Side {
    pub value: f64,
    pub slices: Vec<f64>,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.slices.len() < 2 {
            0.0
        } else {
            stats::spread(&self.slices)
        }
    }
}

/// Verdict for one bounded end-to-end metric, `b` against baseline `a`.
pub fn verdict(spec: &MetricSpec, a: &Side, b: &Side) -> Verdict {
    if a.spread().max(b.spread()) > spec.bound {
        return Verdict::Unresolved;
    }
    if a.value == 0.0 {
        return if b.value == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = worse, as a share of the baseline.
    let worse_by = match spec.better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    let past_floor = (b.value - a.value).abs() > spec.floor;
    if worse_by > spec.bound && past_floor {
        Verdict::Worse
    } else if worse_by < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `fail_share` has no relative bound (its baseline is 0): it is worse when
/// it rises by more than `FAIL_SHARE_SLACK`.
pub fn fail_share_verdict(a: f64, b: f64) -> Verdict {
    if b > a + FAIL_SHARE_SLACK {
        Verdict::Worse
    } else if b < a - FAIL_SHARE_SLACK {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        slices: m.nums("slices"),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One printed row.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub bound: String,
    pub verdict: Verdict,
}

/// Every workload × metric present in both documents.
pub fn compare_docs(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    let workloads = a.get("workloads").map(Json::fields).unwrap_or_default();
    for (workload, _) in workloads {
        for spec in END_TO_END {
            let (Some(sa), Some(sb)) = (side(a, workload, spec.name), side(b, workload, spec.name))
            else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name,
                a: sa.value,
                b: sb.value,
                bound: format!("{:.0}%", spec.bound * 100.0),
                verdict: verdict(spec, &sa, &sb),
            });
        }
        if let (Some(sa), Some(sb)) = (
            side(a, workload, "fail_share"),
            side(b, workload, "fail_share"),
        ) {
            rows.push(Row {
                workload: workload.clone(),
                metric: "fail_share",
                a: sa.value,
                b: sb.value,
                bound: format!("+{FAIL_SHARE_SLACK}"),
                verdict: fail_share_verdict(sa.value, sb.value),
            });
        }
    }
    rows
}

fn build_modes_differ(a: &Json, b: &Json) -> bool {
    let mode = |d: &Json| {
        d.get("meta")
            .and_then(|m| m.get("build_mode"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    mode(a) != mode(b)
}

/// Prints the table; exit code 1 when any row is `worse`.
pub fn main(args: &[String]) -> Result<i32, String> {
    let [path_a, path_b] = args else {
        return Err("usage: pyjama-ledger compare A.json B.json".into());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    if build_modes_differ(&a, &b) {
        eprintln!("warning: the two result sets come from different build modes; their numbers are not comparable");
    }
    let rows = compare_docs(&a, &b);
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    println!(
        "{:<22} {:<16} {:>14} {:>14}  {:<26} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "bound"
    );
    for r in &rows {
        let ratio = if r.a == 0.0 {
            "n/a (base 0)".to_string()
        } else {
            format!("{:.3}x of {:.4}", r.b / r.a, r.a)
        };
        println!(
            "{:<22} {:<16} {:>14.4} {:>14.4}  {:<26} {:>6}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.bound,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} same, {} better, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Same),
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(i32::from(count(Verdict::Worse) > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::e2e_spec;

    fn steady(value: f64) -> Side {
        Side {
            value,
            slices: vec![value * 0.99, value, value * 1.01, value],
        }
    }

    #[test]
    fn verdicts_respect_direction_and_bound() {
        let ops = e2e_spec("ops_per_s").unwrap(); // higher is better, 25 %
        assert_eq!(
            verdict(ops, &steady(1000.0), &steady(1100.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(ops, &steady(1000.0), &steady(700.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(ops, &steady(1000.0), &steady(1300.0)),
            Verdict::Better
        );
        let p50 = e2e_spec("latency_p50_us").unwrap(); // lower is better, 25 %
        assert_eq!(verdict(p50, &steady(100.0), &steady(130.0)), Verdict::Worse);
        assert_eq!(verdict(p50, &steady(100.0), &steady(70.0)), Verdict::Better);
        assert_eq!(verdict(p50, &steady(100.0), &steady(120.0)), Verdict::Same);
    }

    #[test]
    fn noisy_side_is_unresolved_not_same() {
        let p99 = e2e_spec("latency_p99_us").unwrap(); // 25 %
        let noisy = Side {
            value: 100.0,
            slices: vec![60.0, 90.0, 100.0, 140.0, 180.0],
        };
        assert_eq!(verdict(p99, &noisy, &steady(100.0)), Verdict::Unresolved);
        assert_eq!(verdict(p99, &steady(100.0), &noisy), Verdict::Unresolved);
        // A metric read once per run has no spread to be unresolved by.
        let once = |value| Side {
            value,
            slices: Vec::new(),
        };
        let rss = e2e_spec("peak_rss_mb").unwrap();
        assert_eq!(verdict(rss, &once(10.0), &once(13.0)), Verdict::Worse);
    }

    #[test]
    fn setup_needs_both_the_share_and_the_floor() {
        let setup = e2e_spec("setup_s").unwrap(); // 25 % and 20 ms
        assert_eq!(
            verdict(setup, &steady(0.004), &steady(0.008)),
            Verdict::Same
        );
        assert_eq!(
            verdict(setup, &steady(0.100), &steady(0.140)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(setup, &steady(0.100), &steady(0.115)),
            Verdict::Same
        );
    }

    #[test]
    fn fail_share_is_absolute() {
        assert_eq!(fail_share_verdict(0.0, 0.0005), Verdict::Same);
        assert_eq!(fail_share_verdict(0.0, 0.002), Verdict::Worse);
        assert_eq!(fail_share_verdict(0.01, 0.0), Verdict::Better);
    }

    #[test]
    fn documents_compare_row_by_row() {
        let metric = |v: f64| Json::obj().with("value", v).with("slices", &[v, v, v][..]);
        let doc = |ops: f64| {
            Json::obj().with(
                "workloads",
                Json::obj().with(
                    "w",
                    Json::obj().with(
                        "end_to_end",
                        Json::obj()
                            .with("ops_per_s", metric(ops))
                            .with("fail_share", Json::obj().with("value", 0.0)),
                    ),
                ),
            )
        };
        let rows = compare_docs(&doc(1000.0), &doc(500.0));
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].metric, rows[0].verdict),
            ("ops_per_s", Verdict::Worse)
        );
        assert_eq!(
            (rows[1].metric, rows[1].verdict),
            ("fail_share", Verdict::Same)
        );
        assert!(compare_docs(&doc(1.0), &Json::obj()).is_empty());
    }
}
