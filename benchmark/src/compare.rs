//! `--compare A.json B.json`: holds every end-to-end metric of B against
//! A, workload by workload, with the bound the benchmark fixed for it.

use std::fmt::Write as _;

use crate::json::Value;
use crate::spec::{Better, EndToEnd, END_TO_END};

/// One side's reading of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Reading {
    /// How far the run's own samples lie from the value it reports, as a
    /// share of the value: the distance to the nearer quartile. Every
    /// measured metric is a best — of the passes, of the set-ups, or of
    /// each operation over the passes — and so lies at the edge of its
    /// samples; this is how close a quarter of them came to it.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            return 0.0;
        }
        let distance = (self.value - self.q1)
            .abs()
            .min((self.value - self.q3).abs());
        distance / self.value.abs()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's value is no worse than A's by more than the bound, and both
    /// runs repeat within the bound.
    Unchanged,
    /// B's value is better than A's by more than the bound.
    Improved,
    /// A run's own spread exceeds the bound, so a difference within the
    /// bound cannot be told from noise.
    Unresolved,
    /// B's value is worse than A's by more than the bound.
    Regression,
    /// An exact metric differs in its nine significant digits.
    Changed,
}

impl Verdict {
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Changed)
    }

    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Regression => "REGRESSION",
            Verdict::Changed => "CHANGED",
        }
    }
}

/// By how much of A's value B is worse (negative: better).
fn worsening(spec: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match spec.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

pub fn verdict(spec: &EndToEnd, a: Reading, b: Reading) -> Verdict {
    if spec.exact {
        let nine = |v: f64| format!("{v:.8e}");
        return if nine(a.value) == nine(b.value) {
            Verdict::Unchanged
        } else {
            Verdict::Changed
        };
    }
    let worse = worsening(spec, a.value, b.value);
    if worse > spec.bound {
        return Verdict::Regression;
    }
    if a.spread().max(b.spread()) > spec.bound {
        // Still a clear gain when B's worse quartile beats A's best.
        let b_worst = match spec.better {
            Better::Lower => b.q1.max(b.q3),
            Better::Higher => b.q1.min(b.q3),
        };
        return if worsening(spec, a.value, b_worst) < 0.0 {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse < -spec.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Reading,
    pub b: Reading,
    pub verdict: Verdict,
}

fn reading(result: &Value, metric: &str) -> Option<Reading> {
    let m = result.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    Some(Reading {
        value,
        q1: m.get("q1").and_then(Value::as_f64).unwrap_or(value),
        q3: m.get("q3").and_then(Value::as_f64).unwrap_or(value),
    })
}

fn results(doc: &Value) -> Result<&[Value], String> {
    doc.get("results")
        .and_then(Value::as_array)
        .ok_or_else(|| "not a result file: no `results` array".to_string())
}

/// Compares two parsed result files: one row per workload present in
/// both and end-to-end metric present in both, in A's workload order.
///
/// # Errors
///
/// Either document lacks a `results` array, or they share no workload.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let b_results = results(b)?;
    for ra in results(a)? {
        let Some(workload) = ra.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let Some(rb) = b_results
            .iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        else {
            continue;
        };
        for spec in END_TO_END {
            if let (Some(ma), Some(mb)) = (reading(ra, spec.name), reading(rb, spec.name)) {
                rows.push(Row {
                    workload: workload.to_string(),
                    metric: spec.name,
                    a: ma,
                    b: mb,
                    verdict: verdict(spec, ma, mb),
                });
            }
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok(rows)
}

/// The comparison as a table, one row per (workload, metric).
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<12} {:<18} {:>12} {:>26} {:>12} {:>26} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "A [q1, q3]", "B", "B [q1, q3]", "worse", "bound"
    )
    .unwrap();
    // Seconds and cycle counts in one column: plain up to a million,
    // scientific beyond.
    let number = |v: f64| {
        if v.abs() < 1e6 {
            format!("{v:.6}")
        } else {
            format!("{v:.5e}")
        }
    };
    for row in rows {
        let spec = crate::spec::end_to_end(row.metric).expect("rows hold end-to-end metrics");
        let quartiles = |r: Reading| format!("[{}, {}]", number(r.q1), number(r.q3));
        writeln!(
            out,
            "{:<12} {:<18} {:>12} {:>26} {:>12} {:>26} {:>+7.1}% {:>5.1}%  {}",
            row.workload,
            row.metric,
            number(row.a.value),
            quartiles(row.a),
            number(row.b.value),
            quartiles(row.b),
            worsening(spec, row.a.value, row.b.value) * 100.0,
            spec.bound * 100.0,
            row.verdict.as_str(),
        )
        .unwrap();
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    writeln!(
        out,
        "{} rows: {} regression, {} changed exact metric, {} unresolved, {} improved, {} unchanged",
        rows.len(),
        count(Verdict::Regression),
        count(Verdict::Changed),
        count(Verdict::Unresolved),
        count(Verdict::Improved),
        count(Verdict::Unchanged),
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::spec::end_to_end;

    /// A timing metric with a 10% bound, whatever the table says today.
    fn ten_percent(better: Better) -> EndToEnd {
        EndToEnd {
            name: "test",
            unit: "s",
            better,
            bound: 0.10,
            exact: false,
        }
    }

    fn tight(value: f64) -> Reading {
        Reading {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
        }
    }

    /// A best value its run's other samples stayed 20-40% away from.
    fn wide(value: f64) -> Reading {
        Reading {
            value,
            q1: value * 1.2,
            q3: value * 1.4,
        }
    }

    #[test]
    fn timing_verdicts_follow_bound_and_spread() {
        let wall = &ten_percent(Better::Lower);
        assert_eq!(verdict(wall, tight(1.0), tight(1.05)), Verdict::Unchanged);
        assert_eq!(verdict(wall, tight(1.0), tight(1.2)), Verdict::Regression);
        assert_eq!(verdict(wall, tight(1.0), tight(0.8)), Verdict::Improved);
        // A noisy run cannot vouch for "unchanged" ...
        assert_eq!(verdict(wall, wide(1.0), tight(1.05)), Verdict::Unresolved);
        assert_eq!(verdict(wall, tight(1.0), wide(0.95)), Verdict::Unresolved);
        // ... but a regression beyond the bound is one all the same,
        assert_eq!(verdict(wall, wide(1.0), wide(1.3)), Verdict::Regression);
        // and so is a gain whose worse quartile beats the parent's best.
        assert_eq!(verdict(wall, wide(1.0), wide(0.5)), Verdict::Improved);
    }

    #[test]
    fn a_best_pass_is_supported_by_how_close_a_quarter_of_passes_came() {
        let wall = &ten_percent(Better::Lower);
        // The best pass took 1.00 s; a quarter of the passes came within
        // 3% of it although half of them spread over 30%.
        let supported = Reading {
            value: 1.0,
            q1: 1.03,
            q3: 1.33,
        };
        assert_eq!(verdict(wall, supported, supported), Verdict::Unchanged);
        // A lone fast pass 20% below the rest supports nothing.
        let lone = Reading {
            value: 1.0,
            q1: 1.2,
            q3: 1.25,
        };
        assert_eq!(verdict(wall, supported, lone), Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        let rate = &ten_percent(Better::Higher);
        assert_eq!(
            verdict(rate, tight(100.0), tight(80.0)),
            Verdict::Regression
        );
        assert_eq!(verdict(rate, tight(100.0), tight(120.0)), Verdict::Improved);
        assert_eq!(verdict(rate, tight(100.0), tight(95.0)), Verdict::Unchanged);
    }

    #[test]
    fn exact_metrics_change_on_the_ninth_digit_only() {
        let cycles = end_to_end("sim_cycles").unwrap();
        let at = |value| Reading {
            value,
            q1: value,
            q3: value,
        };
        assert_eq!(
            verdict(cycles, at(4.801_619_2e4), at(4.801_619_2e4)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(cycles, at(1.234_567_891e9), at(1.234_567_892e9)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(cycles, at(1.234_567_89e9), at(1.234_567_99e9)),
            Verdict::Changed
        );
        // Better or worse makes no difference: exact means exact.
        assert!(verdict(cycles, at(2.0), at(1.0)).fails());
    }

    fn file(workload: &str, wall: f64, q1: f64, q3: f64, cycles: f64) -> Value {
        parse(&format!(
            "{{\"results\": [{{\"workload\": \"{workload}\", \"metrics\": {{\
             \"wall_s\": {{\"value\": {wall}, \"unit\": \"s\", \"q1\": {q1}, \"q3\": {q3}, \"n\": 9}}, \
             \"sim_cycles\": {{\"value\": {cycles}, \"unit\": \"cycles\"}}}}}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn compares_hand_made_result_files() {
        let a = file("cold_cnn", 0.40, 0.39, 0.41, 5.0e5);
        let same = compare(&a, &file("cold_cnn", 0.41, 0.40, 0.42, 5.0e5)).unwrap();
        assert_eq!(
            same.iter()
                .map(|r| (r.metric, r.verdict))
                .collect::<Vec<_>>(),
            [
                ("wall_s", Verdict::Unchanged),
                ("sim_cycles", Verdict::Unchanged)
            ]
        );
        assert!(!same.iter().any(|r| r.verdict.fails()));

        let slower = compare(&a, &file("cold_cnn", 0.60, 0.59, 0.61, 5.0e5)).unwrap();
        assert_eq!(slower[0].verdict, Verdict::Regression);
        let noisy = compare(&a, &file("cold_cnn", 0.41, 0.20, 0.62, 5.0e5)).unwrap();
        assert_eq!(noisy[0].verdict, Verdict::Unresolved);
        let other_plan = compare(&a, &file("cold_cnn", 0.40, 0.39, 0.41, 5.1e5)).unwrap();
        assert_eq!(other_plan[1].verdict, Verdict::Changed);

        let table = render(&slower);
        assert!(
            table.contains("REGRESSION") && table.contains("1 regression"),
            "{table}"
        );
        assert!(compare(&a, &file("dse_warm", 0.4, 0.4, 0.4, 1.0)).is_err());
        assert!(compare(&a, &parse("{}").unwrap()).is_err());
    }
}
