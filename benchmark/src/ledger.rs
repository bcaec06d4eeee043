//! The contract (`BENCHMARK.json`), ledgers of repeated runs, and the
//! comparison of two ledgers against the contract's bounds.

use crate::json::Json;
use crate::stats;

/// One metric of the contract. `bound` is present on end-to-end metrics
/// only: the share of the baseline's median by which it may worsen.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: f64,
}

impl Contract {
    pub fn parse(text: &str) -> Result<Contract, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing list `{key}`"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    let better = text_of(item, "better")?;
                    if better != "lower" && better != "higher" {
                        return Err(format!("BENCHMARK.json: better = `{better}`"));
                    }
                    Ok(MetricDef {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        lower_is_better: better == "lower",
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
        })
    }

    /// The compiled-in contract.
    pub fn load() -> Contract {
        Contract::parse(crate::BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }
}

/// How one `(workload, metric)` pair moved between two ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the baseline by more than the bound.
    Worse,
    WithinBound,
    /// Better than the baseline by more than the bound.
    Better,
    /// A side's own run-to-run spread exceeds the bound: the runs cannot
    /// tell, and the pair must not be reported as unchanged.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate runs `b` against baseline runs `a` for one metric.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if stats::iqr_share(a).max(stats::iqr_share(b)) > bound {
        return Verdict::Unresolved;
    }
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worsening = if lower_is_better { change } else { -change };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn values_of(ledger: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    ledger
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|values| values.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
        .filter(|values| !values.is_empty())
        .ok_or_else(|| format!("ledger has no values for {workload} / {metric}"))
}

fn failed_share(ledger: &Json, workload: &str) -> Result<f64, String> {
    let field = |key: &str| {
        ledger
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("ledger has no `{key}` for {workload}"))
    };
    Ok(field("failed")? / field("attempted")?.max(1.0))
}

/// The result of comparing two ledgers: printable rows, and whether the
/// candidate regressed.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub rows: Vec<String>,
    pub regressed: bool,
}

/// Compare candidate ledger `b` against baseline ledger `a` pair by pair.
/// A missing metric, a quick-mode ledger or a workload whose checks failed
/// is an error, not a pass: figures from a wrong program compare nothing.
pub fn compare(contract: &Contract, a: &Json, b: &Json) -> Result<Comparison, String> {
    for ledger in [a, b] {
        if ledger.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err("quick-mode ledgers measure too little to compare".to_string());
        }
        for workload in &contract.workloads {
            let correct = ledger
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("correct"))
                .and_then(Json::as_bool);
            if correct != Some(true) {
                return Err(format!("a ledger's {workload} runs failed their checks"));
            }
        }
    }
    let mut rows = Vec::new();
    let mut regressed = false;
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let bound = metric
                .bound
                .ok_or_else(|| format!("{} has no bound", metric.name))?;
            let va = values_of(a, workload, &metric.name)?;
            let vb = values_of(b, workload, &metric.name)?;
            let verdict = judge(&va, &vb, metric.lower_is_better, bound);
            regressed |= verdict == Verdict::Worse;
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            rows.push(format!(
                "{workload:<22} {:<22} {ma:>14.4} -> {mb:>14.4} {:<8} {:+6.1}% (bound {:.0}%, spread {:.1}%/{:.1}%)  {}",
                metric.name,
                metric.unit,
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                100.0 * bound,
                100.0 * stats::iqr_share(&va),
                100.0 * stats::iqr_share(&vb),
                verdict.label(),
            ));
        }
        let (fa, fb) = (failed_share(a, workload)?, failed_share(b, workload)?);
        if fb > fa {
            regressed = true;
            rows.push(format!(
                "{workload:<22} failed share rose {fa:.6} -> {fb:.6}  worse"
            ));
        }
    }
    Ok(Comparison { rows, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = r#"{
        "command": ["x"], "paths": ["benchmark"], "run_seconds": 5,
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05}
        ],
        "per_layer": [{"name": "layer.x", "unit": "ns", "better": "lower"}]
    }"#;

    fn ledger(latency: &[f64], rate: Option<&[f64]>, failed: f64) -> Json {
        ledger_marked(latency, rate, failed, true)
    }

    fn ledger_marked(latency: &[f64], rate: Option<&[f64]>, failed: f64, correct: bool) -> Json {
        let values = |v: &[f64]| {
            Json::obj(vec![(
                "values",
                Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
            )])
        };
        let mut metrics = vec![("latency_ms", values(latency))];
        if let Some(rate) = rate {
            metrics.push(("rate", values(rate)));
        }
        Json::obj(vec![
            ("quick", Json::Bool(false)),
            (
                "workloads",
                Json::obj(vec![(
                    "w",
                    Json::obj(vec![
                        ("correct", Json::Bool(correct)),
                        ("attempted", Json::Num(1000.0)),
                        ("failed", Json::Num(failed)),
                        ("end_to_end", Json::obj(metrics)),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn contract_parses_names_units_and_bounds() {
        let c = Contract::parse(CONTRACT).unwrap();
        assert_eq!(c.workloads, ["w"]);
        assert_eq!(c.end_to_end[1].name, "rate");
        assert!(!c.end_to_end[1].lower_is_better);
        assert_eq!(c.end_to_end[0].bound, Some(0.1));
        assert_eq!(c.per_layer[0].bound, None);
        assert_eq!(c.run_seconds, 5.0);
    }

    #[test]
    fn regression_is_caught_and_within_bound_passes() {
        let c = Contract::parse(CONTRACT).unwrap();
        let base = ledger(&[10.0, 10.1, 9.9], Some(&[100.0, 101.0, 99.0]), 0.0);
        let same = ledger(&[10.4, 10.5, 10.3], Some(&[98.0, 99.0, 97.0]), 0.0);
        let ok = compare(&c, &base, &same).unwrap();
        assert!(!ok.regressed, "{:#?}", ok.rows);
        assert!(ok.rows.iter().all(|r| r.ends_with("within bound")));

        let slow = ledger(&[11.5, 11.6, 11.4], Some(&[100.0, 101.0, 99.0]), 0.0);
        let bad = compare(&c, &base, &slow).unwrap();
        assert!(bad.regressed);
        assert!(bad.rows[0].ends_with("worse"));

        let fewer = ledger(&[10.0, 10.1, 9.9], Some(&[90.0, 91.0, 89.0]), 0.0);
        assert!(
            compare(&c, &base, &fewer).unwrap().regressed,
            "rate fell 10%"
        );
        let faster = ledger(&[8.0, 8.1, 7.9], Some(&[100.0, 101.0, 99.0]), 0.0);
        assert!(compare(&c, &base, &faster).unwrap().rows[0].ends_with("better"));
    }

    #[test]
    fn noisy_runs_are_unresolved_not_unchanged() {
        assert_eq!(
            judge(&[10.0, 14.0, 6.0, 12.0], &[10.0, 10.0, 10.0], true, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn missing_metric_quick_ledger_and_failures_are_not_passes() {
        let c = Contract::parse(CONTRACT).unwrap();
        let base = ledger(&[10.0], Some(&[100.0]), 0.0);
        assert!(compare(&c, &base, &ledger(&[10.0], None, 0.0)).is_err());
        let failing = ledger(&[10.0], Some(&[100.0]), 3.0);
        assert!(compare(&c, &base, &failing).unwrap().regressed);
        let incorrect = ledger_marked(&[10.0], Some(&[100.0]), 0.0, false);
        assert!(compare(&c, &base, &incorrect).is_err(), "candidate");
        assert!(compare(&c, &incorrect, &base).is_err(), "baseline");
        let mut quick = base.clone();
        if let Json::Obj(fields) = &mut quick {
            fields[0].1 = Json::Bool(true);
        }
        assert!(compare(&c, &base, &quick).is_err());
    }
}
