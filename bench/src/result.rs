//! Result records: what one workload run reports, the file a full
//! benchmark pass writes, and the comparison of two such files.

use crate::json::{self, Value};
use crate::metrics::{valid_name, valid_unit, Better, EndToEnd, END_TO_END};
use crate::stats;

/// One run of one workload — the object a child process prints as the last
/// line of its standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted and failed (steps with a non-finite loss,
    /// batches failing a shape or bit check, queries rejected, repairs
    /// breaking balance or the drift bound).
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of a timed run, or the
    /// per-layer metrics of a traced run.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Value::obj(vec![
                                    ("value", Value::Num(*value)),
                                    ("unit", Value::str(unit.as_str())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<RunResult, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("run result lacks `{k}`"));
        let count = |k: &str| -> Result<u64, String> {
            field(k)?
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("`{k}` is not a whole number"))
        };
        let mut metrics = Vec::new();
        for (name, m) in field("metrics")?.members() {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!(
                    "metric `{name}` [{unit}]: name or unit outside the alphabet"
                ));
            }
            metrics.push((name.clone(), value, unit.to_string()));
        }
        Ok(RunResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("`correct` is not a boolean")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// All runs of one workload in a benchmark pass.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// The timed repeats (tracing off).
    pub runs: Vec<RunResult>,
    /// The traced run's per-layer metrics, when one was made.
    pub layers: Option<RunResult>,
}

/// What `bench/run.sh` writes to `bench/out/results.json` (and what
/// `bench/results/baseline.json` is a committed copy of).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub fingerprint: Value,
    /// Seconds each run measured for.
    pub seconds: f64,
    pub workloads: Vec<WorkloadResult>,
}

/// The end-to-end metric table as JSON: name, unit, direction, bound — the
/// form `BENCHMARK.json` states it in and every result file records.
pub fn end_to_end_json() -> Value {
    Value::Arr(
        END_TO_END
            .iter()
            .map(|m| {
                Value::obj(vec![
                    ("name", Value::str(m.name)),
                    ("unit", Value::str(m.unit)),
                    ("better", Value::str(m.better.as_str())),
                    ("bound", Value::Num(m.bound)),
                ])
            })
            .collect(),
    )
}

impl ResultFile {
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("fingerprint", self.fingerprint.clone()),
            ("seconds", Value::Num(self.seconds)),
            ("end_to_end", end_to_end_json()),
            (
                "workloads",
                Value::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Value::obj(vec![
                                ("name", Value::str(w.name.as_str())),
                                (
                                    "runs",
                                    Value::Arr(w.runs.iter().map(RunResult::to_json).collect()),
                                ),
                                (
                                    "layers",
                                    w.layers.as_ref().map_or(Value::Null, RunResult::to_json),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<ResultFile, String> {
        let mut workloads = Vec::new();
        for w in v
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("result file lacks `workloads`")?
        {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .ok_or("workload lacks `name`")?
                .to_string();
            let runs = w
                .get("runs")
                .and_then(Value::as_arr)
                .ok_or("workload lacks `runs`")?
                .iter()
                .map(RunResult::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            let layers = match w.get("layers") {
                None | Some(Value::Null) => None,
                Some(l) => Some(RunResult::from_json(l)?),
            };
            workloads.push(WorkloadResult { name, runs, layers });
        }
        Ok(ResultFile {
            fingerprint: v.get("fingerprint").cloned().unwrap_or(Value::Null),
            seconds: v.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
            workloads,
        })
    }

    pub fn load(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::from_json(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    }
}

/// Outcome of comparing one (workload, end-to-end metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is no worse than the base by more than the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// A side's run-to-run spread is wider than the bound (or it has fewer
    /// than two runs): the data cannot tell `ok` from `regressed`.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct CompareRow {
    pub workload: String,
    pub metric: EndToEnd,
    /// `(q1, median, q3)` of the base file's runs and of the new file's.
    pub base: (f64, f64, f64),
    pub new: (f64, f64, f64),
    /// New median ÷ base median.
    pub ratio: f64,
    pub verdict: Verdict,
}

/// Judge one workload's `new` runs against its `base` runs on one metric
/// by the rule of the metrics guide: spread first, then the bound.
pub fn judge(workload: &str, metric: &EndToEnd, base: &[f64], new: &[f64]) -> CompareRow {
    let (qb, qn) = (stats::quartiles(base), stats::quartiles(new));
    let ratio = qn.1 / qb.1;
    let worse_by = match metric.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let resolved = base.len() >= 2
        && new.len() >= 2
        && stats::spread(base) <= metric.bound
        && stats::spread(new) <= metric.bound;
    let verdict = if !resolved || !worse_by.is_finite() {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    CompareRow {
        workload: workload.to_string(),
        metric: *metric,
        base: qb,
        new: qn,
        ratio,
        verdict,
    }
}

/// Compare every (workload, end-to-end metric) pair present in both files.
pub fn compare(base: &ResultFile, new: &ResultFile) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for wb in &base.workloads {
        let Some(wn) = new.workloads.iter().find(|w| w.name == wb.name) else {
            continue;
        };
        for metric in &END_TO_END {
            let values = |w: &WorkloadResult| -> Vec<f64> {
                w.runs
                    .iter()
                    .filter_map(|r| r.metric(metric.name))
                    .collect()
            };
            let (vb, vn) = (values(wb), values(wn));
            if !vb.is_empty() && !vn.is_empty() {
                rows.push(judge(&wb.name, metric, &vb, &vn));
            }
        }
    }
    rows
}

pub fn render_compare(rows: &[CompareRow]) -> String {
    let mut out = format!(
        "{:<18} {:<12} {:>36} {:>36} {:>16}  {}\n",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "new/base", "verdict"
    );
    for r in rows {
        let side = |q: (f64, f64, f64)| format!("{:.5} [{:.5}, {:.5}]", q.1, q.0, q.2);
        out.push_str(&format!(
            "{:<18} {:<12} {:>36} {:>36} {:>16}  {} (bound {:.0}%, {} is better)\n",
            r.workload,
            r.metric.name,
            side(r.base),
            side(r.new),
            format!("{:.4}x of {:.5}", r.ratio, r.base.1),
            r.verdict.as_str(),
            r.metric.bound * 100.0,
            r.metric.better.as_str(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(items_per_s: f64) -> RunResult {
        RunResult {
            correct: true,
            attempted: 100,
            failed: 0,
            metrics: vec![
                ("items_per_s".into(), items_per_s, "1/s".into()),
                ("op_ms_p50".into(), 1000.0 / items_per_s, "ms".into()),
            ],
        }
    }

    fn file(values: &[f64]) -> ResultFile {
        ResultFile {
            fingerprint: Value::obj(vec![("nproc", Value::Num(2.0))]),
            seconds: 8.0,
            workloads: vec![WorkloadResult {
                name: "data_stream".into(),
                runs: values.iter().map(|&v| run(v)).collect(),
                layers: Some(RunResult {
                    correct: true,
                    attempted: 1,
                    failed: 0,
                    metrics: vec![("st_data.cache_hits".into(), 42.0, "count".into())],
                }),
            }],
        }
    }

    #[test]
    fn result_files_round_trip_through_json() {
        let f = file(&[100.0, 101.5, 99.25]);
        let text = f.to_json().to_json_pretty();
        let back = ResultFile::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, f);
        // The child-process line round-trips too, compactly.
        let line = f.workloads[0].runs[0].to_json().to_json();
        assert!(!line.contains('\n'));
        assert_eq!(
            RunResult::from_json(&json::parse(&line).unwrap()).unwrap(),
            f.workloads[0].runs[0]
        );
    }

    #[test]
    fn malformed_result_is_rejected() {
        for bad in [
            r#"{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}"#,
            r#"{"correct":"yes","attempted":1,"failed":0,"metrics":{}}"#,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"m":{"unit":"s"}}}"#,
            r#"{"attempted":1,"failed":0,"metrics":{}}"#,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"bad name":{"value":1,"unit":"s"}}}"#,
        ] {
            assert!(
                RunResult::from_json(&json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    /// A metric with a 10 % bound, so the cases below do not move when the
    /// benchmark's own bounds are retuned.
    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "1/s",
            better,
            bound: 0.10,
        }
    }

    fn verdict_of(better: Better, base: &[f64], new: &[f64]) -> Verdict {
        judge("w", &metric(better), base, new).verdict
    }

    #[test]
    fn compare_verdicts_on_synthetic_inputs() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        let up = Better::Higher;
        // Same code, same host: within the bound.
        assert_eq!(
            verdict_of(up, &steady, &[98.0, 99.0, 100.0, 99.5]),
            Verdict::Ok
        );
        // An improvement is never a regression.
        assert_eq!(
            verdict_of(up, &steady, &[150.0, 151.0, 149.0, 150.0]),
            Verdict::Ok
        );
        // Throughput (higher is better) down 20 %.
        assert_eq!(
            verdict_of(up, &steady, &[80.0, 80.5, 79.5, 80.0]),
            Verdict::Regressed
        );
        // A side noisier than the bound cannot resolve anything.
        assert_eq!(
            verdict_of(up, &steady, &[60.0, 100.0, 140.0, 80.0]),
            Verdict::Unresolved
        );
        // A single run has no spread to speak of.
        assert_eq!(verdict_of(up, &steady, &[100.0]), Verdict::Unresolved);
        // Lower-is-better metrics regress upward, and the ratio has its base.
        let row = judge("w", &metric(Better::Lower), &[10.0; 3], &[12.5; 3]);
        assert_eq!(
            (row.base.1, row.ratio, row.verdict),
            (10.0, 1.25, Verdict::Regressed)
        );
        assert_eq!(
            verdict_of(Better::Lower, &[10.0; 3], &[8.0; 3]),
            Verdict::Ok
        );
    }

    #[test]
    fn compare_pairs_workloads_and_metrics_of_both_files() {
        let rows = compare(&file(&[100.0, 101.0, 99.0]), &file(&[100.0, 100.5, 99.5]));
        let names: Vec<&str> = rows.iter().map(|r| r.metric.name).collect();
        assert_eq!(names, ["items_per_s", "op_ms_p50"]);
        assert!(rows
            .iter()
            .all(|r| r.workload == "data_stream" && r.verdict == Verdict::Ok));
        let text = render_compare(&rows);
        assert!(text.contains("ok") && text.contains("data_stream"));
        // A workload only one file has is skipped, not an error.
        let mut other = file(&[1.0, 1.0]);
        other.workloads[0].name = "serve_live".into();
        assert!(compare(&file(&[1.0, 1.0]), &other).is_empty());
    }
}
