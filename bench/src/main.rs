//! `pgt_bench` — the repository's wall-clock benchmark.
//!
//! Three ways in:
//!
//! - `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints its result object as the last
//!   line of standard output (the pipeline's contract);
//! - no `--workload`: runs all seven, each in a child process of its own
//!   (`--repeats` timed runs and one traced run per workload), prints every
//!   metric by name with its unit, writes `<out>/results.json`, and exits
//!   non-zero if any output check failed;
//! - `--compare a.json b.json` judges two result files against the
//!   recorded bounds.
//!
//! Every layer is measured from outside, by timing calls into the crates'
//! public functions. The benchmark never sets `ST_NUM_THREADS`,
//! `ST_PAR_THRESHOLD` or `ST_BACKEND`: the program runs as configured.

mod fingerprint;
mod json;
mod metrics;
mod result;
mod stats;
mod trace;
mod workloads;

use json::Value;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use result::{ResultFile, RunResult, Verdict, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::RunArgs;

const USAGE: &str = "usage: pgt_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--repeats R] [--out DIR]
       pgt_bench --compare BASE.json NEW.json
       pgt_bench --emit-benchmark-json";

/// Seconds a run measures for unless told otherwise — `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 26.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeats: usize,
    out: PathBuf,
    compare: Option<(String, String)>,
    emit_benchmark_json: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 2025,
        seconds: DEFAULT_SECONDS,
        trace: true,
        repeats: 3,
        out: PathBuf::from("bench/out"),
        compare: None,
        emit_benchmark_json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--repeats" => {
                cli.repeats = value()?
                    .parse()
                    .ok()
                    .filter(|r| (1..=100).contains(r))
                    .ok_or("--repeats takes a whole number from 1 to 100")?
            }
            "--out" => cli.out = PathBuf::from(value()?),
            "--compare" => cli.compare = Some((value()?, value()?)),
            "--emit-benchmark-json" => cli.emit_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("pgt_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if cli.emit_benchmark_json {
        print!("{}", benchmark_json().to_json_pretty());
        Ok(true)
    } else if let Some((base, new)) = &cli.compare {
        compare_files(base, new)
    } else if cli.workload.is_some() {
        run_child(&cli)
    } else {
        run_all(&cli)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pgt_bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The contract file, generated from the tables in `metrics.rs`.
fn benchmark_json() -> Value {
    Value::obj(vec![
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("bench/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("bench")])),
        ("run_seconds", Value::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Value::Arr(
                metrics::gated()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name)),
                            ("why", Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", result::end_to_end_json()),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process.
fn run_child(cli: &Cli) -> Result<bool, String> {
    let name = cli.workload.as_deref().unwrap_or_default();
    let workload = metrics::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    // The chunked store puts its files in the temp dir: point that inside
    // the output directory so nothing is written outside the checkout.
    let tmp = std::fs::canonicalize(&cli.out)
        .map_err(|e| format!("{}: {e}", cli.out.display()))?
        .join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    let outcome = workloads::run(&args);
    let result = outcome.to_result(&args);

    println!(
        "workload {name}: {} (seed {}, {} s, {}; closed loop, one client)",
        workload.why,
        cli.seed,
        cli.seconds,
        if cli.trace {
            "traced"
        } else {
            "timed, tracing off"
        }
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    // Samples beyond the tail percentile, summed over the groups it is
    // taken in: the count the ten-samples rule is about.
    let beyond: usize = outcome
        .timed
        .op_ms
        .iter()
        .map(|s| stats::samples_beyond(s.len(), workload.tail_pct))
        .sum();
    for (metric, value, unit) in &result.metrics {
        let detail = match metric.as_str() {
            "items_per_s" => format!(
                "  ({} per second, calm quartile of {} groups)",
                workload.item,
                outcome.timed.throughput.len()
            ),
            "op_ms_p50" => format!(
                "  (median {}, calm quartile of the groups' medians, {} samples)",
                workload.op,
                outcome.timed.ops()
            ),
            "op_ms_tail" => format!(
                "  (p{} of {}, calm quartile of the groups' percentiles, {beyond} samples beyond them{})",
                workload.tail_pct,
                workload.op,
                if beyond < stats::MIN_BEYOND {
                    " — fewer than ten: read with care"
                } else {
                    ""
                }
            ),
            "setup_s" => format!(
                "  (calm quartile of {} set-ups, before and after the timed region)",
                outcome.setup_s.len()
            ),
            m if m.starts_with("st_device.") => "  (modeled, not measured)".to_string(),
            _ => String::new(),
        };
        println!("  {metric:<38} {value:>16.6} {unit}{detail}");
    }
    println!(
        "  operations: {} attempted, {} failed",
        result.attempted, result.failed
    );
    for failure in &outcome.failures {
        println!("  CHECK FAILED: {failure}");
    }

    let record = Value::obj(vec![
        ("workload", Value::str(name)),
        ("trace", Value::Bool(cli.trace)),
        ("seconds", Value::Num(cli.seconds)),
        ("fingerprint", fingerprint::fingerprint(cli.seed)),
        ("result", result.to_json()),
        (
            "notes",
            Value::Arr(
                outcome
                    .notes
                    .iter()
                    .map(|n| Value::str(n.as_str()))
                    .collect(),
            ),
        ),
        (
            "failures",
            Value::Arr(
                outcome
                    .failures
                    .iter()
                    .map(|n| Value::str(n.as_str()))
                    .collect(),
            ),
        ),
    ]);
    let stem = if cli.trace {
        format!("{name}.layers.json")
    } else {
        format!("{name}.json")
    };
    write_file(&cli.out.join(stem), &record.to_json_pretty())?;
    if cli.trace {
        let spans: Vec<&[trace::Span]> = outcome.spans.iter().map(Vec::as_slice).collect();
        write_file(
            &cli.out.join(format!("{name}.trace.json")),
            &trace::chrome_trace(&spans).to_json(),
        )?;
    }
    // Chunk files delete themselves; the directory should be empty again.
    let _ = std::fs::remove_dir(&tmp);

    println!("{}", result.to_json().to_json());
    Ok(result.correct)
}

/// Run one workload in a child process and parse the last line it printed.
fn spawn_child(cli: &Cli, workload: &str, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: child printed nothing ({})", output.status))?;
    let result = json::parse(last)
        .and_then(|v| RunResult::from_json(&v))
        .map_err(|e| {
            format!(
                "{workload}: last line is not a result ({e}); {}",
                output.status
            )
        })?;
    Ok(result)
}

/// All seven workloads, a child process each.
fn run_all(cli: &Cli) -> Result<bool, String> {
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    let mut file = ResultFile {
        fingerprint: fingerprint::fingerprint(cli.seed),
        seconds: cli.seconds,
        workloads: Vec::new(),
    };
    let mut all_correct = true;
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..cli.repeats {
            runs.push(spawn_child(cli, w.name, false)?);
        }
        let layers = if cli.trace {
            Some(spawn_child(cli, w.name, true)?)
        } else {
            None
        };
        all_correct &= runs
            .iter()
            .chain(&layers)
            .all(|r| r.correct && r.failed == 0);
        file.workloads.push(WorkloadResult {
            name: w.name.to_string(),
            runs,
            layers,
        });
    }

    println!(
        "\n== end-to-end: median [q1, q3] over {} timed runs of {} s ==",
        cli.repeats, cli.seconds
    );
    for w in &file.workloads {
        for m in &END_TO_END {
            let values: Vec<f64> = w.runs.iter().filter_map(|r| r.metric(m.name)).collect();
            let (q1, q2, q3) = stats::quartiles(&values);
            println!(
                "{:<18} {:<12} {:>14.5} [{:.5}, {:.5}] {}  (spread {:.1}% of median, bound {:.0}%)",
                w.name,
                m.name,
                q2,
                q1,
                q3,
                m.unit,
                100.0 * stats::spread(&values),
                100.0 * m.bound
            );
        }
    }
    let path = cli.out.join("results.json");
    write_file(&path, &file.to_json().to_json_pretty())?;
    println!("wrote {}", path.display());
    if !all_correct {
        println!("FAILED: at least one output check failed or one operation failed");
    }
    Ok(all_correct)
}

fn compare_files(base: &str, new: &str) -> Result<bool, String> {
    let (base, new) = (ResultFile::load(base)?, ResultFile::load(new)?);
    let rows = result::compare(&base, &new);
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".to_string());
    }
    print!("{}", result::render_compare(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Regressed) == 0)
}
