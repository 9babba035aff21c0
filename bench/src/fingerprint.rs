//! Environment fingerprint stamped into every result file, so a number is
//! never read apart from the host and build that produced it.

use crate::json::Value;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `ST_*` knob as found in the environment. The benchmark records
/// these and never sets them: the program runs in its default
/// configuration.
fn env_as_found(name: &str) -> Value {
    std::env::var(name).map_or(Value::Null, Value::Str)
}

/// `YYYY-MM-DD` (UTC) of `secs` since the Unix epoch — civil-from-days.
pub fn utc_date(secs: u64) -> String {
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// SIMD features the compiler was allowed to assume — how `target-cpu`
/// (set in the repo's `.cargo/config.toml`) shows up in the binary.
fn target_features() -> String {
    let mut on = Vec::new();
    for (name, enabled) in [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ] {
        if enabled {
            on.push(name);
        }
    }
    if on.is_empty() {
        "baseline".to_string()
    } else {
        on.join(",")
    }
}

pub fn fingerprint(seed: u64) -> Value {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Value::obj(vec![
        ("cpu_model", Value::Str(cpu_model())),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("ST_NUM_THREADS", env_as_found("ST_NUM_THREADS")),
        ("ST_PAR_THRESHOLD", env_as_found("ST_PAR_THRESHOLD")),
        ("ST_BACKEND", env_as_found("ST_BACKEND")),
        (
            "intra_op_threads",
            Value::Num(st_tensor::par::num_threads() as f64),
        ),
        (
            "par_threshold",
            Value::Num(st_tensor::par::par_threshold() as f64),
        ),
        (
            "rustc",
            Value::Str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("profile", Value::str("release")),
        ("target_arch", Value::str(std::env::consts::ARCH)),
        ("target_features", Value::Str(target_features())),
        (
            "git_sha",
            Value::Str(
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("date_utc", Value::Str(utc_date(now))),
        ("timing", Value::str("std::time::Instant, wall clock")),
        (
            "load",
            Value::str("closed loop, one client: each operation waits for the previous reply"),
        ),
        ("seed", Value::Num(seed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_790_467_200), "2026-09-27");
    }
}
