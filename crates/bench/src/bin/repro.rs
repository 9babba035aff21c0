//! The reproduction driver: every paper table and figure, the §7 sweeps and
//! the serving day, in-process and in paper order.
//!
//! ```text
//! cargo run --release -p st_bench --bin repro                 # whole suite
//! cargo run --release -p st_bench --bin repro -- --smoke      # CI scale
//! cargo run --release -p st_bench --bin repro -- fig7 overlap # selected ids
//! ```
//!
//! Exits non-zero when an `analytic` or `modeled` record reads `NO` (or an
//! experiment's invariant panics); `measured` records are listed, never
//! judged. A whole-suite run rewrites `REPRO.json` and the generated section
//! of `BENCHMARKS.md`.

use st_bench::{Ctx, REGISTRY};

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\nusage: repro [--smoke] [id…]\nids:");
    for e in REGISTRY {
        eprintln!("  {:<10} {}", e.id, e.title);
    }
    std::process::exit(2);
}

fn main() {
    let (flags, ids): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with('-'));
    if let Some(flag) = flags.iter().find(|f| *f != "--smoke") {
        usage(&format!("unknown option `{flag}`"));
    }
    let ctx = Ctx::new(st_bench::smoke() || !flags.is_empty());
    let report = st_bench::run(&ctx, &ids).unwrap_or_else(|e| usage(&e));
    println!("\n================= summary =================\n");
    print!("{}", report.summary());
    report.write().expect("write REPRO.json / BENCHMARKS.md");
    if !report.passed() {
        std::process::exit(1);
    }
}
