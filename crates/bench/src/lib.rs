//! The reproduction harness: one registry of experiments behind the one
//! `repro` binary.
//!
//! Every paper table and figure, the four §7 modeled sweeps and the serving
//! day is an [`Experiment`] — an id, a title and a `fn(&Ctx) -> RecordSet` —
//! run in-process in paper order. Each record carries its
//! [`Basis`] (see `DESIGN.md` §2): a `NO` on an analytic
//! or modeled record fails the run, measured records are listed and never
//! judged — the wall clock is judged by `bench/`.
//!
//! [`Ctx`] owns what smoke mode means and memoises the fixtures experiments
//! share. A whole-suite run writes `REPRO.json` and the generated section of
//! `BENCHMARKS.md`; a run over selected ids only prints.

mod ctx;
mod experiments;

pub use ctx::Ctx;
use pgt_index::index_batching_bytes;
use st_data::datasets::DatasetSpec;
use st_data::preprocess::materialized_bytes;
use st_report::record::{json_string, Basis, ExperimentRecord, RecordSet, MARKDOWN_HEADER};
use st_report::table::Table;

/// Shared RNG seed across the harness.
pub const SEED: u64 = 2025;

/// True when the harness should run extra-small (CI smoke mode).
/// Controlled by the `PGT_SMOKE` environment variable; the `repro` binary's
/// `--smoke` flag means the same.
pub fn smoke() -> bool {
    std::env::var("PGT_SMOKE").is_ok()
}

/// Bytes → GiB.
pub fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Seconds → minutes.
pub fn minutes(secs: f64) -> f64 {
    secs / 60.0
}

/// A dataset's float64 footprint after Algorithm-1 preprocessing (eq. 1)
/// and under index-batching (eq. 2).
pub(crate) fn footprints(spec: &DatasetSpec) -> (u64, u64) {
    let (e, h, n, f) = (spec.entries, spec.horizon, spec.nodes, spec.aug_features);
    (
        materialized_bytes(e, h, n, f, 8),
        index_batching_bytes(e, h, n, f, 8),
    )
}

/// One entry of the registry.
pub struct Experiment {
    /// What `repro <id>` selects.
    pub id: &'static str,
    /// Heading of the experiment's record table.
    pub title: &'static str,
    /// Prints the experiment's tables and returns its records. Panics when
    /// an invariant of the experiment is violated.
    pub run: fn(&Ctx) -> RecordSet,
}

pub use experiments::REGISTRY;

/// The outcome of a run: every selected experiment's records, in order.
pub struct Report<'a> {
    ctx: &'a Ctx,
    results: Vec<(&'static Experiment, RecordSet)>,
}

/// Run the experiments named by `ids` (all of them when empty) in registry
/// order, printing each one's tables and records. `Err` names an unknown id.
pub fn run<'a>(ctx: &'a Ctx, ids: &[String]) -> Result<Report<'a>, String> {
    if let Some(unknown) = ids.iter().find(|id| REGISTRY.iter().all(|e| e.id != **id)) {
        return Err(format!("unknown experiment id `{unknown}`"));
    }
    let mut results = Vec::new();
    for e in REGISTRY {
        if !ids.is_empty() && !ids.iter().any(|id| id == e.id) {
            continue;
        }
        println!("\n================= {} =================\n", e.id);
        let records = (e.run)(ctx);
        println!("\n--- paper vs ours ({}) ---", e.title);
        print!("{}", records.to_markdown());
        results.push((e, records));
    }
    Ok(Report { ctx, results })
}

impl Report<'_> {
    /// False when any analytic or modeled record reads `NO`.
    pub fn passed(&self) -> bool {
        self.results.iter().all(|(_, r)| r.passed())
    }

    fn records(&self) -> impl Iterator<Item = &ExperimentRecord> {
        self.results.iter().flat_map(|(_, r)| r.records())
    }

    fn count(&self, pred: impl Fn(&ExperimentRecord) -> bool) -> usize {
        self.records().filter(|r| pred(r)).count()
    }

    /// Per-experiment tallies by basis. `judged ok` leaves measured records
    /// out, so the table repeats exactly between runs of one mode.
    fn tally(&self) -> Table {
        let mut table = Table::new(
            format!("Workloads ({} mode)", self.ctx.scale.mode),
            &[
                "id",
                "experiment",
                "analytic",
                "modeled",
                "measured",
                "judged ok",
            ],
        );
        for (e, records) in &self.results {
            let of = |b| records.records().iter().filter(|r| r.basis == b).count();
            let judged = of(Basis::Analytic) + of(Basis::Modeled);
            let failed = records.records().iter().filter(|r| r.fails_run()).count();
            table.row(&[
                e.id.to_string(),
                e.title.to_string(),
                of(Basis::Analytic).to_string(),
                of(Basis::Modeled).to_string(),
                of(Basis::Measured).to_string(),
                format!("{}/{judged}", judged - failed),
            ]);
        }
        table
    }

    /// The run's footer: tallies, every `NO` with its basis, the verdict.
    pub fn summary(&self) -> String {
        let mut out = self.tally().to_text();
        for r in self.records() {
            if !r.shape_holds {
                out.push_str(&format!("NO [{}] {}", r.basis.as_str(), r.markdown_row()));
            }
        }
        out.push_str(&format!(
            "verdict: {} — {} judged (analytic/modeled) NO, {} measured NO (listed, never judged; \
             the wall clock is judged by bench/)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.count(|r| r.fails_run()),
            self.count(|r| !r.shape_holds && r.basis == Basis::Measured),
        ));
        out
    }

    /// The whole run as the `REPRO.json` document.
    pub fn to_json(&self) -> String {
        let experiments: Vec<String> = self
            .results
            .iter()
            .map(|(e, records)| {
                format!(
                    "    {{\"id\": \"{}\", \"title\": {}, \"records\": {}}}",
                    e.id,
                    json_string(e.title),
                    records.to_json("    ")
                )
            })
            .collect();
        format!(
            "{{\n  \"mode\": \"{}\",\n  \"seed\": {SEED},\n  \"measure_scale\": {},\n  \
             \"dist_scale\": {},\n  \"verdict\": \"{}\",\n  \"experiments\": [\n{}\n  ]\n}}\n",
            self.ctx.scale.mode,
            self.ctx.scale.measure_scale,
            self.ctx.scale.dist_scale,
            if self.passed() { "pass" } else { "fail" },
            experiments.join(",\n")
        )
    }

    /// The generated *Environment / Workloads / Notes* section of
    /// `BENCHMARKS.md`. Holds judged records only, so two runs of one mode
    /// generate the same bytes.
    pub fn benchmarks_section(&self) -> String {
        let scale = &self.ctx.scale;
        let judged = self.records().filter(|r| r.basis != Basis::Measured);
        let flag = if self.ctx.smoke { " -- --smoke" } else { "" };
        format!(
            "## Reproduction suite ({mode} mode; generated by `repro`, do not edit)\n\n\
             ### Environment\n\n\
             - Command: `cargo run --release -p st_bench --bin repro{flag}`\n\
             - Mode: {mode}; seed {SEED}; measured runs at {ms}× dataset scale for {me} epochs, \
             multi-worker runs at {ds}× for {de}\n\
             - Clock: **modeled only** — virtual `MemPool` replays, the calibrated projection and \
             `SimClock`/`CostModel::polaris()` totals (DESIGN.md §2). Nothing below depends on the \
             host, so a rerun of this mode regenerates these bytes exactly\n\n\
             {tally}\n\
             ### Judged records (analytic + modeled)\n\n{MARKDOWN_HEADER}{records}\n\
             ### Notes\n\n\
             - Verdict: **{verdict}**. `repro` exits non-zero when a record above reads `NO` or an \
             experiment's invariant panics.\n\
             - The {measured} `measured` records (wall seconds, accuracy learned at reduced scale, \
             mini-run ledgers) are in `REPRO.json` only; they are listed in the run's summary and \
             never judged.\n",
            mode = scale.mode,
            ms = scale.measure_scale,
            me = scale.measure_epochs,
            ds = scale.dist_scale,
            de = scale.dist_epochs,
            tally = self.tally().to_markdown(),
            records = String::from_iter(judged.map(ExperimentRecord::markdown_row)),
            verdict = if self.passed() { "PASS" } else { "FAIL" },
            measured = self.count(|r| r.basis == Basis::Measured),
        )
    }

    /// After a whole-suite run, write `REPRO.json` and splice the generated
    /// section into `BENCHMARKS.md` (both at the repository root). A run
    /// over selected ids writes nothing.
    pub fn write(&self) -> std::io::Result<()> {
        if self.results.len() < REGISTRY.len() {
            println!("(selected ids only: REPRO.json and BENCHMARKS.md left as they are)");
            return Ok(());
        }
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        std::fs::write(root.join("REPRO.json"), self.to_json())?;
        let path = root.join("BENCHMARKS.md");
        let doc = std::fs::read_to_string(&path)?;
        let spliced = splice(&doc, &self.benchmarks_section()).ok_or_else(|| {
            std::io::Error::other("BENCHMARKS.md lost its `<!-- repro:begin/end -->` markers")
        })?;
        std::fs::write(&path, spliced)?;
        println!("wrote REPRO.json and the generated section of BENCHMARKS.md");
        Ok(())
    }
}

const BEGIN: &str = "<!-- repro:begin -->\n";
const END: &str = "<!-- repro:end -->";

/// `doc` with everything between the markers replaced by `section`.
fn splice(doc: &str, section: &str) -> Option<String> {
    let begin = doc.find(BEGIN)? + BEGIN.len();
    let end = begin + doc[begin..].find(END)?;
    Some(format!("{}{section}{}", &doc[..begin], &doc[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_report::record::{analytic, measured, modeled, Claim};

    #[test]
    fn unit_helpers() {
        assert_eq!(gib(1 << 30), 1.0);
        assert_eq!(minutes(120.0), 2.0);
    }

    #[test]
    fn scales_are_sane() {
        let (full, smoke) = (Ctx::new(false), Ctx::new(true));
        assert!(full.scale.measure_scale > 0.0 && full.scale.measure_scale < 0.2);
        assert!(full.scale.dist_scale <= full.scale.measure_scale);
        assert!(smoke.scale.measure_scale < full.scale.measure_scale);
        assert!(smoke.scale.dist_scale < full.scale.dist_scale);
        assert_eq!(smoke.worlds(&[1, 2, 4, 8]), [1, 2]);
        assert_eq!(smoke.worlds(&[4, 8, 16]), [2]);
        assert_eq!(full.worlds(&[4, 8, 16]), [4, 8, 16]);
    }

    #[test]
    fn registry_lists_twenty_unique_ids_in_paper_order() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 20);
        assert_eq!(ids[..3], ["table1", "fig1", "table2"]);
        assert_eq!(ids[18..], ["prefetch", "serve_day"]);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
        assert!(run(&Ctx::new(true), &["fig99".to_string()]).is_err());
    }

    fn report_of(ctx: &Ctx, claim: Claim) -> Report<'_> {
        let mut records = RecordSet::new("Fig 7");
        records.push("ratio", "2.16x", "0.9x", claim, "");
        Report {
            ctx,
            results: vec![(&REGISTRY[0], records)],
        }
    }

    #[test]
    fn a_modeled_no_fails_the_run_and_a_measured_no_does_not() {
        let ctx = Ctx::new(true);
        let failed = report_of(&ctx, modeled(false));
        assert!(!failed.passed());
        assert!(failed.summary().contains("NO [modeled] | Fig 7 | ratio"));
        assert!(failed.summary().contains("verdict: FAIL — 1 judged"));
        assert!(!report_of(&ctx, analytic(false)).passed());

        let listed = report_of(&ctx, measured(false));
        assert!(listed.passed());
        assert!(listed.summary().contains("NO [measured] | Fig 7 | ratio"));
        assert!(listed.summary().contains("verdict: PASS — 0 judged"));
        assert!(report_of(&ctx, modeled(true)).passed());
    }

    #[test]
    fn generated_files_name_the_mode_and_leave_measured_rows_to_the_json() {
        let ctx = Ctx::new(true);
        let report = report_of(&ctx, measured(false));
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"mode\": \"smoke\""));
        assert!(json.contains("\"basis\": \"measured\", \"shape_holds\": false"));
        let section = report.benchmarks_section();
        assert!(section.contains("smoke mode"));
        assert!(!section.contains("| Fig 7 | ratio"));

        let doc = format!("head\n{BEGIN}old\n{END}\ntail\n");
        let spliced = splice(&doc, "new\n").expect("markers present");
        assert_eq!(spliced, format!("head\n{BEGIN}new\n{END}\ntail\n"));
        assert_eq!(splice("no markers", "new"), None);
    }
}
