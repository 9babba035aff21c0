//! Paper-vs-ours experiment records: the rows of `REPRO.json`.

use std::fmt::Write as _;

/// Where a record's `ours` value comes from, which decides whether a `NO`
/// on it fails the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Closed-form byte arithmetic on the registered paper shapes
    /// (eq. 1 / eq. 2). Judged.
    Analytic,
    /// The simulated substrate's answer: virtual memory replays and
    /// calibrated projections at paper shapes, `SimClock` totals and
    /// `CostModel` bytes in the modeled sweeps. Deterministic. Judged.
    Modeled,
    /// Read off a real run on scaled-down data on this host: wall seconds,
    /// learned accuracy, a mini-run's ledger. It moves with the mode's
    /// scale (and wall seconds with the host), so it is listed, never
    /// judged — `bench/` judges the wall clock, the test suite the bits.
    Measured,
}

impl Basis {
    /// The spelling used in `REPRO.json` and the markdown tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Basis::Analytic => "analytic",
            Basis::Modeled => "modeled",
            Basis::Measured => "measured",
        }
    }
}

/// Whether a record's qualitative claim reproduced, and the basis it is
/// judged on. Built by [`analytic`], [`modeled`] and [`measured`].
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    basis: Basis,
    holds: bool,
}

/// A claim about closed-form arithmetic on the paper's shapes.
pub fn analytic(holds: bool) -> Claim {
    let basis = Basis::Analytic;
    Claim { basis, holds }
}

/// A claim about the simulated substrate's answer.
pub fn modeled(holds: bool) -> Claim {
    let basis = Basis::Modeled;
    Claim { basis, holds }
}

/// A claim about a real run on scaled-down data: listed, never judged.
pub fn measured(holds: bool) -> Claim {
    let basis = Basis::Measured;
    Claim { basis, holds }
}

/// One compared quantity from one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Experiment id, e.g. "Table 2" or "Fig 7".
    pub experiment: String,
    /// What is being compared, e.g. "PGT-DCRNN peak host memory (GB)".
    pub quantity: String,
    /// The paper's reported value, as printed.
    pub paper: String,
    /// Our value.
    pub ours: String,
    /// Where `ours` comes from.
    pub basis: Basis,
    /// Whether the qualitative claim (ordering / OOM verdict / trend)
    /// reproduced.
    pub shape_holds: bool,
    /// Free-form note (unit caveats, substitutions, ...).
    pub note: String,
}

/// One experiment's records with markdown and JSON emission.
#[derive(Debug, Clone)]
pub struct RecordSet {
    experiment: String,
    records: Vec<ExperimentRecord>,
}

/// Heading of the markdown record table.
pub const MARKDOWN_HEADER: &str =
    "| Experiment | Quantity | Paper | Ours | Basis | Shape holds | Note |\n|---|---|---|---|---|---|---|\n";

impl ExperimentRecord {
    /// A `NO` on an analytic or modeled record: the run must fail.
    pub fn fails_run(&self) -> bool {
        !self.shape_holds && self.basis != Basis::Measured
    }

    /// The record as one row under [`MARKDOWN_HEADER`].
    pub fn markdown_row(&self) -> String {
        format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            self.experiment,
            self.quantity,
            self.paper,
            self.ours,
            self.basis.as_str(),
            if self.shape_holds { "yes" } else { "NO" },
            self.note
        )
    }
}

impl RecordSet {
    /// Empty set for the experiment labelled e.g. "Table 2" or "Fig 7".
    pub fn new(experiment: &str) -> Self {
        RecordSet {
            experiment: experiment.into(),
            records: Vec::new(),
        }
    }

    /// Add a record.
    pub fn push(
        &mut self,
        quantity: &str,
        paper: impl std::fmt::Display,
        ours: impl std::fmt::Display,
        claim: Claim,
        note: &str,
    ) {
        self.records.push(ExperimentRecord {
            experiment: self.experiment.clone(),
            quantity: quantity.into(),
            paper: paper.to_string(),
            ours: ours.to_string(),
            basis: claim.basis,
            shape_holds: claim.holds,
            note: note.into(),
        });
    }

    /// All records.
    pub fn records(&self) -> &[ExperimentRecord] {
        &self.records
    }

    /// Count of records whose qualitative shape reproduced.
    pub fn holds(&self) -> usize {
        self.records.iter().filter(|r| r.shape_holds).count()
    }

    /// True unless an analytic or modeled record reads `NO`.
    pub fn passed(&self) -> bool {
        !self.records.iter().any(ExperimentRecord::fails_run)
    }

    /// Render the records as a markdown table.
    pub fn to_markdown(&self) -> String {
        let rows = self.records.iter().map(ExperimentRecord::markdown_row);
        format!("{MARKDOWN_HEADER}{}", rows.collect::<String>())
    }

    /// Render the records as a JSON array, one object per line; `indent`
    /// is the indentation of the line the array closes on.
    pub fn to_json(&self, indent: &str) -> String {
        let rows: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                format!(
                    "{indent}  {{\"experiment\": {}, \"quantity\": {}, \"paper\": {}, \"ours\": {}, \
                     \"basis\": \"{}\", \"shape_holds\": {}, \"note\": {}}}",
                    json_string(&r.experiment),
                    json_string(&r.quantity),
                    json_string(&r.paper),
                    json_string(&r.ours),
                    r.basis.as_str(),
                    r.shape_holds,
                    json_string(&r.note)
                )
            })
            .collect();
        if rows.is_empty() {
            return "[]".into();
        }
        format!("[\n{}\n{indent}]", rows.join(",\n"))
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_render() {
        let mut rs = RecordSet::new("Table 2");
        rs.push(
            "peak mem",
            "259.84 GB",
            "259.46 GiB",
            modeled(true),
            "virtual replay",
        );
        rs.push("PeMS OOM", "crash", "crash", modeled(true), "");
        assert_eq!(rs.records().len(), 2);
        assert_eq!(rs.holds(), 2);
        let md = rs.to_markdown();
        assert!(md.contains("| Table 2 |"));
        assert!(md.contains("| modeled | yes |"));
    }

    #[test]
    fn failing_shape_is_visible() {
        let mut rs = RecordSet::new("Fig 9");
        rs.push("speedup", "2.28x", "1.1x", modeled(false), "tbd");
        assert!(rs.to_markdown().contains("| NO |"));
        assert_eq!(rs.holds(), 0);
    }

    #[test]
    fn json_escapes_and_keeps_one_record_per_line() {
        let mut rs = RecordSet::new("Fig \"1\"");
        rs.push("a\\b", "≈2x", "line\nbreak", analytic(true), "\u{1}");
        rs.push("q", "p", "o", measured(false), "");
        let json = rs.to_json("  ");
        assert_eq!(json.lines().count(), 4);
        assert!(json.contains(r#""experiment": "Fig \"1\"""#));
        assert!(json.contains(r#""quantity": "a\\b""#));
        assert!(json.contains(r#""ours": "line\nbreak""#));
        assert!(json.contains(r#""note": "\u0001""#));
        assert!(json.contains(r#""basis": "measured", "shape_holds": false"#));
    }
}
