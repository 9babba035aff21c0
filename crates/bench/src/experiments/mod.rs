//! The registry: every experiment `repro` can run, in paper order.

mod distributed;
mod memory;
mod serve_day;
mod single_gpu;
mod sweeps;

use crate::{Ctx, Experiment};
use distributed::{fig10, fig7, fig8, fig9, table5};
use memory::{fig1, fig2, fig3, fig6, table1, table2, table4};
use serve_day::serve_day;
use single_gpu::{fig5, table3, table6};
use st_report::RecordSet;
use sweeps::{overlap, partition, prefetch, staleness};

const fn entry(id: &'static str, title: &'static str, run: fn(&Ctx) -> RecordSet) -> Experiment {
    Experiment { id, title, run }
}

/// Tables 1–6 and Figs 1–10 in paper order, then the §7 future-work sweeps
/// and the serving day (no paper baseline).
pub const REGISTRY: &[Experiment] = &[
    entry("table1", "Table 1 — dataset sizes", table1),
    entry("fig1", "Fig 1 & 4 — snapshot semantics", fig1),
    entry("table2", "Table 2 — DCRNN vs PGT-DCRNN", table2),
    entry("fig2", "Fig 2 — memory timelines & OOM", fig2),
    entry("fig3", "Fig 3 — data growth stages", fig3),
    entry("table3", "Table 3 — base vs index batching", table3),
    entry("fig5", "Fig 5 — convergence parity", fig5),
    entry("fig6", "Fig 6 — PeMS single-GPU memory", fig6),
    entry("table4", "Table 4 — index vs GPU-index", table4),
    entry("fig7", "Fig 7 — scaling study", fig7),
    entry("fig8", "Fig 8 — accuracy vs GPU count", fig8),
    entry("table5", "Table 5 — shuffle-strategy ablation", table5),
    entry("fig9", "Fig 9 — batch-shuffling epoch analysis", fig9),
    entry("table6", "Table 6 — A3T-GCN broader applicability", table6),
    entry("fig10", "Fig 10 — ST-LLM scaling", fig10),
    entry("overlap", "§7 sweep — overlap vs synchronous step", overlap),
    entry("partition", "§7 sweep — partition halo bytes", partition),
    entry("staleness", "§7 sweep — bounded-staleness sync", staleness),
    entry("prefetch", "§7 sweep — prefetch and ownership", prefetch),
    entry(
        "serve_day",
        "Serving plane — open-loop diurnal day",
        serve_day,
    ),
];
