//! A rewrite that dies half-way leaves no spill file behind.
//!
//! This binary holds **one** test on purpose: spill files are named
//! `st-chunks-<pid>-<n>`, and counting them is only exact while nothing else
//! in the process creates or drops a store at the same time.

use pgt_i::data::storage::{ChunkedSpec, SignalStorage, StorageSpec};
use pgt_i::tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn my_spill_files() -> usize {
    let prefix = format!("st-chunks-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir is readable")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .count()
}

#[test]
fn a_panicking_rewrite_leaves_no_spill_file() {
    // Whatever an earlier process with this pid may have left behind.
    let stale = my_spill_files();
    let spec = StorageSpec::Chunked(ChunkedSpec::new(4));
    let t = Tensor::arange(10 * 3).reshape([10, 3]).unwrap();
    let source = SignalStorage::from_tensor_spec(t, spec);
    assert_eq!(my_spill_files(), stale + 1, "the source's own file");

    // Block 0 is written to a fresh file before block 1's closure panics.
    let mut during = 0;
    let died = catch_unwind(AssertUnwindSafe(|| {
        source.rewrite_rows(spec, |first_row, block| {
            if first_row > 0 {
                during = my_spill_files();
                panic!("rewrite closure failed on the second block");
            }
            block.clone()
        })
    }));
    assert!(died.is_err());
    assert_eq!(during, stale + 2, "the half-written file existed");
    assert_eq!(
        my_spill_files(),
        stale + 1,
        "and the unwinding writer deleted it"
    );

    drop(source);
    assert_eq!(my_spill_files(), stale);
}
