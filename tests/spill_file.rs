//! The spill file's life and death: a rewrite that dies half-way leaves no
//! file behind, and a file cut short under a live store fails the read that
//! needs the missing bytes with a message that says which file and where.
//!
//! Spill files are named `st-chunks-<pid>-<n>`, and listing them is only
//! exact while nothing else in the process creates or drops a store at the
//! same time: this binary holds these tests alone, and they take turns.

use pgt_i::data::storage::{ChunkedSpec, RowStore, SignalStorage, StorageSpec};
use pgt_i::tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn spill_files() -> Vec<PathBuf> {
    let prefix = format!("st-chunks-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir is readable")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .map(|e| e.path())
        .collect()
}

fn my_spill_files() -> usize {
    spill_files().len()
}

#[test]
fn a_panicking_rewrite_leaves_no_spill_file() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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

#[test]
fn a_truncated_spill_file_fails_the_read_by_name() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = spill_files();
    let t = Tensor::arange(10 * 3).reshape([10, 3]).unwrap();
    let store = SignalStorage::from_tensor_spec(t, StorageSpec::Chunked(ChunkedSpec::new(4)));
    let path = spill_files()
        .into_iter()
        .find(|p| !before.contains(p))
        .expect("the store's own file");

    // Cut the file after row 6 (of 10 rows, 12 bytes each).
    let file = std::fs::File::options().write(true).open(&path).unwrap();
    file.set_len(6 * 12).unwrap();
    drop(file);

    // Rows that are still there read as before ...
    let (head, io) = store.read_rows_quoted(2..6);
    assert_eq!(head.to_vec(), (6..18).map(|v| v as f32).collect::<Vec<_>>());
    assert_eq!(io, 4 * 12);
    // ... and a read that needs the missing bytes says what it wanted.
    let died = catch_unwind(AssertUnwindSafe(|| store.read_rows_quoted(5..9)))
        .expect_err("rows 6..9 are gone");
    let msg = died
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    let (what, io_error) = msg
        .split_once(" failed: ")
        .expect("the OS error is appended");
    assert!(
        what.contains(path.to_str().unwrap()),
        "{msg:?} names the file"
    );
    assert!(what.ends_with("reading 48 bytes at offset 60"), "{msg:?}");
    assert!(!io_error.is_empty(), "{msg:?} carries the io::Error");

    drop(store);
    assert_eq!(spill_files(), before, "and the store still cleans up");
}
