//! What one training step keeps alive, measured by the allocator.
//!
//! A counting global allocator — this test binary's only — tracks the heap
//! bytes the test thread allocates and frees while a flag is set, so one
//! `StepLoop::forward_backward` of a small PGT-DCRNN (batch 4, 128 nodes,
//! hidden 32: every gate and panel tensor is at least 64 KiB) can be
//! weighed against the activations its tape retains:
//!
//! - the step's peak live heap stays under the tape's activation bytes
//!   (`Tape::activation_bytes` counts view nodes too, so it overstates what
//!   the activations occupy). Keeping every interior gradient until the
//!   step ended, as the tape once did, peaked at 1.69× on this model;
//!   freeing each consumed gradient brings it to 0.75×.
//! - only leaf gradients survive `Tape::backward`, and every parameter's
//!   gradient bits equal those of the keep-everything tape (their digest
//!   was captured from it).
//! - inside a `RecycleScope`, a second identical step takes every buffer of
//!   at least 64 KiB from the scope: none comes from the system allocator.
//! - the DCGRU's three panel GEMMs (forward, `dPₖ` and `dW`) allocate
//!   nothing of 4 KiB or more but their outputs: the tiles read their
//!   operands where they lie, with no packed copy.
//!
//! CI runs this binary at `ST_NUM_THREADS=1` and `=3`: the recycler is
//! per thread, and the intra-op pool moves kernel work off the test thread.

use pgt_i::autograd::{loss, Module, Tape};
use pgt_i::core::engine::StepLoop;
use pgt_i::graph::{diffusion_supports, generators::highway_corridor};
use pgt_i::models::{ModelConfig, PgtDcrnn, Seq2Seq, Support};
use pgt_i::tensor::storage::{RecycleScope, RECYCLE_FLOOR_BYTES};
use pgt_i::tensor::{ops, random, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Counts the flagged thread's allocations; every call is `System`'s.
struct Counting;

/// Bytes allocated minus bytes freed on flagged threads since the last
/// [`measure`] began, its high-water mark, allocations of at least
/// [`RECYCLE_FLOOR_BYTES`], and allocations of at least [`PAGE_BYTES`].
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(0);
static PAGES: AtomicUsize = AtomicUsize::new(0);

/// The smallest allocation [`PAGES`] counts: a page.
const PAGE_BYTES: usize = 4096;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Ordering::Relaxed);
    if bytes >= RECYCLE_FLOOR_BYTES {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
    if bytes >= PAGE_BYTES {
        PAGES.fetch_add(1, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counting touches only atomics and a
// const-initialized thread-local, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            grew(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            grew(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            shrank(layout.size());
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            shrank(layout.size());
            grew(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The counters are global: one measurement at a time.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// What `f` did on the calling thread: its result, the peak of (bytes
/// allocated − bytes freed) while it ran, and how many allocations of at
/// least 64 KiB it made.
fn measure<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let (out, peak, large, _) = measure_all(f);
    (out, peak, large)
}

/// [`measure`], and how many allocations of at least 4 KiB `f` made.
fn measure_all<R>(f: impl FnOnce() -> R) -> (R, usize, usize, usize) {
    let _one = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    LARGE.store(0, Ordering::Relaxed);
    PAGES.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let peak = PEAK.load(Ordering::Relaxed).max(0) as usize;
    let pages = PAGES.load(Ordering::Relaxed);
    (out, peak, LARGE.load(Ordering::Relaxed), pages)
}

const BATCH: usize = 4;
const NODES: usize = 128;
const HORIZON: usize = 4;

/// The model and one batch `(x, y)`, each `[4, 4, 128, 2]`.
fn fixture() -> (PgtDcrnn, Tensor, Tensor) {
    let net = highway_corridor(NODES, 1, 5);
    let supports = Support::wrap_all(diffusion_supports(&net.adjacency, 2));
    let cfg = ModelConfig {
        input_dim: 2,
        output_dim: 1,
        hidden: 32,
        num_nodes: NODES,
        horizon: HORIZON,
        diffusion_steps: 2,
        layers: 1,
    };
    let mut rng = random::rng_from_seed(17);
    let dims = [BATCH, HORIZON, NODES, 2];
    let x = random::uniform(dims, -1.0, 1.0, &mut rng);
    let y = random::uniform(dims, -1.0, 1.0, &mut rng);
    (PgtDcrnn::new(cfg, &supports, 3), x, y)
}

/// One `StepLoop::forward_backward`; returns the loss and the step's tape.
fn step(model: &PgtDcrnn, x: &Tensor, y: &Tensor) -> (f32, Tape) {
    let kept = RefCell::new(None);
    let loss = StepLoop { grad_clip: None }.forward_backward(
        |tape| {
            kept.replace(Some(tape.clone()));
            model.forward(tape, x)
        },
        y,
    );
    (loss, kept.into_inner().expect("the step ran its forward"))
}

/// FNV-1a over every parameter gradient's bits, in `params()` order.
fn grad_digest(model: &PgtDcrnn) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in model.params() {
        let g = p.grad().expect("every parameter is reached");
        for b in g.to_vec().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The parameter gradients of one step from a fresh model, as the tape
/// that kept every gradient until the step ended computed them.
const KEEP_EVERYTHING_GRADS: u64 = 0xcb4e_592c_73f9_27eb;

#[test]
fn a_step_peaks_near_its_activations() {
    let (model, x, y) = fixture();
    let ((loss, tape), peak, _) = measure(|| step(&model, &x, &y));
    assert!(loss.is_finite());
    let activations = tape.activation_bytes(4) as usize;
    let ratio = peak as f64 / activations as f64;
    println!("peak {peak} B, activations {activations} B, {ratio:.2}x");
    assert!(
        ratio < 1.0,
        "peak live heap {peak} B is {ratio:.2}x the {activations} B of activations"
    );
}

#[test]
fn only_leaf_gradients_survive_and_parameter_bits_hold() {
    let (model, x, y) = fixture();
    let tape = Tape::new();
    let pred = model.forward(&tape, &x);
    let tgt = tape.constant(StepLoop::target_of(&y));
    let l = loss::mae(&pred, &tgt);
    let grads = tape.backward(&l);
    assert!(
        grads.get(&pred).is_none(),
        "an interior node's gradient is freed"
    );
    assert!(grads.get(&l).is_none(), "so is the root's");
    assert!(
        grads.get(&tgt).is_some(),
        "a constant leaf keeps its gradient"
    );
    tape.accumulate_param_grads(&grads);
    assert_eq!(
        grad_digest(&model),
        KEEP_EVERYTHING_GRADS,
        "parameter gradient bits"
    );
}

#[test]
fn a_second_step_in_a_recycle_scope_allocates_no_large_buffer() {
    let (model, x, y) = fixture();
    let again = || {
        for p in model.params() {
            p.zero_grad();
        }
        step(&model, &x, &y)
    };
    // Outside a scope every step takes its large buffers from the system.
    let (_, tape) = again();
    drop(tape);
    let ((unscoped, tape), _, from_system) = measure(again);
    drop(tape);
    assert!(
        from_system > 0,
        "the step has buffers of >= 64 KiB to recycle"
    );
    let _scope = RecycleScope::open();
    let (_, tape) = again();
    drop(tape);
    let ((scoped, tape), _, large) = measure(again);
    drop(tape);
    assert_eq!(unscoped.to_bits(), scoped.to_bits(), "the same step");
    assert_eq!(
        large, 0,
        "{large} of the step's {from_system} buffers of >= 64 KiB came from the system allocator"
    );
    assert!(
        RecycleScope::held_bytes() > 0,
        "the scope kept the step's buffers"
    );
}

/// At `train_wide_w2`'s DCGRU shapes (batch 8, 128 nodes, hidden 32, three
/// 34-wide panels), outside a `RecycleScope`, the forward `bmm_panels`, the
/// `dPₖ` `bmm_split` and the `dW` `bmm_panels_dw` each make exactly as many
/// allocations of at least 4 KiB as they return tensors. A packed copy of
/// the weight (13 KiB), of `g` (128 KiB) or of an lhs block (4 KiB) would
/// each add one.
#[test]
fn the_panel_gemms_allocate_nothing_but_their_outputs() {
    let mut rng = random::rng_from_seed(29);
    let panels: Vec<Tensor> = (0..3)
        .map(|_| random::uniform([8, 128, 34], -1.0, 1.0, &mut rng))
        .collect();
    let refs: Vec<&Tensor> = panels.iter().collect();
    let w = random::uniform([102, 32], -1.0, 1.0, &mut rng);
    let wt = w.t().expect("rank 2").contiguous();
    let g = random::uniform([8, 128, 32], -1.0, 1.0, &mut rng);
    let (y, _, _, pages) = measure_all(|| ops::bmm_panels(&refs, &w).expect("shapes"));
    assert_eq!(y.dims(), &[8, 128, 32]);
    assert_eq!(
        pages, 1,
        "bmm_panels: {pages} allocations of >= 4 KiB for 1 output"
    );
    let (da, _, _, pages) = measure_all(|| ops::bmm_split(&g, &wt, &[34, 34, 34]).expect("shapes"));
    assert_eq!(
        pages,
        da.len(),
        "bmm_split: {pages} allocations of >= 4 KiB for {} outputs",
        da.len()
    );
    let (dw, _, _, pages) = measure_all(|| ops::bmm_panels_dw(&refs, &g).expect("shapes"));
    assert_eq!(dw.dims(), &[102, 32]);
    assert_eq!(
        pages, 1,
        "bmm_panels_dw: {pages} allocations of >= 4 KiB for 1 output"
    );
}
