//! Intra-op data parallelism: deterministic chunking over one resident,
//! process-wide worker pool.
//!
//! Every data-parallel kernel in the workspace — GEMM rows, batched GEMM
//! slabs, CSR rows, the `sum_abs` partials — goes through one dispatch
//! primitive, `run_chunks`, by way of [`parallel_chunks`],
//! [`parallel_fill_chunks`] or `parallel_slabs`. Three rules hold for all
//! of them:
//!
//! - **Budget.** A call splits into at most [`width`] chunks. The width is
//!   a thread-local *derived* value, never a setting: a thread that nobody
//!   budgeted may use the whole process ([`num_threads`]), and
//!   `st_dist::run_workers(world, ..)` hands each rank thread its caller's
//!   width ÷ `world` (floor 1) through [`with_width`], so ranks and serve
//!   shards share the cores instead of multiplying them. Work under
//!   [`par_threshold`] or at width 1 runs inline on the calling thread.
//! - **Residency.** Chunks run on `num_threads() − 1` `std::thread`
//!   workers started on the first pooled call and kept for the life of the
//!   process; an idle worker spins for `SPIN` and then parks. The caller
//!   runs chunk 0 itself and then claims whatever no worker has started,
//!   so it never idles on a busy pool and completes with no workers at
//!   all. A process whose ranks cover the cores (every width is 1) never
//!   starts the pool.
//! - **Bits.** Chunk boundaries depend on the width, results never do: no
//!   kernel reduces across chunks (each output row is produced whole by
//!   one chunk; `reduce::sum_abs` combines fixed-size partials in index
//!   order). `tests/proptests_kernels.rs` pins that across widths.
//!
//! The pool is the one place in the workspace that needs `unsafe`: a
//! resident thread cannot borrow from a caller's stack in safe Rust, so
//! `run_chunks` erases the chunk body's lifetime. The invariant that makes
//! that sound — *the caller blocks until every chunk has finished, and a
//! chunk can only start before that* — is stated at the dereference in
//! `Job::run`.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Default for [`par_threshold`]: below this many scalar operations, run
/// sequentially.
///
/// Re-derived against the resident pool (2-core Xeon host, release,
/// `target-cpu=native`, tiled GEMM at about 12 G scalar ops/s at these
/// sizes) and kept at 2¹⁵:
///
/// - *Hot* dispatch — a worker is polling — costs the caller 0.3 µs when it
///   ends up running both chunks itself (`st_tensor.par_dispatch_us` on
///   `train_wide_w1`; the scoped spawn this replaced: 65–188 µs) and
///   0.7–0.9 µs when the worker takes its share. A split pays once half
///   the inline time exceeds that, i.e. from about 2 µs inline ≈ 2·10⁴
///   ops; 2¹⁵ (2.7 µs inline) is the next power of two.
/// - *Parked* dispatch — the worker has to be woken — costs the caller
///   14 µs (p90 20 µs). It cannot set the threshold and need not: a worker
///   parks only after `SPIN` (1 ms) of idleness, so it is paid at most once
///   per millisecond, ≤ 2 % of the caller's time whatever the call size.
/// - End to end on `train_wide_w1` (windows/s, 4 alternating 8 s runs
///   each): 2¹⁶ 72.1–73.5, **2¹⁵ 76.8–78.5**, 2¹⁴ 77.0–80.8; inline
///   (`ST_NUM_THREADS=1`) 67.5–69.0. `train_small_w2` and `serve_unique` run at
///   width 1 on that host and do not see the constant.
///
/// In isolation the picture is less kind to small calls: back-to-back
/// 32³ GEMMs take 2.7 µs inline and 3.8–4.1 µs split (the output and the
/// packed panel change cores), break-even is near 10⁵ ops (64×64×32: 9.0 →
/// 8.5 µs) and 128×64×64 goes 30.7 → 21.0 µs. A train step has few calls
/// between 2¹⁵ and 10⁵ ops (2 % on `train_wide_w1`), and there they keep
/// the second core in step with the first between the large GEMMs — after
/// 0.7 ms without vector work this host runs the next GEMM 2.6× slower,
/// pool or no pool — so the end-to-end number, not the microbenchmark,
/// decides.
pub const PAR_THRESHOLD: usize = 1 << 15;

/// How long an idle worker, or a caller waiting for its last chunks, polls
/// before it parks. One millisecond spans the gaps between pooled kernels
/// inside a train step (8 k gaps on `train_wide_w1`: 98.8 % under 1 ms,
/// most of the rest epoch and validation boundaries), so a worker keeps
/// its core for the step and sleeps between engine calls.
const SPIN: Duration = Duration::from_millis(1);

/// The part of [`SPIN`] spent in `spin_loop` alone; past it every poll also
/// yields, so a waiter never holds a core from a runnable thread — on a
/// scheduler that wakes a thread on its waker's core, the very thread it
/// is waiting for. Most waits end inside it: yielding from the first poll
/// costs `train_wide_w1` 2.5 % (77.6 → 75.4 windows/s).
const SPIN_BUSY: Duration = Duration::from_micros(20);

/// The one shared work-size threshold every data-parallel helper consults:
/// ops whose estimated scalar-op count is below it run inline on the
/// calling thread.
///
/// There are exactly two knobs in the threading story, and this is the
/// second one:
/// - `ST_NUM_THREADS` caps the process ([`num_threads`]); `1` is a true
///   sequential path — the pool is never started.
/// - `ST_PAR_THRESHOLD` overrides this threshold (read once, then cached;
///   a non-numeric or empty value keeps the [`PAR_THRESHOLD`] default).
///   `0` makes every op eligible for the pool; a huge value forces
///   everything inline.
///
/// Per-op magic constants are not welcome: kernels estimate their work
/// (`m*n*k` for a GEMM, `nnz*n` for an spmm) and compare against this one
/// number, so the sequential/parallel switch is tunable in one place and
/// none of it can affect results — chunked reductions use fixed chunk
/// sizes (`reduce::SUM_ABS_CHUNK`) precisely so bit patterns never depend
/// on the thread count.
pub fn par_threshold() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(usize::MAX);
    let v = CACHED.load(Ordering::Relaxed);
    if v != usize::MAX {
        return v;
    }
    let v = threshold_override(std::env::var("ST_PAR_THRESHOLD").ok().as_deref())
        .unwrap_or(PAR_THRESHOLD);
    CACHED.store(v, Ordering::Relaxed);
    v
}

/// Parse a threshold override: any non-negative integer is taken verbatim;
/// unset, empty, or garbage means "no override".
fn threshold_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n != usize::MAX)
}

/// The process's thread cap for data-parallel loops: the pool holds this
/// many threads minus the caller, and an unbudgeted thread's [`width`] is
/// this number.
///
/// Honors an `ST_NUM_THREADS` environment variable override (read once,
/// then cached) so latency-sensitive consumers — the serving benchmarks in
/// particular — can pin the thread count; otherwise defaults to the
/// machine's available parallelism.
pub fn num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let n = CACHED.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let n = thread_count_override(std::env::var("ST_NUM_THREADS").ok().as_deref()).unwrap_or_else(
        || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        },
    );
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Parse a thread-count override: a positive integer means "use exactly
/// this many threads"; anything else (unset, empty, zero, garbage) means
/// "no override".
fn thread_count_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

thread_local! {
    /// This thread's intra-op width; 0 means nobody budgeted it.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
    /// `[pooled, inline]` dispatch decisions made on this thread.
    static CALLS: [Cell<u64>; 2] = const { [Cell::new(0), Cell::new(0)] };
}

/// The calling thread's intra-op width: the most chunks one kernel call on
/// this thread splits into. [`num_threads`] unless a [`with_width`] scope
/// is active (a `run_workers` rank, a pool worker, a chunk body).
pub fn width() -> usize {
    match WIDTH.get() {
        0 => num_threads(),
        w => w,
    }
}

/// Run `f` with the calling thread's [`width`] set to `width` (floor 1),
/// restoring the previous value when `f` returns or unwinds.
///
/// This is how a budget is handed down, not a tuning knob: `run_workers`
/// calls it once per rank thread with its caller's width ÷ world. A width
/// above [`num_threads`] only produces more, smaller chunks — the pool's
/// size still caps how many run at once — which the width-invariance tests
/// use to drive chunkings no host would pick.
pub fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH.set(self.0);
        }
    }
    let _restore = Restore(WIDTH.replace(width.max(1)));
    f()
}

/// Cumulative `[pooled, inline]` calls made on the calling thread: how
/// many `parallel_*` calls were split over the pool and how many ran
/// inline (width 1, work under [`par_threshold`], or nothing to split).
/// `st_device::KernelSplit` snapshots these beside the kernel seconds.
pub fn dispatch_calls() -> [u64; 2] {
    CALLS.with(|c| [c[0].get(), c[1].get()])
}

/// Into how many chunks a call over `len` units of estimated `work`
/// splits (1 means inline), counted on this thread's [`dispatch_calls`].
fn plan(len: usize, work: usize) -> usize {
    let width = width();
    let chunks = if width <= 1 || work < par_threshold() || len < 2 {
        1
    } else {
        width.min(len)
    };
    CALLS.with(|c| {
        let c = &c[usize::from(chunks == 1)];
        c.set(c.get() + 1);
    });
    chunks
}

/// Run `f(chunk_index, start, end)` over `[0, len)` split into roughly equal
/// chunks, in parallel when the estimated `work` is large enough.
///
/// `work` should approximate total scalar operations (e.g. `m * n * k` for a
/// matmul), so small tensors never pay dispatch overhead.
pub fn parallel_chunks<F>(len: usize, work: usize, f: F)
where
    F: Fn(usize, usize, usize) + Sync,
{
    let chunks = plan(len, work);
    if chunks == 1 {
        return f(0, 0, len);
    }
    let per = len.div_ceil(chunks);
    run_chunks(len.div_ceil(per), &|c| {
        f(c, c * per, ((c + 1) * per).min(len))
    });
}

/// Parallel map over disjoint mutable chunks of `out`, where chunk `i` of
/// size `chunk` is produced by `f(i, &mut out_chunk)`.
pub fn parallel_fill_chunks<F>(out: &mut [f32], chunk: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(chunk > 0, "chunk must be positive");
    assert_eq!(out.len() % chunk, 0, "out must divide into whole chunks");
    parallel_slabs(out, chunk, work, |first, slab| {
        for (j, c) in slab.chunks_mut(chunk).enumerate() {
            f(first + j, c);
        }
    });
}

/// Split `out` into contiguous slabs of whole `unit`-element groups (the
/// last group may be ragged) and run `f(first_group_index, slab)` on each,
/// in parallel when the estimated `work` is large enough; inline, `f` sees
/// all of `out` as one slab.
pub(crate) fn parallel_slabs<F>(out: &mut [f32], unit: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let groups = out.len().div_ceil(unit);
    let chunks = plan(groups, work);
    if chunks == 1 {
        return f(0, out);
    }
    let per = groups.div_ceil(chunks);
    // One uncontended lock per slab is what lets a shared `Fn` hand out
    // `&mut` slabs without unsafe code.
    let slabs: Vec<Mutex<&mut [f32]>> = out.chunks_mut(per * unit).map(Mutex::new).collect();
    run_chunks(slabs.len(), &|c| {
        let mut slab = slabs[c]
            .lock()
            .expect("a slab is locked once, by its chunk");
        f(c * per, &mut slab);
    });
}

// ---------------------------------------------------------------------------
// The resident pool
// ---------------------------------------------------------------------------

/// One `run_chunks` call in flight: the chunk body plus the two counters
/// that hand its chunks out and collect them back. Shared by `Arc`, so a
/// worker that looks at a finished job touches live memory; only `body`
/// points into the caller's stack.
struct Job {
    /// The caller's chunk body with its borrow lifetime erased; see
    /// [`Job::run`] for why the dereference is sound.
    body: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    /// Next chunk nobody has started.
    next: AtomicUsize,
    /// Chunks not finished yet; the caller's latch.
    pending: AtomicUsize,
    /// What panicking chunks raised; the caller re-raises the first. The
    /// rest are kept, not dropped, until every chunk has finished: a
    /// payload's destructor is caller code and may itself panic.
    panics: Mutex<Vec<Box<dyn Any + Send>>>,
    caller: Thread,
}

// SAFETY: `body` points at a `Sync` closure, so calling it through a shared
// pointer from several threads is what its type allows; whether the pointee
// is alive is `Job::run`'s obligation. Every other field is `Send + Sync`.
unsafe impl Send for Job {}
// SAFETY: as above.
unsafe impl Sync for Job {}

impl Job {
    /// Claim the next unstarted chunk; whoever takes the last one also
    /// takes the job off the pool's queue.
    fn claim(&self) -> Option<usize> {
        // Relaxed: the index publishes nothing. Workers got the job, and
        // everything its body borrows, through the queue mutex.
        let c = self.next.fetch_add(1, Ordering::Relaxed);
        if c + 1 == self.chunks {
            POOL.retire(self);
        }
        (c < self.chunks).then_some(c)
    }

    /// Run chunk `c`, which the calling thread claimed; returns whether it
    /// was the last chunk of the job to finish.
    fn run(&self, c: usize) -> bool {
        // SAFETY: block-until-latch. `run_chunks` keeps the closure alive
        // until it has observed `pending == 0`. `pending` starts at
        // `chunks` and drops by one only at the end of this function, so
        // it is non-zero for as long as any claimed chunk — this one
        // included — is still running, and a chunk can only be claimed
        // (`c < chunks`) while it is still counted in `pending`. Nothing
        // reads `body` after the decrement below.
        let body = unsafe { &*self.body };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(c))) {
            self.panics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(payload);
        }
        // Release pairs with the caller's Acquire load in `run_chunks`:
        // the chunk's writes are visible once the caller sees zero.
        self.pending.fetch_sub(1, Ordering::AcqRel) == 1
    }
}

/// Jobs with unstarted chunks, and the workers waiting for one.
struct Pool {
    state: Mutex<PoolState>,
    /// `state.jobs.len()`, readable without the lock: what idle workers
    /// poll. Only ever a hint (hence `Relaxed`) — the queue itself is read
    /// under the lock, and a worker checks it there before it sleeps.
    open: AtomicUsize,
    wake: Condvar,
    start: Once,
}

struct PoolState {
    /// Oldest first.
    jobs: Vec<Arc<Job>>,
    /// Workers blocked on `wake`.
    sleepers: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        jobs: Vec::new(),
        sleepers: 0,
    }),
    open: AtomicUsize::new(0),
    wake: Condvar::new(),
    start: Once::new(),
};

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Chunk bodies never run under this lock, so it cannot be poisoned
        // by caller code.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue `job` for the workers, starting them on first use and waking
    /// as many sleepers as the job has chunks to spare.
    fn publish(&'static self, job: &Arc<Job>) {
        self.start.call_once(|| {
            for i in 1..num_threads() {
                // The pool's only spawn. Workers are never joined: they
                // live as long as the process and catch every chunk panic,
                // so there is no result to collect. A failed spawn just
                // leaves more chunks to the callers.
                let _ = thread::Builder::new()
                    .name(format!("st-par-{i}"))
                    .spawn(move || self.work());
            }
        });
        let mut state = self.lock();
        state.jobs.push(Arc::clone(job));
        self.open.store(state.jobs.len(), Ordering::Relaxed);
        let wake = state.sleepers.min(job.chunks - 1);
        drop(state);
        for _ in 0..wake {
            self.wake.notify_one();
        }
    }

    fn retire(&self, job: &Job) {
        let mut state = self.lock();
        state.jobs.retain(|j| !std::ptr::eq(Arc::as_ptr(j), job));
        self.open.store(state.jobs.len(), Ordering::Relaxed);
    }

    /// A worker's life: take the oldest job with unstarted chunks, run
    /// chunks until it has none, repeat.
    fn work(&self) {
        // A chunk is already one of its caller's `width` pieces, so
        // kernels nested inside it run inline.
        WIDTH.set(1);
        loop {
            let job = self.next_job();
            while let Some(c) = job.claim() {
                if job.run(c) {
                    job.caller.unpark();
                }
            }
        }
    }

    fn next_job(&self) -> Arc<Job> {
        let unstarted = |state: &PoolState| {
            state
                .jobs
                .iter()
                .find(|j| j.next.load(Ordering::Relaxed) < j.chunks)
                .cloned()
        };
        let mut found = None;
        spin_until(|| {
            if self.open.load(Ordering::Relaxed) != 0 {
                found = unstarted(&self.lock());
            }
            found.is_some()
        });
        if let Some(job) = found {
            return job;
        }
        let mut state = self.lock();
        loop {
            if let Some(job) = unstarted(&state) {
                return job;
            }
            // `publish` pushes under this lock, so a job cannot slip in
            // between the check above and the wait.
            state.sleepers += 1;
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.sleepers -= 1;
        }
    }
}

/// Poll `ready` for at most [`SPIN`]; whether it came true.
fn spin_until(mut ready: impl FnMut() -> bool) -> bool {
    if ready() {
        return true;
    }
    let start = Instant::now();
    loop {
        for _ in 0..32 {
            std::hint::spin_loop();
            if ready() {
                return true;
            }
        }
        let waited = start.elapsed();
        if waited >= SPIN {
            return false;
        }
        if waited >= SPIN_BUSY {
            thread::yield_now();
        }
    }
}

/// The dispatch primitive: run `body(c)` once for every `c` in
/// `0..chunks`, chunk 0 on the calling thread and the rest on whichever of
/// the pool's workers or the caller gets to them first, returning when all
/// have finished. If any chunk panicked, the first payload is re-raised
/// here — after the last chunk has finished, never before.
fn run_chunks(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    debug_assert!(chunks >= 2, "one chunk is the inline path");
    // SAFETY: only the trait object's lifetime bound changes, which has no
    // runtime representation. The pointer is dereferenced in `Job::run`
    // alone, and this function does not return — normally or by unwinding
    // — before `pending` reads zero, after which `run` no longer touches
    // it.
    let body: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
    let job = Arc::new(Job {
        body,
        chunks,
        next: AtomicUsize::new(1),
        pending: AtomicUsize::new(chunks),
        panics: Mutex::new(Vec::new()),
        caller: thread::current(),
    });
    POOL.publish(&job);
    // Same rule as on a worker: kernels nested in a chunk run inline.
    with_width(1, || {
        job.run(0);
        while let Some(c) = job.claim() {
            job.run(c);
        }
    });
    // Every chunk has been started; the ones still running are on workers.
    let done = || job.pending.load(Ordering::Acquire) == 0;
    if !spin_until(done) {
        while !done() {
            // The worker that finishes last unparks this thread. A stale
            // token from an earlier call only costs one more turn.
            thread::park();
        }
    }
    let mut panics =
        std::mem::take(&mut *job.panics.lock().unwrap_or_else(PoisonError::into_inner));
    if !panics.is_empty() {
        panic::resume_unwind(panics.swap_remove(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_chunks_covers_range_once() {
        let sum = AtomicU64::new(0);
        // Large work to force the parallel path.
        parallel_chunks(1000, PAR_THRESHOLD * 2, |_, s, e| {
            for i in s..e {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn small_work_runs_inline() {
        let hit = AtomicU64::new(0);
        parallel_chunks(10, 10, |c, s, e| {
            // Sequential path calls exactly once with the full range.
            assert_eq!((c, s, e), (0, 0, 10));
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn env_override_parsing() {
        // The first num_threads() call may already have cached a value in
        // this process, so the override logic is pinned on the pure parser.
        assert_eq!(thread_count_override(Some("4")), Some(4));
        assert_eq!(thread_count_override(Some(" 2 ")), Some(2));
        assert_eq!(thread_count_override(Some("0")), None, "0 is no override");
        assert_eq!(thread_count_override(Some("lots")), None);
        assert_eq!(thread_count_override(Some("")), None);
        assert_eq!(thread_count_override(None), None);
    }

    #[test]
    fn par_threshold_defaults_and_override_parsing() {
        // The cached value in this process is the default unless the
        // environment set one before the first call.
        let expected = threshold_override(std::env::var("ST_PAR_THRESHOLD").ok().as_deref())
            .unwrap_or(PAR_THRESHOLD);
        assert_eq!(par_threshold(), expected);
        // The override parser itself is pinned on pure inputs.
        assert_eq!(
            threshold_override(Some("0")),
            Some(0),
            "0 is a valid threshold"
        );
        assert_eq!(threshold_override(Some(" 1024 ")), Some(1024));
        assert_eq!(threshold_override(Some("lots")), None);
        assert_eq!(threshold_override(Some("")), None);
        assert_eq!(threshold_override(None), None);
    }

    #[test]
    fn fill_chunks_produces_each_chunk() {
        let mut out = vec![0.0f32; 12];
        parallel_fill_chunks(&mut out, 3, PAR_THRESHOLD * 2, |i, c| {
            for x in c.iter_mut() {
                *x = i as f32;
            }
        });
        assert_eq!(out, vec![0., 0., 0., 1., 1., 1., 2., 2., 2., 3., 3., 3.]);
    }
}
