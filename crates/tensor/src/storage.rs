//! Reference-counted flat buffers backing tensors, and the step-buffer
//! recycler.
//!
//! `Storage` wraps an `Arc`'d `Vec<f32>` so tensor clones and views are
//! O(1) and share memory — the property index-batching relies on: every
//! spatiotemporal snapshot aliases the single standardized data array.
//!
//! # Recycling
//!
//! A training step allocates the same sequence of buffers every time:
//! activations on the way forward, gradients on the way back, most of them
//! tens to hundreds of KiB. Handed back to the system allocator, the large
//! ones are trimmed and faulted in again on the next step. A
//! [`RecycleScope`] keeps them instead: while one is open on a thread, every
//! buffer of at least [`RECYCLE_FLOOR_BYTES`] that an op allocates there
//! (`Storage::scratch`, the path of every kernel output, which the kernel
//! then writes in full) is tagged with the scope, and when the last tensor
//! holding it drops on that thread, the buffer goes into the scope's free
//! lists instead of back to the system.
//! The next request of the same length takes it back. Only buffers the
//! scope handed out return to it; a buffer dropped on another thread, or
//! after its scope closed, is freed as usual. Closing the scope frees the
//! lists. No scope open, nothing changes: every buffer comes from and goes
//! to the system allocator.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buffers smaller than this many bytes are never recycled: the system
/// allocator serves them from its own free lists without faulting.
pub const RECYCLE_FLOOR_BYTES: usize = 64 * 1024;

/// A shared flat buffer of `f32` elements.
#[derive(Debug, Clone)]
pub struct Storage {
    data: Arc<Buffer>,
}

/// The elements and the recycle scope that handed them out (0: none).
#[derive(Debug)]
struct Buffer {
    data: Vec<f32>,
    owner: u64,
}

impl Drop for Buffer {
    fn drop(&mut self) {
        if self.owner != 0 {
            give_back(self.owner, std::mem::take(&mut self.data));
        }
    }
}

impl Storage {
    /// `len` copies of `value`.
    pub(crate) fn full(len: usize, value: f32) -> Self {
        Storage::alloc(len, |buf| match buf {
            Some(mut buf) => {
                buf.fill(value);
                buf
            }
            None => vec![value; len],
        })
    }

    /// A buffer of `len` elements whose contents are unspecified — zeros, or
    /// a recycled buffer's old values. The one allocation path of kernel
    /// outputs: every `Kernels` method writes all of its output.
    pub(crate) fn scratch(len: usize) -> Self {
        Storage::alloc(len, |buf| buf.unwrap_or_else(|| vec![0.0; len]))
    }

    /// A copy of `src`.
    pub(crate) fn copy_of(src: &[f32]) -> Self {
        Storage::alloc(src.len(), |buf| match buf {
            Some(mut buf) => {
                buf.copy_from_slice(src);
                buf
            }
            None => src.to_vec(),
        })
    }

    /// The `len` elements `values` yields, in order.
    pub(crate) fn collect(len: usize, values: impl Iterator<Item = f32>) -> Self {
        let storage = Storage::alloc(len, |buf| match buf {
            Some(mut buf) => {
                buf.iter_mut().zip(values).for_each(|(o, v)| *o = v);
                buf
            }
            None => values.collect(),
        });
        assert_eq!(storage.len(), len, "`values` yields `len` elements");
        storage
    }

    /// `init` fills a recycled buffer of `len` elements when the open scope
    /// holds one (`Some`), else returns a fresh vector of `len` (`None`):
    /// outside a scope every op allocates exactly as it would without one.
    fn alloc(len: usize, init: impl FnOnce(Option<Vec<f32>>) -> Vec<f32>) -> Self {
        let (recycled, owner) = match take(len) {
            Some((buf, owner)) => (Some(buf), owner),
            None => (None, scope_token(len)),
        };
        Storage {
            data: Arc::new(Buffer {
                data: init(recycled),
                owner,
            }),
        }
    }

    /// Wrap an existing vector without copying.
    pub fn from_vec(v: Vec<f32>) -> Self {
        Storage {
            data: Arc::new(Buffer { data: v, owner: 0 }),
        }
    }

    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.data.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.data.is_empty()
    }

    /// Read-only view of the whole buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data.data
    }

    /// Mutable access with copy-on-write: if other tensors share this
    /// storage the buffer is cloned first, so views are never invalidated.
    pub fn make_mut(&mut self) -> &mut [f32] {
        if Arc::get_mut(&mut self.data).is_none() {
            *self = Storage::copy_of(self.as_slice());
        }
        &mut Arc::get_mut(&mut self.data)
            .expect("unique after copy-on-write")
            .data
    }

    /// True when `other` aliases the same allocation — used by tests to
    /// assert that index-batching snapshots are zero-copy.
    pub fn ptr_eq(&self, other: &Storage) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

/// One open scope's free lists, by buffer length.
struct Recycler {
    token: u64,
    free: HashMap<usize, Vec<Vec<f32>>>,
}

thread_local! {
    static RECYCLER: RefCell<Option<Recycler>> = const { RefCell::new(None) };
}

/// Scope tokens; 0 means "no scope".
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

fn recyclable(len: usize) -> bool {
    len * std::mem::size_of::<f32>() >= RECYCLE_FLOOR_BYTES
}

/// The open scope's token when a fresh buffer of `len` should be tagged.
fn scope_token(len: usize) -> u64 {
    if !recyclable(len) {
        return 0;
    }
    RECYCLER
        .try_with(|r| r.try_borrow().ok()?.as_ref().map(|r| r.token))
        .ok()
        .flatten()
        .unwrap_or(0)
}

/// A freed buffer of exactly `len` elements from the open scope, with the
/// scope's token.
fn take(len: usize) -> Option<(Vec<f32>, u64)> {
    if !recyclable(len) {
        return None;
    }
    RECYCLER
        .try_with(|r| {
            let mut r = r.try_borrow_mut().ok()?;
            let r = r.as_mut()?;
            let buf = r.free.get_mut(&len)?.pop()?;
            Some((buf, r.token))
        })
        .ok()
        .flatten()
}

/// Return `buf` to the scope `owner` if that scope is open on this thread;
/// otherwise it is freed when `buf` drops here.
fn give_back(owner: u64, buf: Vec<f32>) {
    let _ = RECYCLER.try_with(|r| {
        if let Ok(mut r) = r.try_borrow_mut() {
            if let Some(r) = r.as_mut().filter(|r| r.token == owner) {
                r.free.entry(buf.len()).or_default().push(buf);
            }
        }
    });
}

/// While alive, large buffers allocated on this thread are recycled (see
/// the module docs). Open one per thread whose work repeats — the engine
/// opens one around each rank's epoch loop. A scope opened while another
/// is open on the same thread does nothing; the outer one stays in force.
/// Dropping the scope frees every buffer it holds.
pub struct RecycleScope {
    token: u64,
    /// Tied to the thread whose recycler it opened.
    _thread: PhantomData<*const ()>,
}

impl RecycleScope {
    /// Open a scope on the calling thread.
    pub fn open() -> RecycleScope {
        let token = RECYCLER.with(|r| {
            let mut r = r.borrow_mut();
            if r.is_some() {
                return 0;
            }
            let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
            *r = Some(Recycler {
                token,
                free: HashMap::new(),
            });
            token
        });
        RecycleScope {
            token,
            _thread: PhantomData,
        }
    }

    /// Bytes the calling thread's open scope holds for reuse (0 with none).
    pub fn held_bytes() -> usize {
        RECYCLER.with(|r| {
            r.borrow().as_ref().map_or(0, |r| {
                r.free
                    .iter()
                    .map(|(len, bufs)| len * bufs.len() * std::mem::size_of::<f32>())
                    .sum()
            })
        })
    }
}

impl Drop for RecycleScope {
    fn drop(&mut self) {
        if self.token != 0 {
            // Taken out first: the buffers are freed with no borrow held.
            let closed = RECYCLER.with(|r| r.borrow_mut().take());
            drop(closed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Elements in a buffer just at the recycling floor.
    const BIG: usize = RECYCLE_FLOOR_BYTES / 4;

    #[test]
    fn zeros_and_len() {
        let s = Storage::full(5, 0.0);
        assert_eq!(s.len(), 5);
        assert!(s.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn clone_shares_allocation() {
        let a = Storage::from_vec(vec![1.0, 2.0]);
        let b = a.clone();
        assert!(a.ptr_eq(&b));
    }

    #[test]
    fn make_mut_is_copy_on_write() {
        let a = Storage::from_vec(vec![1.0, 2.0]);
        let mut b = a.clone();
        b.make_mut()[0] = 9.0;
        // `a` must be untouched and the two no longer alias.
        assert_eq!(a.as_slice()[0], 1.0);
        assert_eq!(b.as_slice()[0], 9.0);
        assert!(!a.ptr_eq(&b));
    }

    #[test]
    fn make_mut_unique_does_not_copy() {
        let mut a = Storage::from_vec(vec![1.0, 2.0]);
        let ptr = a.as_slice().as_ptr();
        a.make_mut()[1] = 5.0;
        assert_eq!(a.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn scope_recycles_large_buffers_zeroed() {
        let _scope = RecycleScope::open();
        let mut a = Storage::full(BIG, 0.0);
        a.make_mut().fill(7.0);
        let ptr = a.as_slice().as_ptr();
        drop(a);
        assert_eq!(RecycleScope::held_bytes(), RECYCLE_FLOOR_BYTES);
        let b = Storage::full(BIG, 0.0);
        assert_eq!(b.as_slice().as_ptr(), ptr, "the freed buffer comes back");
        assert!(b.as_slice().iter().all(|&x| x == 0.0), "zeroed on reuse");
        assert_eq!(RecycleScope::held_bytes(), 0);
        // Another length never takes it.
        drop(b);
        let c = Storage::full(BIG + 1, 0.0);
        assert_ne!(c.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn small_and_foreign_buffers_are_not_taken() {
        let _scope = RecycleScope::open();
        drop(Storage::full(BIG - 1, 0.0));
        drop(Storage::from_vec(vec![0.0; BIG]));
        assert_eq!(RecycleScope::held_bytes(), 0);
    }

    #[test]
    fn no_scope_no_recycling_and_nested_scopes_are_inert() {
        drop(Storage::full(BIG, 0.0));
        assert_eq!(RecycleScope::held_bytes(), 0, "no scope, nothing held");
        let outer = RecycleScope::open();
        drop(RecycleScope::open());
        drop(Storage::full(BIG, 0.0));
        assert_eq!(
            RecycleScope::held_bytes(),
            RECYCLE_FLOOR_BYTES,
            "the outer scope stays open"
        );
        let a = Storage::full(BIG, 0.0);
        drop(outer);
        assert_eq!(RecycleScope::held_bytes(), 0);
        // Its scope closed: `a` is freed, and a new scope never sees it.
        let _scope = RecycleScope::open();
        drop(a);
        assert_eq!(RecycleScope::held_bytes(), 0);
    }

    #[test]
    fn buffers_dropped_on_another_thread_are_freed_there() {
        let _scope = RecycleScope::open();
        let a = Storage::full(BIG, 0.0);
        std::thread::spawn(move || {
            let _theirs = RecycleScope::open();
            drop(a);
            assert_eq!(RecycleScope::held_bytes(), 0, "not theirs to keep");
        })
        .join()
        .unwrap();
        assert_eq!(RecycleScope::held_bytes(), 0);
    }

    #[test]
    fn copy_on_write_copies_into_a_recycled_buffer() {
        let _scope = RecycleScope::open();
        let freed = Storage::full(BIG, 0.0);
        let ptr = freed.as_slice().as_ptr();
        drop(freed);
        let a = Storage::from_vec(vec![3.0; BIG]);
        let mut b = a.clone();
        b.make_mut()[0] = 1.0;
        assert_eq!(b.as_slice().as_ptr(), ptr);
        assert_eq!((b.as_slice()[0], b.as_slice()[1]), (1.0, 3.0));
        assert_eq!(a.as_slice()[0], 3.0);
    }
}
