//! Reference-counted flat buffers backing tensors.
//!
//! `Storage` wraps `Arc<Vec<f32>>` so tensor clones and views are O(1) and
//! share memory — the property index-batching relies on: every spatiotemporal
//! snapshot aliases the single standardized data array.

use std::sync::Arc;

/// A shared flat buffer of `f32` elements.
#[derive(Debug, Clone)]
pub struct Storage {
    data: Arc<Vec<f32>>,
}

impl Storage {
    /// Allocate a zero-filled buffer of `len` elements.
    pub fn zeros(len: usize) -> Self {
        Storage {
            data: Arc::new(vec![0.0; len]),
        }
    }

    /// Wrap an existing vector without copying.
    pub fn from_vec(v: Vec<f32>) -> Self {
        Storage { data: Arc::new(v) }
    }

    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the whole buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access with copy-on-write: if other tensors share this
    /// storage the buffer is cloned first, so views are never invalidated.
    pub fn make_mut(&mut self) -> &mut [f32] {
        let v: &mut Vec<f32> = Arc::make_mut(&mut self.data);
        v.as_mut_slice()
    }

    /// True when `other` aliases the same allocation — used by tests to
    /// assert that index-batching snapshots are zero-copy.
    pub fn ptr_eq(&self, other: &Storage) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let s = Storage::zeros(5);
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
}
