//! GPU-index-batching (§4.1): the device-resident variant.
//!
//! After one consolidated host→device transfer, preprocessing and training
//! proceed entirely on the device: batches are sliced from device memory,
//! so the per-batch host→device copies of the standard workflow disappear.
//! On this simulated substrate the "device" is a [`MemPool`] plus three
//! host→device counters; what the experiments measure — transfer counts,
//! bytes, modeled time, device-pool peaks — is exactly what changes
//! between the CPU and GPU variants on real hardware.

use crate::index_batching::IndexDataset;
use crate::trainer::BatchSource;
use st_data::scaler::StandardScaler;
use st_data::splits::SplitIndices;
use st_device::memory::{AllocError, MemPool};
use st_device::CostModel;
use st_tensor::Tensor;
use std::cell::Cell;

/// Where the dataset lives during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Index-batching: data on the host, every batch crosses PCIe.
    Host,
    /// GPU-index-batching: one consolidated transfer, batches stay on device.
    Device,
}

/// An [`IndexDataset`] bound to a device with transfer accounting.
pub struct GpuIndexDataset {
    inner: IndexDataset,
    residency: Residency,
    h2d_count: Cell<u64>,
    h2d_bytes: Cell<u64>,
    h2d_secs: Cell<f64>,
    cost: CostModel,
    elem_bytes: usize,
}

impl GpuIndexDataset {
    /// Place `dataset` with the chosen residency. For
    /// [`Residency::Device`], counts the single consolidated transfer now
    /// and reserves device-pool bytes (OOM if the dataset exceeds device
    /// capacity, as §4.1 warns).
    pub fn place(
        dataset: IndexDataset,
        residency: Residency,
        device_pool: &mut MemPool,
        cost: CostModel,
        elem_bytes: usize,
    ) -> Result<Self, AllocError> {
        let placed = GpuIndexDataset {
            inner: dataset,
            residency,
            h2d_count: Cell::new(0),
            h2d_bytes: Cell::new(0),
            h2d_secs: Cell::new(0.0),
            cost,
            elem_bytes,
        };
        if residency == Residency::Device {
            let bytes = placed.inner.resident_bytes(elem_bytes);
            device_pool.alloc(bytes)?;
            placed.h2d(bytes);
        }
        Ok(placed)
    }

    /// Model a host→device copy: count it and its modeled seconds.
    fn h2d(&self, bytes: u64) {
        self.h2d_count.set(self.h2d_count.get() + 1);
        self.h2d_bytes.set(self.h2d_bytes.get() + bytes);
        self.h2d_secs
            .set(self.h2d_secs.get() + self.cost.h2d(bytes));
    }

    /// Number of host→device transfers so far.
    pub fn h2d_count(&self) -> u64 {
        self.h2d_count.get()
    }

    /// Total host→device bytes so far.
    pub fn h2d_bytes(&self) -> u64 {
        self.h2d_bytes.get()
    }

    /// Modeled host→device seconds so far.
    pub fn h2d_secs(&self) -> f64 {
        self.h2d_secs.get()
    }

    /// The wrapped dataset.
    pub fn inner(&self) -> &IndexDataset {
        &self.inner
    }

    /// Residency mode.
    pub fn residency(&self) -> Residency {
        self.residency
    }

    fn batch_bytes(&self, batch: usize) -> u64 {
        // x and y batches both move for host-resident data.
        2 * (batch
            * self.inner.horizon()
            * self.inner.num_nodes()
            * self.inner.num_features()
            * self.elem_bytes) as u64
    }
}

impl BatchSource for GpuIndexDataset {
    fn num_snapshots(&self) -> usize {
        self.inner.num_snapshots()
    }

    fn splits(&self) -> &SplitIndices {
        self.inner.splits()
    }

    fn get_batch(&self, indices: &[usize]) -> (Tensor, Tensor) {
        if self.residency == Residency::Host {
            // The standard workflow ships each batch over PCIe.
            self.h2d(self.batch_bytes(indices.len()));
        }
        // Device-resident batches are on-device slices: no transfer.
        self.inner.batch(indices)
    }

    fn scaler(&self) -> &StandardScaler {
        self.inner.scaler()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::datasets::{DatasetKind, DatasetSpec};
    use st_data::splits::SplitRatios;
    use st_data::synthetic;
    use st_device::GIB;

    fn dataset() -> IndexDataset {
        let spec = DatasetSpec::get(DatasetKind::ChickenpoxHungary).scaled(0.3);
        let sig = synthetic::generate(&spec, 5);
        IndexDataset::from_signal(&sig, spec.horizon, SplitRatios::default(), None)
    }

    fn place(residency: Residency) -> GpuIndexDataset {
        let mut pool = MemPool::new("gpu0", 40 * GIB);
        GpuIndexDataset::place(dataset(), residency, &mut pool, CostModel::polaris(), 4).unwrap()
    }

    #[test]
    fn device_residency_is_one_consolidated_transfer() {
        let ds = place(Residency::Device);
        assert_eq!(ds.h2d_count(), 1);
        assert_eq!(ds.h2d_bytes(), ds.inner().resident_bytes(4));
        for _ in 0..10 {
            let _ = ds.get_batch(&[0, 1]);
        }
        assert_eq!(
            ds.h2d_count(),
            1,
            "batches must not cross PCIe when device-resident"
        );
    }

    #[test]
    fn h2d_counts_and_charges_time() {
        let ds = place(Residency::Host);
        ds.h2d(1 << 30);
        ds.h2d(1 << 30);
        assert_eq!(ds.h2d_count(), 2);
        assert_eq!(ds.h2d_bytes(), 2 << 30);
        assert!(ds.h2d_secs() > 0.08, "2 GiB over ~24 GB/s PCIe");
    }

    #[test]
    fn host_residency_transfers_every_batch() {
        let ds = place(Residency::Host);
        assert_eq!(ds.h2d_count(), 0);
        for _ in 0..10 {
            let _ = ds.get_batch(&[0, 1]);
        }
        assert_eq!(ds.h2d_count(), 10);
        let batch = ds.batch_bytes(2);
        assert_eq!(ds.h2d_bytes(), 10 * batch);
        let charged = 10.0 * CostModel::polaris().h2d(batch);
        assert!((ds.h2d_secs() - charged).abs() <= 1e-9 * charged);
    }

    #[test]
    fn device_oom_when_dataset_exceeds_capacity() {
        let mut tiny = MemPool::new("gpu0", 64);
        let r = GpuIndexDataset::place(
            dataset(),
            Residency::Device,
            &mut tiny,
            CostModel::polaris(),
            4,
        );
        assert!(r.is_err(), "must OOM on a 64-byte device");
    }

    #[test]
    fn batches_identical_between_residencies() {
        let host = place(Residency::Host);
        let dev = place(Residency::Device);
        let (hx, hy) = host.get_batch(&[1, 3]);
        let (dx, dy) = dev.get_batch(&[1, 3]);
        assert_eq!(hx.to_vec(), dx.to_vec());
        assert_eq!(hy.to_vec(), dy.to_vec());
    }
}
