//! GPU-index-batching (§4.1): the device-resident variant.
//!
//! After one consolidated host→device transfer, preprocessing and training
//! proceed entirely on the device: batches are sliced from device memory,
//! so the per-batch host→device copies of the standard workflow disappear.
//! On this simulated substrate the "device" is a [`MemPool`] plus a
//! [`TransferLedger`]; what the experiments measure — transfer counts,
//! bytes, modeled time, device-pool peaks — is exactly what changes
//! between the CPU and GPU variants on real hardware.

use crate::index_batching::IndexDataset;
use crate::trainer::BatchSource;
use st_data::scaler::StandardScaler;
use st_data::splits::SplitIndices;
use st_device::memory::{AllocError, MemPool};
use st_device::{CostModel, SimClock, TransferLedger};
use st_tensor::Tensor;

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
    ledger: TransferLedger,
    cost: CostModel,
    clock: SimClock,
    elem_bytes: usize,
}

impl GpuIndexDataset {
    /// Place `dataset` with the chosen residency. For
    /// [`Residency::Device`], charges the single consolidated transfer now
    /// and reserves device-pool bytes (OOM if the dataset exceeds device
    /// capacity, as §4.1 warns).
    pub fn place(
        dataset: IndexDataset,
        residency: Residency,
        device_pool: &MemPool,
        cost: CostModel,
        clock: SimClock,
        elem_bytes: usize,
    ) -> Result<Self, AllocError> {
        let ledger = TransferLedger::new();
        if residency == Residency::Device {
            let bytes = dataset.resident_bytes(elem_bytes);
            device_pool.alloc_untracked(bytes)?;
            ledger.h2d(bytes, &cost, &clock);
        }
        Ok(GpuIndexDataset {
            inner: dataset,
            residency,
            ledger,
            cost,
            clock,
            elem_bytes,
        })
    }

    /// The transfer ledger (counts + bytes).
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// The simulated clock charged by transfers.
    pub fn clock(&self) -> &SimClock {
        &self.clock
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
            self.ledger
                .h2d(self.batch_bytes(indices.len()), &self.cost, &self.clock);
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
        let pool = MemPool::new("gpu0", 40 * GIB);
        GpuIndexDataset::place(
            dataset(),
            residency,
            &pool,
            CostModel::polaris(),
            SimClock::new(),
            4,
        )
        .unwrap()
    }

    #[test]
    fn device_residency_is_one_consolidated_transfer() {
        let ds = place(Residency::Device);
        assert_eq!(ds.ledger().h2d_count(), 1);
        for _ in 0..10 {
            let _ = ds.get_batch(&[0, 1]);
        }
        assert_eq!(
            ds.ledger().h2d_count(),
            1,
            "batches must not cross PCIe when device-resident"
        );
    }

    #[test]
    fn host_residency_transfers_every_batch() {
        let ds = place(Residency::Host);
        assert_eq!(ds.ledger().h2d_count(), 0);
        for _ in 0..10 {
            let _ = ds.get_batch(&[0, 1]);
        }
        assert_eq!(ds.ledger().h2d_count(), 10);
        assert!(ds.clock().comm_secs() > 0.0);
    }

    #[test]
    fn device_oom_when_dataset_exceeds_capacity() {
        let tiny = MemPool::new("gpu0", 64);
        let r = GpuIndexDataset::place(
            dataset(),
            Residency::Device,
            &tiny,
            CostModel::polaris(),
            SimClock::new(),
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
