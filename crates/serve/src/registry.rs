//! Multi-tenant snapshot registry with atomic hot-swap.
//!
//! One serving process hosts many deployments — one per city, per model
//! generation, per tenant — each a [`BatchedServer`] keyed by name.
//! [`SnapshotRegistry`] is the process-wide map, with two concurrency
//! guarantees the hot-reload path needs:
//!
//! - **Atomic swap, no torn reads.** A tenant's server lives behind an
//!   `Arc`; [`SnapshotRegistry::get`] hands out a clone of that `Arc`
//!   under a read lock. A retrain that [`SnapshotRegistry::swap`]s in a
//!   new server replaces the map entry under the write lock — in-flight
//!   workloads keep serving from the `Arc` they already hold (snapshot
//!   A), new lookups see snapshot B, and nobody observes a half-swapped
//!   server.
//! - **Bit-identical swapped-in serving.** [`SnapshotRegistry::swap_snapshot`]
//!   carries the live ring and ingest watermarks over to the new
//!   snapshot via [`BatchedServer::with_snapshot`], which keeps the graph
//!   and config and recomputes nothing graph-sized — so post-swap
//!   forwards are bitwise equal to a server constructed fresh from the
//!   new snapshot over the same history (pinned in `tests/serve_plane.rs`).
//!
//! Live ingest goes through the registry too
//! ([`SnapshotRegistry::admit_tick`]): a copy-on-write `Arc::make_mut`
//! under the write lock mutates the tenant's ring without disturbing
//! readers still holding the previous `Arc`.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use st_tensor::Tensor;

use crate::error::ServeError;
use crate::ingest::Tick;
use crate::shard::{BatchedServer, Query, ServeReport};
use crate::slo::SloConfig;
use crate::snapshot::ModelSnapshot;

/// A named map of live [`BatchedServer`] deployments with atomic
/// `Arc`-swap hot-reload. See the [module docs](self) for the
/// concurrency contract.
#[derive(Default)]
pub struct SnapshotRegistry {
    tenants: RwLock<Tenants>,
}

type Tenants = HashMap<String, Arc<BatchedServer>>;

impl SnapshotRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SnapshotRegistry::default()
    }

    // Entries are inserted, replaced or removed whole, so a writer that
    // panicked cannot have torn the map: a poisoned guard is recovered
    // (DESIGN.md §7).
    fn read(&self) -> RwLockReadGuard<'_, Tenants> {
        self.tenants.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Tenants> {
        self.tenants.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a new tenant. Fails with [`ServeError::TenantExists`] if
    /// the name is taken — replacing a live deployment is an explicit
    /// [`SnapshotRegistry::swap`], never an accidental re-register.
    pub fn register(&self, name: &str, server: BatchedServer) -> Result<(), ServeError> {
        let mut tenants = self.write();
        if tenants.contains_key(name) {
            return Err(ServeError::TenantExists(name.to_string()));
        }
        tenants.insert(name.to_string(), Arc::new(server));
        Ok(())
    }

    /// The tenant's current server. The returned `Arc` is a stable view:
    /// swaps after this call do not affect it, so a caller mid-workload
    /// finishes on the snapshot it started with.
    pub fn get(&self, name: &str) -> Result<Arc<BatchedServer>, ServeError> {
        self.read()
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }

    /// Atomically replace the tenant's server, returning the retired one
    /// (still alive for whoever holds an `Arc` to it).
    pub fn swap(
        &self,
        name: &str,
        server: BatchedServer,
    ) -> Result<Arc<BatchedServer>, ServeError> {
        let mut tenants = self.write();
        match tenants.get_mut(name) {
            Some(slot) => Ok(std::mem::replace(slot, Arc::new(server))),
            None => Err(ServeError::UnknownTenant(name.to_string())),
        }
    }

    /// Hot-reload after a retrain: swap only the tenant's **model**,
    /// carrying the live ring and ingest watermarks over. The new server
    /// is built under the write lock so no tick lands between the
    /// carry-over and the swap. Returns the retired server.
    ///
    /// Fails (leaving the tenant untouched) if the snapshot does not fit
    /// the deployment: [`ServeError::GraphMismatch`],
    /// [`ServeError::FeatureMismatch`], [`ServeError::ScalerMismatch`],
    /// or [`ServeError::CapacityTooSmall`].
    pub fn swap_snapshot(
        &self,
        name: &str,
        snapshot: ModelSnapshot,
    ) -> Result<Arc<BatchedServer>, ServeError> {
        let mut tenants = self.write();
        let slot = tenants
            .get_mut(name)
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))?;
        let next = slot.with_snapshot(snapshot)?;
        Ok(std::mem::replace(slot, Arc::new(next)))
    }

    /// Remove a tenant, returning its server.
    pub fn remove(&self, name: &str) -> Result<Arc<BatchedServer>, ServeError> {
        self.write()
            .remove(name)
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }

    /// Push one live-ingest tick into the tenant's stream; returns the
    /// number of newly completed `[N, F]` rows admitted to its ring.
    /// Copy-on-write: readers holding a pre-tick `Arc` keep their view.
    pub fn admit_tick(&self, name: &str, tick: &Tick) -> Result<usize, ServeError> {
        let mut tenants = self.write();
        let slot = tenants
            .get_mut(name)
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))?;
        Ok(Arc::make_mut(slot).admit_tick(tick)?)
    }

    /// Admit one whole `[N, F]` reading (original units) to the tenant's
    /// ring — the legacy full-row path, valid only when no partial ticks
    /// are staged.
    pub fn admit(&self, name: &str, reading: &Tensor) -> Result<(), ServeError> {
        let mut tenants = self.write();
        let slot = tenants
            .get_mut(name)
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))?;
        Ok(Arc::make_mut(slot).admit(reading)?)
    }

    /// Serve a query stream on the tenant's *current* server (stable for
    /// the whole call even if a swap lands mid-serve).
    pub fn serve(&self, name: &str, queries: &[Query]) -> Result<ServeReport, ServeError> {
        Ok(self.get(name)?.serve(queries))
    }

    /// [`SnapshotRegistry::serve`] under an explicit per-tenant SLO.
    pub fn serve_slo(
        &self,
        name: &str,
        queries: &[Query],
        slo: &SloConfig,
    ) -> Result<ServeReport, ServeError> {
        Ok(self.get(name)?.serve_slo(queries, slo))
    }

    /// Registered tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ServeConfig;
    use st_autograd::Module;
    use st_data::scaler::StandardScaler;
    use st_models::{ModelConfig, PgtDcrnn, Support};

    fn tiny_server(seed: u64) -> BatchedServer {
        let net = st_graph::generators::highway_corridor(6, 1, 4);
        let cfg = ModelConfig {
            input_dim: 1,
            output_dim: 1,
            hidden: 3,
            num_nodes: 6,
            horizon: 2,
            diffusion_steps: 1,
            layers: 1,
        };
        let supports = Support::wrap_all(st_graph::diffusion_supports(&net.adjacency, 1));
        let trained = PgtDcrnn::new(cfg.clone(), &supports, seed);
        let snap =
            ModelSnapshot::capture(cfg, StandardScaler::identity(), None, &trained.params(), 1);
        let history = Tensor::arange(10 * 6).reshape([10, 6, 1]).unwrap();
        BatchedServer::with_history(
            snap,
            net.adjacency.clone(),
            &history,
            ServeConfig::new(1, 8),
        )
    }

    #[test]
    fn register_get_and_duplicate_protection() {
        let reg = SnapshotRegistry::new();
        assert!(reg.is_empty());
        reg.register("sf", tiny_server(1)).unwrap();
        reg.register("la", tiny_server(2)).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.tenants(), vec!["la".to_string(), "sf".to_string()]);
        assert!(reg.get("sf").is_ok());
        assert_eq!(
            reg.register("sf", tiny_server(3)),
            Err(ServeError::TenantExists("sf".to_string()))
        );
        assert_eq!(
            reg.get("nyc").unwrap_err(),
            ServeError::UnknownTenant("nyc".to_string())
        );
    }

    #[test]
    fn swap_retires_the_old_server_but_held_arcs_survive() {
        let reg = SnapshotRegistry::new();
        reg.register("sf", tiny_server(1)).unwrap();
        let before = reg.get("sf").unwrap();
        let retired = reg.swap("sf", tiny_server(9)).unwrap();
        assert!(Arc::ptr_eq(&before, &retired), "swap returns what get saw");
        let after = reg.get("sf").unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "lookups see the new server");
        // The held Arc still serves: in-flight work completes on A.
        assert_eq!(before.window().len(), 10);
    }

    #[test]
    fn ticks_through_the_registry_are_copy_on_write() {
        let reg = SnapshotRegistry::new();
        reg.register("sf", tiny_server(1)).unwrap();
        let stale = reg.get("sf").unwrap();
        // One full row, node-by-node: completes on the last node's tick.
        for node in 0..6 {
            let admitted = reg
                .admit_tick(
                    "sf",
                    &Tick {
                        node,
                        t: 10,
                        values: vec![1.5],
                    },
                )
                .unwrap();
            assert_eq!(admitted, usize::from(node == 5));
        }
        assert_eq!(reg.get("sf").unwrap().window().len(), 11);
        assert_eq!(stale.window().len(), 10, "pre-tick view is unchanged");
        assert_eq!(
            reg.admit_tick(
                "bad",
                &Tick {
                    node: 0,
                    t: 0,
                    values: vec![0.0]
                }
            )
            .unwrap_err(),
            ServeError::UnknownTenant("bad".to_string())
        );
    }

    #[test]
    fn remove_unregisters() {
        let reg = SnapshotRegistry::new();
        reg.register("sf", tiny_server(1)).unwrap();
        reg.remove("sf").unwrap();
        assert!(reg.is_empty());
        assert!(reg.remove("sf").is_err());
    }
}
