//! Block-device layer: re-exports of the pluggable [`store`]
//! subsystem.
//!
//! This module keeps the `store` names the filesystem's callers use
//! (`DiskModel::quantum_fireball_ct10`, `BLOCK_SIZE`) reachable through
//! `ffs`; the simulated timing-model disk is [`store::SimStore`].
//! Select a backend through [`store::StoreBackend`] and
//! [`crate::Ffs::format_backend`].

pub use store::{
    zero_block, BlockStore, Bytes, CachedStore, DiskModel, RemoteOptions, ShardedStore,
    StoreBackend, StoreStats, TimedStore, BLOCK_SIZE,
};
