//! Top-level integration crate for the DisCFS reproduction.
//!
//! The real library surface lives in the workspace crates:
//!
//! * [`discfs`] — the paper's system (core crate),
//! * [`keynote`] — the RFC 2704 trust-management engine,
//! * [`nfsv2`], [`ffs`], [`ipsec`], [`netsim`], [`onc_rpc`] — substrates,
//! * [`bonnie`] — the evaluation workloads.
//!
//! The paper's CFS-NE baseline (CFS with encryption off, §5) is the
//! plain export [`nfsv2::FfsService`].
//!
//! This crate hosts the runnable examples (`examples/`, start with
//! `quickstart`) and the cross-crate integration tests (`tests/`).

#![forbid(unsafe_code)]

pub use bonnie;
pub use discfs;
pub use discfs_crypto;
pub use ffs;
pub use ipsec;
pub use keynote;
pub use netsim;
pub use nfsv2;
pub use onc_rpc;
