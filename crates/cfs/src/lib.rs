//! **CFS-NE**, the paper's baseline: CFS with encryption turned off,
//! modified to run remotely (§5). With the cipher off, CFS serves the
//! volume exactly as the plain NFS export does, so CFS-NE is
//! [`nfsv2::FfsService`].
//!
//! Only the pinned `discfs_bench` package still names this crate; new
//! code builds `FfsService` directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod service;

pub use service::CfsService;
