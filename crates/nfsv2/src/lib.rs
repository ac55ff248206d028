//! NFSv2 + MOUNT: protocol types, the request engine that serves them,
//! a typed client, and a plain export of the `ffs` volume.
//!
//! The paper's prototype is "a modified user-level NFS server" (§1);
//! this crate supplies the unmodified parts of that stack, the CFS-NE
//! baseline among them, so `discfs` can layer its behavior on the same
//! protocol plumbing:
//!
//! * [`proto`] — RFC 1094 wire types, including the 32-byte file handle
//!   carrying `(fsid, inode, generation)`.
//! * [`NfsService`] — the dispatch trait servers implement.
//! * [`engine`] — the NFS server: an event-driven request engine
//!   multiplexing thousands of connections, over any
//!   [`ipsec::SecureTransport`] (plain or IPsec), onto a fixed worker
//!   pool. Its private `dispatch` module routes each decoded call into
//!   the [`NfsService`].
//! * [`NfsClient`] / [`RemoteFs`] — typed stubs and path helpers used
//!   by examples and the Bonnie benchmarks as the "mounted" filesystem
//!   (no kernel VFS exists in a pure-userspace reproduction).
//! * [`FfsService`] — the plain export backing the baselines.
//!
//! # Example: full client/server round trip
//!
//! ```
//! use std::sync::Arc;
//! use discfs_crypto::ed25519::SigningKey;
//! use ffs::{Ffs, FsConfig};
//! use ipsec::PlainChannel;
//! use netsim::{Link, SimClock};
//! use nfsv2::{Engine, EngineConfig, FfsService, NfsClient, RemoteFs};
//!
//! let clock = SimClock::new();
//! let (client_end, server_end) = Link::loopback(&clock);
//! let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
//! let service = Arc::new(FfsService::new(fs, 1));
//! // A plain channel runs no handshake: the key signs nothing. Dropping
//! // the engine shuts it down, so it lives as long as the client.
//! let identity = SigningKey::from_seed(&[0x5E; 32]);
//! let engine = Engine::start(service, identity, EngineConfig::default());
//! engine.accept_channel(Box::new(PlainChannel::new(server_end)));
//!
//! let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
//! let remote = RemoteFs::mount(client, "/").unwrap();
//! remote.write_file("hello.txt", b"over the wire").unwrap();
//! assert_eq!(remote.read_file("hello.txt").unwrap(), b"over the wire");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod client;
pub mod engine;
mod ffs_service;
pub mod proto;
#[doc(hidden)]
pub mod server;
mod service;

pub use client::{ClientError, NfsClient, RemoteFs, OUTBOX_BYTES};
pub use engine::{Engine, EngineConfig, EngineStats};
pub use ffs_service::FfsService;
pub use proto::{
    DirOpArgs, FHandle, FType, Fattr, NfsStat, ReaddirEntry, Sattr, StatfsRes, TimeVal, NFS_PROGRAM,
};
pub use service::{NfsService, RequestCtx};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use discfs_crypto::ed25519::SigningKey;
    use discfs_crypto::rng::DetRng;
    use ffs::{Ffs, FsConfig};
    use ipsec::PlainChannel;
    use netsim::{Link, SimClock};

    use crate::proto::{FHandle, NfsStat, Sattr};
    use crate::{ClientError, Engine, EngineConfig, FfsService, NfsClient, RemoteFs};

    /// An engine serving a fresh small volume. A plain channel runs no
    /// handshake, so the key signs nothing.
    fn start_engine() -> Engine {
        let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
        let service = Arc::new(FfsService::new(fs, 1));
        Engine::start(
            service,
            SigningKey::from_seed(&[0x5E; 32]),
            EngineConfig::default(),
        )
    }

    /// A client mounted over a plain channel. The engine must outlive
    /// it: dropping the engine shuts the server down.
    fn setup() -> (RemoteFs, Engine) {
        let clock = SimClock::new();
        let (client_end, server_end) = Link::loopback(&clock);
        let engine = start_engine();
        engine.accept_channel(Box::new(PlainChannel::new(server_end)));
        let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
        (RemoteFs::mount(client, "/").unwrap(), engine)
    }

    #[test]
    fn mount_and_null() {
        let (remote, _engine) = setup();
        remote.client().null().unwrap();
        let attr = remote.client().getattr(&remote.root()).unwrap();
        assert_eq!(attr.fileid, 1);
    }

    #[test]
    fn create_write_read() {
        let (remote, _engine) = setup();
        let (fh, attr) = remote
            .client()
            .create(&remote.root(), "f.txt", &Sattr::with_mode(0o640))
            .unwrap();
        assert_eq!(attr.mode & 0o777, 0o640);
        remote.client().write(&fh, 0, b"abc").unwrap();
        let (attr, data) = remote.client().read(&fh, 0, 100).unwrap();
        assert_eq!(data, b"abc");
        assert_eq!(attr.size, 3);
    }

    #[test]
    fn large_transfer_chunks_at_8k() {
        let (remote, _engine) = setup();
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        remote.write_file("big.bin", &payload).unwrap();
        assert_eq!(remote.read_file("big.bin").unwrap(), payload);
    }

    #[test]
    fn lookup_missing_is_noent() {
        let (remote, _engine) = setup();
        match remote.client().lookup(&remote.root(), "ghost") {
            Err(ClientError::Status(NfsStat::NoEnt)) => {}
            other => panic!("expected NoEnt, got {other:?}"),
        }
    }

    #[test]
    fn mkdir_and_nested_resolve() {
        let (remote, _engine) = setup();
        remote.mkdir_path("a").unwrap();
        remote.mkdir_path("a/b").unwrap();
        remote.write_file("a/b/c.txt", b"deep").unwrap();
        assert_eq!(remote.read_file("a/b/c.txt").unwrap(), b"deep");
        let (_, attr) = remote.resolve("a/b").unwrap();
        assert_eq!(attr.ftype, crate::proto::FType::Directory);
    }

    #[test]
    fn readdir_pagination() {
        let (remote, _engine) = setup();
        for i in 0..40 {
            remote
                .client()
                .create(
                    &remote.root(),
                    &format!("f{i:02}"),
                    &Sattr::with_mode(0o644),
                )
                .unwrap();
        }
        // Small count forces multiple READDIR round trips.
        let (first_page, eof) = remote.client().readdir(&remote.root(), 0, 200).unwrap();
        assert!(!eof);
        assert!(!first_page.is_empty() && first_page.len() < 42);
        let all = remote.client().readdir_all(&remote.root()).unwrap();
        assert_eq!(all.len(), 42); // 40 files + . + ..
    }

    #[test]
    fn rename_remove() {
        let (remote, _engine) = setup();
        remote.write_file("old", b"x").unwrap();
        remote
            .client()
            .rename(&remote.root(), "old", &remote.root(), "new")
            .unwrap();
        assert!(remote.read_file("new").is_ok());
        remote.client().remove(&remote.root(), "new").unwrap();
        assert!(matches!(
            remote.read_file("new"),
            Err(ClientError::Status(NfsStat::NoEnt))
        ));
    }

    #[test]
    fn symlink_readlink() {
        let (remote, _engine) = setup();
        remote
            .client()
            .symlink(&remote.root(), "ln", "/target/path", &Sattr::unchanged())
            .unwrap();
        let (fh, _) = remote.resolve("ln").unwrap();
        assert_eq!(remote.client().readlink(&fh).unwrap(), "/target/path");
    }

    #[test]
    fn hard_link_via_protocol() {
        let (remote, _engine) = setup();
        let fh = remote.write_file("orig", b"data").unwrap();
        remote.client().link(&fh, &remote.root(), "alias").unwrap();
        assert_eq!(remote.read_file("alias").unwrap(), b"data");
        let attr = remote.client().getattr(&fh).unwrap();
        assert_eq!(attr.nlink, 2);
    }

    #[test]
    fn setattr_truncate() {
        let (remote, _engine) = setup();
        let fh = remote.write_file("f", b"0123456789").unwrap();
        let mut sattr = Sattr::unchanged();
        sattr.size = 4;
        let attr = remote.client().setattr(&fh, &sattr).unwrap();
        assert_eq!(attr.size, 4);
        assert_eq!(remote.read_file("f").unwrap(), b"0123");
    }

    #[test]
    fn statfs_sane() {
        let (remote, _engine) = setup();
        let info = remote.client().statfs(&remote.root()).unwrap();
        assert_eq!(info.bsize, 8192);
        assert!(info.bfree <= info.blocks);
    }

    #[test]
    fn stale_handle_detected_across_wire() {
        let (remote, _engine) = setup();
        let fh = remote.write_file("f", b"x").unwrap();
        remote.client().remove(&remote.root(), "f").unwrap();
        match remote.client().getattr(&fh) {
            Err(ClientError::Status(NfsStat::Stale)) => {}
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn bogus_handle_rejected() {
        let (remote, _engine) = setup();
        let bogus = FHandle::pack(99, 12345, 7);
        assert!(matches!(
            remote.client().getattr(&bogus),
            Err(ClientError::Status(NfsStat::Stale))
        ));
    }

    #[test]
    fn mount_nonexistent_export_fails() {
        let clock = SimClock::new();
        let (client_end, server_end) = Link::loopback(&clock);
        let engine = start_engine();
        engine.accept_channel(Box::new(PlainChannel::new(server_end)));
        let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
        assert!(matches!(
            client.mount("/no/such/dir"),
            Err(ClientError::Status(NfsStat::NoEnt))
        ));
    }

    #[test]
    fn works_over_ipsec_channel() {
        let clock = SimClock::new();
        let (client_end, server_end) = Link::loopback(&clock);
        let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
        let service = Arc::new(FfsService::new(fs, 1));
        let server_key = SigningKey::from_seed(&[2; 32]);
        // The engine runs the responder handshake on a worker.
        let engine = Engine::start(service, server_key, EngineConfig::default());
        engine.accept(server_end);
        let client_key = SigningKey::from_seed(&[1; 32]);
        let mut rng = DetRng::new(11);
        let chan = ipsec::ike::initiate(client_end, &client_key, None, &mut rng).unwrap();
        let client = NfsClient::new(Box::new(chan));
        let remote = RemoteFs::mount(client, "/").unwrap();
        remote.write_file("secure.txt", b"over ipsec").unwrap();
        assert_eq!(remote.read_file("secure.txt").unwrap(), b"over ipsec");
    }
}
