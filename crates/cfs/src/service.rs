//! [`CfsService`]: the name under which the CFS-NE export is built.

use std::sync::Arc;

use ffs::Ffs;
use nfsv2::FfsService;

/// The CFS-NE baseline. The type has no values; it only names
/// [`CfsService::passthrough`].
pub enum CfsService {}

impl CfsService {
    /// The CFS-NE export of `fs` under filesystem id `fsid`.
    pub fn passthrough(fs: Arc<Ffs>, fsid: u32) -> FfsService {
        FfsService::new(fs, fsid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discfs_crypto::ed25519::SigningKey;
    use ffs::FsConfig;
    use ipsec::PlainChannel;
    use netsim::{Link, SimClock};
    use nfsv2::{Engine, EngineConfig, NfsClient, RemoteFs};

    #[test]
    fn passthrough_stores_plaintext() {
        let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
        let service = Arc::new(CfsService::passthrough(fs.clone(), 1));
        let (client_end, server_end) = Link::loopback(&SimClock::new());
        // A plain channel runs no handshake: the key signs nothing. The
        // engine must outlive the client; dropping it shuts the server down.
        let identity = SigningKey::from_seed(&[0x5E; 32]);
        let engine = Engine::start(service, identity, EngineConfig::default());
        engine.accept_channel(Box::new(PlainChannel::new(server_end)));
        let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
        let remote = RemoteFs::mount(client, "/").unwrap();

        remote.write_file("plain.txt", b"visible bytes").unwrap();
        let ino = fs.lookup(fs.root(), "plain.txt").unwrap();
        assert_eq!(fs.read(ino, 0, 100).unwrap(), b"visible bytes");
    }
}
