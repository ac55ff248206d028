//! Simulated IPsec: IKE-style key establishment and ESP-style record
//! protection for DisCFS client/server channels.
//!
//! The paper (§4.3, §5) runs NFS over IPsec so that:
//!
//! 1. *"User authentication is handled through the creation of the IPsec
//!    Security Associations"* — our [`ike`] handshake is a SIGMA-style
//!    mutually authenticated X25519 exchange; each side signs the
//!    transcript with its long-term Ed25519 identity key.
//! 2. *"All requests coming over the IPsec link can be safely assumed to
//!    come from the authorized user"* — every subsequent message is
//!    carried in an [`esp`] record sealed with ChaCha20-Poly1305 under
//!    per-direction session keys, with ESP-style anti-replay windows.
//! 3. The DisCFS server *"retrieves the public key used for
//!    authentication in the IKE protocol"* —
//!    [`SecureChannel::peer_identity`] exposes exactly that key, which
//!    the server binds to all requests on the connection.
//!
//! The handshake's third message is the initiator's AUTH signature,
//! optionally followed by its first ESP record
//! ([`ike::initiate_deferred`]), so a client's first request costs no
//! link message of its own. The responder verifies the signature before
//! it opens anything in the tail, and the tail is sealed under keys
//! derived from the signed transcript: a peer that knows those keys but
//! not the identity's secret key is refused at the signature, and a
//! tail that does not open fails the handshake ([`ike`] module docs).
//!
//! # Example
//!
//! ```
//! use discfs_crypto::ed25519::SigningKey;
//! use discfs_crypto::rng::DetRng;
//! use ipsec::{ike, SecureTransport};
//! use netsim::{Link, SimClock};
//!
//! let clock = SimClock::new();
//! let (client_end, server_end) = Link::loopback(&clock);
//! let client_key = SigningKey::from_seed(&[1; 32]);
//! let server_key = SigningKey::from_seed(&[2; 32]);
//! let server_pub = server_key.public();
//!
//! let server = std::thread::spawn(move || {
//!     let mut rng = DetRng::new(99);
//!     let chan = ike::respond(server_end, &server_key, &mut rng).unwrap();
//!     let msg = chan.recv().unwrap();
//!     chan.send(msg).unwrap(); // echo
//!     chan
//! });
//!
//! let mut rng = DetRng::new(7);
//! let chan = ike::initiate(client_end, &client_key, Some(&server_pub), &mut rng).unwrap();
//! chan.send(b"ping".to_vec()).unwrap();
//! assert_eq!(chan.recv().unwrap(), b"ping");
//! let server_chan = server.join().unwrap();
//! assert_eq!(server_chan.peer_identity().unwrap(), client_key.public());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod esp;
pub mod ike;

use discfs_crypto::ed25519::VerifyingKey;
use discfs_crypto::CryptoError;
use netsim::NetError;

pub use ike::SecureChannel;

/// Errors from the secure channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpsecError {
    /// Underlying simulated-network failure.
    Net(NetError),
    /// Cryptographic failure (bad tag, bad signature, bad point).
    Crypto(CryptoError),
    /// A record replayed a sequence number (or fell behind the window).
    Replay,
    /// A record arrived for an unknown SPI.
    UnknownSpi,
    /// A handshake message was malformed.
    BadHandshake,
    /// The peer's identity did not match the expected key.
    WrongPeer,
}

impl From<NetError> for IpsecError {
    fn from(e: NetError) -> Self {
        IpsecError::Net(e)
    }
}

impl From<CryptoError> for IpsecError {
    fn from(e: CryptoError) -> Self {
        IpsecError::Crypto(e)
    }
}

impl std::fmt::Display for IpsecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpsecError::Net(e) => write!(f, "network: {e}"),
            IpsecError::Crypto(e) => write!(f, "crypto: {e}"),
            IpsecError::Replay => write!(f, "replayed or too-old record"),
            IpsecError::UnknownSpi => write!(f, "record for unknown SPI"),
            IpsecError::BadHandshake => write!(f, "malformed IKE handshake message"),
            IpsecError::WrongPeer => write!(f, "peer identity mismatch"),
        }
    }
}

impl std::error::Error for IpsecError {}

/// A message channel that knows who is on the other end.
///
/// Implemented by [`SecureChannel`] (IPsec identity from IKE) and by
/// [`PlainChannel`] (no authentication — the CFS-NE baseline).
pub trait SecureTransport: Send + Sync {
    /// Sends one protected message.
    fn send(&self, msg: Vec<u8>) -> Result<(), IpsecError>;
    /// Receives one message, blocking.
    fn recv(&self) -> Result<Vec<u8>, IpsecError>;
    /// The peer's authenticated public key, if the channel provides one.
    fn peer_identity(&self) -> Option<VerifyingKey>;

    /// Receives one message without blocking: `Ok(None)` when nothing is
    /// ready. The request engine's readiness loop drains channels through
    /// this; the default (for channels that never feed an event loop)
    /// simply reports nothing ready.
    fn try_recv(&self) -> Result<Option<Vec<u8>>, IpsecError> {
        Ok(None)
    }

    /// Forwards a readiness registration to the underlying transport (see
    /// [`netsim::Transport::register_ready`]). Default: no-op.
    fn register_ready(&self, set: &std::sync::Arc<netsim::ReadySet>, token: u64) {
        let _ = (set, token);
    }
}

/// An unauthenticated pass-through channel (the paper's CFS-NE baseline
/// runs plain NFS with no IPsec).
pub struct PlainChannel<T: netsim::Transport> {
    transport: T,
}

impl<T: netsim::Transport> PlainChannel<T> {
    /// Wraps a raw transport.
    pub fn new(transport: T) -> Self {
        PlainChannel { transport }
    }
}

impl<T: netsim::Transport> SecureTransport for PlainChannel<T> {
    fn send(&self, msg: Vec<u8>) -> Result<(), IpsecError> {
        Ok(self.transport.send(msg)?)
    }

    fn recv(&self) -> Result<Vec<u8>, IpsecError> {
        Ok(self.transport.recv()?)
    }

    fn peer_identity(&self) -> Option<VerifyingKey> {
        None
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, IpsecError> {
        Ok(self.transport.try_recv()?)
    }

    fn register_ready(&self, set: &std::sync::Arc<netsim::ReadySet>, token: u64) {
        self.transport.register_ready(set, token);
    }
}
