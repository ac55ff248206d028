//! The DisCFS client: `cattach` + credential wallet.
//!
//! Mirrors the paper's client side: a modified `cattach` establishes the
//! IPsec tunnel (binding the user's key to the connection) and mounts
//! the remote directory; a wallet of credentials is submitted to the
//! server over the side RPC program, after which files "appear under
//! the DisCFS mount point" with the granted permissions.

use discfs_crypto::ed25519::{SigningKey, VerifyingKey};
use discfs_crypto::rng::RngCore;
use ipsec::SecureTransport;
use nfsv2::{ClientError, FHandle, Fattr, NfsClient, RemoteFs};
use onc_rpc::{Decoder, Encoder};

use crate::rpc::{
    decode_create_res, proc_discfs, CreateWithCredRes, DiscfsRpcStatus, DISCFS_PROGRAM,
    DISCFS_VERSION,
};
use crate::wallet::Wallet;

/// Errors from the DisCFS client.
#[derive(Debug)]
pub enum DiscfsClientError {
    /// The IKE handshake failed.
    Handshake(ipsec::IpsecError),
    /// An RPC failed.
    Rpc(ClientError),
    /// The server rejected a submitted credential.
    CredentialRejected(DiscfsRpcStatus),
}

impl std::fmt::Display for DiscfsClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscfsClientError::Handshake(e) => write!(f, "IKE handshake failed: {e}"),
            DiscfsClientError::Rpc(e) => write!(f, "rpc failed: {e}"),
            DiscfsClientError::CredentialRejected(s) => {
                write!(f, "server rejected credential: {s:?}")
            }
        }
    }
}

impl std::error::Error for DiscfsClientError {}

impl From<ClientError> for DiscfsClientError {
    fn from(e: ClientError) -> Self {
        DiscfsClientError::Rpc(e)
    }
}

/// A connected DisCFS client.
pub struct DiscfsClient {
    remote: RemoteFs,
    wallet: Wallet,
}

impl DiscfsClient {
    /// `cattach`: IKE-connect over `endpoint`, then mount `path`. The
    /// handshake's AUTH rides with the MOUNT call
    /// ([`ipsec::ike::initiate_deferred`]): one link message fewer than
    /// an AUTH sent alone.
    ///
    /// `expected_server` pins the server identity (recommended — the
    /// analogue of an SFS self-certifying pathname).
    ///
    /// # Errors
    ///
    /// Handshake or mount failures.
    pub(crate) fn attach<R: RngCore>(
        endpoint: netsim::Endpoint,
        identity: &SigningKey,
        expected_server: Option<&VerifyingKey>,
        path: &str,
        rng: &mut R,
    ) -> Result<DiscfsClient, DiscfsClientError> {
        let chan = ipsec::ike::initiate_deferred(endpoint, identity, expected_server, rng)
            .map_err(DiscfsClientError::Handshake)?;
        DiscfsClient::attach_over(Box::new(chan), identity.public(), path)
    }

    /// Attaches over an existing secure transport (tests, custom nets).
    /// The identity is the channel's; `_identity` is unused and goes
    /// when the benchmark package stops passing it.
    ///
    /// # Errors
    ///
    /// Mount failures.
    pub fn attach_over(
        chan: Box<dyn SecureTransport>,
        _identity: VerifyingKey,
        path: &str,
    ) -> Result<DiscfsClient, DiscfsClientError> {
        let client = NfsClient::new(chan);
        let remote = RemoteFs::mount(client, path)?;
        Ok(DiscfsClient {
            remote,
            wallet: Wallet::new(),
        })
    }

    /// The mounted filesystem view.
    pub fn remote(&self) -> &RemoteFs {
        &self.remote
    }

    /// The raw NFS client.
    pub fn client(&self) -> &NfsClient {
        self.remote.client()
    }

    /// The local wallet.
    pub fn wallet(&self) -> &Wallet {
        &self.wallet
    }

    /// Mutable access to the local wallet (import/export).
    pub fn wallet_mut(&mut self) -> &mut Wallet {
        &mut self.wallet
    }

    /// Submits one credential to the server session.
    ///
    /// # Errors
    ///
    /// [`DiscfsClientError::CredentialRejected`] when the server's
    /// verification fails; RPC errors otherwise.
    pub fn submit_credential(&self, credential: &str) -> Result<(), DiscfsClientError> {
        let mut e = Encoder::new();
        e.put_string(credential);
        let results = self.client().call_raw(
            DISCFS_PROGRAM,
            DISCFS_VERSION,
            proc_discfs::SUBMIT_CRED,
            e.finish(),
        )?;
        let mut d = Decoder::new(&results);
        let status = d
            .get_u32()
            .ok()
            .and_then(|v| DiscfsRpcStatus::from_u32(v).ok())
            .unwrap_or(DiscfsRpcStatus::BadCredential);
        if status == DiscfsRpcStatus::Ok {
            Ok(())
        } else {
            Err(DiscfsClientError::CredentialRejected(status))
        }
    }

    /// Submits only the wallet credentials relevant to `handle` (plus
    /// chain links without handle conditions); returns how many were
    /// accepted. This is the "credential caching may be used to reduce
    /// the number of credentials that have to be exchanged" path (§4.1).
    pub fn submit_relevant(&self, handle: &FHandle) -> Result<usize, DiscfsClientError> {
        let mut accepted = 0;
        for credential in self.wallet.relevant_for(&handle.credential_string()) {
            match self.submit_credential(credential) {
                Ok(()) => accepted += 1,
                Err(DiscfsClientError::CredentialRejected(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(accepted)
    }

    /// Creates a file through the credential-returning procedure; the
    /// returned credential is added to the wallet automatically.
    ///
    /// # Errors
    ///
    /// RPC failures or server-side `NfsStat` errors.
    pub fn create_with_credential(
        &mut self,
        dir: &FHandle,
        name: &str,
        mode: u32,
    ) -> Result<CreateWithCredRes, DiscfsClientError> {
        self.create_or_mkdir(dir, name, mode, proc_discfs::CREATE)
    }

    /// Creates a directory through the credential-returning procedure.
    ///
    /// # Errors
    ///
    /// RPC failures or server-side `NfsStat` errors.
    pub fn mkdir_with_credential(
        &mut self,
        dir: &FHandle,
        name: &str,
        mode: u32,
    ) -> Result<CreateWithCredRes, DiscfsClientError> {
        self.create_or_mkdir(dir, name, mode, proc_discfs::MKDIR)
    }

    fn create_or_mkdir(
        &mut self,
        dir: &FHandle,
        name: &str,
        mode: u32,
        proc_num: u32,
    ) -> Result<CreateWithCredRes, DiscfsClientError> {
        let mut e = Encoder::new();
        nfsv2::DirOpArgs {
            dir: *dir,
            name: name.to_string(),
        }
        .encode(&mut e);
        e.put_u32(mode);
        let results =
            self.client()
                .call_raw(DISCFS_PROGRAM, DISCFS_VERSION, proc_num, e.finish())?;
        let decoded =
            decode_create_res(&results).map_err(|e| DiscfsClientError::Rpc(ClientError::Xdr(e)))?;
        match decoded {
            Ok(res) => {
                let _ = self.wallet.add(&res.credential);
                Ok(res)
            }
            Err(stat) => Err(DiscfsClientError::Rpc(ClientError::Status(stat))),
        }
    }

    /// How many credentials the server session currently holds.
    ///
    /// # Errors
    ///
    /// RPC failures.
    pub fn credential_count(&self) -> Result<u32, DiscfsClientError> {
        let results = self.client().call_raw(
            DISCFS_PROGRAM,
            DISCFS_VERSION,
            proc_discfs::CRED_COUNT,
            Vec::new(),
        )?;
        let mut d = Decoder::new(&results);
        d.get_u32()
            .map_err(|e| DiscfsClientError::Rpc(ClientError::Xdr(e)))
    }

    /// Asks the server to revoke a key (admin identities only).
    ///
    /// # Errors
    ///
    /// [`DiscfsClientError::CredentialRejected`] with `Denied` when the
    /// caller is not an administrator.
    pub fn revoke_key(&self, key: &VerifyingKey) -> Result<(), DiscfsClientError> {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&key.0);
        let results = self.client().call_raw(
            DISCFS_PROGRAM,
            DISCFS_VERSION,
            proc_discfs::REVOKE_KEY,
            e.finish(),
        )?;
        self.expect_ok(&results)
    }

    /// Asks the server to revoke a credential by id (admin only).
    ///
    /// # Errors
    ///
    /// As [`DiscfsClient::revoke_key`].
    pub fn revoke_credential(&self, id: &str) -> Result<(), DiscfsClientError> {
        let mut e = Encoder::new();
        e.put_string(id);
        let results = self.client().call_raw(
            DISCFS_PROGRAM,
            DISCFS_VERSION,
            proc_discfs::REVOKE_CRED,
            e.finish(),
        )?;
        self.expect_ok(&results)
    }

    fn expect_ok(&self, results: &[u8]) -> Result<(), DiscfsClientError> {
        let mut d = Decoder::new(results);
        let status = d
            .get_u32()
            .ok()
            .and_then(|v| DiscfsRpcStatus::from_u32(v).ok())
            .unwrap_or(DiscfsRpcStatus::Denied);
        if status == DiscfsRpcStatus::Ok {
            Ok(())
        } else {
            Err(DiscfsClientError::CredentialRejected(status))
        }
    }

    /// Convenience: getattr through the mounted view.
    ///
    /// # Errors
    ///
    /// RPC failures.
    pub fn getattr(&self, fh: &FHandle) -> Result<Fattr, DiscfsClientError> {
        Ok(self.client().getattr(fh)?)
    }
}
