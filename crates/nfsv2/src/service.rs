//! The server-side service interface.
//!
//! Both user-level servers in this reproduction — the CFS-NE baseline
//! and DisCFS itself — implement [`NfsService`]; the generic
//! [`server`](crate::server) loop handles RPC decode/encode and feeds
//! them typed calls together with a [`RequestCtx`] carrying the
//! authenticated channel identity (the key DisCFS checks policies
//! against).

use discfs_crypto::ed25519::VerifyingKey;
use onc_rpc::AcceptStat;

use crate::proto::{DirOpArgs, FHandle, Fattr, NfsStat, ReaddirEntry, Sattr, StatfsRes};

/// Per-request context the engine assembles for each call.
#[derive(Debug, Clone, Copy)]
pub struct RequestCtx {
    /// The public key authenticated by the IPsec channel, when present.
    pub peer: Option<VerifyingKey>,
    /// Unix uid from `AUTH_SYS` (cosmetic under DisCFS — see paper §5).
    pub uid: u32,
    /// Unix gid from `AUTH_SYS`.
    pub gid: u32,
}

impl RequestCtx {
    /// An anonymous context (no channel identity, nobody uid).
    pub(crate) fn anonymous() -> RequestCtx {
        RequestCtx {
            peer: None,
            uid: u32::MAX,
            gid: u32::MAX,
        }
    }
}

/// The NFSv2 + MOUNT service interface.
///
/// Every method mirrors one protocol procedure; errors are protocol
/// status codes.
#[allow(missing_docs)]
pub trait NfsService: Send + Sync {
    /// MOUNT MNT: resolve an export path to its root handle.
    fn mount(&self, ctx: &RequestCtx, path: &str) -> Result<FHandle, NfsStat>;

    fn getattr(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<Fattr, NfsStat>;
    fn setattr(&self, ctx: &RequestCtx, fh: &FHandle, sattr: &Sattr) -> Result<Fattr, NfsStat>;
    fn lookup(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(FHandle, Fattr), NfsStat>;
    fn readlink(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<String, NfsStat>;
    fn read(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        count: u32,
    ) -> Result<(Fattr, Vec<u8>), NfsStat>;
    fn write(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        data: &[u8],
    ) -> Result<Fattr, NfsStat>;
    fn create(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat>;
    fn remove(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat>;
    fn rename(&self, ctx: &RequestCtx, from: &DirOpArgs, to: &DirOpArgs) -> Result<(), NfsStat>;
    fn link(&self, ctx: &RequestCtx, from: &FHandle, to: &DirOpArgs) -> Result<(), NfsStat>;
    fn symlink(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        target: &str,
        sattr: &Sattr,
    ) -> Result<(), NfsStat>;
    fn mkdir(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat>;
    fn rmdir(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat>;
    fn readdir(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        cookie: u32,
        count: u32,
    ) -> Result<(Vec<ReaddirEntry>, bool), NfsStat>;
    fn statfs(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<StatfsRes, NfsStat>;

    /// Hook for additional RPC programs multiplexed on the same
    /// connection. DisCFS registers its credential-submission program
    /// here (the paper's "utility which allows a user to submit
    /// credential assertions to the DisCFS daemon over RPC").
    ///
    /// Returns `None` when the program is not handled.
    fn extension(
        &self,
        _ctx: &RequestCtx,
        _prog: u32,
        _proc_num: u32,
        _args: &[u8],
    ) -> Option<Result<Vec<u8>, AcceptStat>> {
        None
    }

    /// Called when a connection ends (DisCFS tears down the per-
    /// connection KeyNote session).
    fn connection_closed(&self, _ctx: &RequestCtx) {}

    /// Called when the server kills a connection for a protocol
    /// violation (malformed frame, broken record stream) or for a
    /// service call that panicked, *before*
    /// [`NfsService::connection_closed`]. DisCFS writes an audit record
    /// so operators can see who sent garbage; the default ignores it.
    fn connection_aborted(&self, _ctx: &RequestCtx, _reason: &str) {}
}
