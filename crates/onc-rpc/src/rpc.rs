//! ONC RPC v2 message framing (RFC 5531).
//!
//! Calls carry a transaction id, program/version/procedure numbers and
//! two authentication blocks (credential + verifier); replies are
//! accepted or denied with a status. The user-level NFS servers in this
//! workspace dispatch on these messages exactly as `nfsd`/`mountd` do.

use crate::xdr::{Decoder, Encoder, XdrError};

/// RPC protocol version (always 2).
const RPC_VERSION: u32 = 2;

const MSG_CALL: u32 = 0;
const MSG_REPLY: u32 = 1;
const MSG_ACCEPTED: u32 = 0;
const MSG_DENIED: u32 = 1;

/// Appends one big-endian XDR word.
fn put(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Authentication flavors (RFC 5531 §8.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthFlavor {
    /// No authentication.
    None,
    /// Unix-style uid/gid authentication (`AUTH_SYS`).
    Sys,
}

impl AuthFlavor {
    fn to_u32(self) -> u32 {
        match self {
            AuthFlavor::None => 0,
            AuthFlavor::Sys => 1,
        }
    }

    fn from_u32(v: u32) -> Result<AuthFlavor, XdrError> {
        match v {
            0 => Ok(AuthFlavor::None),
            1 => Ok(AuthFlavor::Sys),
            _ => Err(XdrError::BadValue),
        }
    }
}

/// An opaque authentication block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpaqueAuth {
    /// Which flavor the body belongs to.
    pub flavor: AuthFlavor,
    /// Flavor-specific payload (max 400 bytes per the RFC).
    pub body: Vec<u8>,
}

impl OpaqueAuth {
    /// The `AUTH_NONE` block.
    pub fn none() -> OpaqueAuth {
        OpaqueAuth {
            flavor: AuthFlavor::None,
            body: Vec::new(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put(out, self.flavor.to_u32());
        put(out, self.body.len() as u32);
        out.extend_from_slice(&self.body);
        out.resize(out.len() + (4 - self.body.len() % 4) % 4, 0);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<OpaqueAuth, XdrError> {
        let flavor = AuthFlavor::from_u32(d.get_u32()?)?;
        let body = d.get_opaque()?;
        if body.len() > 400 {
            return Err(XdrError::BadLength);
        }
        Ok(OpaqueAuth {
            flavor,
            body: body.to_vec(),
        })
    }
}

/// `AUTH_SYS` credentials: the Unix identity NFS clients present.
///
/// DisCFS deliberately ignores these for authorization (identity comes
/// from the IPsec channel's public key), but carries them so unmodified
/// NFS clients work — exactly the paper's §5 design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthSys {
    /// Arbitrary stamp chosen by the client.
    pub stamp: u32,
    /// Client machine name.
    pub machine: String,
    /// Effective uid.
    pub uid: u32,
    /// Effective gid.
    pub gid: u32,
    /// Supplementary gids (max 16).
    pub gids: Vec<u32>,
}

impl AuthSys {
    /// Encodes into an [`OpaqueAuth`] block.
    pub fn to_opaque(&self) -> OpaqueAuth {
        let mut e = Encoder::new();
        e.put_u32(self.stamp);
        e.put_string(&self.machine);
        e.put_u32(self.uid);
        e.put_u32(self.gid);
        e.put_u32(self.gids.len() as u32);
        for g in &self.gids {
            e.put_u32(*g);
        }
        OpaqueAuth {
            flavor: AuthFlavor::Sys,
            body: e.finish(),
        }
    }

    /// Decodes from an [`OpaqueAuth`] block.
    ///
    /// # Errors
    ///
    /// [`XdrError`] variants on malformed bodies or a wrong flavor.
    pub fn from_opaque(auth: &OpaqueAuth) -> Result<AuthSys, XdrError> {
        if auth.flavor != AuthFlavor::Sys {
            return Err(XdrError::BadValue);
        }
        let mut d = Decoder::new(&auth.body);
        let stamp = d.get_u32()?;
        let machine = d.get_string()?;
        let uid = d.get_u32()?;
        let gid = d.get_u32()?;
        let n = d.get_u32()? as usize;
        if n > 16 {
            return Err(XdrError::BadLength);
        }
        let mut gids = Vec::with_capacity(n);
        for _ in 0..n {
            gids.push(d.get_u32()?);
        }
        Ok(AuthSys {
            stamp,
            machine,
            uid,
            gid,
            gids,
        })
    }
}

/// Reasons a server may refuse to execute an accepted call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptStat {
    /// Procedure executed; results follow.
    Success,
    /// Program number not served here.
    ProgUnavail,
    /// Program version not supported.
    ProgMismatch,
    /// Procedure number unknown.
    ProcUnavail,
    /// Arguments undecodable.
    GarbageArgs,
    /// Internal server error.
    SystemErr,
}

impl AcceptStat {
    fn to_u32(self) -> u32 {
        match self {
            AcceptStat::Success => 0,
            AcceptStat::ProgUnavail => 1,
            AcceptStat::ProgMismatch => 2,
            AcceptStat::ProcUnavail => 3,
            AcceptStat::GarbageArgs => 4,
            AcceptStat::SystemErr => 5,
        }
    }

    fn from_u32(v: u32) -> Result<AcceptStat, XdrError> {
        Ok(match v {
            0 => AcceptStat::Success,
            1 => AcceptStat::ProgUnavail,
            2 => AcceptStat::ProgMismatch,
            3 => AcceptStat::ProcUnavail,
            4 => AcceptStat::GarbageArgs,
            5 => AcceptStat::SystemErr,
            _ => return Err(XdrError::BadValue),
        })
    }
}

/// Arguments that do not decode are `GARBAGE_ARGS`.
impl From<XdrError> for AcceptStat {
    fn from(_: XdrError) -> AcceptStat {
        AcceptStat::GarbageArgs
    }
}

/// Reasons a call may be rejected outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectStat {
    /// RPC version mismatch.
    RpcMismatch,
    /// Authentication failure.
    AuthError,
}

/// The body of a reply: its results owned (`Vec<u8>`, in [`RpcReply`])
/// or borrowed from the message (`&[u8]`, in [`RpcReplyView`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody<R = Vec<u8>> {
    /// Accepted and executed: serialized results.
    Success(R),
    /// Accepted but failed with the given status.
    Error(AcceptStat),
    /// Denied before execution.
    Denied(RejectStat),
}

/// An RPC call message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcCall {
    /// Transaction id (matches the reply).
    pub xid: u32,
    /// Program number (e.g. 100003 for NFS).
    pub prog: u32,
    /// Program version (2 for NFSv2).
    pub vers: u32,
    /// Procedure number.
    pub proc_num: u32,
    /// Credential block.
    pub cred: OpaqueAuth,
    /// Verifier block.
    pub verf: OpaqueAuth,
    /// Procedure arguments (already XDR-encoded).
    pub args: Vec<u8>,
}

impl RpcCall {
    /// Creates a call with `AUTH_NONE` credentials.
    pub fn new(xid: u32, prog: u32, vers: u32, proc_num: u32, args: Vec<u8>) -> RpcCall {
        RpcCall {
            xid,
            prog,
            vers,
            proc_num,
            cred: OpaqueAuth::none(),
            verf: OpaqueAuth::none(),
            args,
        }
    }

    /// Serializes the call message.
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.encode_into(&mut bytes);
        bytes
    }

    /// Serializes the call message by appending to `out` — the client
    /// outbox's path: pipelined calls land in one send buffer with no
    /// per-call copy of the argument bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for word in [
            self.xid,
            MSG_CALL,
            RPC_VERSION,
            self.prog,
            self.vers,
            self.proc_num,
        ] {
            put(out, word);
        }
        self.cred.encode_into(out);
        self.verf.encode_into(out);
        out.extend_from_slice(&self.args);
    }
}

/// A borrowed view of an RPC call: like [`RpcCall`] but with the
/// procedure arguments as a slice into the undecoded message, so the
/// request engine can dispatch a pipelined burst without copying each
/// request's argument bytes out of the receive buffer. With `AUTH_NONE`
/// credentials (the DisCFS default — identity comes from the IPsec
/// channel), decoding a view allocates nothing.
#[derive(Debug, PartialEq, Eq)]
pub struct RpcCallView<'a> {
    /// Transaction id (matches the reply).
    pub xid: u32,
    /// Program number (e.g. 100003 for NFS).
    pub prog: u32,
    /// Program version (2 for NFSv2).
    pub vers: u32,
    /// Procedure number.
    pub proc_num: u32,
    /// Credential block.
    pub cred: OpaqueAuth,
    /// Verifier block.
    pub verf: OpaqueAuth,
    /// Procedure arguments, borrowed from the message buffer.
    pub args: &'a [u8],
}

impl RpcCallView<'_> {
    /// Parses a call message without copying the argument bytes.
    ///
    /// # Errors
    ///
    /// [`XdrError`] variants on truncation, a non-call message type, or
    /// an unsupported RPC version.
    pub fn decode(data: &[u8]) -> Result<RpcCallView<'_>, XdrError> {
        let mut d = Decoder::new(data);
        let xid = d.get_u32()?;
        if d.get_u32()? != MSG_CALL {
            return Err(XdrError::BadValue);
        }
        if d.get_u32()? != RPC_VERSION {
            return Err(XdrError::BadValue);
        }
        let prog = d.get_u32()?;
        let vers = d.get_u32()?;
        let proc_num = d.get_u32()?;
        let cred = OpaqueAuth::decode(&mut d)?;
        let verf = OpaqueAuth::decode(&mut d)?;
        let args = &data[data.len() - d.remaining()..];
        Ok(RpcCallView {
            xid,
            prog,
            vers,
            proc_num,
            cred,
            verf,
            args,
        })
    }
}

/// An RPC reply message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcReply {
    /// Transaction id of the call being answered.
    pub xid: u32,
    /// Outcome.
    pub body: ReplyBody,
}

impl RpcReply {
    /// A successful reply carrying `results`.
    pub fn success(xid: u32, results: Vec<u8>) -> RpcReply {
        RpcReply {
            xid,
            body: ReplyBody::Success(results),
        }
    }

    /// An accepted-but-failed reply.
    pub fn error(xid: u32, stat: AcceptStat) -> RpcReply {
        RpcReply {
            xid,
            body: ReplyBody::Error(stat),
        }
    }

    /// A denied reply.
    pub fn denied(xid: u32, stat: RejectStat) -> RpcReply {
        RpcReply {
            xid,
            body: ReplyBody::Denied(stat),
        }
    }

    /// Serializes the reply message.
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(
            24 + match &self.body {
                ReplyBody::Success(results) => results.len(),
                _ => 8,
            },
        );
        self.encode_into(&mut bytes);
        bytes
    }

    /// Serializes the reply message by appending to `out` — the batch
    /// encoder's path: many replies land in one send buffer with no
    /// per-reply allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put(out, self.xid);
        put(out, MSG_REPLY);
        match &self.body {
            ReplyBody::Success(results) => {
                put(out, MSG_ACCEPTED);
                // AUTH_NONE verifier: flavor 0, zero-length body.
                put(out, 0);
                put(out, 0);
                put(out, AcceptStat::Success.to_u32());
                out.extend_from_slice(results);
            }
            ReplyBody::Error(stat) => {
                put(out, MSG_ACCEPTED);
                put(out, 0);
                put(out, 0);
                put(out, stat.to_u32());
                if *stat == AcceptStat::ProgMismatch {
                    // low/high supported versions; we serve exactly v2.
                    put(out, 2);
                    put(out, 2);
                }
            }
            ReplyBody::Denied(stat) => {
                put(out, MSG_DENIED);
                match stat {
                    RejectStat::RpcMismatch => {
                        put(out, 0);
                        put(out, RPC_VERSION);
                        put(out, RPC_VERSION);
                    }
                    RejectStat::AuthError => {
                        put(out, 1);
                        // AUTH_BADCRED.
                        put(out, 1);
                    }
                }
            }
        }
    }

    /// Parses a reply message, copying the results out of `data`.
    ///
    /// # Errors
    ///
    /// [`XdrError`] variants on truncation or invalid discriminants.
    pub fn decode(data: &[u8]) -> Result<RpcReply, XdrError> {
        let RpcReplyView { xid, body } = RpcReplyView::decode(data)?;
        let body = match body {
            ReplyBody::Success(results) => ReplyBody::Success(results.to_vec()),
            ReplyBody::Error(stat) => ReplyBody::Error(stat),
            ReplyBody::Denied(stat) => ReplyBody::Denied(stat),
        };
        Ok(RpcReply { xid, body })
    }
}

/// A borrowed view of an RPC reply: like [`RpcReply`] but with a
/// success's results as a slice into the undecoded message, as
/// [`RpcCallView`] is for calls — a block node's READ reply stays one
/// buffer, however many blocks it carries.
#[derive(Debug, PartialEq, Eq)]
pub struct RpcReplyView<'a> {
    /// Transaction id of the call being answered.
    pub xid: u32,
    /// Outcome, with the results borrowed.
    pub body: ReplyBody<&'a [u8]>,
}

impl RpcReplyView<'_> {
    /// Parses a reply message without copying the results.
    ///
    /// # Errors
    ///
    /// [`XdrError`] variants on truncation or invalid discriminants.
    pub fn decode(data: &[u8]) -> Result<RpcReplyView<'_>, XdrError> {
        let mut d = Decoder::new(data);
        let xid = d.get_u32()?;
        if d.get_u32()? != MSG_REPLY {
            return Err(XdrError::BadValue);
        }
        match d.get_u32()? {
            MSG_ACCEPTED => {
                let _verf = OpaqueAuth::decode(&mut d)?;
                let stat = AcceptStat::from_u32(d.get_u32()?)?;
                let body = if stat == AcceptStat::Success {
                    ReplyBody::Success(&data[data.len() - d.remaining()..])
                } else {
                    ReplyBody::Error(stat)
                };
                Ok(RpcReplyView { xid, body })
            }
            MSG_DENIED => {
                let stat = match d.get_u32()? {
                    0 => RejectStat::RpcMismatch,
                    1 => RejectStat::AuthError,
                    _ => return Err(XdrError::BadValue),
                };
                Ok(RpcReplyView {
                    xid,
                    body: ReplyBody::Denied(stat),
                })
            }
            _ => Err(XdrError::BadValue),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What decoding `call`'s encoding must give.
    fn view_of(call: &RpcCall) -> RpcCallView<'_> {
        RpcCallView {
            xid: call.xid,
            prog: call.prog,
            vers: call.vers,
            proc_num: call.proc_num,
            cred: call.cred.clone(),
            verf: call.verf.clone(),
            args: &call.args,
        }
    }

    #[test]
    fn call_round_trip() {
        let call = RpcCall::new(7, 100003, 2, 6, vec![1, 2, 3, 4]);
        let bytes = call.encode();
        let view = RpcCallView::decode(&bytes).unwrap();
        assert_eq!(view, view_of(&call));
        // The view borrows the arguments: the message's last bytes.
        assert!(std::ptr::eq(view.args, &bytes[bytes.len() - 4..]));
    }

    #[test]
    fn call_with_auth_sys() {
        let sys = AuthSys {
            stamp: 99,
            machine: "bob".into(),
            uid: 1000,
            gid: 100,
            gids: vec![100, 20],
        };
        let mut call = RpcCall::new(1, 100003, 2, 1, vec![]);
        call.cred = sys.to_opaque();
        let bytes = call.encode();
        let decoded = RpcCallView::decode(&bytes).unwrap();
        assert_eq!(decoded, view_of(&call));
        let decoded_sys = AuthSys::from_opaque(&decoded.cred).unwrap();
        assert_eq!(decoded_sys, sys);
    }

    #[test]
    fn success_reply_round_trip() {
        let reply = RpcReply::success(7, vec![9, 9, 9, 9]);
        let bytes = reply.encode();
        assert_eq!(RpcReply::decode(&bytes).unwrap(), reply);
        // The view borrows the results: the message's last bytes.
        let view = RpcReplyView::decode(&bytes).unwrap();
        assert_eq!(view.xid, 7);
        assert_eq!(view.body, ReplyBody::Success(&bytes[bytes.len() - 4..]));
    }

    #[test]
    fn error_reply_round_trip() {
        for stat in [
            AcceptStat::ProgUnavail,
            AcceptStat::ProcUnavail,
            AcceptStat::GarbageArgs,
            AcceptStat::SystemErr,
        ] {
            let reply = RpcReply::error(3, stat);
            assert_eq!(RpcReply::decode(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn denied_reply_round_trip() {
        let reply = RpcReply::denied(4, RejectStat::AuthError);
        assert_eq!(RpcReply::decode(&reply.encode()).unwrap(), reply);
        let reply = RpcReply::denied(4, RejectStat::RpcMismatch);
        assert_eq!(RpcReply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn reply_is_not_a_call() {
        let reply = RpcReply::success(7, vec![]);
        assert!(RpcCallView::decode(&reply.encode()).is_err());
        let call = RpcCall::new(7, 1, 1, 1, vec![]);
        assert!(RpcReply::decode(&call.encode()).is_err());
    }

    #[test]
    fn wrong_rpc_version_rejected() {
        let call = RpcCall::new(7, 100003, 2, 6, vec![]);
        let mut bytes = call.encode();
        bytes[11] = 3; // rpcvers field low byte
        assert_eq!(RpcCallView::decode(&bytes), Err(XdrError::BadValue));
    }

    #[test]
    fn oversized_auth_rejected() {
        let auth = OpaqueAuth {
            flavor: AuthFlavor::Sys,
            body: vec![0; 401],
        };
        let mut call = RpcCall::new(1, 1, 1, 1, vec![]);
        call.cred = auth;
        assert!(RpcCallView::decode(&call.encode()).is_err());
    }

    #[test]
    fn truncated_call_rejected() {
        let call = RpcCall::new(7, 100003, 2, 6, vec![]);
        let bytes = call.encode();
        assert!(RpcCallView::decode(&bytes[..10]).is_err());
    }

    #[test]
    fn auth_sys_wrong_flavor_rejected() {
        assert!(AuthSys::from_opaque(&OpaqueAuth::none()).is_err());
    }

    #[test]
    fn encode_into_matches_encode() {
        let replies = [
            RpcReply::success(7, vec![9, 9, 9, 9]),
            RpcReply::error(3, AcceptStat::ProgMismatch),
            RpcReply::error(3, AcceptStat::GarbageArgs),
            RpcReply::denied(4, RejectStat::AuthError),
            RpcReply::denied(4, RejectStat::RpcMismatch),
        ];
        let mut batch = Vec::new();
        for r in &replies {
            let solo = r.encode();
            let before = batch.len();
            r.encode_into(&mut batch);
            assert_eq!(&batch[before..], &solo[..]);
        }
    }

    #[test]
    fn call_encode_into_matches_encode() {
        let mut with_cred = RpcCall::new(9, 100005, 1, 1, vec![0xAB; 13]);
        with_cred.cred = AuthSys {
            stamp: 1,
            machine: "bob".into(), // 3 bytes: the body needs padding
            uid: 1000,
            gid: 100,
            gids: vec![4],
        }
        .to_opaque();
        with_cred.verf.body = vec![7; 5];
        let calls = [
            RpcCall::new(7, 100003, 2, 6, vec![1, 2, 3, 4]),
            RpcCall::new(8, 100003, 2, 0, Vec::new()),
            with_cred,
        ];
        // One buffer, each call appended after the one before.
        let mut batch = Vec::new();
        for c in &calls {
            let solo = c.encode();
            let before = batch.len();
            c.encode_into(&mut batch);
            assert_eq!(&batch[before..], &solo[..]);
            assert_eq!(RpcCallView::decode(&solo).unwrap(), view_of(c));
        }
        // The AUTH_NONE image, word for word.
        assert_eq!(
            calls[0].encode(),
            [7u32, 0, 2, 100003, 2, 6, 0, 0, 0, 0]
                .iter()
                .flat_map(|w| w.to_be_bytes())
                .chain([1, 2, 3, 4])
                .collect::<Vec<u8>>()
        );
    }
}
