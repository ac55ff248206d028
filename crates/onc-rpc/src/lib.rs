//! XDR serialization (RFC 4506) and ONC RPC v2 messages (RFC 5531).
//!
//! NFS is defined on top of Sun RPC, which is defined on top of XDR.
//! The paper's prototype reused the user-level NFS daemon from CFS; this
//! crate provides the equivalent wire plumbing for our user-level
//! servers: [`xdr::Encoder`]/[`xdr::Decoder`] for the data language and
//! [`rpc`] for call/reply framing, authentication flavors and the
//! accept/deny status space.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod frame;
pub mod rpc;
pub mod xdr;

pub use frame::{FrameDecoder, FrameError};
pub use rpc::{
    AcceptStat, AuthFlavor, AuthSys, OpaqueAuth, RejectStat, ReplyBody, RpcCall, RpcCallView,
    RpcReply, RpcReplyView,
};
pub use xdr::{Decoder, Encoder, XdrError};
