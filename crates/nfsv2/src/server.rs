//! A thread-per-connection NFS server loop, kept only for the
//! benchmark package.
//!
//! Every in-tree server runs on the [`Engine`](crate::Engine). This
//! shim remains because `discfs_bench`'s traced CFS-NE side still
//! spawns it, and that package is pinned; the change that unpins the
//! benchmark deletes this file and that one call. Do not add callers.

use std::sync::Arc;

use bytes::Bytes;
use ipsec::{IpsecError, SecureTransport};
use onc_rpc::frame::{self, FrameDecoder};
use onc_rpc::RpcCallView;

use crate::engine::dispatch::{dispatch, request_ctx};
use crate::service::{NfsService, RequestCtx};

/// Serves RPC requests on `chan` until the peer disconnects.
fn serve_connection<S: NfsService + ?Sized>(service: Arc<S>, chan: Box<dyn SecureTransport>) {
    let peer = chan.peer_identity();
    let mut last_ctx = RequestCtx::anonymous();
    let mut decoder = FrameDecoder::new();
    'serve: loop {
        let msg = match chan.recv() {
            Ok(m) => m,
            Err(IpsecError::Net(_)) => break,
            // Authentication/replay failures drop the record, not the
            // connection (ESP semantics).
            Err(_) => continue,
        };
        if decoder.feed(Bytes::from(msg)).is_err() {
            // A message that does not hold whole, intact frames
            // (`onc_rpc::frame`, *The rule*) condemns the connection,
            // as in the engine.
            service.connection_aborted(&last_ctx, "malformed frame");
            break;
        }
        // A transport message may carry a pipelined batch of frames;
        // answer them all in one framed reply message.
        let mut out = Vec::new();
        while let Some(req) = decoder.pop_frame() {
            let call = match RpcCallView::decode(&req) {
                Ok(c) => c,
                // Garbage that does not even parse as a call is ignored.
                Err(_) => continue,
            };
            let ctx = request_ctx(peer, &call.cred);
            last_ctx = ctx;
            let reply = dispatch(&*service, &ctx, &call);
            let start = frame::begin_frame(&mut out);
            reply.encode_into(&mut out);
            frame::end_frame(&mut out, start);
        }
        if !out.is_empty() && chan.send(out).is_err() {
            break 'serve;
        }
    }
    service.connection_closed(&last_ctx);
}

/// Spawns a server thread for one connection.
#[doc(hidden)]
pub fn spawn<S: NfsService + ?Sized + 'static>(
    service: Arc<S>,
    chan: Box<dyn SecureTransport>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || serve_connection(service, chan))
}
