//! Routes one decoded RPC call into an [`NfsService`]: program and
//! version checks, argument decoding per procedure, and the encoded
//! result. The engine's workers call [`dispatch`] once per request.

use onc_rpc::{
    AcceptStat, AuthFlavor, AuthSys, Decoder, Encoder, OpaqueAuth, RpcCallView, RpcReply, XdrError,
};

use crate::proto::{
    proc_mount, proc_nfs, DirOpArgs, FHandle, NfsStat, Sattr, MAX_DATA, MOUNT_PROGRAM,
    MOUNT_VERSION, NFS_PROGRAM, NFS_VERSION,
};
use crate::service::{NfsService, RequestCtx};

/// Builds the per-request context from the channel identity and the
/// call's `AUTH_SYS` credential (when present).
pub(crate) fn request_ctx(
    peer: Option<discfs_crypto::ed25519::VerifyingKey>,
    cred: &OpaqueAuth,
) -> RequestCtx {
    let mut ctx = RequestCtx {
        peer,
        uid: u32::MAX,
        gid: u32::MAX,
    };
    if cred.flavor == AuthFlavor::Sys {
        if let Ok(sys) = AuthSys::from_opaque(cred) {
            ctx.uid = sys.uid;
            ctx.gid = sys.gid;
        }
    }
    ctx
}

/// Routes one decoded call into the service.
pub(crate) fn dispatch<S: NfsService + ?Sized>(
    service: &S,
    ctx: &RequestCtx,
    call: &RpcCallView<'_>,
) -> RpcReply {
    match (call.prog, call.vers) {
        (NFS_PROGRAM, NFS_VERSION) => match nfs_dispatch(service, ctx, call) {
            Ok(results) => RpcReply::success(call.xid, results),
            Err(stat) => RpcReply::error(call.xid, stat),
        },
        (MOUNT_PROGRAM, MOUNT_VERSION) => match mount_dispatch(service, ctx, call) {
            Ok(results) => RpcReply::success(call.xid, results),
            Err(stat) => RpcReply::error(call.xid, stat),
        },
        (NFS_PROGRAM, _) | (MOUNT_PROGRAM, _) => {
            RpcReply::error(call.xid, AcceptStat::ProgMismatch)
        }
        (prog, _) => match service.extension(ctx, prog, call.proc_num, call.args) {
            Some(Ok(results)) => RpcReply::success(call.xid, results),
            Some(Err(stat)) => RpcReply::error(call.xid, stat),
            None => RpcReply::error(call.xid, AcceptStat::ProgUnavail),
        },
    }
}

/// Encodes `stat` followed by a success body.
fn status_reply<F: FnOnce(&mut Encoder)>(result: Result<F, NfsStat>) -> Vec<u8> {
    let mut e = Encoder::new();
    match result {
        Ok(body) => {
            e.put_u32(NfsStat::Ok as u32);
            body(&mut e);
        }
        Err(stat) => {
            e.put_u32(stat as u32);
        }
    }
    e.finish()
}

fn garbage(_: XdrError) -> AcceptStat {
    AcceptStat::GarbageArgs
}

fn nfs_dispatch<S: NfsService + ?Sized>(
    service: &S,
    ctx: &RequestCtx,
    call: &RpcCallView<'_>,
) -> Result<Vec<u8>, AcceptStat> {
    let mut d = Decoder::new(call.args);
    match call.proc_num {
        proc_nfs::NULL => Ok(Vec::new()),
        proc_nfs::GETATTR => {
            let fh = FHandle::decode_args(&mut d).map_err(garbage)?;
            Ok(status_reply(
                service
                    .getattr(ctx, &fh)
                    .map(|attr| move |e: &mut Encoder| attr.encode(e)),
            ))
        }
        proc_nfs::SETATTR => {
            let fh = FHandle::decode_args(&mut d).map_err(garbage)?;
            let sattr = Sattr::decode(&mut d).map_err(garbage)?;
            Ok(status_reply(
                service
                    .setattr(ctx, &fh, &sattr)
                    .map(|attr| move |e: &mut Encoder| attr.encode(e)),
            ))
        }
        proc_nfs::LOOKUP => {
            let args = DirOpArgs::decode(&mut d).map_err(garbage)?;
            Ok(status_reply(service.lookup(ctx, &args).map(
                |(fh, attr)| {
                    move |e: &mut Encoder| {
                        e.put_opaque_fixed(&fh.0);
                        attr.encode(e);
                    }
                },
            )))
        }
        proc_nfs::READLINK => {
            let fh = FHandle::decode_args(&mut d).map_err(garbage)?;
            Ok(status_reply(service.readlink(ctx, &fh).map(|path| {
                move |e: &mut Encoder| {
                    e.put_string(&path);
                }
            })))
        }
        proc_nfs::READ => {
            let fh = FHandle::decode_args(&mut d).map_err(garbage)?;
            let offset = d.get_u32().map_err(garbage)?;
            let count = d.get_u32().map_err(garbage)?.min(MAX_DATA as u32);
            let _totalcount = d.get_u32().map_err(garbage)?; // unused per RFC
            Ok(status_reply(service.read(ctx, &fh, offset, count).map(
                |(attr, data)| {
                    move |e: &mut Encoder| {
                        attr.encode(e);
                        e.put_opaque(&data);
                    }
                },
            )))
        }
        proc_nfs::WRITECACHE => Ok(Vec::new()),
        proc_nfs::WRITE => {
            let fh = FHandle::decode_args(&mut d).map_err(garbage)?;
            let _beginoffset = d.get_u32().map_err(garbage)?;
            let offset = d.get_u32().map_err(garbage)?;
            let _totalcount = d.get_u32().map_err(garbage)?;
            let data = d.get_opaque().map_err(garbage)?;
            if data.len() > MAX_DATA {
                return Err(AcceptStat::GarbageArgs);
            }
            Ok(status_reply(
                service
                    .write(ctx, &fh, offset, data)
                    .map(|attr| move |e: &mut Encoder| attr.encode(e)),
            ))
        }
        proc_nfs::CREATE | proc_nfs::MKDIR => {
            let args = DirOpArgs::decode(&mut d).map_err(garbage)?;
            let sattr = Sattr::decode(&mut d).map_err(garbage)?;
            let result = if call.proc_num == proc_nfs::CREATE {
                service.create(ctx, &args, &sattr)
            } else {
                service.mkdir(ctx, &args, &sattr)
            };
            Ok(status_reply(result.map(|(fh, attr)| {
                move |e: &mut Encoder| {
                    e.put_opaque_fixed(&fh.0);
                    attr.encode(e);
                }
            })))
        }
        proc_nfs::REMOVE | proc_nfs::RMDIR => {
            let args = DirOpArgs::decode(&mut d).map_err(garbage)?;
            let result = if call.proc_num == proc_nfs::REMOVE {
                service.remove(ctx, &args)
            } else {
                service.rmdir(ctx, &args)
            };
            Ok(status_reply(result.map(|()| |_: &mut Encoder| ())))
        }
        proc_nfs::RENAME => {
            let from = DirOpArgs::decode(&mut d).map_err(garbage)?;
            let to = DirOpArgs::decode(&mut d).map_err(garbage)?;
            Ok(status_reply(
                service
                    .rename(ctx, &from, &to)
                    .map(|()| |_: &mut Encoder| ()),
            ))
        }
        proc_nfs::LINK => {
            let from = FHandle::decode_args(&mut d).map_err(garbage)?;
            let to = DirOpArgs::decode(&mut d).map_err(garbage)?;
            Ok(status_reply(
                service.link(ctx, &from, &to).map(|()| |_: &mut Encoder| ()),
            ))
        }
        proc_nfs::SYMLINK => {
            let args = DirOpArgs::decode(&mut d).map_err(garbage)?;
            let target = d.get_string().map_err(garbage)?;
            let sattr = Sattr::decode(&mut d).map_err(garbage)?;
            Ok(status_reply(
                service
                    .symlink(ctx, &args, &target, &sattr)
                    .map(|()| |_: &mut Encoder| ()),
            ))
        }
        proc_nfs::READDIR => {
            let fh = FHandle::decode_args(&mut d).map_err(garbage)?;
            let cookie = d.get_u32().map_err(garbage)?;
            let count = d.get_u32().map_err(garbage)?;
            Ok(status_reply(service.readdir(ctx, &fh, cookie, count).map(
                |(entries, eof)| {
                    move |e: &mut Encoder| {
                        for entry in &entries {
                            e.put_bool(true); // another entry follows
                            e.put_u32(entry.fileid);
                            e.put_string(&entry.name);
                            e.put_u32(entry.cookie);
                        }
                        e.put_bool(false);
                        e.put_bool(eof);
                    }
                },
            )))
        }
        proc_nfs::STATFS => {
            let fh = FHandle::decode_args(&mut d).map_err(garbage)?;
            Ok(status_reply(
                service
                    .statfs(ctx, &fh)
                    .map(|info| move |e: &mut Encoder| info.encode(e)),
            ))
        }
        proc_nfs::ROOT => Err(AcceptStat::ProcUnavail), // obsolete in v2
        _ => Err(AcceptStat::ProcUnavail),
    }
}

fn mount_dispatch<S: NfsService + ?Sized>(
    service: &S,
    ctx: &RequestCtx,
    call: &RpcCallView<'_>,
) -> Result<Vec<u8>, AcceptStat> {
    let mut d = Decoder::new(call.args);
    match call.proc_num {
        proc_mount::NULL => Ok(Vec::new()),
        proc_mount::MNT => {
            let path = d.get_string().map_err(garbage)?;
            let mut e = Encoder::new();
            match service.mount(ctx, &path) {
                Ok(fh) => {
                    e.put_u32(0);
                    e.put_opaque_fixed(&fh.0);
                }
                Err(stat) => {
                    e.put_u32(stat as u32);
                }
            }
            Ok(e.finish())
        }
        proc_mount::UMNT => Ok(Vec::new()),
        _ => Err(AcceptStat::ProcUnavail),
    }
}

impl FHandle {
    /// Decodes a handle from a procedure argument stream.
    fn decode_args(d: &mut Decoder<'_>) -> Result<FHandle, XdrError> {
        let bytes = d.get_opaque_fixed(32)?;
        Ok(FHandle(bytes.try_into().expect("32 bytes")))
    }
}
