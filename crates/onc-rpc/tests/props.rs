//! Property tests for the XDR/RPC wire layer: round trips always hold
//! and the decoder survives arbitrary bytes (it faces the network).

use discfs_crypto::rng::check::{check, TEXT};
use onc_rpc::{AuthSys, Decoder, Encoder, RpcCall, RpcCallView, RpcReply};

#[test]
fn u32_round_trip() {
    check("u32_round_trip", 256, |src| {
        let v = src.any::<u32>();
        let mut e = Encoder::new();
        e.put_u32(v);
        let bytes = e.finish();
        assert_eq!(bytes.len(), 4);
        assert_eq!(Decoder::new(&bytes).get_u32().unwrap(), v);
    });
}

#[test]
fn i64_round_trip() {
    check("i64_round_trip", 256, |src| {
        let v = src.any::<i64>();
        let mut e = Encoder::new();
        e.put_i64(v);
        let bytes = e.finish();
        assert_eq!(Decoder::new(&bytes).get_i64().unwrap(), v);
    });
}

#[test]
fn opaque_round_trip() {
    check("opaque_round_trip", 256, |src| {
        let data = src.vec(0..2000, |src| src.any::<u8>());
        let mut e = Encoder::new();
        e.put_opaque(&data);
        let bytes = e.finish();
        // Always 4-byte aligned on the wire.
        assert_eq!(bytes.len() % 4, 0);
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_opaque().unwrap(), data);
        assert!(d.is_exhausted());
    });
}

#[test]
fn string_round_trip() {
    check("string_round_trip", 256, |src| {
        let s = src.string(0..201, TEXT);
        let mut e = Encoder::new();
        e.put_string(&s);
        let bytes = e.finish();
        assert_eq!(Decoder::new(&bytes).get_string().unwrap(), s);
    });
}

#[test]
fn mixed_sequence_round_trip() {
    check("mixed_sequence_round_trip", 256, |src| {
        let a = src.any::<u32>();
        let b = src.vec(0..100, |src| src.any::<u8>());
        let c = src.bool();
        let s = src.string(0..51, &['a'..='z']);
        let mut e = Encoder::new();
        e.put_u32(a);
        e.put_opaque(&b);
        e.put_bool(c);
        e.put_string(&s);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u32().unwrap(), a);
        assert_eq!(d.get_opaque().unwrap(), b);
        assert_eq!(d.get_bool().unwrap(), c);
        assert_eq!(d.get_string().unwrap(), s);
        assert!(d.is_exhausted());
    });
}

/// The decoder must never panic on arbitrary input.
#[test]
fn decoder_never_panics() {
    check("decoder_never_panics", 256, |src| {
        let bytes = src.vec(0..300, |src| src.any::<u8>());
        let mut d = Decoder::new(&bytes);
        let _ = d.get_u32();
        let _ = d.get_opaque();
        let _ = d.get_string();
        let _ = d.get_bool();
        let _ = d.get_option(|d| d.get_u64());
    });
}

/// RPC call messages round-trip for arbitrary program numbers and
/// argument payloads.
#[test]
fn rpc_call_round_trip() {
    check("rpc_call_round_trip", 256, |src| {
        let (xid, prog) = (src.any::<u32>(), src.any::<u32>());
        let (vers, proc_num) = (src.any::<u32>(), src.any::<u32>());
        let args = src.vec(0..500, |src| src.any::<u8>());
        let bytes = RpcCall::new(xid, prog, vers, proc_num, args.clone()).encode();
        let view = RpcCallView::decode(&bytes).unwrap();
        assert_eq!(
            (view.xid, view.prog, view.vers, view.proc_num, view.args),
            (xid, prog, vers, proc_num, &args[..])
        );
    });
}

#[test]
fn rpc_reply_round_trip() {
    check("rpc_reply_round_trip", 256, |src| {
        let xid = src.any::<u32>();
        let reply = RpcReply::success(xid, src.vec(0..500, |src| src.any::<u8>()));
        assert_eq!(RpcReply::decode(&reply.encode()).unwrap(), reply);
    });
}

/// Call decoding never panics on arbitrary bytes.
#[test]
fn rpc_decode_never_panics() {
    check("rpc_decode_never_panics", 256, |src| {
        let bytes = src.vec(0..200, |src| src.any::<u8>());
        let _ = RpcCallView::decode(&bytes);
        let _ = RpcReply::decode(&bytes);
    });
}

#[test]
fn auth_sys_round_trip() {
    check("auth_sys_round_trip", 256, |src| {
        let sys = AuthSys {
            stamp: src.any(),
            machine: src.string(0..31, &['a'..='z', '0'..='9', '.'..='.', '-'..='-']),
            uid: src.any(),
            gid: src.any(),
            gids: src.vec(0..16, |src| src.any()),
        };
        let opaque = sys.to_opaque();
        assert_eq!(AuthSys::from_opaque(&opaque).unwrap(), sys);
    });
}
