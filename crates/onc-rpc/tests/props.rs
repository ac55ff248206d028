//! Property tests for the XDR/RPC wire layer: round trips always hold
//! and the decoder survives arbitrary bytes (it faces the network).

use onc_rpc::{AuthSys, Decoder, Encoder, RpcCall, RpcCallView, RpcReply};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn u32_round_trip(v in any::<u32>()) {
        let mut e = Encoder::new();
        e.put_u32(v);
        let bytes = e.finish();
        prop_assert_eq!(bytes.len(), 4);
        prop_assert_eq!(Decoder::new(&bytes).get_u32().unwrap(), v);
    }

    #[test]
    fn i64_round_trip(v in any::<i64>()) {
        let mut e = Encoder::new();
        e.put_i64(v);
        let bytes = e.finish();
        prop_assert_eq!(Decoder::new(&bytes).get_i64().unwrap(), v);
    }

    #[test]
    fn opaque_round_trip(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let mut e = Encoder::new();
        e.put_opaque(&data);
        let bytes = e.finish();
        // Always 4-byte aligned on the wire.
        prop_assert_eq!(bytes.len() % 4, 0);
        let mut d = Decoder::new(&bytes);
        prop_assert_eq!(d.get_opaque().unwrap(), data);
        prop_assert!(d.is_exhausted());
    }

    #[test]
    fn string_round_trip(s in "\\PC{0,200}") {
        let mut e = Encoder::new();
        e.put_string(&s);
        let bytes = e.finish();
        prop_assert_eq!(Decoder::new(&bytes).get_string().unwrap(), s);
    }

    #[test]
    fn mixed_sequence_round_trip(
        a in any::<u32>(),
        b in proptest::collection::vec(any::<u8>(), 0..100),
        c in any::<bool>(),
        s in "[a-z]{0,50}",
    ) {
        let mut e = Encoder::new();
        e.put_u32(a);
        e.put_opaque(&b);
        e.put_bool(c);
        e.put_string(&s);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        prop_assert_eq!(d.get_u32().unwrap(), a);
        prop_assert_eq!(d.get_opaque().unwrap(), b);
        prop_assert_eq!(d.get_bool().unwrap(), c);
        prop_assert_eq!(d.get_string().unwrap(), s);
        prop_assert!(d.is_exhausted());
    }

    /// The decoder must never panic on arbitrary input.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut d = Decoder::new(&bytes);
        let _ = d.get_u32();
        let _ = d.get_opaque();
        let _ = d.get_string();
        let _ = d.get_bool();
        let _ = d.get_option(|d| d.get_u64());
    }

    /// RPC call messages round-trip for arbitrary program numbers and
    /// argument payloads.
    #[test]
    fn rpc_call_round_trip(
        xid in any::<u32>(),
        prog in any::<u32>(),
        vers in any::<u32>(),
        proc_num in any::<u32>(),
        args in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let bytes = RpcCall::new(xid, prog, vers, proc_num, args.clone()).encode();
        let view = RpcCallView::decode(&bytes).unwrap();
        prop_assert_eq!(
            (view.xid, view.prog, view.vers, view.proc_num, view.args),
            (xid, prog, vers, proc_num, &args[..])
        );
    }

    #[test]
    fn rpc_reply_round_trip(
        xid in any::<u32>(),
        results in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let reply = RpcReply::success(xid, results);
        prop_assert_eq!(RpcReply::decode(&reply.encode()).unwrap(), reply);
    }

    /// Call decoding never panics on arbitrary bytes.
    #[test]
    fn rpc_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = RpcCallView::decode(&bytes);
        let _ = RpcReply::decode(&bytes);
    }

    #[test]
    fn auth_sys_round_trip(
        stamp in any::<u32>(),
        machine in "[a-z0-9.-]{0,30}",
        uid in any::<u32>(),
        gid in any::<u32>(),
        gids in proptest::collection::vec(any::<u32>(), 0..16),
    ) {
        let sys = AuthSys { stamp, machine, uid, gid, gids };
        let opaque = sys.to_opaque();
        prop_assert_eq!(AuthSys::from_opaque(&opaque).unwrap(), sys);
    }
}
