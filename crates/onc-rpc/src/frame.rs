//! Message framing for pipelined RPC: a transport message holds whole
//! frames.
//!
//! The request engine batches many RPC messages into one transport send
//! (one ESP seal per batch instead of one per request), and the client
//! sends several pipelined calls in one, so a message needs framing of
//! its own.
//!
//! # Wire format
//!
//! ```text
//! +----------------+------------------+---------------------+
//! | payload length | checksum         | payload             |
//! | u32 big-endian | u32 big-endian   | `length` bytes      |
//! +----------------+------------------+---------------------+
//!   [`FRAME_HEADER`] = 8 bytes          checksum = [`checksum`](payload)
//! ```
//!
//! # The rule: a message holds whole frames
//!
//! Every transport in the tree delivers whole messages (`netsim`
//! links, ESP with one record a send, `store`'s `NodeLink`), and every
//! sender puts whole frames into one message. So a frame never spans
//! two messages, and a message that ends inside a frame is malformed:
//! [`FrameError::Misframed`], which condemns the connection like any
//! other frame error. Nothing is buffered from one message to the next.
//!
//! Reassembling frames across messages would make the framing a byte
//! stream, and a byte stream does not survive these transports: ESP
//! drops a record that fails authentication and a link may lose a
//! message, and one lost or reordered message would desynchronise
//! every frame after it. RFC 5531 §11 keeps record marking for byte
//! streams; this framing is per message, as a datagram's is.
//!
//! One walker checks every frame: its header is whole, its declared
//! length is at most [`DEFAULT_MAX_FRAME`] and inside the message, and
//! its checksum holds. [`FrameDecoder::feed`] walks a message with it
//! and queues each payload as a zero-copy [`Bytes`] slice of the
//! message; [`unframe`] takes a message that is exactly one frame and
//! borrows its payload. The checks run in that order, so an oversized
//! length is refused before its payload is summed.
//!
//! # The integrity checksum
//!
//! One checksum serves every framing in the tree. Every RPC frame
//! carries it folded to 32 bits ([`checksum`]): NFS, MOUNT and the
//! DisCFS control procedures, and the block protocol of
//! `store::remote`, which is an ONC-RPC program of its own. The full
//! 64 bits ([`checksum64`]) serve the journal records of `store::file`.
//! It is defined here, once.
//!
//! **A tripwire, not a MAC.** NFS frames travel inside an
//! authenticated ESP tunnel, block frames between a coordinator and
//! its own storage nodes, journal records on the server's own disk.
//! None of the three is a place where an adversary chooses bytes and
//! this sum stands between them and the system; what it catches is a
//! peer bug, a desynchronised stream, a torn write, a flipped bit.
//! Collision resistance is not asked of it, and SHA-256 stays wherever
//! it is (epoch records, HMAC and HKDF). What is asked is that it
//! costs next to nothing per byte, because it runs on every payload on
//! both ends.
//!
//! **Definition.** The input is read as little-endian 64-bit words, 32
//! bytes (four words) to a stride, a short last stride padded with
//! zeros. Four lanes start from `LANE_SEEDS`; word *i* of a stride
//! goes into lane *i*, with `K` the four odd `LANE_MULTIPLIERS`:
//!
//! ```text
//! lane ← rotl64((lane ^ word) · K[i], 29)          (mod 2^64)
//! ```
//!
//! The lanes are independent, so a stride is four multiplies in
//! flight at once. The sum is then
//!
//! ```text
//! h ← length in bytes
//! h ← rotl64((h ^ lane[i]) · K[i], 29)              for i = 0, 1, 2, 3
//! h ← h ^ (h >> 32);  h ← h · K[0];  h ← h ^ (h >> 29)
//! ```
//!
//! Every step is a bijection of the lane (the `K[i]` are odd), so two
//! inputs of one length that differ inside a single word — any
//! single-bit flip is such a pair — always have different 64-bit sums;
//! the length goes in so that zero padding and appended zero bytes
//! change the sum too. The 32-bit form is `h ^ (h >> 32)` truncated.

use std::collections::VecDeque;
use std::ops::Range;

use bytes::Bytes;

/// Bytes of framing overhead per frame (length + checksum words).
pub const FRAME_HEADER: usize = 8;

/// Per-frame payload bound (1 MiB: far above the largest NFS
/// read/write message, far below anything that could exhaust memory).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Initial lane values of [`checksum64`] (the first 256 bits of the
/// fraction of π).
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// Per-lane odd multipliers of [`checksum64`].
const LANE_MULTIPLIERS: [u64; 4] = [
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
];

#[inline(always)]
fn mix(lane: u64, word: u64, multiplier: u64) -> u64 {
    (lane ^ word).wrapping_mul(multiplier).rotate_left(29)
}

#[inline(always)]
fn mix_stride(lanes: &mut [u64; 4], stride: &[u8; 32]) {
    for (i, lane) in lanes.iter_mut().enumerate() {
        let word = u64::from_le_bytes(stride[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        *lane = mix(*lane, word, LANE_MULTIPLIERS[i]);
    }
}

/// The tree's integrity checksum, 64-bit form (module docs, *The
/// integrity checksum*): a tripwire against corruption, not a MAC.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut strides = data.chunks_exact(32);
    for stride in &mut strides {
        mix_stride(&mut lanes, stride.try_into().expect("32-byte stride"));
    }
    let tail = strides.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        mix_stride(&mut lanes, &padded);
    }
    let mut h = data.len() as u64;
    for (lane, multiplier) in lanes.into_iter().zip(LANE_MULTIPLIERS) {
        h = mix(h, lane, multiplier);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(LANE_MULTIPLIERS[0]);
    h ^ (h >> 29)
}

/// The checksum an RPC frame header carries: [`checksum64`] of the
/// payload folded to 32 bits.
pub fn checksum(payload: &[u8]) -> u32 {
    let h = checksum64(payload);
    (h ^ (h >> 32)) as u32
}

/// Errors that condemn the connection a message came on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A frame header declared a payload larger than the bound.
    Oversized {
        /// The declared payload length.
        declared: usize,
        /// The bound, [`DEFAULT_MAX_FRAME`].
        max: usize,
    },
    /// The payload checksum did not match the header.
    Checksum,
    /// The message ended inside a frame (a header cut short, or a
    /// declared length running past the message's end), or a message
    /// handed to [`unframe`] held more than one frame. Module docs,
    /// *The rule*: a frame never continues in the next message.
    Misframed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} bytes (max {max})")
            }
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
            FrameError::Misframed => write!(f, "message does not hold whole frames"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Frames `payload` into a fresh buffer.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    let start = begin_frame(&mut buf);
    buf.extend_from_slice(payload);
    end_frame(&mut buf, start);
    buf
}

/// Reserves a frame header in `buf` and returns a marker for
/// [`end_frame`]. Lets batch encoders serialize a payload directly into
/// the output buffer and backfill the header afterwards, avoiding an
/// intermediate per-frame allocation.
pub fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_HEADER]);
    start
}

/// Completes a frame opened by [`begin_frame`]: everything appended to
/// `buf` since then becomes the payload, and the header is backfilled
/// with its length and checksum.
///
/// # Panics
///
/// Panics when `start` does not point at a header reserved in `buf`.
pub fn end_frame(buf: &mut [u8], start: usize) {
    assert!(
        start + FRAME_HEADER <= buf.len(),
        "frame marker out of bounds"
    );
    let len = buf.len() - start - FRAME_HEADER;
    let sum = checksum(&buf[start + FRAME_HEADER..]);
    buf[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    buf[start + 4..start + FRAME_HEADER].copy_from_slice(&sum.to_be_bytes());
}

/// Checks the frame that starts at `at` in `msg` (module docs, *The
/// rule*) and returns its payload's range in `msg`.
fn frame_at(msg: &[u8], at: usize) -> Result<Range<usize>, FrameError> {
    let (header, rest) = msg[at..]
        .split_first_chunk::<FRAME_HEADER>()
        .ok_or(FrameError::Misframed)?;
    let declared = read_u32(header) as usize;
    if declared > DEFAULT_MAX_FRAME {
        return Err(FrameError::Oversized {
            declared,
            max: DEFAULT_MAX_FRAME,
        });
    }
    let payload = rest.get(..declared).ok_or(FrameError::Misframed)?;
    if checksum(payload) != read_u32(&header[4..]) {
        return Err(FrameError::Checksum);
    }
    let start = at + FRAME_HEADER;
    Ok(start..start + declared)
}

/// The payload of `msg`, borrowed, when `msg` is exactly one whole
/// frame.
///
/// # Errors
///
/// The frame's own [`FrameError`], or [`FrameError::Misframed`] when
/// bytes follow it.
pub fn unframe(msg: &[u8]) -> Result<&[u8], FrameError> {
    let payload = frame_at(msg, 0)?;
    if payload.end != msg.len() {
        return Err(FrameError::Misframed);
    }
    Ok(&msg[payload])
}

/// The payloads of the messages fed to it, oldest first, each a
/// zero-copy slice of its message.
#[derive(Default)]
pub struct FrameDecoder {
    ready: VecDeque<Bytes>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Checks every frame of one transport message and queues their
    /// payloads, returning how many it queued.
    ///
    /// # Errors
    ///
    /// The [`FrameError`] of the first bad frame; [`FrameError::Misframed`]
    /// when the message ends inside a frame. The frames before it stay
    /// queued, and the caller drops the connection.
    pub fn feed(&mut self, msg: Bytes) -> Result<usize, FrameError> {
        let mut at = 0;
        let mut fed = 0;
        while at < msg.len() {
            let payload = frame_at(&msg, at)?;
            at = payload.end;
            self.ready.push_back(msg.slice(payload));
            fed += 1;
        }
        Ok(fed)
    }

    /// Pops the next payload, oldest first.
    pub fn pop_frame(&mut self) -> Option<Bytes> {
        self.ready.pop_front()
    }
}

fn read_u32(data: &[u8]) -> u32 {
    u32::from_be_bytes([data[0], data[1], data[2], data[3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(dec: &mut FrameDecoder) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| dec.pop_frame())
            .map(|b| b.to_vec())
            .collect()
    }

    /// One message holding `payloads`, framed in order.
    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        payloads.iter().flat_map(|p| encode_frame(p)).collect()
    }

    #[test]
    fn single_frame_round_trip() {
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(encode_frame(b"hello").into()).unwrap(), 1);
        assert_eq!(decode_all(&mut dec), vec![b"hello".to_vec()]);
    }

    #[test]
    fn many_frames_in_one_message_are_zero_copy_slices() {
        let payloads: Vec<[u8; 5]> = (0..10u8).map(|i| [i; 5]).collect();
        let msg = Bytes::from(framed(&payloads.iter().map(|p| &p[..]).collect::<Vec<_>>()));
        let within = msg.as_ptr_range();
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(msg.clone()).unwrap(), 10);
        for i in 0..10u8 {
            let frame = dec.pop_frame().unwrap();
            assert_eq!(frame, [i; 5][..]);
            assert!(within.contains(&frame.as_ptr()), "a slice of the message");
        }
        assert!(dec.pop_frame().is_none());
    }

    #[test]
    fn empty_payload_frames() {
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(framed(&[b"", b"x", b""]).into()).unwrap(), 3);
        assert_eq!(decode_all(&mut dec), vec![vec![], b"x".to_vec(), vec![]]);
    }

    #[test]
    fn oversized_length_rejected() {
        let declared = DEFAULT_MAX_FRAME + 1;
        let mut msg = (declared as u32).to_be_bytes().to_vec();
        msg.extend_from_slice(&[0u8; 4]);
        let oversized = Err(FrameError::Oversized {
            declared,
            max: DEFAULT_MAX_FRAME,
        });
        assert_eq!(FrameDecoder::new().feed(msg.clone().into()), oversized);
        assert_eq!(unframe(&msg).map(<[u8]>::len), oversized);
    }

    /// The two readers of a frame, [`unframe`] and
    /// [`FrameDecoder::feed`], share its checks.
    #[test]
    fn corrupt_checksum_rejected_on_both_paths() {
        let mut frame = encode_frame(b"payload");
        *frame.last_mut().unwrap() ^= 0xff;
        assert_eq!(unframe(&frame), Err(FrameError::Checksum));
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(frame.into()), Err(FrameError::Checksum));
        assert!(dec.pop_frame().is_none());
    }

    /// The frames before a bad one stay queued; the one after it is
    /// never read.
    #[test]
    fn a_message_cut_inside_its_second_frame_keeps_the_first() {
        let msg = framed(&[b"first", b"second", b"third"]);
        let cut = encode_frame(b"first").len() + 5;
        let mut dec = FrameDecoder::new();
        assert_eq!(
            dec.feed(Bytes::copy_from_slice(&msg[..cut])),
            Err(FrameError::Misframed)
        );
        assert_eq!(decode_all(&mut dec), vec![b"first".to_vec()]);
    }

    #[test]
    fn begin_end_frame_matches_encode_frame() {
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf);
        buf.extend_from_slice(b"abcdef");
        end_frame(&mut buf, start);
        assert_eq!(buf, encode_frame(b"abcdef"));
    }

    /// Payload lengths around every boundary of the checksum: empty,
    /// inside one word, one word, one stride and its neighbours, and
    /// the 8 KiB block the data path carries.
    const EDGE_LENGTHS: [usize; 8] = [0, 1, 7, 8, 31, 32, 33, 8192];

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + len) as u8).collect()
    }

    #[test]
    fn every_single_bit_flip_of_a_frame_is_rejected() {
        for len in EDGE_LENGTHS {
            let payload = patterned(len);
            let frame = encode_frame(&payload);
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    unframe(&bad).is_err(),
                    "len {len}: flip of bit {bit} unframed"
                );
                let mut dec = FrameDecoder::new();
                assert!(
                    dec.feed(bad.into()).is_err() && dec.pop_frame().is_none(),
                    "len {len}: flip of bit {bit} delivered a frame"
                );
            }
        }
    }

    /// A truncated frame is an error, not bytes kept for the next
    /// message.
    #[test]
    fn every_truncation_of_a_frame_delivers_nothing() {
        for len in EDGE_LENGTHS {
            let frame = encode_frame(&patterned(len));
            for keep in 0..frame.len() {
                let cut = &frame[..keep];
                assert_eq!(
                    unframe(cut),
                    Err(FrameError::Misframed),
                    "len {len} cut to {keep}"
                );
                let mut dec = FrameDecoder::new();
                let fed = dec.feed(Bytes::copy_from_slice(cut));
                // An empty message holds no frame, and that is whole.
                let expected = if keep == 0 {
                    Ok(0)
                } else {
                    Err(FrameError::Misframed)
                };
                assert_eq!(fed, expected, "len {len} cut to {keep}");
                assert!(dec.pop_frame().is_none());
            }
        }
    }

    #[test]
    fn unframe_takes_exactly_one_frame() {
        let frame = encode_frame(b"one call");
        assert_eq!(unframe(&frame), Ok(&b"one call"[..]));
        let two = framed(&[b"one call", b""]);
        assert_eq!(unframe(&two), Err(FrameError::Misframed));
        let mut trailing = frame;
        trailing.push(0);
        assert_eq!(unframe(&trailing), Err(FrameError::Misframed));
    }

    #[test]
    fn unframe_holds_the_frame_bound() {
        let largest = encode_frame(&vec![7; DEFAULT_MAX_FRAME]);
        assert_eq!(unframe(&largest).map(<[u8]>::len), Ok(DEFAULT_MAX_FRAME));
        let over = encode_frame(&vec![7; DEFAULT_MAX_FRAME + 1]);
        assert_eq!(
            unframe(&over),
            Err(FrameError::Oversized {
                declared: DEFAULT_MAX_FRAME + 1,
                max: DEFAULT_MAX_FRAME
            })
        );
    }

    #[test]
    fn appended_zero_bytes_change_the_sum() {
        for len in EDGE_LENGTHS {
            let mut data = patterned(len);
            let mut seen = vec![(checksum64(&data), checksum(&data))];
            for _ in 0..40 {
                data.push(0);
                let sums = (checksum64(&data), checksum(&data));
                assert!(
                    seen.iter().all(|s| s.0 != sums.0 && s.1 != sums.1),
                    "len {len} + zeros to {}",
                    data.len()
                );
                seen.push(sums);
            }
        }
    }

    /// The wire format, pinned: a change to the checksum's constants,
    /// word order, padding or folding shows up here, not in a peer that
    /// speaks the old one.
    #[test]
    fn checksum_and_frame_bytes_are_pinned() {
        assert_eq!(checksum64(b""), PINNED_EMPTY);
        assert_eq!(checksum64(b"DisCFS frame checksum"), PINNED_SHORT);
        assert_eq!(checksum64(&patterned(8192)), PINNED_BLOCK);
        let frame = encode_frame(b"DisCFS frame checksum");
        assert_eq!(frame[..4], 21u32.to_be_bytes());
        assert_eq!(
            frame[4..8],
            ((PINNED_SHORT ^ (PINNED_SHORT >> 32)) as u32).to_be_bytes()
        );
        assert_eq!(&frame[8..], b"DisCFS frame checksum");
    }
    const PINNED_EMPTY: u64 = 0xe0ae_6989_f1df_e520;
    const PINNED_SHORT: u64 = 0x848e_c1db_77c2_a43c;
    const PINNED_BLOCK: u64 = 0xa166_533c_bb89_6b3c;
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use discfs_crypto::rng::check::{check, Source};

    /// One to `most - 1` payloads of `bytes` bytes each.
    fn payloads(src: &mut Source, most: usize, bytes: std::ops::Range<usize>) -> Vec<Vec<u8>> {
        src.vec(1..most, |src| src.vec(bytes.clone(), |src| src.any::<u8>()))
    }

    /// Any payload sequence framed into one message round-trips
    /// exactly, and so does every prefix of the message that ends on a
    /// frame boundary, with the frames before that boundary; every
    /// other prefix is [`FrameError::Misframed`].
    #[test]
    fn framed_payloads_round_trip_and_every_cut_is_an_error() {
        check(
            "framed_payloads_round_trip_and_every_cut_is_an_error",
            64,
            |src| {
                let payloads = payloads(src, 12, 0..200);
                let mut msg = Vec::new();
                let mut boundaries = vec![0];
                for p in &payloads {
                    msg.extend_from_slice(&encode_frame(p));
                    boundaries.push(msg.len());
                }
                for keep in 0..=msg.len() {
                    let mut dec = FrameDecoder::new();
                    let fed = dec.feed(Bytes::copy_from_slice(&msg[..keep]));
                    match boundaries.iter().position(|&b| b == keep) {
                        Some(frames) => {
                            assert_eq!(fed, Ok(frames), "cut at {keep}");
                            let got: Vec<Vec<u8>> = std::iter::from_fn(|| dec.pop_frame())
                                .map(|b| b.to_vec())
                                .collect();
                            assert_eq!(got, payloads[..frames]);
                        }
                        None => assert_eq!(fed, Err(FrameError::Misframed), "cut at {keep}"),
                    }
                }
            },
        );
    }

    /// Flipping any single byte of a message never panics, and never
    /// yields more frames than were sent.
    #[test]
    fn single_byte_corruption_never_panics() {
        check("single_byte_corruption_never_panics", 64, |src| {
            let payloads = payloads(src, 6, 1..50);
            let mut msg: Vec<u8> = payloads.iter().flat_map(|p| encode_frame(p)).collect();
            let pos = src.range(0..msg.len());
            msg[pos] ^= 0x01;
            let mut dec = FrameDecoder::new();
            if let Ok(decoded) = dec.feed(msg.into()) {
                assert!(decoded <= payloads.len());
            }
        });
    }

    /// A declared length over the bound is rejected whatever follows
    /// the header.
    #[test]
    fn oversized_always_rejected() {
        check("oversized_always_rejected", 64, |src| {
            let (extra, tail) = (src.range(1usize..1000), src.range(0usize..16));
            let declared = DEFAULT_MAX_FRAME + extra;
            let mut msg = (declared as u32).to_be_bytes().to_vec();
            msg.resize(FRAME_HEADER + tail, 0);
            let mut dec = FrameDecoder::new();
            assert_eq!(
                dec.feed(msg.into()),
                Err(FrameError::Oversized {
                    declared,
                    max: DEFAULT_MAX_FRAME
                })
            );
            assert!(dec.pop_frame().is_none());
        });
    }
}
