//! Incremental message framing for pipelined RPC streams.
//!
//! The request engine batches many RPC messages into one transport send
//! (one ESP seal per batch instead of one per request), so the byte
//! stream needs its own framing.
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
//! The [`FrameDecoder`] consumes transport messages *incrementally*: a
//! frame may span several messages and one message may carry many
//! frames. When a whole message holds only complete frames (the
//! engine's common case), payloads are zero-copy [`Bytes`] slices of
//! the message buffer; only partial frames that straddle message
//! boundaries are copied into a reassembly buffer.
//!
//! A transport that delivers every message whole, one frame to a
//! message — the block protocol over `netsim` links — needs no
//! reassembly: [`unframe`] checks such a message and borrows its
//! payload in place, with no copy, under the same
//! [`DEFAULT_MAX_FRAME`] bound.
//!
//! The decoder is deliberately paranoid — it fronts the readiness loop,
//! the part of the server most exposed to malformed input. A declared
//! length beyond the decoder's bound or a checksum mismatch is a hard
//! [`FrameError`]; the caller drops the connection. A merely truncated
//! stream is not an error — the bytes may still be in flight — so
//! truncation simply leaves the partial frame buffered.
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

use bytes::Bytes;

/// Bytes of framing overhead per frame (length + checksum words).
pub const FRAME_HEADER: usize = 8;

/// Default per-frame payload bound (1 MiB: far above the largest NFS
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

/// Errors that condemn the connection feeding the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A frame header declared a payload larger than the decoder's bound.
    Oversized {
        /// The declared payload length.
        declared: usize,
        /// The decoder's configured maximum.
        max: usize,
    },
    /// The payload checksum did not match the header.
    Checksum,
    /// A message handed to [`unframe`] was not exactly one frame.
    Misframed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} bytes (max {max})")
            }
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
            FrameError::Misframed => write!(f, "message is not exactly one frame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends a framed copy of `payload` to `buf`.
pub fn encode_frame_into(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&checksum(payload).to_be_bytes());
    buf.extend_from_slice(payload);
}

/// Frames `payload` into a fresh buffer.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    encode_frame_into(&mut buf, payload);
    buf
}

/// The payload of `msg`, borrowed, when `msg` is exactly one whole
/// frame of at most [`DEFAULT_MAX_FRAME`] payload bytes: its length
/// word counts every byte after the header and its checksum holds.
///
/// # Errors
///
/// [`FrameError::Misframed`] on a message shorter than a header, or
/// holding less or more than one frame; [`FrameError::Oversized`] on a
/// payload over the bound, before its checksum is computed;
/// [`FrameError::Checksum`] on a checksum mismatch.
pub fn unframe(msg: &[u8]) -> Result<&[u8], FrameError> {
    let (header, payload) = msg
        .split_first_chunk::<FRAME_HEADER>()
        .ok_or(FrameError::Misframed)?;
    if read_u32(header) as usize != payload.len() {
        return Err(FrameError::Misframed);
    }
    if payload.len() > DEFAULT_MAX_FRAME {
        return Err(FrameError::Oversized {
            declared: payload.len(),
            max: DEFAULT_MAX_FRAME,
        });
    }
    if checksum(payload) != read_u32(&header[4..]) {
        return Err(FrameError::Checksum);
    }
    Ok(payload)
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

/// Incremental decoder reassembling frames from a message stream.
pub struct FrameDecoder {
    /// Leftover bytes of a frame straddling message boundaries.
    partial: Vec<u8>,
    /// Decoded payloads awaiting [`FrameDecoder::pop_frame`].
    ready: VecDeque<Bytes>,
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> FrameDecoder {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// A decoder with the [`DEFAULT_MAX_FRAME`] payload bound.
    pub fn new() -> FrameDecoder {
        FrameDecoder::with_max_frame(DEFAULT_MAX_FRAME)
    }

    /// A decoder rejecting payloads larger than `max_frame`.
    fn with_max_frame(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            partial: Vec::new(),
            ready: VecDeque::new(),
            max_frame,
        }
    }

    /// Consumes one transport message, returning how many complete
    /// frames it yielded.
    ///
    /// # Errors
    ///
    /// [`FrameError`] on an oversized declared length or a checksum
    /// mismatch. After an error the decoder is poisoned garbage — the
    /// caller is expected to drop the connection, not resynchronize.
    pub fn feed(&mut self, data: Bytes) -> Result<usize, FrameError> {
        if self.partial.is_empty() {
            self.feed_zero_copy(data)
        } else {
            self.partial.extend_from_slice(&data);
            self.drain_partial()
        }
    }

    /// Pops the next decoded payload, oldest first.
    pub fn pop_frame(&mut self) -> Option<Bytes> {
        self.ready.pop_front()
    }

    /// Whether an incomplete frame is buffered.
    pub fn has_partial(&self) -> bool {
        !self.partial.is_empty()
    }

    /// Walks a message with no prior leftover: complete frames become
    /// zero-copy slices, the trailing fragment (if any) is copied.
    fn feed_zero_copy(&mut self, data: Bytes) -> Result<usize, FrameError> {
        let mut offset = 0;
        let mut decoded = 0;
        loop {
            match self.parse_at(&data, offset)? {
                Some((payload_start, payload_len)) => {
                    self.ready
                        .push_back(data.slice(payload_start..payload_start + payload_len));
                    offset = payload_start + payload_len;
                    decoded += 1;
                }
                None => {
                    if offset < data.len() {
                        self.partial.extend_from_slice(&data[offset..]);
                    }
                    return Ok(decoded);
                }
            }
        }
    }

    /// Re-parses the reassembly buffer after appending new bytes.
    fn drain_partial(&mut self) -> Result<usize, FrameError> {
        let mut offset = 0;
        let mut decoded = 0;
        loop {
            let header = match self.check_header(&self.partial[offset..]) {
                Ok(h) => h,
                Err(e) => {
                    // Keep `partial` consistent even on error paths.
                    self.partial.drain(..offset);
                    return Err(e);
                }
            };
            match header {
                Some(len) if self.partial.len() - offset - FRAME_HEADER >= len => {
                    let start = offset + FRAME_HEADER;
                    let payload = &self.partial[start..start + len];
                    if checksum(payload) != read_u32(&self.partial[offset + 4..]) {
                        self.partial.drain(..offset);
                        return Err(FrameError::Checksum);
                    }
                    self.ready.push_back(Bytes::copy_from_slice(payload));
                    offset = start + len;
                    decoded += 1;
                }
                _ => {
                    self.partial.drain(..offset);
                    return Ok(decoded);
                }
            }
        }
    }

    /// Parses one frame header at `offset`, returning the payload bounds
    /// when the whole frame (header + payload) is present, `None` when
    /// more bytes are needed.
    fn parse_at(&self, data: &[u8], offset: usize) -> Result<Option<(usize, usize)>, FrameError> {
        match self.check_header(&data[offset..])? {
            Some(len) if data.len() - offset - FRAME_HEADER >= len => {
                let start = offset + FRAME_HEADER;
                if checksum(&data[start..start + len]) != read_u32(&data[offset + 4..]) {
                    return Err(FrameError::Checksum);
                }
                Ok(Some((start, len)))
            }
            _ => Ok(None),
        }
    }

    /// Validates a header prefix: `Some(payload_len)` when the 8 header
    /// bytes are present and the declared length is within bounds.
    fn check_header(&self, data: &[u8]) -> Result<Option<usize>, FrameError> {
        if data.len() < FRAME_HEADER {
            return Ok(None);
        }
        let declared = read_u32(data) as usize;
        if declared > self.max_frame {
            return Err(FrameError::Oversized {
                declared,
                max: self.max_frame,
            });
        }
        Ok(Some(declared))
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

    #[test]
    fn single_frame_round_trip() {
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(encode_frame(b"hello").into()).unwrap(), 1);
        assert_eq!(decode_all(&mut dec), vec![b"hello".to_vec()]);
        assert!(!dec.has_partial());
    }

    #[test]
    fn many_frames_in_one_message_are_zero_copy_slices() {
        let mut buf = Vec::new();
        for i in 0..10u8 {
            encode_frame_into(&mut buf, &[i; 5]);
        }
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(buf.into()).unwrap(), 10);
        for i in 0..10u8 {
            assert_eq!(dec.pop_frame().unwrap(), [i; 5][..]);
        }
        assert!(dec.pop_frame().is_none());
    }

    #[test]
    fn frame_split_across_many_messages() {
        let frame = encode_frame(&[7u8; 100]);
        let mut dec = FrameDecoder::new();
        for chunk in frame.chunks(3) {
            dec.feed(Bytes::copy_from_slice(chunk)).unwrap();
        }
        assert_eq!(decode_all(&mut dec), vec![vec![7u8; 100]]);
        assert!(!dec.has_partial());
    }

    #[test]
    fn empty_payload_frames() {
        let mut dec = FrameDecoder::new();
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, b"");
        encode_frame_into(&mut buf, b"x");
        encode_frame_into(&mut buf, b"");
        assert_eq!(dec.feed(buf.into()).unwrap(), 3);
        assert_eq!(decode_all(&mut dec), vec![vec![], b"x".to_vec(), vec![]]);
    }

    #[test]
    fn oversized_length_rejected() {
        let mut dec = FrameDecoder::with_max_frame(64);
        let mut buf = (65u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 4]);
        assert_eq!(
            dec.feed(buf.into()),
            Err(FrameError::Oversized {
                declared: 65,
                max: 64
            })
        );
    }

    #[test]
    fn corrupt_checksum_rejected_on_both_paths() {
        let mut frame = encode_frame(b"payload");
        *frame.last_mut().unwrap() ^= 0xff;
        // Whole-message (zero-copy) path.
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(frame.clone().into()), Err(FrameError::Checksum));
        // Reassembly path.
        let mut dec = FrameDecoder::new();
        dec.feed(Bytes::copy_from_slice(&frame[..4])).unwrap();
        assert_eq!(
            dec.feed(Bytes::copy_from_slice(&frame[4..])),
            Err(FrameError::Checksum)
        );
    }

    #[test]
    fn truncation_is_not_an_error() {
        let frame = encode_frame(b"partial");
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(Bytes::copy_from_slice(&frame[..6])).unwrap(), 0);
        assert!(dec.has_partial());
        assert!(dec.pop_frame().is_none());
    }

    #[test]
    fn begin_end_frame_matches_encode_frame() {
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf);
        buf.extend_from_slice(b"abcdef");
        end_frame(&mut buf, start);
        assert_eq!(buf, encode_frame(b"abcdef"));
    }

    #[test]
    fn interleaved_partial_then_complete_frames() {
        // Message 1: one complete frame + half of the next; message 2:
        // the other half + a third frame.
        let f1 = encode_frame(b"first");
        let f2 = encode_frame(b"second-longer-payload");
        let f3 = encode_frame(b"third");
        let mut m1 = f1.clone();
        m1.extend_from_slice(&f2[..10]);
        let mut m2 = f2[10..].to_vec();
        m2.extend_from_slice(&f3);
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.feed(m1.into()).unwrap(), 1);
        assert_eq!(dec.feed(m2.into()).unwrap(), 2);
        assert_eq!(
            decode_all(&mut dec),
            vec![
                b"first".to_vec(),
                b"second-longer-payload".to_vec(),
                b"third".to_vec()
            ]
        );
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
                let fed = dec.feed(bad.into());
                // A flip in the length word can also read as "more bytes
                // to come"; what it may never do is deliver a payload.
                assert!(
                    fed.is_err() || (fed == Ok(0) && dec.pop_frame().is_none()),
                    "len {len}: flip of bit {bit} delivered a frame"
                );
            }
        }
    }

    #[test]
    fn every_truncation_of_a_frame_delivers_nothing() {
        for len in EDGE_LENGTHS {
            let frame = encode_frame(&patterned(len));
            for keep in 0..frame.len() {
                assert!(unframe(&frame[..keep]).is_err(), "len {len} cut to {keep}");
                let mut dec = FrameDecoder::new();
                assert_eq!(
                    dec.feed(Bytes::copy_from_slice(&frame[..keep])),
                    Ok(0),
                    "len {len} cut to {keep}"
                );
                assert!(dec.pop_frame().is_none());
                assert_eq!(dec.has_partial(), keep > 0);
            }
        }
    }

    #[test]
    fn unframe_takes_exactly_one_frame() {
        let frame = encode_frame(b"one call");
        assert_eq!(unframe(&frame), Ok(&b"one call"[..]));
        let mut two = frame.clone();
        encode_frame_into(&mut two, b"");
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

    /// Any payload sequence, split at arbitrary message boundaries,
    /// reassembles to exactly the original payloads in order.
    #[test]
    fn arbitrary_splits_reassemble_exactly() {
        check("arbitrary_splits_reassemble_exactly", 64, |src| {
            let payloads = payloads(src, 12, 0..200);
            let cut = src.range(1usize..64);
            let mut stream = Vec::new();
            for p in &payloads {
                encode_frame_into(&mut stream, p);
            }
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for chunk in stream.chunks(cut) {
                dec.feed(Bytes::copy_from_slice(chunk)).unwrap();
                while let Some(frame) = dec.pop_frame() {
                    got.push(frame.to_vec());
                }
            }
            assert_eq!(got, payloads);
            assert!(!dec.has_partial());
        });
    }

    /// Flipping any single byte of the stream never panics or hangs:
    /// the decoder either errors, or yields a (possibly shorter)
    /// prefix of intact frames — it must not fabricate payloads that
    /// were never sent, except within the flipped frame itself.
    #[test]
    fn single_byte_corruption_never_panics() {
        check("single_byte_corruption_never_panics", 64, |src| {
            let payloads = payloads(src, 6, 1..50);
            let mut stream = Vec::new();
            for p in &payloads {
                encode_frame_into(&mut stream, p);
            }
            let pos = src.range(0..stream.len());
            let cut = src.range(1usize..32);
            stream[pos] ^= 0x01;
            let mut dec = FrameDecoder::new();
            let mut decoded = 0usize;
            let mut failed = false;
            for chunk in stream.chunks(cut) {
                match dec.feed(Bytes::copy_from_slice(chunk)) {
                    Ok(n) => decoded += n,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            // A corrupted stream may still parse (the flip can land in a
            // payload whose checksum we also flipped past — impossible
            // for a 1-bit flip, or desync into plausible frames), but it
            // must never yield more frames than were sent.
            assert!(decoded <= payloads.len());
            assert!(failed || decoded <= payloads.len());
        });
    }

    /// Oversized declared lengths are rejected no matter how the
    /// stream is sliced.
    #[test]
    fn oversized_always_rejected() {
        check("oversized_always_rejected", 64, |src| {
            let (extra, cut) = (src.range(1u32..1000), src.range(1usize..8));
            let max = 128usize;
            let declared = max as u32 + extra;
            let mut stream = declared.to_be_bytes().to_vec();
            stream.extend_from_slice(&[0u8; 12]);
            let mut dec = FrameDecoder::with_max_frame(max);
            let mut rejected = false;
            for chunk in stream.chunks(cut) {
                if dec.feed(Bytes::copy_from_slice(chunk)).is_err() {
                    rejected = true;
                    break;
                }
            }
            assert!(rejected);
            assert!(dec.pop_frame().is_none());
        });
    }
}
