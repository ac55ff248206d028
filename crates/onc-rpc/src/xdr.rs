//! XDR: External Data Representation (RFC 4506).
//!
//! All quantities are big-endian and all items are padded to four-byte
//! alignment — the properties NFS clients and servers rely on for
//! interoperability.

use bytes::{Buf, BufMut};

/// Errors from decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XdrError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A length prefix exceeded the sanity limit or remaining bytes.
    BadLength,
    /// A boolean was neither 0 nor 1, or an enum value was unknown.
    BadValue,
    /// A string was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for XdrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XdrError::Truncated => write!(f, "XDR data truncated"),
            XdrError::BadLength => write!(f, "XDR length out of range"),
            XdrError::BadValue => write!(f, "XDR invalid discriminant"),
            XdrError::BadUtf8 => write!(f, "XDR string not UTF-8"),
        }
    }
}

impl std::error::Error for XdrError {}

/// Serializes XDR items into a growable buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Finishes encoding and returns the buffer the bytes were
    /// encoded into (no copy).
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Encodes an unsigned 32-bit integer.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32(v);
        self
    }

    /// Encodes an unsigned 64-bit integer (XDR unsigned hyper).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64(v);
        self
    }

    /// Encodes a signed 64-bit integer (XDR hyper).
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.put_i64(v);
        self
    }

    /// Encodes a boolean (0/1).
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.buf.put_u32(v as u32);
        self
    }

    /// Encodes fixed-length opaque data (padded to 4 bytes).
    pub fn put_opaque_fixed(&mut self, data: &[u8]) -> &mut Self {
        self.buf.put_slice(data);
        self.pad(data.len());
        self
    }

    /// Encodes variable-length opaque data (length prefix + padding).
    pub fn put_opaque(&mut self, data: &[u8]) -> &mut Self {
        self.buf.put_u32(data.len() as u32);
        self.put_opaque_fixed(data)
    }

    /// Encodes a string (same wire form as variable opaque).
    pub fn put_string(&mut self, s: &str) -> &mut Self {
        self.put_opaque(s.as_bytes())
    }

    fn pad(&mut self, len: usize) {
        let rem = len % 4;
        if rem != 0 {
            for _ in 0..(4 - rem) {
                self.buf.put_u8(0);
            }
        }
    }
}

/// Sanity cap for decoded lengths: nothing in NFSv2 exceeds this.
const MAX_LEN: usize = 1 << 24;

/// Deserializes XDR items from a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `data`.
    pub fn new(data: &'a [u8]) -> Decoder<'a> {
        Decoder { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.remaining() < n {
            return Err(XdrError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Decodes an unsigned 32-bit integer.
    pub fn get_u32(&mut self) -> Result<u32, XdrError> {
        let mut s = self.take(4)?;
        Ok(s.get_u32())
    }

    /// Decodes an unsigned 64-bit integer.
    pub fn get_u64(&mut self) -> Result<u64, XdrError> {
        let mut s = self.take(8)?;
        Ok(s.get_u64())
    }

    /// Decodes a signed 64-bit integer.
    pub fn get_i64(&mut self) -> Result<i64, XdrError> {
        let mut s = self.take(8)?;
        Ok(s.get_i64())
    }

    /// Decodes a boolean, rejecting values other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(XdrError::BadValue),
        }
    }

    /// Decodes fixed-length opaque data (consuming padding), borrowed
    /// from the buffer: a block payload stays a slice of its message.
    pub fn get_opaque_fixed(&mut self, len: usize) -> Result<&'a [u8], XdrError> {
        if len > MAX_LEN {
            return Err(XdrError::BadLength);
        }
        let data = self.take(len)?;
        let rem = len % 4;
        if rem != 0 {
            self.take(4 - rem)?;
        }
        Ok(data)
    }

    /// Decodes variable-length opaque data (consuming padding),
    /// borrowed from the buffer like [`Decoder::get_opaque_fixed`]: a
    /// WRITE's payload reaches the service as a slice of its request
    /// message. A caller that keeps the bytes copies them.
    pub fn get_opaque(&mut self) -> Result<&'a [u8], XdrError> {
        let len = self.get_u32()? as usize;
        if len > MAX_LEN || len > self.remaining() {
            return Err(XdrError::BadLength);
        }
        self.get_opaque_fixed(len)
    }

    /// Decodes a string (UTF-8 validated) into an owned copy.
    pub fn get_string(&mut self) -> Result<String, XdrError> {
        std::str::from_utf8(self.get_opaque()?)
            .map(str::to_owned)
            .map_err(|_| XdrError::BadUtf8)
    }

    /// Decodes an XDR optional: `f` runs only when the marker is true.
    pub fn get_option<T, F: FnOnce(&mut Self) -> Result<T, XdrError>>(
        &mut self,
        f: F,
    ) -> Result<Option<T>, XdrError> {
        if self.get_bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_round_trips() {
        let mut e = Encoder::new();
        e.put_u32(0xdeadbeef)
            .put_u64(0x0123456789abcdef)
            .put_i64(i64::MIN)
            .put_bool(true);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u32().unwrap(), 0xdeadbeef);
        assert_eq!(d.get_u64().unwrap(), 0x0123456789abcdef);
        assert_eq!(d.get_i64().unwrap(), i64::MIN);
        assert!(d.get_bool().unwrap());
        assert!(d.is_exhausted());
    }

    #[test]
    fn big_endian_on_the_wire() {
        let mut e = Encoder::new();
        e.put_u32(1);
        assert_eq!(e.finish(), vec![0, 0, 0, 1]);
    }

    #[test]
    fn opaque_padding() {
        let mut e = Encoder::new();
        e.put_opaque(b"abcde");
        let bytes = e.finish();
        // 4 length + 5 data + 3 pad.
        assert_eq!(bytes.len(), 12);
        assert_eq!(&bytes[..4], &[0, 0, 0, 5]);
        assert_eq!(&bytes[9..], &[0, 0, 0]);
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_opaque().unwrap(), b"abcde");
        assert!(d.is_exhausted());
    }

    #[test]
    fn opaque_is_borrowed_from_the_message() {
        let mut e = Encoder::new();
        e.put_opaque(b"payload").put_u32(9);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let data = d.get_opaque().unwrap();
        assert_eq!(data, b"payload");
        // The slice points into the message, just past the length word.
        assert_eq!(data.as_ptr(), bytes[4..].as_ptr());
        assert_eq!(d.get_u32().unwrap(), 9);
        assert!(d.is_exhausted());
    }

    #[test]
    fn finish_returns_the_encoding_buffer() {
        let mut e = Encoder::new();
        e.put_u32(1);
        let at = e.buf.as_slice().as_ptr();
        let bytes = e.finish();
        assert_eq!(bytes.as_ptr(), at);
    }

    #[test]
    fn aligned_opaque_has_no_padding() {
        let mut e = Encoder::new();
        e.put_opaque(b"abcd");
        assert_eq!(e.finish().len(), 8);
    }

    #[test]
    fn string_round_trip() {
        let mut e = Encoder::new();
        e.put_string("héllo");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_string().unwrap(), "héllo");
    }

    #[test]
    fn option_round_trip() {
        // `*pointer` on the wire: a bool, then the item when it is true.
        let mut e = Encoder::new();
        e.put_bool(true).put_u32(7).put_bool(false);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_option(|d| d.get_u32()).unwrap(), Some(7));
        assert_eq!(d.get_option(|d| d.get_u32()).unwrap(), None);
        assert!(d.is_exhausted());
    }

    #[test]
    fn truncation_detected() {
        let mut d = Decoder::new(&[0, 0]);
        assert_eq!(d.get_u32(), Err(XdrError::Truncated));
    }

    #[test]
    fn oversized_length_rejected() {
        // Claims 2^31 bytes follow.
        let mut d = Decoder::new(&[0x80, 0, 0, 0, 1, 2, 3, 4]);
        assert_eq!(d.get_opaque(), Err(XdrError::BadLength));
    }

    #[test]
    fn length_longer_than_buffer_rejected() {
        let mut d = Decoder::new(&[0, 0, 0, 10, 1, 2]);
        assert_eq!(d.get_opaque(), Err(XdrError::BadLength));
    }

    #[test]
    fn bad_bool_rejected() {
        let mut d = Decoder::new(&[0, 0, 0, 2]);
        assert_eq!(d.get_bool(), Err(XdrError::BadValue));
    }

    #[test]
    fn invalid_utf8_string_rejected() {
        let mut e = Encoder::new();
        e.put_opaque(&[0xff, 0xfe]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_string(), Err(XdrError::BadUtf8));
    }

    #[test]
    fn fixed_opaque_round_trip() {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&[1, 2, 3, 4, 5, 6, 7]);
        let bytes = e.finish();
        assert_eq!(bytes.len(), 8); // 7 + 1 pad
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_opaque_fixed(7).unwrap(), [1, 2, 3, 4, 5, 6, 7]);
        assert!(d.is_exhausted());
    }
}
