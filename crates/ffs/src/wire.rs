//! Low-level little-endian wire primitives shared by encode and decode.

use crate::error::{FfsError, Result};

/// Append-only writer onto the end of a caller's byte vector.
pub(crate) struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    pub(crate) fn new(buf: &'a mut Vec<u8>) -> Self {
        Writer { buf }
    }

    /// The vector written so far (whatever it held before included).
    pub(crate) fn buf(&mut self) -> &mut Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed (u16) short string: a format, field or attribute
    /// name, whose length `FormatDesc::from_parts` or the attribute
    /// list's 64 KiB budget has bounded.
    pub(crate) fn str16(&mut self, s: &str) {
        self.u16(s.len() as u16);
        self.bytes(s.as_bytes());
    }

    /// Length-prefixed (u32) long string.
    pub(crate) fn str32(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

/// Cursor-based reader over a byte slice.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(FfsError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u16(&mut self, what: &'static str) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self, what: &'static str) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub(crate) fn str16(&mut self, what: &'static str) -> Result<String> {
        let n = self.u16(what)? as usize;
        let raw = self.take(n, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| FfsError::Corrupt("non-utf8 name"))
    }

    pub(crate) fn str32(&mut self, what: &'static str) -> Result<String> {
        let n = self.u32(what)? as usize;
        let raw = self.take(n, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| FfsError::Corrupt("non-utf8 string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.f64(-2.25);
        w.str16("hello");
        w.str32("world");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("t").unwrap(), 7);
        assert_eq!(r.u16("t").unwrap(), 300);
        assert_eq!(r.u32("t").unwrap(), 70_000);
        assert_eq!(r.u64("t").unwrap(), 1 << 40);
        assert_eq!(r.f64("t").unwrap(), -2.25);
        assert_eq!(r.str16("t").unwrap(), "hello");
        assert_eq!(r.str32("t").unwrap(), "world");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_reported() {
        let buf = [1u8, 2];
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.u32("header"),
            Err(FfsError::Truncated("header"))
        ));
    }

    #[test]
    fn non_utf8_name_rejected() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u16(2);
        w.bytes(&[0xff, 0xfe]);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.str16("name"), Err(FfsError::Corrupt(_))));
    }
}
