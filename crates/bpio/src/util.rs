//! Little-endian wire helpers (private to this crate).

use crate::error::{BpError, Result};

pub(crate) struct W(pub(crate) Vec<u8>);

impl W {
    pub(crate) fn new() -> Self {
        W(Vec::new())
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn s(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    pub(crate) fn dims(&mut self, d: &[u64]) {
        self.u8(d.len() as u8);
        for &x in d {
            self.u64(x);
        }
    }
}

pub(crate) struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        R { buf, pos: 0 }
    }
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(BpError::Corrupt("truncated block"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn s(&mut self) -> Result<String> {
        let mut s = String::new();
        self.s_into(&mut s)?;
        Ok(s)
    }
    /// [`R::s`] into `out`, whose capacity is kept. `out` is left as it
    /// was on error.
    pub(crate) fn s_into(&mut self, out: &mut String) -> Result<()> {
        let n = self.u32()? as usize;
        let s =
            std::str::from_utf8(self.take(n)?).map_err(|_| BpError::Corrupt("non-utf8 string"))?;
        out.clear();
        out.push_str(s);
        Ok(())
    }
    pub(crate) fn dims(&mut self) -> Result<Vec<u64>> {
        let mut d = Vec::new();
        self.dims_into(&mut d)?;
        Ok(d)
    }
    /// [`R::dims`] into `out`, whose capacity is kept. `out` is left as
    /// it was on error.
    pub(crate) fn dims_into(&mut self, out: &mut Vec<u64>) -> Result<()> {
        let n = self.u8()? as usize;
        let words = self.take(8 * n)?;
        out.clear();
        out.extend(
            words
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes"))),
        );
        Ok(())
    }
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// An entry count off the wire, refused unless the bytes left could
    /// hold that many entries of `min_entry` bytes each — so a caller may
    /// allocate for it.
    pub(crate) fn count(&mut self, min_entry: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_entry {
            return Err(BpError::Corrupt("entry count exceeds block"));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut w = W::new();
        w.u8(3);
        w.u32(1000);
        w.u64(1 << 50);
        w.f64(-1.25);
        w.s("rho");
        w.dims(&[32, 32, 32]);
        let mut r = R::new(&w.0);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(r.u32().unwrap(), 1000);
        assert_eq!(r.u64().unwrap(), 1 << 50);
        assert_eq!(r.f64().unwrap(), -1.25);
        assert_eq!(r.s().unwrap(), "rho");
        assert_eq!(r.dims().unwrap(), vec![32, 32, 32]);
        assert_eq!(r.remaining(), 0);
    }
}
