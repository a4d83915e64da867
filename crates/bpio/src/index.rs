//! The footer index: where every chunk of every variable lives.
//!
//! The BP design principle reproduced here: writers only ever append, and
//! all metadata needed for reads — per-chunk byte ranges, shapes, offsets
//! in global space, and min/max characteristics — is collected in a footer
//! written last. A reader loads the footer once, then performs exactly the
//! byte-range reads it needs.

use crate::dtype::Dtype;
use crate::error::{BpError, Result};
use crate::util::{R, W};

/// One process group's location in the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PgEntry {
    pub(crate) writer_rank: u64,
    pub(crate) step: u64,
    /// Byte offset of the PG block in the file.
    pub(crate) offset: u64,
    pub(crate) length: u64,
}

/// One variable occurrence (one chunk) inside a process group.
#[derive(Debug, Clone, PartialEq)]
pub struct VarEntry {
    pub name: String,
    pub dtype: Dtype,
    pub step: u64,
    pub writer_rank: u64,
    /// Resolved extents of this chunk.
    pub local: Vec<u64>,
    /// Global extents ([] if not a global chunk).
    pub global: Vec<u64>,
    /// Offset of the chunk in global space ([] if not a global chunk).
    pub offset_in_global: Vec<u64>,
    /// Absolute byte offset of this chunk's payload in the file.
    pub file_offset: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// Per-chunk characteristics for query pruning.
    pub min: f64,
    pub max: f64,
}

/// Whether `[lo, lo + len)` lies inside `[0, bound)`, overflow included.
pub(crate) fn fits(lo: u64, len: u64, bound: u64) -> bool {
    lo.checked_add(len).is_some_and(|hi| hi <= bound)
}

impl VarEntry {
    /// Refuse an entry the reader could not serve as it stands: a payload
    /// outside the file's payload region (which ends at `payload_end`) or
    /// not `volume(local) × element size` long, or a global chunk whose
    /// ranks disagree or that pokes out of its global box. Every later
    /// read trusts these, so offsets and volumes need no further checks.
    pub(crate) fn check(&self, payload_end: u64) -> Result<()> {
        let volume = |d: &[u64]| d.iter().try_fold(1u64, |v, &e| v.checked_mul(e));
        let bytes = volume(&self.local).and_then(|n| n.checked_mul(self.dtype.size() as u64));
        if bytes != Some(self.payload_len) {
            return Err(BpError::Corrupt("index entry: payload is not its shape"));
        }
        if !fits(self.file_offset, self.payload_len, payload_end) {
            return Err(BpError::Corrupt("index entry: payload outside the file"));
        }
        let (global, local, offset) = (&self.global, &self.local, &self.offset_in_global);
        let inside = global.is_empty()
            || local.len() == global.len()
                && offset.len() == global.len()
                && volume(global).is_some()
                && (0..global.len()).all(|d| fits(offset[d], local[d], global[d]));
        if !inside {
            return Err(BpError::Corrupt("index entry: chunk outside its global"));
        }
        Ok(())
    }
}

/// Complete footer index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileIndex {
    pub pgs: Vec<PgEntry>,
    pub vars: Vec<VarEntry>,
    /// File-level metadata annotations ("the metadata annotation \[that\]
    /// speed\[s\] up subsequent data access"): free-form name → value
    /// strings recorded by whoever prepared the data (e.g. `sorted_by`,
    /// `layout`, `prepared_by`).
    pub attrs: Vec<(String, String)>,
}

impl FileIndex {
    /// All steps present, sorted and deduplicated.
    pub fn steps(&self) -> Vec<u64> {
        let mut s: Vec<u64> = self.pgs.iter().map(|p| p.step).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Distinct variable names, in first-appearance order.
    pub fn var_names(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for v in &self.vars {
            if !seen.contains(&v.name.as_str()) {
                seen.push(v.name.as_str());
            }
        }
        seen
    }

    /// Chunks of `var` at `step`, in file order.
    pub fn chunks_of(&self, var: &str, step: u64) -> Vec<&VarEntry> {
        self.vars
            .iter()
            .filter(|v| v.name == var && v.step == step)
            .collect()
    }

    /// Look up a file-level annotation.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new();
        w.u32(self.attrs.len() as u32);
        for (n, v) in &self.attrs {
            w.s(n);
            w.s(v);
        }
        w.u32(self.pgs.len() as u32);
        for p in &self.pgs {
            w.u64(p.writer_rank);
            w.u64(p.step);
            w.u64(p.offset);
            w.u64(p.length);
        }
        w.u32(self.vars.len() as u32);
        for v in &self.vars {
            w.s(&v.name);
            w.u8(v.dtype.tag());
            w.u64(v.step);
            w.u64(v.writer_rank);
            w.dims(&v.local);
            w.dims(&v.global);
            w.dims(&v.offset_in_global);
            w.u64(v.file_offset);
            w.u64(v.payload_len);
            w.f64(v.min);
            w.f64(v.max);
        }
        w.0
    }

    pub fn decode(buf: &[u8]) -> Result<FileIndex> {
        let mut r = R::new(buf);
        // Each count is bounded by its smallest entry: two empty strings;
        // four words; an empty name, a tag, six words and three empty
        // dimension lists.
        let na = r.count(4 + 4)?;
        let mut attrs = Vec::with_capacity(na);
        for _ in 0..na {
            let n = r.s()?;
            let v = r.s()?;
            attrs.push((n, v));
        }
        let npg = r.count(4 * 8)?;
        let mut pgs = Vec::with_capacity(npg);
        for _ in 0..npg {
            pgs.push(PgEntry {
                writer_rank: r.u64()?,
                step: r.u64()?,
                offset: r.u64()?,
                length: r.u64()?,
            });
        }
        let nv = r.count(4 + 1 + 6 * 8 + 3)?;
        let mut vars = Vec::with_capacity(nv);
        for _ in 0..nv {
            vars.push(VarEntry {
                name: r.s()?,
                dtype: Dtype::from_tag(r.u8()?).ok_or(BpError::Corrupt("bad dtype in index"))?,
                step: r.u64()?,
                writer_rank: r.u64()?,
                local: r.dims()?,
                global: r.dims()?,
                offset_in_global: r.dims()?,
                file_offset: r.u64()?,
                payload_len: r.u64()?,
                min: r.f64()?,
                max: r.f64()?,
            });
        }
        Ok(FileIndex { pgs, vars, attrs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FileIndex {
        FileIndex {
            attrs: vec![("sorted_by".into(), "label".into())],
            pgs: vec![
                PgEntry {
                    writer_rank: 0,
                    step: 0,
                    offset: 0,
                    length: 100,
                },
                PgEntry {
                    writer_rank: 1,
                    step: 0,
                    offset: 100,
                    length: 80,
                },
                PgEntry {
                    writer_rank: 0,
                    step: 1,
                    offset: 180,
                    length: 100,
                },
            ],
            vars: vec![
                VarEntry {
                    name: "rho".into(),
                    dtype: Dtype::F64,
                    step: 0,
                    writer_rank: 0,
                    local: vec![2, 2],
                    global: vec![4, 4],
                    offset_in_global: vec![0, 0],
                    file_offset: 20,
                    payload_len: 32,
                    min: -1.0,
                    max: 2.0,
                },
                VarEntry {
                    name: "rho".into(),
                    dtype: Dtype::F64,
                    step: 1,
                    writer_rank: 0,
                    local: vec![2, 2],
                    global: vec![4, 4],
                    offset_in_global: vec![2, 2],
                    file_offset: 200,
                    payload_len: 32,
                    min: 0.0,
                    max: 5.0,
                },
            ],
        }
    }

    #[test]
    fn queries() {
        let idx = sample();
        assert_eq!(idx.steps(), vec![0, 1]);
        assert_eq!(idx.var_names(), vec!["rho"]);
        assert_eq!(idx.chunks_of("rho", 0).len(), 1);
        assert_eq!(idx.chunks_of("rho", 7).len(), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let idx = sample();
        let buf = idx.encode();
        let back = FileIndex::decode(&buf).unwrap();
        assert_eq!(back, idx);
        assert_eq!(back.attr("sorted_by"), Some("label"));
        assert_eq!(back.attr("absent"), None);
    }

    #[test]
    fn decode_truncation_fails_cleanly() {
        let buf = sample().encode();
        assert!(FileIndex::decode(&buf[..buf.len() - 3]).is_err());
        assert!(FileIndex::decode(&[]).is_err());
    }
}
