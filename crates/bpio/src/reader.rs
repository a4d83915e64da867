//! Footer-driven reads with I/O-plan instrumentation.
//!
//! The reader materializes a read *plan* — the minimal set of contiguous
//! byte ranges needed — executes it, and converts each range into its
//! place in the result; one planner serves a single file and a
//! [`crate::BpFileSet`] alike.
//! [`ReadStats`] reports the plan's cost (read ops, seeks, bytes): the
//! quantity Fig. 11 of the paper compares between merged and unmerged
//! layouts. On a merged file a whole-array read collapses to one large
//! contiguous read; on an unmerged 4096-writer file it is thousands of
//! scattered small reads.

use std::fs::File;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::array::{linear_len, BoxRuns, DataArray};
use crate::error::{BpError, Result};
use crate::index::{fits, FileIndex, VarEntry};
use crate::FILE_MAGIC;

/// Cost of reads performed since the last [`BpReader::take_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Read operations issued (after coalescing adjacent ranges).
    pub reads: u64,
    /// Read operations that were not contiguous with the previous one —
    /// disk seeks on rotating storage, request round-trips on Lustre.
    pub seeks: u64,
    /// Payload bytes transferred.
    pub bytes: u64,
}

/// Reader over one BP-like file.
pub struct BpReader {
    file: File,
    index: FileIndex,
    stats: ReadStats,
    last_end: Option<u64>,
}

impl BpReader {
    /// Open and load the footer index. Refuses a file whose index does
    /// not describe it: an entry whose payload lies outside the payload
    /// region or is not `volume(local) × element size` long, a chunk
    /// that pokes out of its global box, or entries whose payloads add up
    /// to more than the payload region. No writer puts two chunks on one
    /// payload, so that bounds every read by the file's payload bytes.
    pub fn open(path: impl AsRef<Path>) -> Result<BpReader> {
        let file = File::open(path)?;
        let flen = file.metadata()?.len();
        if flen < 12 {
            return Err(BpError::Corrupt("file too small for footer"));
        }
        let mut tail = [0u8; 12];
        file.read_exact_at(&mut tail, flen - 12)?;
        if tail[8..] != FILE_MAGIC {
            return Err(BpError::Corrupt("missing BP magic"));
        }
        let idx_len = u64::from_le_bytes(tail[..8].try_into().unwrap());
        // `[PG blocks…][index][index_len][magic]`: the payload region ends
        // where the index starts.
        let payload_end = (flen - 12)
            .checked_sub(idx_len)
            .ok_or(BpError::Corrupt("index length exceeds file"))?;
        let mut idx_buf = vec![0u8; idx_len as usize];
        file.read_exact_at(&mut idx_buf, payload_end)?;
        let index = FileIndex::decode(&idx_buf)?;
        index.vars.iter().try_for_each(|v| v.check(payload_end))?;
        let mut payloads = index.vars.iter().map(|v| v.payload_len);
        let total = payloads.try_fold(0u64, u64::checked_add);
        if total.is_none_or(|sum| sum > payload_end) {
            return Err(BpError::Corrupt("index: payloads exceed the file"));
        }
        Ok(BpReader {
            file,
            index,
            stats: ReadStats::default(),
            last_end: None,
        })
    }

    pub fn index(&self) -> &FileIndex {
        &self.index
    }

    /// Stats accumulated since construction or the last take.
    pub fn take_stats(&mut self) -> ReadStats {
        self.last_end = None;
        std::mem::take(&mut self.stats)
    }

    /// Read one writer's scalar or local-array payload in full.
    pub fn read_local(&mut self, var: &str, step: u64, writer_rank: u64) -> Result<DataArray> {
        let e = self
            .index
            .vars
            .iter()
            .find(|v| v.name == var && v.step == step && v.writer_rank == writer_rank)
            .ok_or_else(|| BpError::NotFound {
                var: var.to_string(),
                step,
            })?;
        let (dtype, offset) = (e.dtype, e.file_offset);
        let mut buf = vec![0u8; e.payload_len as usize];
        self.read_range(offset, &mut buf)?;
        DataArray::from_le_bytes(dtype, &buf)
    }

    /// Assemble the full global array of `var` at `step` from its chunks.
    /// Verifies the chunks tile the global box exactly.
    pub fn read_global(&mut self, var: &str, step: u64) -> Result<DataArray> {
        let global = self.global_extents(var, step)?;
        self.read_box(var, step, &vec![0; global.len()], &global)
    }

    /// Read the sub-box `[corner, corner+extent)` of global variable
    /// `var` at `step`.
    pub fn read_box(
        &mut self,
        var: &str,
        step: u64,
        corner: &[u64],
        extent: &[u64],
    ) -> Result<DataArray> {
        read_box(std::slice::from_mut(self), var, step, corner, extent)
    }

    /// Global extents of `var` at `step` (error if absent or not global).
    pub(crate) fn global_extents(&self, var: &str, step: u64) -> Result<Vec<u64>> {
        global_var(std::slice::from_ref(self), var, step).map(|c| c.global.clone())
    }

    /// One read op: fill `buf` from `offset`, counted in the stats.
    fn read_range(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.file.read_exact_at(buf, offset)?;
        self.stats.reads += 1;
        self.stats.bytes += buf.len() as u64;
        if self.last_end != Some(offset) {
            self.stats.seeks += 1;
        }
        self.last_end = Some(offset + buf.len() as u64);
        Ok(())
    }
}

/// The first chunk of global variable `var` at `step` in the first part
/// that has one: it carries the dtype and global extents every other
/// chunk must share. Errors if no part has the variable or it is not a
/// global array.
pub(crate) fn global_var<'a>(parts: &'a [BpReader], var: &str, step: u64) -> Result<&'a VarEntry> {
    let mut entries = parts.iter().flat_map(|p| &p.index.vars);
    let first = entries
        .find(|v| v.name == var && v.step == step)
        .ok_or_else(|| BpError::NotFound {
            var: var.to_string(),
            step,
        })?;
    if first.global.is_empty() {
        return Err(BpError::BadDecl(format!(
            "variable `{var}` is not a global array"
        )));
    }
    Ok(first)
}

/// The overlap of two boxes of one rank, each `(corner, extent)`; `None`
/// when they share no cell. Neither `corner + extent` overflows: requests
/// are checked by [`read_box`], chunks at [`BpReader::open`].
fn intersect(a: (&[u64], &[u64]), b: (&[u64], &[u64])) -> Option<(Vec<u64>, Vec<u64>)> {
    let ndim = a.0.len();
    let (mut corner, mut extent) = (Vec::with_capacity(ndim), Vec::with_capacity(ndim));
    for d in 0..ndim {
        let lo = a.0[d].max(b.0[d]);
        let hi = (a.0[d] + a.1[d]).min(b.0[d] + b.1[d]);
        if lo >= hi {
            return None;
        }
        corner.push(lo);
        extent.push(hi - lo);
    }
    Some((corner, extent))
}

/// One contiguous last-dimension row of a chunk ∩ request: the elements
/// at byte `file_offset` of part `part`'s file fill `dst` of the output.
struct Run {
    part: usize,
    file_offset: u64,
    dst: Range<usize>,
}

/// The one box read, over one file or many: plan every part's chunks
/// against the request (two [`BoxRuns`] in lockstep pair each file range
/// with its place in the output), check that they tile it, then read
/// each maximal file-adjacent group of runs with one op and convert its
/// little-endian bytes straight into the output.
pub(crate) fn read_box(
    parts: &mut [BpReader],
    var: &str,
    step: u64,
    corner: &[u64],
    extent: &[u64],
) -> Result<DataArray> {
    let first = global_var(parts, var, step)?;
    let (dtype, global) = (first.dtype, first.global.clone());
    let esize = dtype.size();
    if corner.len() != global.len() || extent.len() != global.len() {
        return Err(BpError::Corrupt("box rank mismatch"));
    }
    if !(0..global.len()).all(|d| fits(corner[d], extent[d], global[d])) {
        return Err(BpError::OutOfBounds {
            var: var.to_string(),
        });
    }

    let mut runs: Vec<Run> = Vec::new();
    let mut covered = 0u64;
    for (part, p) in parts.iter().enumerate() {
        for c in p.index.chunks_of(var, step) {
            if c.dtype != dtype || c.global != global {
                return Err(BpError::Corrupt("chunks disagree on dtype or extents"));
            }
            let chunk = (&c.offset_in_global[..], &c.local[..]);
            let Some((lo, isect)) = intersect((corner, extent), chunk) else {
                continue;
            };
            covered += linear_len(&isect);
            let src = BoxRuns::new(chunk.0, chunk.1, &lo, &isect)?;
            let dst = BoxRuns::new(corner, extent, &lo, &isect)?;
            runs.extend(src.zip(dst).map(|(src, dst)| Run {
                part,
                file_offset: c.file_offset + (src.start * esize) as u64,
                dst,
            }));
        }
    }
    let expected = linear_len(extent);
    if covered != expected {
        return Err(BpError::IncompleteTiling {
            var: var.to_string(),
            step,
            covered,
            expected,
        });
    }

    let mut out = DataArray::zeros(dtype, expected as usize);
    let mut buf = Vec::new();
    let end = |r: &Run| r.file_offset + (r.dst.len() * esize) as u64;
    runs.sort_unstable_by_key(|r| (r.part, r.file_offset));
    for group in runs.chunk_by(|a, b| a.part == b.part && end(a) == b.file_offset) {
        let (head, tail) = (&group[0], &group[group.len() - 1]);
        buf.resize((end(tail) - head.file_offset) as usize, 0);
        parts[head.part].read_range(head.file_offset, &mut buf)?;
        let mut bytes = &buf[..];
        for r in group {
            let (run, rest) = bytes.split_at(r.dst.len() * esize);
            out.fill_from_le_bytes(r.dst.clone(), run);
            bytes = rest;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::Dtype;
    use crate::group::{Dim, GroupDef, VarDef};
    use crate::pg::ProcessGroup;
    use crate::writer::BpWriter;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bpio-reader-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.bp", std::process::id()))
    }

    /// Write a 2-D global array (4x8) as `n_writers` chunks of 4x(8/n).
    fn write_strips(path: &Path, n_writers: u64) {
        let g = GroupDef::new(vec![
            VarDef::scalar("oy", Dtype::U64),
            VarDef::scalar("ly", Dtype::U64),
            VarDef::global_chunk(
                "field",
                Dtype::F64,
                vec![Dim::c(4), Dim::c(8)],
                vec![Dim::c(4), Dim::r("ly")],
                vec![Dim::c(0), Dim::r("oy")],
            ),
        ])
        .unwrap();
        let strip = 8 / n_writers;
        let mut w = BpWriter::create(path).unwrap();
        for rank in 0..n_writers {
            let mut pg = ProcessGroup::new("g", rank, 0);
            pg.write(&g, "oy", DataArray::U64(vec![rank * strip]))
                .unwrap();
            pg.write(&g, "ly", DataArray::U64(vec![strip])).unwrap();
            // Element value = its global linear index, so assembly is checkable.
            let data: Vec<f64> = (0..4)
                .flat_map(|i| (0..strip).map(move |j| (i * 8 + rank * strip + j) as f64))
                .collect();
            pg.write(&g, "field", DataArray::F64(data)).unwrap();
            w.append_pg(&pg).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn global_assembly_any_writer_count() {
        for n in [1u64, 2, 4, 8] {
            let path = tmp(&format!("strips{n}"));
            write_strips(&path, n);
            let mut r = BpReader::open(&path).unwrap();
            let got = r.read_global("field", 0).unwrap();
            let expect: Vec<f64> = (0..32).map(|x| x as f64).collect();
            assert_eq!(got, DataArray::F64(expect), "n_writers={n}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn merged_layout_needs_fewer_seeks() {
        let scattered = tmp("scattered");
        let merged = tmp("merged");
        write_strips(&scattered, 8);
        write_strips(&merged, 1);
        let mut rs = BpReader::open(&scattered).unwrap();
        rs.read_global("field", 0).unwrap();
        let s_stats = rs.take_stats();
        let mut rm = BpReader::open(&merged).unwrap();
        rm.read_global("field", 0).unwrap();
        let m_stats = rm.take_stats();
        assert_eq!(m_stats.reads, 1, "merged file reads whole array in one op");
        assert!(
            s_stats.reads > 4 * m_stats.reads,
            "scattered {s_stats:?} vs merged {m_stats:?}"
        );
        assert_eq!(s_stats.bytes, m_stats.bytes, "same payload either way");
        std::fs::remove_file(&scattered).unwrap();
        std::fs::remove_file(&merged).unwrap();
    }

    #[test]
    fn read_box_subselection() {
        let path = tmp("box");
        write_strips(&path, 4);
        let mut r = BpReader::open(&path).unwrap();
        // Rows 1..3, cols 3..7 of the 4x8 array.
        let got = r.read_box("field", 0, &[1, 3], &[2, 4]).unwrap();
        let expect: Vec<f64> = vec![11., 12., 13., 14., 19., 20., 21., 22.];
        assert_eq!(got, DataArray::F64(expect));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_box_reads_less_than_global() {
        let path = tmp("boxcost");
        write_strips(&path, 4);
        let mut r = BpReader::open(&path).unwrap();
        r.read_box("field", 0, &[0, 0], &[1, 2]).unwrap();
        let small = r.take_stats();
        r.read_global("field", 0).unwrap();
        let full = r.take_stats();
        assert!(small.bytes < full.bytes);
        assert_eq!(small.bytes, 16, "1x2 f64 box = 16 bytes");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn incomplete_tiling_detected() {
        let path = tmp("holes");
        let g = GroupDef::new(vec![VarDef::global_chunk(
            "x",
            Dtype::F64,
            vec![Dim::c(8)],
            vec![Dim::c(4)],
            vec![Dim::c(0)],
        )])
        .unwrap();
        let mut w = BpWriter::create(&path).unwrap();
        let mut pg = ProcessGroup::new("g", 0, 0);
        pg.write(&g, "x", DataArray::F64(vec![0.0; 4])).unwrap();
        w.append_pg(&pg).unwrap(); // only half the global written
        w.finish().unwrap();
        let mut r = BpReader::open(&path).unwrap();
        assert!(matches!(
            r.read_global("x", 0),
            Err(BpError::IncompleteTiling {
                covered: 4,
                expected: 8,
                ..
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_var_and_step() {
        let path = tmp("missing");
        write_strips(&path, 2);
        let mut r = BpReader::open(&path).unwrap();
        assert!(matches!(
            r.read_global("ghost", 0),
            Err(BpError::NotFound { .. })
        ));
        assert!(matches!(
            r.read_global("field", 9),
            Err(BpError::NotFound { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scalar_read() {
        let path = tmp("scalar");
        write_strips(&path, 2);
        let mut r = BpReader::open(&path).unwrap();
        let v = r.read_local("oy", 0, 1).unwrap();
        assert_eq!(v, DataArray::U64(vec![4]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_non_bp_files() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a bp file at all............").unwrap();
        assert!(matches!(BpReader::open(&path), Err(BpError::Corrupt(_))));
        std::fs::write(&path, b"tiny").unwrap();
        assert!(BpReader::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
