//! Append-only BP-like file writer.
//!
//! Writers only append process groups; all read metadata goes into a
//! footer index written by [`BpWriter::finish`]. The same writer serves
//! both configurations of the paper's experiments:
//!
//! * **In-Compute-Node / "unmerged"** — every compute process' PG is
//!   appended as-is, so each global array is scattered across N small
//!   chunks.
//! * **Staging / "merged"** — staging nodes merge chunks first and append
//!   a few large PGs, so each global array is one (or a few) contiguous
//!   extents.

use std::fs::File;
use std::io::{IoSlice, Write};
use std::path::{Path, PathBuf};

use crate::error::Result;
use crate::index::{FileIndex, PgEntry, VarEntry};
use crate::pg::ProcessGroup;
use crate::FILE_MAGIC;

/// Write every byte of `bufs` to `out` using vectored writes.
///
/// The manual loop exists because `write_all_vectored` is unstable: a
/// short write is handled by rebuilding the remaining slice list (first
/// slice trimmed by the partial count) and retrying. `Interrupted` is
/// retried like `write_all` does.
fn write_all_vectored(out: &mut File, bufs: &[&[u8]]) -> std::io::Result<()> {
    let mut remaining: Vec<&[u8]> = bufs.iter().copied().filter(|b| !b.is_empty()).collect();
    while !remaining.is_empty() {
        let slices: Vec<IoSlice<'_>> = remaining.iter().map(|b| IoSlice::new(b)).collect();
        let mut n = match out.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole buffer",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let mut next = Vec::with_capacity(remaining.len());
        for b in remaining {
            if n >= b.len() {
                n -= b.len();
            } else {
                next.push(&b[n..]);
                n = 0;
            }
        }
        remaining = next;
    }
    Ok(())
}

/// Streaming writer for one BP-like file.
///
/// Writes are vectored ([`File::write_vectored`]) over the caller's
/// buffers: a process group goes to disk as its header segments plus
/// byte views of each variable's [`crate::DataArray`] — the block is
/// never assembled in memory, so appending a PG moves each payload
/// buffer zero times (on little-endian targets) between the operator
/// that produced it and the file.
///
/// The writer records no telemetry: it is built without a registry, so
/// its pipeline callers record the `write` row and `bpio.bytes_written`
/// in theirs ([`bytes_written`](BpWriter::bytes_written) gives the size).
pub struct BpWriter {
    out: File,
    path: PathBuf,
    pos: u64,
    index: FileIndex,
    /// `finish` was called, or a write failed and the caller holds the
    /// error: either way `Drop` has no forgotten `finish()` to report.
    closed: bool,
}

impl BpWriter {
    /// Create (truncate) `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<BpWriter> {
        let path = path.as_ref().to_path_buf();
        let out = File::create(&path)?;
        Ok(BpWriter {
            out,
            path,
            pos: 0,
            index: FileIndex::default(),
            closed: false,
        })
    }

    /// Bytes appended so far (payload region).
    pub fn bytes_written(&self) -> u64 {
        self.pos
    }

    /// Record a file-level metadata annotation in the footer (e.g.
    /// `sorted_by = label`, `layout = merged`). Later values override
    /// earlier ones for the same name.
    pub fn annotate(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        self.index.attrs.retain(|(n, _)| *n != name);
        self.index.attrs.push((name, value.into()));
    }

    /// Append one process group and record its chunks in the index.
    /// One vectored write: headers + borrowed payload views, no
    /// contiguous block assembly.
    pub fn append_pg(&mut self, pg: &ProcessGroup) -> Result<()> {
        // Every header of the block in one buffer; payloads stay put.
        let mut head = Vec::with_capacity(pg.encoded_len() - pg.payload_bytes());
        let (segments, payload_offsets, block_len) = pg.encode_parts(&mut head);
        let base = self.pos;
        let slices: Vec<&[u8]> = segments.iter().map(|s| &s[..]).collect();
        if let Err(e) = write_all_vectored(&mut self.out, &slices) {
            self.closed = true;
            return Err(e.into());
        }
        self.pos += block_len;
        self.index.pgs.push(PgEntry {
            writer_rank: pg.writer_rank,
            step: pg.step,
            offset: base,
            length: block_len,
        });
        for (v, poff) in pg.vars.iter().zip(payload_offsets) {
            let (min, max) = v.data.min_max().unwrap_or((f64::NAN, f64::NAN));
            self.index.vars.push(VarEntry {
                name: v.name.clone(),
                dtype: v.dtype,
                step: pg.step,
                writer_rank: pg.writer_rank,
                local: v.local.clone(),
                global: v.global.clone(),
                offset_in_global: v.offset.clone(),
                file_offset: base + poff,
                payload_len: v.data.byte_len() as u64,
                min,
                max,
            });
        }
        Ok(())
    }

    /// Write the footer index and close the file. Layout:
    /// `[PG blocks…][index][index_len: u64][magic: 4]`, emitted as a
    /// single vectored write.
    pub fn finish(mut self) -> Result<FileIndex> {
        self.closed = true;
        let idx = self.index.encode();
        let idx_len = (idx.len() as u64).to_le_bytes();
        write_all_vectored(&mut self.out, &[&idx, &idx_len, &FILE_MAGIC])?;
        self.out.flush()?;
        Ok(std::mem::take(&mut self.index))
    }
}

impl Drop for BpWriter {
    fn drop(&mut self) {
        // An unfinished file has no footer and is unreadable; surface the
        // mistake in debug builds rather than silently producing garbage.
        debug_assert!(
            self.closed || std::thread::panicking(),
            "BpWriter dropped without finish(): {} is incomplete",
            self.path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::DataArray;
    use crate::dtype::Dtype;
    use crate::group::{Dim, GroupDef, VarDef};
    use crate::reader::BpReader;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bpio-writer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.bp", std::process::id()))
    }

    fn group_1d() -> GroupDef {
        GroupDef::new(vec![
            VarDef::scalar("off", Dtype::U64),
            VarDef::global_chunk(
                "x",
                Dtype::F64,
                vec![Dim::c(8)],
                vec![Dim::c(4)],
                vec![Dim::r("off")],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn write_then_read_back() {
        let path = tmp("roundtrip");
        let g = group_1d();
        let mut w = BpWriter::create(&path).unwrap();
        for rank in 0..2u64 {
            let mut pg = ProcessGroup::new("g", rank, 0);
            pg.write(&g, "off", DataArray::U64(vec![rank * 4])).unwrap();
            pg.write(&g, "x", DataArray::F64(vec![rank as f64; 4]))
                .unwrap();
            w.append_pg(&pg).unwrap();
        }
        let idx = w.finish().unwrap();
        assert_eq!(idx.pgs.len(), 2);
        assert_eq!(idx.chunks_of("x", 0).len(), 2);

        let mut r = BpReader::open(&path).unwrap();
        let global = r.read_global("x", 0).unwrap();
        assert_eq!(
            global,
            DataArray::F64(vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn multiple_steps_in_one_file() {
        let path = tmp("steps");
        let g = group_1d();
        let mut w = BpWriter::create(&path).unwrap();
        for step in 0..3u64 {
            for rank in 0..2u64 {
                let mut pg = ProcessGroup::new("g", rank, step);
                pg.write(&g, "off", DataArray::U64(vec![rank * 4])).unwrap();
                pg.write(&g, "x", DataArray::F64(vec![step as f64; 4]))
                    .unwrap();
                w.append_pg(&pg).unwrap();
            }
        }
        w.finish().unwrap();
        let mut r = BpReader::open(&path).unwrap();
        assert_eq!(r.index().steps(), vec![0, 1, 2]);
        for step in 0..3u64 {
            let global = r.read_global("x", step).unwrap();
            assert_eq!(global, DataArray::F64(vec![step as f64; 8]), "step {step}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn annotations_survive_the_footer() {
        let path = tmp("annot");
        let g = group_1d();
        let mut w = BpWriter::create(&path).unwrap();
        let mut pg = ProcessGroup::new("g", 0, 0);
        pg.write(&g, "off", DataArray::U64(vec![0])).unwrap();
        pg.write(&g, "x", DataArray::F64(vec![0.0; 4])).unwrap();
        w.append_pg(&pg).unwrap();
        w.annotate("layout", "scattered");
        w.annotate("layout", "merged"); // override wins
        w.annotate("prepared_by", "predata");
        w.finish().unwrap();
        let r = BpReader::open(&path).unwrap();
        assert_eq!(r.index().attr("layout"), Some("merged"));
        assert_eq!(r.index().attr("prepared_by"), Some("predata"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn index_records_minmax_characteristics() {
        let path = tmp("minmax");
        let g = group_1d();
        let mut w = BpWriter::create(&path).unwrap();
        let mut pg = ProcessGroup::new("g", 0, 0);
        pg.write(&g, "off", DataArray::U64(vec![0])).unwrap();
        pg.write(&g, "x", DataArray::F64(vec![-3.0, 7.0, 0.0, 1.0]))
            .unwrap();
        w.append_pg(&pg).unwrap();
        let idx = w.finish().unwrap();
        let chunk = &idx.chunks_of("x", 0)[0];
        assert_eq!((chunk.min, chunk.max), (-3.0, 7.0));
        std::fs::remove_file(&path).unwrap();
    }

    /// A write the device refuses comes back as `Err`, and the writer the
    /// error abandoned drops quietly: `Drop`'s check is for a forgotten
    /// `finish()`, not for a failure the caller already holds.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_write_is_an_error_not_a_panic_in_drop() {
        let g = group_1d();
        let mut pg = ProcessGroup::new("g", 0, 0);
        pg.write(&g, "off", DataArray::U64(vec![0])).unwrap();
        pg.write(&g, "x", DataArray::F64(vec![0.0; 4])).unwrap();

        let mut w = BpWriter::create("/dev/full").unwrap();
        assert!(matches!(w.append_pg(&pg), Err(crate::BpError::Io(_))));
        drop(w);

        let w = BpWriter::create("/dev/full").unwrap();
        assert!(matches!(w.finish(), Err(crate::BpError::Io(_))));
    }
}
