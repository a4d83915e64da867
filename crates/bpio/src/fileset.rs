//! Reading a *set* of BP-like files as one logical dataset.
//!
//! Staging areas write one file per staging rank (merged slabs, sorted
//! slices) to keep writers independent; analysis codes want the global
//! array back. `BpFileSet` opens all parts, merges their footer indexes,
//! and serves the whole global array back, as `BpReader::read_global`
//! does for a single file — how ADIOS sub-files are consumed.

use std::path::Path;

use crate::array::DataArray;
use crate::error::{BpError, Result};
use crate::reader::{self, BpReader, ReadStats};

/// A set of BP-like files serving one logical dataset.
pub struct BpFileSet {
    parts: Vec<BpReader>,
}

impl BpFileSet {
    /// Open every path; order does not matter.
    pub fn open<P: AsRef<Path>>(paths: impl IntoIterator<Item = P>) -> Result<BpFileSet> {
        let parts = paths
            .into_iter()
            .map(BpReader::open)
            .collect::<Result<Vec<_>>>()?;
        if parts.is_empty() {
            return Err(BpError::Corrupt("empty file set"));
        }
        Ok(BpFileSet { parts })
    }

    /// Global extents of `var` at `step` (from whichever part has it).
    pub(crate) fn global_extents(&self, var: &str, step: u64) -> Result<Vec<u64>> {
        reader::global_var(&self.parts, var, step).map(|c| c.global.clone())
    }

    /// Read the sub-box `[corner, corner+extent)` of `var` at `step`,
    /// assembling across parts. Verifies complete coverage.
    pub(crate) fn read_box(
        &mut self,
        var: &str,
        step: u64,
        corner: &[u64],
        extent: &[u64],
    ) -> Result<DataArray> {
        reader::read_box(&mut self.parts, var, step, corner, extent)
    }

    /// Read the whole global array.
    pub fn read_global(&mut self, var: &str, step: u64) -> Result<DataArray> {
        let g = self.global_extents(var, step)?;
        self.read_box(var, step, &vec![0; g.len()], &g)
    }

    /// Aggregate read statistics across parts.
    pub fn take_stats(&mut self) -> ReadStats {
        let mut total = ReadStats::default();
        for p in &mut self.parts {
            let s = p.take_stats();
            total.reads += s.reads;
            total.seeks += s.seeks;
            total.bytes += s.bytes;
        }
        total
    }
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
        let dir = std::env::temp_dir().join("bpio-fileset");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.bp", std::process::id()))
    }

    /// Write a 1-D global array of 12 elements split as `parts` slices,
    /// one file per slice.
    fn write_parts(parts: &[(u64, u64)], tag: &str) -> Vec<PathBuf> {
        let def = GroupDef::new(vec![
            VarDef::scalar("off", Dtype::U64),
            VarDef::scalar("len", Dtype::U64),
            VarDef::global_chunk(
                "x",
                Dtype::F64,
                vec![Dim::c(12)],
                vec![Dim::r("len")],
                vec![Dim::r("off")],
            ),
        ])
        .unwrap();
        parts
            .iter()
            .enumerate()
            .map(|(i, &(off, len))| {
                let path = tmp(&format!("{tag}-{i}"));
                let mut w = BpWriter::create(&path).unwrap();
                let mut pg = ProcessGroup::new("g", i as u64, 0);
                pg.write(&def, "off", DataArray::U64(vec![off])).unwrap();
                pg.write(&def, "len", DataArray::U64(vec![len])).unwrap();
                let data: Vec<f64> = (off..off + len).map(|v| v as f64).collect();
                pg.write(&def, "x", DataArray::F64(data)).unwrap();
                w.append_pg(&pg).unwrap();
                w.finish().unwrap();
                path
            })
            .collect()
    }

    #[test]
    fn assembles_across_files() {
        let paths = write_parts(&[(0, 5), (5, 4), (9, 3)], "asm");
        let mut set = BpFileSet::open(&paths).unwrap();
        let all = set.read_global("x", 0).unwrap();
        assert_eq!(all, DataArray::F64((0..12).map(|v| v as f64).collect()));
        let boxed = set.read_box("x", 0, &[4], &[6]).unwrap();
        assert_eq!(boxed, DataArray::F64((4..10).map(|v| v as f64).collect()));
        for p in paths {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn detects_missing_part() {
        let paths = write_parts(&[(0, 5), (9, 3)], "hole"); // 5..9 missing
        let mut set = BpFileSet::open(&paths).unwrap();
        assert!(matches!(
            set.read_global("x", 0),
            Err(BpError::IncompleteTiling {
                covered: 8,
                expected: 12,
                ..
            })
        ));
        // Reads confined to present parts still work.
        assert!(set.read_box("x", 0, &[0], &[5]).is_ok());
        for p in paths {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn empty_set_rejected() {
        assert!(BpFileSet::open(Vec::<PathBuf>::new()).is_err());
    }

    #[test]
    fn stats_aggregate_across_parts() {
        let paths = write_parts(&[(0, 6), (6, 6)], "stats");
        let mut set = BpFileSet::open(&paths).unwrap();
        set.read_global("x", 0).unwrap();
        let s = set.take_stats();
        assert_eq!(s.bytes, 12 * 8);
        assert!(s.reads >= 2);
        for p in paths {
            std::fs::remove_file(p).unwrap();
        }
    }
}
