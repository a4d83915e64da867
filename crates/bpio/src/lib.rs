//! `bpio` — an ADIOS-style I/O layer with a BP-like, self-indexing file
//! format.
//!
//! PreDatA integrates with applications through the ADIOS I/O library: the
//! application declares *groups* of output variables (scalars, local
//! arrays, chunks of global arrays), then writes them each I/O step
//! without knowing whether the bytes go synchronously to the parallel file
//! system ("MPI-IO method") or asynchronously through the staging area.
//! Files use the BP format: a sequence of per-writer *process groups*
//! followed by a footer index carrying per-chunk characteristics
//! (dimensions, offsets, min/max).
//!
//! This crate reproduces that stack:
//!
//! * [`GroupDef`]/[`VarDef`] — output-group declaration, the coordination
//!   metadata PreDatA shares between application and operators.
//! * [`ProcessGroup`] — one writer's output for one step, encodable as a
//!   contiguous block.
//! * [`BpWriter`] — appends process groups and writes the footer index;
//!   used both by the synchronous per-rank path (producing *scattered*
//!   chunk layouts) and by staging nodes after re-organization (producing
//!   *merged* contiguous layouts).
//! * [`BpReader`] — footer-driven reads: whole global arrays or
//!   sub-boxes, with [`ReadStats`] instrumentation (seeks, bytes,
//!   contiguous runs) that the Fig. 11 experiment reports.
//!
//! The format is BP-*like* (self-contained and documented here), not
//! bit-compatible with ADIOS BP files.
//!
//! # Example
//!
//! ```
//! use bpio::{BpReader, BpWriter, DataArray, Dim, Dtype, GroupDef, ProcessGroup, VarDef};
//!
//! // Declare a group: one chunk of a 1-D global array per writer.
//! let def = GroupDef::new(vec![
//!     VarDef::scalar("off", Dtype::U64),
//!     VarDef::global_chunk("x", Dtype::F64,
//!         vec![Dim::c(8)], vec![Dim::c(4)], vec![Dim::r("off")]),
//! ]).unwrap();
//!
//! let path = std::env::temp_dir().join(format!("bpio-doc-{}.bp", std::process::id()));
//! let mut w = BpWriter::create(&path).unwrap();
//! for rank in 0..2u64 {
//!     let mut pg = ProcessGroup::new("demo", rank, 0);
//!     pg.write(&def, "off", DataArray::U64(vec![rank * 4])).unwrap();
//!     pg.write(&def, "x", DataArray::F64(vec![rank as f64; 4])).unwrap();
//!     w.append_pg(&pg).unwrap();
//! }
//! w.finish().unwrap();
//!
//! let mut r = BpReader::open(&path).unwrap();
//! let x = r.read_global("x", 0).unwrap();
//! assert_eq!(x, DataArray::F64(vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]));
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![warn(unreachable_pub)]

mod array;
mod dtype;
mod error;
mod fileset;
mod group;
mod index;
mod pg;
mod reader;
mod util;
mod writer;

#[cfg(test)]
mod proptest_bp;

pub use array::{box_to_linear, copy_box_between, BoxRuns, DataArray, Elem};
pub use dtype::Dtype;
pub use error::{BpError, Result};
pub use fileset::BpFileSet;
pub use group::{Dim, GroupDef, VarDef};
pub use index::{FileIndex, PgEntry, VarEntry};
pub use pg::{PgVar, ProcessGroup};
pub use reader::{BpReader, ReadStats};
pub use writer::BpWriter;

/// Magic trailer identifying a BP-like file.
pub const FILE_MAGIC: [u8; 4] = *b"BPL1";
