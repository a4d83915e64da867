//! Packed partial data chunks: one compute process' output for one step,
//! framed as a self-describing `ffs` record (paper Stage 1b).

use std::sync::Arc;

use bpio::ProcessGroup;
use ffs::{AttrList, BaseType, FieldDesc, FormatDesc, RecordEncoder};

/// Errors from packing/unpacking chunks.
#[derive(Debug)]
pub enum ChunkError {
    Ffs(ffs::FfsError),
    Bp(bpio::BpError),
    Malformed(&'static str),
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkError::Ffs(e) => write!(f, "chunk framing error: {e}"),
            ChunkError::Bp(e) => write!(f, "chunk payload error: {e}"),
            ChunkError::Malformed(w) => write!(f, "malformed chunk: {w}"),
        }
    }
}

impl std::error::Error for ChunkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChunkError::Ffs(e) => Some(e),
            ChunkError::Bp(e) => Some(e),
            ChunkError::Malformed(_) => None,
        }
    }
}

impl From<ffs::FfsError> for ChunkError {
    fn from(e: ffs::FfsError) -> Self {
        ChunkError::Ffs(e)
    }
}

impl From<bpio::BpError> for ChunkError {
    fn from(e: bpio::BpError) -> Self {
        ChunkError::Bp(e)
    }
}

/// The framing format for every packed chunk. Shared per process via a
/// `OnceLock`, so all chunks of a run share one `Arc<FormatDesc>` and the
/// fingerprint in the wire header is stable (staging nodes dispatch on it).
fn chunk_format() -> &'static Arc<FormatDesc> {
    static FMT: std::sync::OnceLock<Arc<FormatDesc>> = std::sync::OnceLock::new();
    FMT.get_or_init(|| {
        FormatDesc::new("predata_chunk_v1")
            .field(FieldDesc::scalar("group", BaseType::Str))
            .field(FieldDesc::scalar("writer_rank", BaseType::U64))
            .field(FieldDesc::scalar("step", BaseType::U64))
            .field(FieldDesc::scalar("pg_len", BaseType::U64))
            .field(FieldDesc::vec("pg", BaseType::U8, "pg_len"))
            .build()
            .expect("static chunk format is valid")
    })
}

/// A decoded packed partial data chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedChunk {
    pub group: String,
    pub writer_rank: u64,
    pub step: u64,
    pub pg: ProcessGroup,
}

impl PackedChunk {
    pub fn new(pg: ProcessGroup) -> Self {
        PackedChunk {
            group: pg.group.clone(),
            writer_rank: pg.writer_rank,
            step: pg.step,
            pg,
        }
    }

    /// Pack into one contiguous self-describing buffer (Stage 1b).
    pub fn pack(&self) -> Result<Vec<u8>, ChunkError> {
        let mut buf = Vec::new();
        self.pack_into(&mut buf)?;
        Ok(buf)
    }

    /// Pack onto the end of `out` — the one chunk encoder ([`pack`]
    /// wraps it). The frame is written field by field and the process
    /// group encodes itself in place inside it, so each payload byte is
    /// copied once, from its `DataArray` to `out`; room is reserved
    /// once and exactly, so a buffer that is reused for chunks of one
    /// size is never regrown. On error `out` is left as it was.
    ///
    /// [`pack`]: PackedChunk::pack
    pub fn pack_into(&self, out: &mut Vec<u8>) -> Result<(), ChunkError> {
        let pg_len = self.pg.encoded_len();
        out.reserve_exact(frame_len() + self.group.len() + pg_len);
        self.write(pg_len, out)
    }

    /// The encoder proper; `pg_len` is `self.pg.encoded_len()`.
    fn write(&self, pg_len: usize, out: &mut Vec<u8>) -> Result<(), ChunkError> {
        let mut rec = RecordEncoder::self_contained(chunk_format(), &AttrList::new(), out)?;
        rec.str(&self.group)?;
        rec.u64(self.writer_rank)?;
        rec.u64(self.step)?;
        rec.u64(pg_len as u64)?;
        rec.bytes_with(pg_len, |out| self.pg.encode_into(out))?;
        Ok(rec.finish()?)
    }

    /// Unpack a buffer produced by [`PackedChunk::pack`].
    ///
    /// Decodes through [`ffs::decode_view`], so the (typically multi-MB)
    /// `pg` payload is read as a borrowed slice of `buf` — never copied
    /// into an intermediate `Vec` before [`ProcessGroup::decode`] parses
    /// it. This is the staging hot path: every pulled chunk goes through
    /// here once per step.
    pub fn unpack(buf: &[u8]) -> Result<PackedChunk, ChunkError> {
        let rec = ffs::decode_view(buf, None)?;
        let group = rec
            .get("group")
            .and_then(|v| v.as_str())
            .ok_or(ChunkError::Malformed("missing group"))?
            .to_string();
        let writer_rank = rec
            .get("writer_rank")
            .and_then(|v| v.as_u64())
            .ok_or(ChunkError::Malformed("rank"))?;
        let step = rec
            .get("step")
            .and_then(|v| v.as_u64())
            .ok_or(ChunkError::Malformed("step"))?;
        let pg_bytes = rec
            .get("pg")
            .and_then(|v| v.bytes())
            .ok_or(ChunkError::Malformed("missing payload"))?;
        let pg = ProcessGroup::decode(pg_bytes)?;
        Ok(PackedChunk {
            group,
            writer_rank,
            step,
            pg,
        })
    }

    /// The framing format's fingerprint (what `decode_header` reports for
    /// any packed chunk).
    pub fn format_fingerprint() -> u64 {
        chunk_format().fingerprint()
    }
}

/// Bytes of a packed chunk that are neither its group name nor its PG
/// block — the record header, the embedded schema and the fixed-size
/// fields — measured once, on an empty chunk.
fn frame_len() -> usize {
    static LEN: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *LEN.get_or_init(|| {
        let empty = PackedChunk::new(ProcessGroup::new("", 0, 0));
        let pg_len = empty.pg.encoded_len();
        let mut frame = Vec::new();
        empty
            .write(pg_len, &mut frame)
            .expect("an empty chunk packs");
        frame.len() - pg_len
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpio::{DataArray, Dtype, GroupDef, VarDef};

    fn sample_pg() -> ProcessGroup {
        let def = GroupDef::new(
            "g",
            vec![
                VarDef::scalar("n", Dtype::U64),
                VarDef::local("x", Dtype::F64, vec![bpio::Dim::r("n")]),
            ],
        )
        .unwrap();
        let mut pg = ProcessGroup::new("g", 3, 9);
        pg.write(&def, "n", DataArray::U64(vec![2])).unwrap();
        pg.write(&def, "x", DataArray::F64(vec![0.5, -1.5]))
            .unwrap();
        pg
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let chunk = PackedChunk::new(sample_pg());
        let buf = chunk.pack().unwrap();
        let back = PackedChunk::unpack(&buf).unwrap();
        assert_eq!(back, chunk);
        assert_eq!(
            back.pg.var("x").unwrap().data,
            DataArray::F64(vec![0.5, -1.5])
        );
    }

    #[test]
    fn pack_into_appends_reserves_exactly_and_reuses_capacity() {
        let chunk = PackedChunk::new(sample_pg());
        let packed = chunk.pack().unwrap();
        assert_eq!(packed.capacity(), packed.len(), "sized exactly");
        let mut buf = b"kept".to_vec();
        chunk.pack_into(&mut buf).unwrap();
        assert_eq!(&buf[..4], b"kept");
        assert_eq!(&buf[4..], &packed[..]);
        // A recycled buffer of the same size is refilled where it lies.
        let mut recycled = packed.clone();
        let at = recycled.as_ptr();
        recycled.clear();
        chunk.pack_into(&mut recycled).unwrap();
        assert_eq!(recycled, packed);
        assert_eq!((recycled.as_ptr(), recycled.capacity()), (at, packed.len()));
    }

    #[test]
    fn header_carries_stable_fingerprint() {
        let chunk = PackedChunk::new(sample_pg());
        let buf = chunk.pack().unwrap();
        let h = ffs::decode_header(&buf).unwrap();
        assert_eq!(h.fingerprint, PackedChunk::format_fingerprint());
        assert!(h.has_embedded_schema);
    }

    #[test]
    fn unpack_rejects_garbage() {
        assert!(PackedChunk::unpack(b"junk").is_err());
        let mut buf = PackedChunk::new(sample_pg()).pack().unwrap();
        let n = buf.len();
        buf.truncate(n - 5);
        assert!(PackedChunk::unpack(&buf).is_err());
    }
}
