//! Packed partial data chunks: one compute process' output for one step,
//! framed as a self-describing `ffs` record (paper Stage 1b). The compute
//! side exposes a chunk as a [`ChunkGather`] — frame and headers in a
//! small buffer, payloads where the process group holds them — and the
//! staging side unpacks the contiguous bytes a pull lands.

use std::sync::Arc;

use bpio::ProcessGroup;
use bytes::Bytes;
use ffs::{AttrList, BaseType, FieldDesc, FormatDesc, RecordEncoder};
use transport::Gather;

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
/// `OnceLock`, so all chunks of a run share one `Arc<FormatDesc>`. Every
/// chunk embeds this schema, and a staging node decodes it from the chunk
/// itself; the fingerprint in the wire header is stable across runs, but
/// nothing dispatches on it.
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

    /// Pack into one contiguous self-describing buffer (Stage 1b): the
    /// frame and headers [`ChunkGather`] exposes, with every payload
    /// written between them — the bytes a pull of that gather lands.
    pub fn pack(&self) -> Result<Vec<u8>, ChunkError> {
        let mut head = Vec::new();
        let cuts = encode_head(
            &self.group,
            self.writer_rank,
            self.step,
            &self.pg,
            &mut head,
        )?;
        let mut out = Vec::with_capacity(head.len() + self.pg.payload_bytes());
        regions(&head, &cuts, &self.pg, &mut |r| out.extend_from_slice(r));
        Ok(out)
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

/// The one chunk frame encoder: the `ffs` record of `predata_chunk_v1`
/// up to its last field, the PG block, whose bytes the record declares
/// but does not hold ([`ffs::RecordEncoder::finish_out_of_line`]); then
/// the PG block's headers ([`ProcessGroup::encode_headers`]). Appended
/// to `out`; returns where each payload belongs in `out`. On error `out`
/// is left as it was.
fn encode_head(
    group: &str,
    writer_rank: u64,
    step: u64,
    pg: &ProcessGroup,
    out: &mut Vec<u8>,
) -> Result<Vec<usize>, ChunkError> {
    let pg_len = pg.encoded_len();
    let mut rec = RecordEncoder::self_contained(chunk_format(), &AttrList::new(), out)?;
    rec.str(group)?;
    rec.u64(writer_rank)?;
    rec.u64(step)?;
    rec.u64(pg_len as u64)?;
    rec.finish_out_of_line(pg_len)?;
    Ok(pg.encode_headers(out))
}

/// Call `f` on a packed chunk's regions in order: `head` cut at `cuts`,
/// with `pg`'s payloads between the pieces ([`encode_head`]).
fn regions(head: &[u8], cuts: &[usize], pg: &ProcessGroup, f: &mut dyn FnMut(&[u8])) {
    let mut from = 0;
    for (v, &cut) in pg.vars.iter().zip(cuts) {
        f(&head[from..cut]);
        f(&v.data.as_le_bytes());
        from = cut;
    }
    f(&head[from..]);
}

/// A packed chunk exposed where it lies (Stage 1b without the copy): the
/// frame and the PG block's headers in one small buffer, every payload
/// in the [`ProcessGroup`]'s own arrays. Read in order, its regions are
/// byte for byte [`PackedChunk::pack`] of the group; a staging rank's
/// pull lands them in a buffer of its own ([`transport::Gather`]).
pub struct ChunkGather {
    head: Bytes,
    cuts: Vec<usize>,
    pg: ProcessGroup,
    len: usize,
}

impl ChunkGather {
    /// Frame `pg`, writing the headers into `head` (cleared first, so a
    /// recycled buffer keeps its capacity). The group is moved in, not
    /// copied.
    pub fn new(pg: ProcessGroup, mut head: Vec<u8>) -> Result<ChunkGather, ChunkError> {
        head.clear();
        let cuts = encode_head(&pg.group, pg.writer_rank, pg.step, &pg, &mut head)?;
        let len = head.len() + pg.payload_bytes();
        Ok(ChunkGather {
            head: Bytes::from(head),
            cuts,
            pg,
            len,
        })
    }

    /// The header buffer, by reference count: an exposer that keeps a
    /// clone can tell when the gather is gone ([`Bytes::is_unique`]).
    pub(crate) fn head(&self) -> &Bytes {
        &self.head
    }

    /// The process group whose arrays are the payload regions.
    pub(crate) fn pg(&self) -> &ProcessGroup {
        &self.pg
    }
}

impl Gather for ChunkGather {
    fn len(&self) -> usize {
        self.len
    }

    fn regions(&self, f: &mut dyn FnMut(&[u8])) {
        regions(&self.head, &self.cuts, &self.pg, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpio::{DataArray, Dtype, GroupDef, VarDef};

    fn sample_pg() -> ProcessGroup {
        let def = GroupDef::new(vec![
            VarDef::scalar("n", Dtype::U64),
            VarDef::local("x", Dtype::F64, vec![bpio::Dim::r("n")]),
        ])
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
    fn header_carries_stable_fingerprint() {
        let chunk = PackedChunk::new(sample_pg());
        let buf = chunk.pack().unwrap();
        let h = ffs::decode_header(&buf).unwrap();
        assert_eq!(h.fingerprint, PackedChunk::format_fingerprint());
    }

    #[test]
    fn unpack_rejects_garbage() {
        assert!(PackedChunk::unpack(b"junk").is_err());
        let mut buf = PackedChunk::new(sample_pg()).pack().unwrap();
        // Byte 5 is the flags byte: cleared, it claims a record without
        // its schema, which is no chunk's form and is refused.
        buf[5] = 0;
        assert!(matches!(
            PackedChunk::unpack(&buf),
            Err(ChunkError::Ffs(ffs::FfsError::Corrupt(_)))
        ));
        buf[5] = 1;
        assert!(PackedChunk::unpack(&buf).is_ok());
        let n = buf.len();
        buf.truncate(n - 5);
        assert!(PackedChunk::unpack(&buf).is_err());
    }
}
