//! Packed partial data chunks: one compute process' output for one step,
//! framed as a self-describing `ffs` record (paper Stage 1b). The compute
//! side exposes a chunk as a `ChunkGather` — frame and headers in a
//! small header buffer, payloads where the process group holds them —
//! and the staging side unpacks the contiguous bytes a pull lands. The
//! header buffer has one owner at a time: the client, then the gather,
//! and, when the gather is dropped, the client again, through the
//! free-headers [`EventQueue`] the gather was built with.

use std::sync::Arc;

use bpio::ProcessGroup;
use ffs::{BaseType, FieldDesc, FormatDesc, RecordEncoder};
use transport::evq::EventQueue;
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
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// frame and headers the compute side exposes as a gather, with
    /// every payload written between them — the bytes a pull of that
    /// gather lands.
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

    /// Unpack a buffer produced by [`PackedChunk::pack`] into a fresh
    /// chunk: [`PackedChunk::unpack_into`].
    pub fn unpack(buf: &[u8]) -> Result<PackedChunk, ChunkError> {
        let mut chunk = PackedChunk::default();
        chunk.unpack_into(buf)?;
        Ok(chunk)
    }

    /// Unpack a buffer produced by [`PackedChunk::pack`] into `self`,
    /// replacing what it held — the staging hot path: a staging rank
    /// keeps one chunk and unpacks every chunk it pulls into it.
    ///
    /// The frame is read through [`ffs::decode_view`], so the `pg` field
    /// is a borrowed slice of `buf`, never copied before
    /// [`ProcessGroup::decode_into`] parses it into the kept group; each
    /// payload is then copied once, into an array the chunk already
    /// holds when the last chunk had its shape. On error `self` is left
    /// partly replaced; the next unpack that succeeds replaces all of it.
    pub fn unpack_into(&mut self, buf: &[u8]) -> Result<(), ChunkError> {
        let rec = ffs::decode_view(buf, None)?;
        let group = rec
            .get("group")
            .and_then(|v| v.as_str())
            .ok_or(ChunkError::Malformed("missing group"))?;
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
        self.pg.decode_into(pg_bytes)?;
        self.group.clear();
        self.group.push_str(group);
        self.writer_rank = writer_rank;
        self.step = step;
        Ok(())
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
    let mut rec = RecordEncoder::self_contained(chunk_format(), out);
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
/// Dropping the gather sends its header buffer home.
pub(crate) struct ChunkGather {
    head: Vec<u8>,
    cuts: Vec<usize>,
    pg: ProcessGroup,
    len: usize,
    /// Where the header buffer goes when the gather is dropped.
    home: EventQueue<Vec<u8>>,
}

impl ChunkGather {
    /// Frame `pg`, writing the headers into `head` (cleared first, so a
    /// recycled buffer keeps its capacity). The group is moved in, not
    /// copied. The header buffer goes to `home` when the gather is
    /// dropped — also here, if framing fails.
    pub(crate) fn new(
        pg: ProcessGroup,
        head: Vec<u8>,
        home: EventQueue<Vec<u8>>,
    ) -> Result<ChunkGather, ChunkError> {
        let mut chunk = ChunkGather {
            head,
            cuts: Vec::new(),
            pg,
            len: 0,
            home,
        };
        chunk.head.clear();
        let pg = &chunk.pg;
        chunk.cuts = encode_head(&pg.group, pg.writer_rank, pg.step, pg, &mut chunk.head)?;
        chunk.len = chunk.head.len() + pg.payload_bytes();
        Ok(chunk)
    }

    /// The process group whose arrays are the payload regions.
    pub(crate) fn pg(&self) -> &ProcessGroup {
        &self.pg
    }
}

impl Drop for ChunkGather {
    fn drop(&mut self) {
        self.home.submit_quiet(std::mem::take(&mut self.head));
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

    /// A chunk unpacked into a kept one reads as a fresh unpack, and
    /// so does the next one after a buffer that did not unpack.
    #[test]
    fn unpack_into_a_kept_chunk_is_a_fresh_unpack() {
        let mut other = sample_pg();
        other.group = "other".into();
        other.writer_rank = 5;
        other.vars.truncate(1);
        let (first, second) = (
            PackedChunk::new(sample_pg()).pack().unwrap(),
            PackedChunk::new(other).pack().unwrap(),
        );
        let mut kept = PackedChunk::unpack(&second).unwrap();
        for buf in [&first, &second, &first] {
            assert!(kept.unpack_into(&buf[..buf.len() - 1]).is_err());
            kept.unpack_into(buf).unwrap();
            assert_eq!(kept, PackedChunk::unpack(buf).unwrap());
        }
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

#[cfg(test)]
mod wire_format {
    //! The packed-chunk wire format, pinned byte for byte: whatever encoder
    //! `PackedChunk::pack` is built on, its output equals an assembly of the
    //! documented layout written here from first principles (no `ffs`, no
    //! `bpio` encoder), the framing fingerprint is the one every earlier
    //! commit shipped, and a pack → unpack round trip is the identity, into
    //! a fresh chunk or into one kept from chunk to chunk. The gather the
    //! compute side exposes lands, through the fabric, as exactly those
    //! bytes.

    use std::time::Duration;

    use super::*;
    use bpio::{DataArray, Dim, GroupDef, VarDef};
    use proptest::prelude::*;
    use transport::{Fabric, FetchRequest};

    /// `PackedChunk::format_fingerprint()` as of the commit that introduced
    /// `predata_chunk_v1`; it is in every chunk's wire header.
    const CHUNK_FINGERPRINT: u64 = 0xbaa4_0663_1fab_d530;

    /// One variable of a generated process group: dtype (F64 or U64), local
    /// extents (rank 0–3, extents 0–3 so empty arrays occur), whether it is
    /// a global chunk, and the seed its values derive from.
    type VarSpec = (bool, Vec<u64>, bool, u64);

    fn arb_pg() -> impl Strategy<Value = ProcessGroup> {
        (
            prop::sample::select(vec![
                String::new(),
                "g".into(),
                "pixie3d".into(),
                "particles/électrons".into(),
                "long/".repeat(300),
            ]),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(
                (
                    any::<bool>(),
                    prop::collection::vec(0u64..4, 0..=3),
                    any::<bool>(),
                    any::<u64>(),
                ),
                0..6,
            ),
        )
            .prop_map(|(group, writer_rank, step, vars)| {
                let vars: Vec<(VarDef, DataArray)> =
                    vars.into_iter().enumerate().map(make_var).collect();
                let def = GroupDef::new(vars.iter().map(|(d, _)| d.clone()).collect()).unwrap();
                let mut pg = ProcessGroup::new(&group, writer_rank, step);
                for (d, data) in vars {
                    pg.write(&def, &d.name, data).unwrap();
                }
                pg
            })
    }

    fn make_var((i, (is_f64, local, is_global, seed)): (usize, VarSpec)) -> (VarDef, DataArray) {
        let n = local.iter().product::<u64>() as usize;
        // Small signed integers: exact in either dtype, never NaN.
        let value = |k: usize| (seed.wrapping_mul(k as u64 + 1) >> 40) as i64 - (1 << 23);
        let data = if is_f64 {
            DataArray::F64((0..n).map(|k| value(k) as f64 * 0.25).collect())
        } else {
            DataArray::U64((0..n).map(|k| value(k) as u64).collect())
        };
        let name = format!("v{i}");
        let consts = |d: Vec<u64>| d.into_iter().map(Dim::c).collect::<Vec<_>>();
        let def = if local.is_empty() {
            VarDef::scalar(&name, data.dtype())
        } else if is_global {
            let global = local.iter().map(|l| l + seed % 5).collect();
            let offset = local.iter().map(|_| seed % 5).collect();
            VarDef::global_chunk(
                &name,
                data.dtype(),
                consts(global),
                consts(local),
                consts(offset),
            )
        } else {
            VarDef::local(&name, data.dtype(), consts(local))
        };
        (def, data)
    }

    fn str16(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u16).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    fn str32(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    fn dims(out: &mut Vec<u8>, d: &[u64]) {
        out.push(d.len() as u8);
        for x in d {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// The PG block: `group:str32 rank:u64 step:u64 nvars:u32`, then per
    /// variable `name:str32 dtype:u8 local global offset payload_len:u64`
    /// and the little-endian elements.
    fn pg_block(pg: &ProcessGroup) -> Vec<u8> {
        let mut out = Vec::new();
        str32(&mut out, &pg.group);
        out.extend_from_slice(&pg.writer_rank.to_le_bytes());
        out.extend_from_slice(&pg.step.to_le_bytes());
        out.extend_from_slice(&(pg.vars.len() as u32).to_le_bytes());
        for v in &pg.vars {
            str32(&mut out, &v.name);
            let (tag, payload): (u8, Vec<u8>) = match &v.data {
                DataArray::F64(x) => (1, x.iter().flat_map(|e| e.to_le_bytes()).collect()),
                DataArray::U64(x) => (5, x.iter().flat_map(|e| e.to_le_bytes()).collect()),
            };
            out.push(tag);
            dims(&mut out, &v.local);
            dims(&mut out, &v.global);
            dims(&mut out, &v.offset);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        out
    }

    /// The chunk record: `"FFS1" version=2 flags=1(schema embedded)
    /// fingerprint`, the schema of `predata_chunk_v1`, then the five
    /// field values in declaration order.
    fn chunk_record(chunk: &PackedChunk) -> Vec<u8> {
        const STR: u8 = 10;
        const U64: u8 = 7;
        const U8: u8 = 1;
        let mut out = b"FFS1".to_vec();
        out.extend_from_slice(&[2, 1]);
        out.extend_from_slice(&CHUNK_FINGERPRINT.to_le_bytes());
        str16(&mut out, "predata_chunk_v1");
        out.extend_from_slice(&5u16.to_le_bytes());
        for (name, base) in [
            ("group", STR),
            ("writer_rank", U64),
            ("step", U64),
            ("pg_len", U64),
        ] {
            str16(&mut out, name);
            out.extend_from_slice(&[0, base]); // scalar
        }
        str16(&mut out, "pg");
        out.extend_from_slice(&[1, U8, 1, 1]); // array of u8, one dim, variable:
        str16(&mut out, "pg_len");
        let block = pg_block(&chunk.pg);
        str32(&mut out, &chunk.group);
        out.extend_from_slice(&chunk.writer_rank.to_le_bytes());
        out.extend_from_slice(&chunk.step.to_le_bytes());
        out.extend_from_slice(&(block.len() as u64).to_le_bytes()); // pg_len
        out.extend_from_slice(&(block.len() as u64).to_le_bytes()); // element count of pg
        out.extend_from_slice(&block);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn packed_bytes_are_the_documented_layout(pg in arb_pg()) {
            prop_assert_eq!(PackedChunk::format_fingerprint(), CHUNK_FINGERPRINT);
            let chunk = PackedChunk::new(pg);
            let packed = chunk.pack().unwrap();
            prop_assert_eq!(&packed, &chunk_record(&chunk));
            prop_assert_eq!(&chunk.pg.encode(), &pg_block(&chunk.pg));
            prop_assert_eq!(chunk.pg.encoded_len(), pg_block(&chunk.pg).len());
            prop_assert_eq!(packed.capacity(), packed.len());
            prop_assert_eq!(PackedChunk::unpack(&packed).unwrap(), chunk);
        }

        /// Chunks of any shape unpacked one after another into one kept
        /// chunk each read as a fresh unpack does — also right after an
        /// unpack of the chunk cut short failed.
        #[test]
        fn unpack_into_a_kept_chunk_is_a_fresh_unpack(
            pgs in prop::collection::vec((arb_pg(), any::<u64>()), 1..=6),
        ) {
            let mut kept = PackedChunk::default();
            for (pg, cut) in pgs {
                let chunk = PackedChunk::new(pg);
                let packed = chunk.pack().unwrap();
                let cut = &packed[..(cut % packed.len() as u64) as usize];
                prop_assert!(PackedChunk::unpack(cut).is_err());
                prop_assert!(kept.unpack_into(cut).is_err());
                kept.unpack_into(&packed).unwrap();
                prop_assert_eq!(&kept, &PackedChunk::unpack(&packed).unwrap());
                prop_assert_eq!(&kept, &chunk);
            }
        }

        #[test]
        fn a_landed_gather_is_the_packed_chunk(pg in arb_pg(), recycled in 0usize..4096) {
            let packed = PackedChunk::new(pg.clone()).pack().unwrap();
            let payload = pg.payload_bytes();
            let (fabric, computes, stagings) = Fabric::new(1, 1, None);
            let home = EventQueue::unbounded();
            let gather = ChunkGather::new(pg, vec![0xAB; recycled], home.clone()).unwrap();
            let handle = computes[0].expose_gather(Box::new(gather), 0).unwrap();
            prop_assert_eq!(fabric.pinned_bytes(), packed.len());
            let req = FetchRequest {
                src_rank: 0,
                io_step: 0,
                handle,
                chunk_bytes: packed.len(),
                format: PackedChunk::format_fingerprint(),
                attrs: ffs::AttrList::new(),
            };
            let landed = stagings[0].rdma_get(&req).unwrap();
            prop_assert_eq!(&landed[..], &packed[..]);
            prop_assert_eq!(fabric.stats().bytes_pulled(), packed.len() as u64);
            prop_assert_eq!(home.len(), 0, "the gather holds its header buffer");
            let done = computes[0].wait_completion(Duration::from_secs(1)).unwrap();
            prop_assert_eq!(done.bytes, packed.len());
            let head = home.try_poll().expect("the header buffer came home");
            prop_assert!(head.capacity() >= recycled);
            prop_assert_eq!(head.len() + payload, packed.len(), "framed with the chunk's headers");
        }
    }
}
