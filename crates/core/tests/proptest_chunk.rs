//! The packed-chunk wire format, pinned byte for byte: whatever encoder
//! `PackedChunk::pack` is built on, its output equals an assembly of the
//! documented layout written here from first principles (no `ffs`, no
//! `bpio` encoder), the framing fingerprint is the one every earlier
//! commit shipped, and a pack → unpack round trip is the identity. The
//! gather the compute side exposes lands, through the fabric, as exactly
//! those bytes.

use std::time::Duration;

use bpio::{DataArray, Dim, GroupDef, ProcessGroup, VarDef};
use predata_core::chunk::ChunkGather;
use predata_core::PackedChunk;
use proptest::prelude::*;
use transport::{Fabric, FetchRequest};

/// `PackedChunk::format_fingerprint()` as of the commit that introduced
/// `predata_chunk_v1`; it is in every chunk's wire header.
const CHUNK_FINGERPRINT: u64 = 0xbaa4_0663_1fab_d530;

/// One variable of a generated process group: dtype (by index), local
/// extents (rank 0–3, extents 0–3 so empty arrays occur), whether it is
/// a global chunk, and the seed its values derive from.
type VarSpec = (usize, Vec<u64>, bool, u64);

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
                0usize..6,
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

fn make_var((i, (dtype, local, is_global, seed)): (usize, VarSpec)) -> (VarDef, DataArray) {
    let n = local.iter().product::<u64>() as usize;
    // Small signed integers: exact in every dtype, never NaN.
    let value = |k: usize| (seed.wrapping_mul(k as u64 + 1) >> 40) as i64 - (1 << 23);
    let data = match dtype {
        0 => DataArray::F32((0..n).map(|k| value(k) as f32 * 0.5).collect()),
        1 => DataArray::F64((0..n).map(|k| value(k) as f64 * 0.25).collect()),
        2 => DataArray::I32((0..n).map(|k| value(k) as i32).collect()),
        3 => DataArray::I64((0..n).map(|k| value(k) << 20).collect()),
        4 => DataArray::U32((0..n).map(|k| value(k) as u32).collect()),
        _ => DataArray::U64((0..n).map(|k| value(k) as u64).collect()),
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
            DataArray::F32(x) => (0, x.iter().flat_map(|e| e.to_le_bytes()).collect()),
            DataArray::F64(x) => (1, x.iter().flat_map(|e| e.to_le_bytes()).collect()),
            DataArray::I32(x) => (2, x.iter().flat_map(|e| e.to_le_bytes()).collect()),
            DataArray::I64(x) => (3, x.iter().flat_map(|e| e.to_le_bytes()).collect()),
            DataArray::U32(x) => (4, x.iter().flat_map(|e| e.to_le_bytes()).collect()),
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

/// The chunk record: `"FFS1" version=1 flags=1(schema embedded)
/// fingerprint`, the schema of `predata_chunk_v1`, an empty attribute
/// list, then the five field values in declaration order.
fn chunk_record(chunk: &PackedChunk) -> Vec<u8> {
    const STR: u8 = 10;
    const U64: u8 = 7;
    const U8: u8 = 1;
    let mut out = b"FFS1".to_vec();
    out.extend_from_slice(&[1, 1]);
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
    out.extend_from_slice(&0u16.to_le_bytes()); // no attributes
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

    #[test]
    fn a_landed_gather_is_the_packed_chunk(pg in arb_pg(), recycled in 0usize..4096) {
        let packed = PackedChunk::new(pg.clone()).pack().unwrap();
        let (fabric, computes, stagings) = Fabric::new(1, 1, None);
        let gather = ChunkGather::new(pg, vec![0xAB; recycled]).unwrap();
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
        let done = computes[0].wait_completion(Duration::from_secs(1)).unwrap();
        prop_assert_eq!(done.bytes, packed.len());
    }
}
