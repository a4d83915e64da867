//! Hostile input (ROADMAP item 5): every decoder and reader that takes
//! bytes from outside the process answers a damaged input with `Ok` or
//! `Err` — never a panic, and never an allocation sized by a length
//! field it has not checked against the bytes it holds. Such an
//! allocation aborts rather than unwinds, so this test binary dying *is*
//! the failure report for it.
//!
//! Six kinds of input — a PG block, a packed chunk, a footer index, a
//! whole BP file, a BP file whose forged index aliases one payload under
//! many chunks, and a bitmap-index `.idx` file — each go through every
//! single-site damage (a sweep, so the count fields and the footer's
//! length are certainly hit) and through seeded multi-site damage.
//! Well-formed inputs that name a type or shape the formats no longer
//! carry — an `ffs` record, an attribute list, a PG block — are refused
//! outright.
//!
//! The sweep decodes every PG block and packed chunk twice: fresh, and
//! into one `PackedChunk` kept across the whole sweep, as a staging rank
//! keeps one for every pull. Both must agree, whatever the last input
//! left in the kept one, and what it keeps stays bounded by the bytes
//! it was given.

use predata::bpio::{
    BpReader, BpWriter, DataArray, Dim, Dtype, FileIndex, GroupDef, ProcessGroup, VarDef, VarEntry,
};
use predata::core::agg::Aggregates;
use predata::core::op::{complete_pipeline, OpCtx, StreamOp};
use predata::core::ops::{BitmapIndex, BitmapIndexOp, IndexSet};
use predata::core::schema::make_particle_pg;
use predata::core::PackedChunk;
use predata::ffs::{decode_view, AttrList, FfsError};
use proptest::prelude::*;

/// Scalars, a chunk of a 2-D global array, a local array and an empty one.
fn sample_pg(rank: u64) -> ProcessGroup {
    let def = GroupDef::new(vec![
        VarDef::scalar("n", Dtype::U64),
        VarDef::scalar("off", Dtype::U64),
        VarDef::global_chunk(
            "field",
            Dtype::F64,
            vec![Dim::c(2), Dim::c(6)],
            vec![Dim::c(2), Dim::r("n")],
            vec![Dim::c(0), Dim::r("off")],
        ),
        VarDef::local("ids", Dtype::U64, vec![Dim::r("n")]),
        VarDef::local("none", Dtype::F64, vec![Dim::c(0)]),
    ])
    .unwrap();
    let mut pg = ProcessGroup::new("g", rank, 0);
    pg.write(&def, "n", DataArray::U64(vec![3])).unwrap();
    pg.write(&def, "off", DataArray::U64(vec![rank * 3]))
        .unwrap();
    let field = (0..6).map(|i| (rank * 6 + i) as f64).collect();
    pg.write(&def, "field", DataArray::F64(field)).unwrap();
    pg.write(&def, "ids", DataArray::U64(vec![u64::MAX, 0, 1]))
        .unwrap();
    pg.write(&def, "none", DataArray::F64(vec![])).unwrap();
    pg
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hostile-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.bp"))
}

/// The bytes of a two-writer BP file and of its footer index (written
/// once: the tests of this binary run side by side).
fn sample_file() -> &'static (Vec<u8>, Vec<u8>) {
    static FILE: std::sync::OnceLock<(Vec<u8>, Vec<u8>)> = std::sync::OnceLock::new();
    FILE.get_or_init(|| {
        let path = scratch("valid");
        let mut w = BpWriter::create(&path).unwrap();
        w.append_pg(&sample_pg(0)).unwrap();
        w.append_pg(&sample_pg(1)).unwrap();
        w.annotate("layout", "unmerged");
        let index = w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        (bytes, index.encode())
    })
}

/// The bytes of a BP file whose index is consistent but forged: it puts
/// 16 disjoint chunks of one global array on the one 256-byte payload the
/// file holds. Every entry lies inside the payload region and has its
/// shape's length, yet the whole array, read back, would be 16 times the
/// payload — larger than the file.
fn aliased_file() -> &'static Vec<u8> {
    static FILE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    FILE.get_or_init(|| {
        const CHUNKS: u64 = 16;
        const LEN: u64 = 32;
        let def = GroupDef::new(vec![VarDef::global_chunk(
            "a",
            Dtype::F64,
            vec![Dim::c(LEN)],
            vec![Dim::c(LEN)],
            vec![Dim::c(0)],
        )])
        .unwrap();
        let mut pg = ProcessGroup::new("g", 0, 0);
        pg.write(&def, "a", DataArray::F64(vec![1.0; LEN as usize]))
            .unwrap();
        let path = scratch("aliased");
        let mut w = BpWriter::create(&path).unwrap();
        w.append_pg(&pg).unwrap();
        let mut index = w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let chunk = index.vars.pop().unwrap();
        index.vars = (0..CHUNKS)
            .map(|i| VarEntry {
                global: vec![CHUNKS * LEN],
                offset_in_global: vec![i * LEN],
                ..chunk.clone()
            })
            .collect();
        // `[PG blocks…][index][index_len][magic]`, with the forged index.
        let (body, tail) = bytes.split_at(bytes.len() - 12);
        let idx_len = u64::from_le_bytes(tail[..8].try_into().unwrap()) as usize;
        let forged = index.encode();
        let mut file = body[..body.len() - idx_len].to_vec();
        file.extend_from_slice(&forged);
        file.extend_from_slice(&(forged.len() as u64).to_le_bytes());
        file.extend_from_slice(&tail[8..]);
        file
    })
}

/// The bytes of the `.idx` file `BitmapIndexOp::finalize` writes for two
/// chunks: `[count u32]` then per chunk `[rank u64][len u32][index]`.
fn sample_idx() -> &'static Vec<u8> {
    static IDX: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    IDX.get_or_init(|| {
        let (_world, comms) = predata::minimpi::World::with_size(1);
        let dir = scratch("idx").with_extension("");
        std::fs::create_dir_all(&dir).unwrap();
        let ctx = OpCtx {
            comm: &comms[0],
            out_dir: &dir,
            step: 0,
            n_compute: 2,
            agg: None,
        };
        let mut op = BitmapIndexOp::new(0, 3);
        op.initialize(&Aggregates::local_only(&[]), &ctx);
        let mut mapped = Vec::new();
        for rank in 0..2u64 {
            let rows = (0..70).flat_map(|i| [(i % 9) as f64 / 8.0, 0., 0., 0., 0., 0., 0., 0.]);
            let chunk = PackedChunk::new(make_particle_pg(rank, 0, rows.collect()));
            mapped.extend(op.map(&chunk, &ctx));
        }
        let result = complete_pipeline(&mut op, mapped, &ctx);
        let bytes = std::fs::read(&result.files[0]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    })
}

#[derive(Debug, Clone, Copy)]
enum Input {
    Block,
    Chunk,
    Footer,
    File,
    Aliased,
    Idx,
}

const INPUTS: [Input; 6] = [
    Input::Block,
    Input::Chunk,
    Input::Footer,
    Input::File,
    Input::Aliased,
    Input::Idx,
];

fn valid(input: Input) -> Vec<u8> {
    match input {
        Input::Block => sample_pg(1).encode(),
        Input::Chunk => PackedChunk::new(sample_pg(1)).pack().unwrap(),
        Input::Footer => sample_file().1.clone(),
        Input::File => sample_file().0.clone(),
        Input::Aliased => aliased_file().clone(),
        Input::Idx => sample_idx().clone(),
    }
}

/// Hand `bytes` to everything that reads that kind of input; blocks and
/// chunks are also decoded into `kept`, and must read as a fresh decode
/// does (compared encoded: a damaged payload can hold a NaN).
fn consume(input: Input, bytes: &[u8], tag: &str, kept: &mut PackedChunk) {
    match input {
        Input::Block => {
            let fresh = ProcessGroup::decode(bytes).map(|pg| pg.encode());
            let reused = kept.pg.decode_into(bytes).map(|()| kept.pg.encode());
            assert_eq!(reused.ok(), fresh.ok(), "a block decoded into a kept group");
        }
        Input::Chunk => {
            let fresh = PackedChunk::unpack(bytes).map(|c| c.pack().unwrap());
            let reused = kept.unpack_into(bytes).map(|()| kept.pack().unwrap());
            assert_eq!(reused.ok(), fresh.ok(), "a chunk unpacked into a kept one");
            drop(predata::ffs::decode_header(bytes));
            if let Ok(view) = predata::ffs::decode_view(bytes, None) {
                drop(view.get("pg").map(|v| v.to_value()));
            }
        }
        Input::Footer => drop(FileIndex::decode(bytes)),
        Input::File | Input::Aliased => {
            let path = scratch(tag);
            std::fs::write(&path, bytes).unwrap();
            if let Ok(mut r) = BpReader::open(&path) {
                let names: Vec<String> =
                    r.index().var_names().into_iter().map(Into::into).collect();
                for step in r.index().steps() {
                    for name in &names {
                        drop(r.read_global(name, step));
                        drop(r.read_box(name, step, &[1, 2], &[1, 3]));
                        drop(r.read_local(name, step, 1));
                    }
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
        Input::Idx => {
            // The first chunk's index lies behind the 16-byte file and
            // chunk headers.
            drop(BitmapIndex::from_bytes(bytes.get(16..).unwrap_or(bytes)));
            let path = scratch(tag).with_extension("idx");
            std::fs::write(&path, bytes).unwrap();
            if let Ok(set) = IndexSet::load([path.clone()]) {
                drop(set.plan(0.25, 0.75));
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}

/// One damage at byte `at`: a flipped bit, a cut, or a 4- or 8-byte
/// length-field-sized window of all ones (`u32::MAX` / `u64::MAX`).
#[derive(Debug, Clone, Copy)]
enum Damage {
    Flip(u8),
    Truncate,
    Ones(usize),
}

fn damage(buf: &mut Vec<u8>, at: usize, how: Damage) {
    if buf.is_empty() {
        return;
    }
    let at = at % buf.len();
    match how {
        Damage::Flip(bit) => buf[at] ^= 1 << (bit % 8),
        Damage::Truncate => buf.truncate(at),
        Damage::Ones(width) => {
            let end = (at + width).min(buf.len());
            buf[at..end].fill(0xff);
        }
    }
}

/// Every single-site damage of every input: each count field and the
/// footer's index length are certainly among the sites.
#[test]
fn every_single_site_damage_is_ok_or_err() {
    let mut kept = PackedChunk::default();
    let mut longest = 0;
    for input in INPUTS {
        let good = valid(input);
        longest = longest.max(good.len());
        consume(input, &good, "sweep", &mut kept);
        for at in 0..good.len() {
            let kinds = [
                Damage::Flip(at as u8),
                Damage::Truncate,
                Damage::Ones(4),
                Damage::Ones(8),
            ];
            for how in kinds {
                let mut bad = good.clone();
                damage(&mut bad, at, how);
                consume(input, &bad, "sweep", &mut kept);
            }
        }
    }
    // Every variable takes at least 16 bytes of the block that counts it.
    assert!(
        kept.pg.vars.capacity() <= longest / 16,
        "a kept group holds room for {} variables after inputs of {longest} B at most",
        kept.pg.vars.capacity()
    );
}

/// One field of a hand-laid `ffs` schema.
enum Field {
    /// A scalar of this base tag.
    Scalar(u8),
    /// An array of this base tag, with these dimensions: a fixed extent
    /// (`Ok`) or the name of the field that sizes it (`Err`).
    Array(u8, Vec<Result<u64, &'static str>>),
}

/// An `ffs` record laid out by hand: `"FFS1"`, `version`, flags 1 (schema
/// embedded), the schema's fingerprint, the schema, an empty record-level
/// attribute list in version 1, and `payload`. The fingerprint is the
/// FNV-1a hash `FormatDesc::fingerprint` takes over the format's name,
/// 0xff, and each field's name and shape, so a well-formed record of any
/// shape gets past the header.
fn ffs_record(version: u8, fields: &[(&str, Field)], payload: &[u8]) -> Vec<u8> {
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            fp = (fp ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let str16 = |out: &mut Vec<u8>, s: &str| {
        out.extend_from_slice(&(s.len() as u16).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    };
    let mut schema = Vec::new();
    str16(&mut schema, "hostile");
    eat(b"hostile\xff");
    schema.extend_from_slice(&(fields.len() as u16).to_le_bytes());
    for (name, field) in fields {
        str16(&mut schema, name);
        eat(name.as_bytes());
        match field {
            Field::Scalar(tag) => {
                schema.extend_from_slice(&[0, *tag]);
                eat(&[0, *tag]);
            }
            Field::Array(tag, dims) => {
                schema.extend_from_slice(&[1, *tag, dims.len() as u8]);
                eat(&[1, *tag, dims.len() as u8]);
                for dim in dims {
                    match dim {
                        Ok(extent) => {
                            schema.push(0);
                            schema.extend_from_slice(&extent.to_le_bytes());
                            eat(&[0]);
                            eat(&extent.to_le_bytes());
                        }
                        Err(size) => {
                            schema.push(1);
                            str16(&mut schema, size);
                            eat(&[1]);
                            eat(size.as_bytes());
                            eat(&[0xfe]);
                        }
                    }
                }
            }
        }
    }
    let mut out = b"FFS1".to_vec();
    out.extend_from_slice(&[version, 1]);
    out.extend_from_slice(&fp.to_le_bytes());
    out.extend_from_slice(&schema);
    if version == 1 {
        out.extend_from_slice(&[0, 0]);
    }
    out.extend_from_slice(payload);
    out
}

/// `parts` concatenated: little-endian `u64`s and raw bytes.
fn le(parts: &[&[u64]]) -> Vec<u8> {
    parts
        .iter()
        .flat_map(|p| p.iter().flat_map(|x| x.to_le_bytes()))
        .collect()
}

/// Well-formed bytes that name a retired type or shape: an `ffs` record
/// with a retired base tag (0, 2–6, 8 were i8, i16, u16, i32, u32, i64,
/// f32), a `u8` scalar, an `f64` or `str` array, a fixed or 2-D extent, or
/// the version-1 layout; an attribute list entry of a retired tag; a PG
/// block whose variable has a retired dtype tag (0, 2–4 were f32, i32,
/// i64, u32). Each is refused — and the records also go through the
/// chunk decoders, which must refuse them without a panic.
#[test]
fn garbage_naming_a_retired_type_is_refused() {
    let mut kept = PackedChunk::default();
    let n = || ("n", Field::Scalar(7));
    let mut records = Vec::new();
    for (tag, size) in [(0, 1), (2, 2), (3, 2), (4, 4), (5, 4), (6, 8), (8, 4)] {
        let record = ffs_record(2, &[("x", Field::Scalar(tag))], &vec![0; size]);
        records.push((format!("scalar of base tag {tag}"), record));
    }
    let one_elem = le(&[&[1, 1, 0]]);
    for (what, fields, payload) in [
        ("u8 scalar", vec![("x", Field::Scalar(1))], vec![7]),
        (
            "f64 array",
            vec![n(), ("x", Field::Array(9, vec![Err("n")]))],
            one_elem.clone(),
        ),
        (
            "str array",
            vec![n(), ("x", Field::Array(10, vec![Err("n")]))],
            one_elem.clone(),
        ),
        (
            "fixed extent",
            vec![("x", Field::Array(7, vec![Ok(1)]))],
            le(&[&[1, 0]]),
        ),
        (
            "2-D array",
            vec![n(), ("x", Field::Array(7, vec![Err("n"), Ok(1)]))],
            one_elem,
        ),
        (
            "no dimension",
            vec![("x", Field::Array(7, vec![]))],
            le(&[&[1, 0]]),
        ),
    ] {
        records.push((what.to_string(), ffs_record(2, &fields, &payload)));
    }
    records.push(("version 1".to_string(), ffs_record(1, &[n()], &le(&[&[3]]))));
    // The same record as version 2 is well-formed: the refusals above
    // are the types', the shapes' and the layout's, not the hand layout's.
    let good = ffs_record(
        2,
        &[n(), ("x", Field::Array(7, vec![Err("n")]))],
        &le(&[&[1, 1, 5]]),
    );
    assert_eq!(
        decode_view(&good, None).unwrap().get("n").unwrap().as_u64(),
        Some(1)
    );
    for (what, record) in &records {
        assert!(decode_view(record, None).is_err(), "{what} decoded");
        assert!(PackedChunk::unpack(record).is_err(), "{what} unpacked");
        consume(Input::Chunk, record, "retired", &mut kept);
    }
    assert_eq!(
        decode_view(&records.last().unwrap().1, None).unwrap_err(),
        FfsError::BadVersion(1)
    );

    // Attribute lists: one entry `a` of each retired tag.
    for tag in [0u8, 2, 3, 4, 5, 6, 8] {
        let mut blob = vec![1, 0, 1, 0, b'a', tag, 0];
        blob.extend_from_slice(&[0; 8]);
        assert!(
            AttrList::from_bytes(&blob).is_err(),
            "attribute of tag {tag}"
        );
    }

    // A PG block of one `u64` variable `v` of two elements, its dtype tag
    // (after the group, rank, step, count and name) replaced.
    let def = GroupDef::new(vec![VarDef::local("v", Dtype::U64, vec![Dim::c(2)])]).unwrap();
    let mut pg = ProcessGroup::new("g", 0, 0);
    pg.write(&def, "v", DataArray::U64(vec![1, 2])).unwrap();
    let block = pg.encode();
    let at = (4 + 1) + 8 + 8 + 4 + (4 + 1);
    assert_eq!(block[at], 5, "the u64 dtype tag");
    for tag in [0u8, 2, 3, 4] {
        let mut bad = block.clone();
        bad[at] = tag;
        assert!(ProcessGroup::decode(&bad).is_err(), "dtype tag {tag}");
        consume(Input::Block, &bad, "retired", &mut kept);
    }
}

/// The forged index of `aliased_file` is refused when the file is
/// opened, before any read could build an array larger than the file.
#[test]
fn an_index_that_aliases_one_payload_is_refused() {
    let path = scratch("aliased-open");
    std::fs::write(&path, aliased_file()).unwrap();
    let opened = BpReader::open(&path);
    std::fs::remove_file(&path).unwrap();
    assert!(opened.is_err(), "a forged index was accepted");
}

fn arb_damage() -> impl Strategy<Value = (usize, Damage)> {
    (any::<u16>(), 0u8..4, any::<u8>()).prop_map(|(at, kind, bit)| {
        let how = match kind {
            0 => Damage::Flip(bit),
            1 => Damage::Truncate,
            2 => Damage::Ones(4),
            _ => Damage::Ones(8),
        };
        (at as usize, how)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Seeded damage at up to four sites at once, which a single-site
    /// sweep cannot reach (a count and the length it is checked against
    /// both wrong, a cut after a forged length, ...).
    #[test]
    fn seeded_multi_site_damage_is_ok_or_err(
        input in prop::sample::select(INPUTS.to_vec()),
        sites in prop::collection::vec(arb_damage(), 1..=4),
    ) {
        let mut bad = valid(input);
        for (at, how) in sites {
            damage(&mut bad, at, how);
        }
        consume(input, &bad, "seeded", &mut PackedChunk::default());
    }
}
