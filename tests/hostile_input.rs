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

use predata::bpio::{
    BpReader, BpWriter, DataArray, Dim, Dtype, FileIndex, GroupDef, ProcessGroup, VarDef, VarEntry,
};
use predata::core::agg::Aggregates;
use predata::core::op::{complete_pipeline, OpCtx, StreamOp};
use predata::core::ops::{BitmapIndex, BitmapIndexOp, IndexSet};
use predata::core::schema::make_particle_pg;
use predata::core::PackedChunk;
use proptest::prelude::*;

/// Scalars, a chunk of a 2-D global array, a local array and an empty one.
fn sample_pg(rank: u64) -> ProcessGroup {
    let def = GroupDef::new(
        "g",
        vec![
            VarDef::scalar("n", Dtype::U64),
            VarDef::scalar("off", Dtype::U64),
            VarDef::global_chunk(
                "field",
                Dtype::F64,
                vec![Dim::c(2), Dim::c(6)],
                vec![Dim::c(2), Dim::r("n")],
                vec![Dim::c(0), Dim::r("off")],
            ),
            VarDef::local("ids", Dtype::I32, vec![Dim::r("n")]),
            VarDef::local("none", Dtype::F32, vec![Dim::c(0)]),
        ],
    )
    .unwrap();
    let mut pg = ProcessGroup::new("g", rank, 0);
    pg.write(&def, "n", DataArray::U64(vec![3])).unwrap();
    pg.write(&def, "off", DataArray::U64(vec![rank * 3]))
        .unwrap();
    let field = (0..6).map(|i| (rank * 6 + i) as f64).collect();
    pg.write(&def, "field", DataArray::F64(field)).unwrap();
    pg.write(&def, "ids", DataArray::I32(vec![-1, 0, 1]))
        .unwrap();
    pg.write(&def, "none", DataArray::F32(vec![])).unwrap();
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
        let def = GroupDef::new(
            "g",
            vec![VarDef::global_chunk(
                "a",
                Dtype::F64,
                vec![Dim::c(LEN)],
                vec![Dim::c(LEN)],
                vec![Dim::c(0)],
            )],
        )
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

/// Hand `bytes` to everything that reads that kind of input.
fn consume(input: Input, bytes: &[u8], tag: &str) {
    match input {
        Input::Block => drop(ProcessGroup::decode(bytes)),
        Input::Chunk => {
            drop(PackedChunk::unpack(bytes));
            drop(predata::ffs::decode_header(bytes));
            if let Ok(view) = predata::ffs::decode_view(bytes, None) {
                drop(view.get("pg").map(|v| v.to_value()));
            }
            drop(predata::ffs::decode(bytes, None));
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
    for input in INPUTS {
        let good = valid(input);
        consume(input, &good, "sweep");
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
                consume(input, &bad, "sweep");
            }
        }
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
        consume(input, &bad, "seeded");
    }
}
