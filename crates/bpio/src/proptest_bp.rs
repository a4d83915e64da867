//! Property tests for the BP-like format: arbitrary tilings of a global
//! array round-trip through files, and any `read_box` equals a naive
//! slice of the assembled array.

use std::path::PathBuf;

use proptest::prelude::*;

use crate::{
    BpError, BpFileSet, BpReader, BpWriter, DataArray, Dim, Dtype, GroupDef, ProcessGroup,
    ReadStats, VarDef,
};

const G: [u64; 2] = [24, 16];

fn tmp(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("bpio-prop");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("p{}-{tag}.bp", std::process::id()))
}

fn group() -> GroupDef {
    GroupDef::new(vec![
        VarDef::scalar("o0", Dtype::U64),
        VarDef::scalar("o1", Dtype::U64),
        VarDef::scalar("l0", Dtype::U64),
        VarDef::scalar("l1", Dtype::U64),
        VarDef::global_chunk(
            "a",
            Dtype::F64,
            vec![Dim::c(G[0]), Dim::c(G[1])],
            vec![Dim::r("l0"), Dim::r("l1")],
            vec![Dim::r("o0"), Dim::r("o1")],
        ),
    ])
    .unwrap()
}

/// Value of the global array at (i, j): its global linear index.
fn val(i: u64, j: u64) -> f64 {
    (i * G[1] + j) as f64
}

/// A row-tiling of the global array into `splits` horizontal strips,
/// each split further in the column direction.
fn arb_tiling() -> impl Strategy<Value = Vec<([u64; 2], [u64; 2])>> {
    // Cut points along each axis.
    (1u64..=4, 1u64..=4).prop_map(|(nr, nc)| {
        let mut tiles = Vec::new();
        for r in 0..nr {
            let r0 = G[0] * r / nr;
            let r1 = G[0] * (r + 1) / nr;
            for c in 0..nc {
                let c0 = G[1] * c / nc;
                let c1 = G[1] * (c + 1) / nc;
                tiles.push(([r0, c0], [r1 - r0, c1 - c0]));
            }
        }
        tiles
    })
}

fn write_tiles(path: &PathBuf, tiles: &[([u64; 2], [u64; 2])]) {
    let def = group();
    let mut w = BpWriter::create(path).unwrap();
    for (rank, (off, loc)) in tiles.iter().enumerate() {
        let mut pg = ProcessGroup::new("g", rank as u64, 0);
        pg.write(&def, "o0", DataArray::U64(vec![off[0]])).unwrap();
        pg.write(&def, "o1", DataArray::U64(vec![off[1]])).unwrap();
        pg.write(&def, "l0", DataArray::U64(vec![loc[0]])).unwrap();
        pg.write(&def, "l1", DataArray::U64(vec![loc[1]])).unwrap();
        let mut data = Vec::with_capacity((loc[0] * loc[1]) as usize);
        for i in 0..loc[0] {
            for j in 0..loc[1] {
                data.push(val(off[0] + i, off[1] + j));
            }
        }
        pg.write(&def, "a", DataArray::F64(data)).unwrap();
        w.append_pg(&pg).unwrap();
    }
    w.finish().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any tiling reassembles to the same global array.
    #[test]
    fn any_tiling_assembles(tiles in arb_tiling(), tag in any::<u64>()) {
        let path = tmp(tag);
        write_tiles(&path, &tiles);
        let mut r = BpReader::open(&path).unwrap();
        let got = r.read_global("a", 0).unwrap();
        let expect: Vec<f64> =
            (0..G[0]).flat_map(|i| (0..G[1]).map(move |j| val(i, j))).collect();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(got, DataArray::F64(expect));
    }

    /// Any sub-box read equals the naive slice, whatever the tiling.
    #[test]
    fn any_box_matches_naive(
        tiles in arb_tiling(),
        corner_frac in (0.0f64..1.0, 0.0f64..1.0),
        tag in any::<u64>(),
    ) {
        let path = tmp(tag.wrapping_add(1));
        write_tiles(&path, &tiles);
        let c0 = (corner_frac.0 * (G[0] - 1) as f64) as u64;
        let c1 = (corner_frac.1 * (G[1] - 1) as f64) as u64;
        let e0 = (G[0] - c0).clamp(1, 7);
        let e1 = (G[1] - c1).clamp(1, 5);
        let mut r = BpReader::open(&path).unwrap();
        let got = r.read_box("a", 0, &[c0, c1], &[e0, e1]).unwrap();
        let expect: Vec<f64> = (0..e0)
            .flat_map(|i| (0..e1).map(move |j| val(c0 + i, c1 + j)))
            .collect();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(got, DataArray::F64(expect));
        // Never read more bytes than the chunks intersecting the box hold.
        let stats = r.take_stats();
        prop_assert!(stats.bytes >= e0 * e1 * 8);
    }

    /// The footer index survives arbitrary append orders: chunk count and
    /// byte accounting are exact.
    #[test]
    fn index_accounts_exactly(tiles in arb_tiling(), tag in any::<u64>()) {
        let path = tmp(tag.wrapping_add(2));
        write_tiles(&path, &tiles);
        let r = BpReader::open(&path).unwrap();
        let chunks = r.index().chunks_of("a", 0);
        prop_assert_eq!(chunks.len(), tiles.len());
        let total: u64 = chunks.iter().map(|c| c.payload_len).sum();
        prop_assert_eq!(total, G[0] * G[1] * 8);
        // Characteristics: global min/max across chunks are the array's.
        let min = chunks.iter().map(|c| c.min).fold(f64::INFINITY, f64::min);
        let max = chunks.iter().map(|c| c.max).fold(f64::NEG_INFINITY, f64::max);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(min, 0.0);
        prop_assert_eq!(max, val(G[0] - 1, G[1] - 1));
    }
}

// ---- Any rank, any dtype, one file or several ----------------------------

/// Element `i` (global linear index) of the test array, as `dtype`.
fn elems(dtype: Dtype, idx: impl Iterator<Item = u64>) -> DataArray {
    match dtype {
        Dtype::F64 => DataArray::F64(idx.map(|i| i as f64 - 0.25).collect()),
        Dtype::U64 => DataArray::U64(idx.map(|i| i + (1 << 50)).collect()),
    }
}

/// Global linear indices of the box (`corner`, `extent`) in row-major
/// order, one coordinate at a time — the per-element reference.
fn box_indices(global: &[u64], corner: &[u64], extent: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut coord = vec![0u64; global.len()];
    for _ in 0..extent.iter().product::<u64>() {
        let at = coord.iter().zip(corner).zip(global);
        out.push(at.fold(0, |idx, ((c, o), g)| idx * g + c + o));
        for d in (0..global.len()).rev() {
            coord[d] += 1;
            if coord[d] < extent[d] {
                break;
            }
            coord[d] = 0;
        }
    }
    out
}

type Tile = (Vec<u64>, Vec<u64>);

/// Cut every axis of `global` into `cuts[d]` near-equal pieces.
fn tiles_of(global: &[u64], cuts: &[u64]) -> Vec<Tile> {
    let mut tiles: Vec<Tile> = vec![(vec![], vec![])];
    for (&g, &n) in global.iter().zip(cuts) {
        let mut next = Vec::new();
        for (off, loc) in &tiles {
            for k in 0..n {
                let (lo, hi) = (g * k / n, g * (k + 1) / n);
                let (mut o, mut l) = (off.clone(), loc.clone());
                o.push(lo);
                l.push(hi - lo);
                next.push((o, l));
            }
        }
        tiles = next;
    }
    tiles
}

/// One file holding `tiles` of the global array `a`, a PG per tile.
fn write_chunks(path: &PathBuf, dtype: Dtype, global: &[u64], tiles: &[Tile]) {
    let consts = |d: &[u64]| d.iter().map(|&x| Dim::c(x)).collect::<Vec<_>>();
    let mut w = BpWriter::create(path).unwrap();
    for (rank, (off, loc)) in tiles.iter().enumerate() {
        let var = VarDef::global_chunk("a", dtype, consts(global), consts(loc), consts(off));
        let def = GroupDef::new(vec![var]).unwrap();
        let mut pg = ProcessGroup::new("g", rank as u64, 0);
        let data = elems(dtype, box_indices(global, off, loc).into_iter());
        pg.write(&def, "a", data).unwrap();
        w.append_pg(&pg).unwrap();
    }
    w.finish().unwrap();
}

/// `tiles` dealt round-robin into `n_files` files.
fn write_fileset(
    tag: u64,
    dtype: Dtype,
    global: &[u64],
    tiles: &[Tile],
    n_files: usize,
) -> Vec<PathBuf> {
    (0..n_files)
        .map(|f| {
            let path = tmp(tag.wrapping_mul(8).wrapping_add(f as u64));
            let mine: Vec<Tile> = tiles.iter().skip(f).step_by(n_files).cloned().collect();
            write_chunks(&path, dtype, global, &mine);
            path
        })
        .collect()
}

const DTYPES: [Dtype; 2] = [Dtype::F64, Dtype::U64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 1-D…3-D decompositions into 1–4 files: a single reader over all
    /// the chunks and a file set over their round-robin split both equal
    /// the per-element reference on any sub-box; drop a tile and a
    /// request that touches the hole is `IncompleteTiling`.
    #[test]
    fn any_rank_dtype_and_file_count_matches_reference(
        dims in prop::collection::vec((1u64..=9, 1u64..=3), 1..=3),
        dtype in prop::sample::select(DTYPES.to_vec()),
        n_files in 1usize..=4,
        fracs in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 3),
        tag in any::<u64>(),
    ) {
        let global: Vec<u64> = dims.iter().map(|d| d.0).collect();
        let cuts: Vec<u64> = dims.iter().map(|d| d.1.min(d.0)).collect();
        let tiles = tiles_of(&global, &cuts);
        let corner: Vec<u64> =
            global.iter().zip(&fracs).map(|(&g, f)| (f.0 * g as f64) as u64).collect();
        let extent: Vec<u64> = global
            .iter()
            .zip(&corner)
            .zip(&fracs)
            .map(|((&g, &c), f)| 1 + (f.1 * (g - c - 1) as f64) as u64)
            .collect();
        let expect = elems(dtype, box_indices(&global, &corner, &extent).into_iter());

        let one = tmp(tag.wrapping_mul(8).wrapping_add(7));
        write_chunks(&one, dtype, &global, &tiles);
        let parts = write_fileset(tag, dtype, &global, &tiles, n_files);
        let mut reader = BpReader::open(&one).unwrap();
        let mut set = BpFileSet::open(&parts).unwrap();
        let from_reader = reader.read_box("a", 0, &corner, &extent);
        let from_set = set.read_box("a", 0, &corner, &extent);
        let whole = set.read_global("a", 0);
        let (r_stats, s_stats) = (reader.take_stats(), set.take_stats());

        // The same file set without its first tile.
        let holed = write_fileset(tag, dtype, &global, &tiles[1..], n_files);
        let hole = if tiles.len() > 1 {
            let mut set = BpFileSet::open(&holed).unwrap();
            Some((set.read_global("a", 0), set.read_box("a", 0, &tiles[1].0, &tiles[1].1)))
        } else {
            None
        };
        for p in parts.iter().chain(&holed).chain([&one]) {
            std::fs::remove_file(p).ok();
        }

        prop_assert_eq!(from_reader.unwrap(), expect.clone());
        prop_assert_eq!(from_set.unwrap(), expect);
        let all = vec![0; global.len()];
        prop_assert_eq!(whole.unwrap(), elems(dtype, box_indices(&global, &all, &global).into_iter()));
        // A sub-box moves exactly its own bytes, through reader or set.
        let box_bytes = extent.iter().product::<u64>() * dtype.size() as u64;
        prop_assert_eq!(r_stats.bytes, box_bytes);
        prop_assert_eq!(s_stats.bytes, box_bytes + global.iter().product::<u64>() * dtype.size() as u64);
        if let Some((whole, present)) = hole {
            let missing = tiles[0].1.iter().product::<u64>();
            let total = global.iter().product::<u64>();
            prop_assert!(
                matches!(
                    whole,
                    Err(BpError::IncompleteTiling { covered, expected, .. })
                        if covered == total - missing && expected == total
                ),
                "a missing tile must be reported"
            );
            prop_assert!(present.is_ok(), "reads confined to present tiles still work");
        }
    }
}

/// `ReadStats` is the paper's Fig. 11 quantity, so the fold of the read
/// paths must not move it: these are the numbers the per-path readers
/// reported for one merged and one scattered layout of a 4×6×8 array.
#[test]
fn read_stats_are_pinned_for_a_merged_and_an_unmerged_layout() {
    let global = [4u64, 6, 8];
    let stats = |s: ReadStats| (s.reads, s.seeks, s.bytes);
    let run = |tag: u64, cuts: [u64; 3], n_files: usize| {
        let tiles = tiles_of(&global, &cuts);
        let one = tmp(tag);
        write_chunks(&one, Dtype::F64, &global, &tiles);
        let parts = write_fileset(tag, Dtype::F64, &global, &tiles, n_files);
        let mut reader = BpReader::open(&one).unwrap();
        let mut set = BpFileSet::open(&parts).unwrap();
        let mut out = Vec::new();
        reader.read_global("a", 0).unwrap();
        out.push(stats(reader.take_stats()));
        reader.read_box("a", 0, &[1, 2, 3], &[2, 3, 4]).unwrap();
        out.push(stats(reader.take_stats()));
        set.read_global("a", 0).unwrap();
        out.push(stats(set.take_stats()));
        set.read_box("a", 0, &[1, 2, 3], &[2, 3, 4]).unwrap();
        // Not taken in between: a second read accumulates.
        set.read_box("a", 0, &[0, 0, 0], &[4, 6, 1]).unwrap();
        out.push(stats(set.take_stats()));
        for p in parts.iter().chain([&one]) {
            std::fs::remove_file(p).ok();
        }
        out
    };
    // [reader global, reader box, set global, set box + column]
    let merged = [(1, 1, 1536), (6, 6, 192), (1, 1, 1536), (30, 30, 384)];
    let unmerged = [(12, 12, 1536), (12, 12, 192), (12, 12, 1536), (36, 36, 384)];
    assert_eq!(run(0xA1, [1, 1, 1], 1), merged);
    assert_eq!(run(0xA2, [2, 3, 2], 3), unmerged);
}

// ---- One kept group decoded into, block after block ----------------------

/// One variable: a name stem (index appended, so names are unique and
/// vary in length), dtype, local extents (rank 0–3, extents 0–3, so
/// scalars and empty arrays occur), whether it is a global chunk, and
/// the seed its values derive from.
type VarSpec = (&'static str, Dtype, Vec<u64>, bool, u64);

fn arb_var() -> impl Strategy<Value = VarSpec> {
    (
        prop::sample::select(vec![
            "",
            "x",
            "rho",
            "ünïcode",
            "a_much_longer_variable_name",
        ]),
        prop::sample::select(DTYPES.to_vec()),
        prop::collection::vec(0u64..4, 0..=3),
        any::<bool>(),
        any::<u64>(),
    )
}

/// A process group of 0–6 arbitrary variables.
fn arb_group() -> impl Strategy<Value = ProcessGroup> {
    (
        prop::sample::select(vec!["", "g", "pixie3d", "particles"]),
        any::<u64>(),
        prop::collection::vec(arb_var(), 0..=6),
    )
        .prop_map(|(group, rank, vars)| {
            let mut defs = Vec::new();
            let mut arrays = Vec::new();
            for (i, (stem, dtype, local, is_global, seed)) in vars.into_iter().enumerate() {
                let name = format!("{stem}{i}");
                // One element for a scalar (an empty product), small
                // integers: exact in every dtype, never NaN.
                let n = local.iter().product::<u64>();
                let data = elems(dtype, (0..n).map(|k| (seed.wrapping_mul(k + 1) >> 52) + k));
                let consts = |d: &[u64]| d.iter().map(|&x| Dim::c(x)).collect::<Vec<_>>();
                defs.push(if local.is_empty() {
                    VarDef::scalar(&name, dtype)
                } else if is_global {
                    let offset: Vec<u64> = local.iter().map(|_| seed % 3).collect();
                    let global: Vec<u64> = local.iter().zip(&offset).map(|(l, o)| l + o).collect();
                    VarDef::global_chunk(
                        &name,
                        dtype,
                        consts(&global),
                        consts(&local),
                        consts(&offset),
                    )
                } else {
                    VarDef::local(&name, dtype, consts(&local))
                });
                arrays.push((name, data));
            }
            let def = GroupDef::new(defs).unwrap();
            let mut pg = ProcessGroup::new(group, rank, rank / 3);
            for (name, data) in arrays {
                pg.write(&def, &name, data).unwrap();
            }
            pg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocks of any shape decoded one after another into one kept group
    /// each read as a fresh decode does — also right after a decode of
    /// the block cut short failed, halfway through replacing the group.
    #[test]
    fn decode_into_a_kept_group_is_a_fresh_decode(
        groups in prop::collection::vec((arb_group(), any::<u64>()), 1..=6),
    ) {
        let mut kept = ProcessGroup::default();
        for (pg, cut) in groups {
            let block = pg.encode();
            let cut = &block[..(cut % block.len() as u64) as usize];
            prop_assert!(ProcessGroup::decode(cut).is_err());
            prop_assert!(kept.decode_into(cut).is_err());
            kept.decode_into(&block).unwrap();
            prop_assert_eq!(&kept, &ProcessGroup::decode(&block).unwrap());
            prop_assert_eq!(&kept, &pg);
        }
    }
}
