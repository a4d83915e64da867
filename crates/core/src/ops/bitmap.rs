//! Bin-encoded bitmap indexing for range queries (GTC task 2).
//!
//! Following the multi-resolution bitmap approach of Sinha & Winslett,
//! each indexed attribute's value range is cut into bins; a compressed
//! bitmap per bin records which rows fall in it. A range query then
//! touches only boundary-bin rows ("candidates", verified against data)
//! plus whole inner bins ("hits", no data access needed) — which is how
//! the paper's staging-side indexing shrinks subsequent reads.
//!
//! The bitmap compression is word-aligned run-length (WAH-flavoured):
//! each entry is (number of all-zero 64-bit words skipped, literal word).

use std::sync::Arc;

use super::kit::{attach_particle_stats, bin_index, global_range, record_output};
use crate::agg::Aggregates;
use crate::chunk::PackedChunk;
use crate::op::{ChunkMapper, ComputeSideOp, MapCtx, OpCtx, OpResult, StageRows, StreamOp, Tagged};
use crate::schema::{particles_of, PARTICLE_ATTRS, PARTICLE_WIDTH};
use ffs::Value;

/// A compressed bitmap over row ids, built by appending set bits in
/// increasing order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CompressedBitmap {
    /// (zero words skipped since previous entry, literal word).
    runs: Vec<(u32, u64)>,
    /// Word index of the last literal, for append.
    last_word: u64,
    len_bits: u64,
}

impl CompressedBitmap {
    /// The per-row reference build that `dense_build` is checked against.
    #[cfg(test)]
    fn new() -> Self {
        Self::default()
    }

    /// Set bit `i`. Bits must be appended in strictly increasing order.
    #[cfg(test)]
    fn push(&mut self, i: u64) {
        assert!(
            i >= self.len_bits,
            "bits must be appended in increasing order"
        );
        let word = i / 64;
        let bit = 1u64 << (i % 64);
        match self.runs.last_mut() {
            Some((_, w)) if self.last_word == word => *w |= bit,
            _ => {
                let skipped = if self.runs.is_empty() {
                    word
                } else {
                    word - self.last_word - 1
                };
                self.runs.push((skipped as u32, bit));
                self.last_word = word;
            }
        }
        self.len_bits = i + 1;
    }

    /// The bitmap whose `w`-th 64-bit word is the `w`-th item of `words`:
    /// the runs, `last_word` and `len_bits` that pushing its set bits in
    /// order would leave.
    fn from_words(words: impl Iterator<Item = u64> + Clone) -> Self {
        let mut bm = CompressedBitmap {
            runs: Vec::with_capacity(words.clone().filter(|&w| w != 0).count()),
            ..Self::default()
        };
        for (w, word) in words.enumerate().filter(|&(_, word)| word != 0) {
            let w = w as u64;
            let skipped = if bm.runs.is_empty() {
                w
            } else {
                w - bm.last_word - 1
            };
            bm.runs.push((skipped as u32, word));
            bm.last_word = w;
            bm.len_bits = 64 * w + 64 - u64::from(word.leading_zeros());
        }
        bm
    }

    /// Iterate set bit positions in increasing order.
    pub(crate) fn iter_ones(&self) -> impl Iterator<Item = u64> + '_ {
        let mut word_idx: u64 = 0;
        let mut first = true;
        self.runs.iter().flat_map(move |&(skip, w)| {
            if first {
                first = false;
                word_idx = skip as u64;
            } else {
                word_idx += skip as u64 + 1;
            }
            let base = word_idx * 64;
            (0..64u64)
                .filter(move |b| (w >> b) & 1 == 1)
                .map(move |b| base + b)
        })
    }

    /// Memory footprint in bytes (the compression the paper relies on for
    /// keeping indexes in staging memory).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<(u32, u64)>()
    }

    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.runs.len() * 12);
        out.extend_from_slice(&self.len_bits.to_le_bytes());
        out.extend_from_slice(&(self.runs.len() as u32).to_le_bytes());
        for &(skip, w) in &self.runs {
            out.extend_from_slice(&skip.to_le_bytes());
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    pub(crate) fn from_bytes(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < 12 {
            return None;
        }
        let len_bits = u64::from_le_bytes(buf[..8].try_into().ok()?);
        let n = u32::from_le_bytes(buf[8..12].try_into().ok()?) as usize;
        let need = 12 + n * 12;
        if buf.len() < need {
            return None;
        }
        let mut runs = Vec::with_capacity(n);
        let mut word = 0u64;
        for i in 0..n {
            let off = 12 + i * 12;
            let skip = u32::from_le_bytes(buf[off..off + 4].try_into().ok()?);
            let w = u64::from_le_bytes(buf[off + 4..off + 12].try_into().ok()?);
            word = if i == 0 {
                skip as u64
            } else {
                word + skip as u64 + 1
            };
            runs.push((skip, w));
        }
        Some((
            CompressedBitmap {
                runs,
                last_word: word,
                len_bits,
            },
            need,
        ))
    }
}

/// A bin-encoded bitmap index over one attribute of one row set.
#[derive(Debug, Clone, PartialEq)]
pub struct BitmapIndex {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    pub(crate) bins: Vec<CompressedBitmap>,
    pub(crate) n_rows: u64,
}

impl BitmapIndex {
    /// Build over `values`, binning `[lo, hi]` into `n_bins`.
    ///
    /// Dense, then compressed: each row's bin is computed once and its
    /// bit OR-ed into an uncompressed word matrix, which each bin's
    /// bitmap then compresses in one pass over its own words. The matrix
    /// is word-major (the `n_bins` words covering rows `64w..64w + 64`
    /// side by side), so it grows by one such row per 64 values and the
    /// row count need not be known up front.
    pub(crate) fn build(
        values: impl Iterator<Item = f64>,
        lo: f64,
        hi: f64,
        n_bins: usize,
    ) -> Self {
        assert!(n_bins > 0);
        let mut dense: Vec<u64> = Vec::with_capacity(values.size_hint().0.div_ceil(64) * n_bins);
        let mut n_rows = 0u64;
        for v in values {
            if n_rows.is_multiple_of(64) {
                dense.resize(dense.len() + n_bins, 0);
            }
            let word = dense.len() - n_bins + bin_index(lo, hi, n_bins, v);
            dense[word] |= 1 << (n_rows % 64);
            n_rows += 1;
        }
        let bins = (0..n_bins)
            .map(|b| CompressedBitmap::from_words(dense.iter().skip(b).step_by(n_bins).copied()))
            .collect();
        BitmapIndex {
            lo,
            hi,
            bins,
            n_rows,
        }
    }

    fn bin_of(&self, v: f64) -> usize {
        bin_index(self.lo, self.hi, self.bins.len(), v)
    }

    /// Answer `lo_q <= value <= hi_q`: rows certainly matching (from
    /// fully-covered bins) and candidate rows (boundary bins) that the
    /// caller must verify against the data.
    pub(crate) fn query(&self, lo_q: f64, hi_q: f64) -> QueryResult {
        let mut hits = Vec::new();
        let mut candidates = Vec::new();
        if lo_q > hi_q || self.n_rows == 0 || lo_q > self.hi || hi_q < self.lo {
            return QueryResult { hits, candidates };
        }
        let b_lo = self.bin_of(lo_q.max(self.lo));
        let b_hi = self.bin_of(hi_q.min(self.hi));
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for b in b_lo..=b_hi {
            let bin_lo = self.lo + b as f64 * width;
            let bin_hi = bin_lo + width;
            let fully_inside = lo_q <= bin_lo && bin_hi <= hi_q && self.hi > self.lo;
            let out = if fully_inside {
                &mut hits
            } else {
                &mut candidates
            };
            out.extend(self.bins[b].iter_ones());
        }
        QueryResult { hits, candidates }
    }

    /// Total compressed footprint.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.bins.iter().map(CompressedBitmap::heap_bytes).sum()
    }

    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        // Exact size: 28-byte header + each bin's [len_bits u64][n u32]
        // [runs (u32, u64)…] encoding.
        let total = 28
            + self
                .bins
                .iter()
                .map(|b| 12 + b.runs.len() * 12)
                .sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&self.lo.to_le_bytes());
        out.extend_from_slice(&self.hi.to_le_bytes());
        out.extend_from_slice(&self.n_rows.to_le_bytes());
        out.extend_from_slice(&(self.bins.len() as u32).to_le_bytes());
        for b in &self.bins {
            out.extend_from_slice(&b.to_bytes());
        }
        debug_assert_eq!(out.len(), total);
        out
    }

    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        if buf.len() < 28 {
            return None;
        }
        let lo = f64::from_le_bytes(buf[..8].try_into().ok()?);
        let hi = f64::from_le_bytes(buf[8..16].try_into().ok()?);
        let n_rows = u64::from_le_bytes(buf[16..24].try_into().ok()?);
        let nb = u32::from_le_bytes(buf[24..28].try_into().ok()?) as usize;
        let mut pos = 28;
        // A built index has a bin, and an encoded bin takes 12 bytes or
        // more: a count the bytes cannot hold is refused before it sizes
        // an allocation.
        if nb == 0 || nb > (buf.len() - pos) / 12 {
            return None;
        }
        let mut bins = Vec::with_capacity(nb);
        for _ in 0..nb {
            let (b, used) = CompressedBitmap::from_bytes(&buf[pos..])?;
            bins.push(b);
            pos += used;
        }
        Some(BitmapIndex {
            lo,
            hi,
            bins,
            n_rows,
        })
    }
}

/// Result of a bitmap range query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryResult {
    /// Row ids guaranteed to satisfy the predicate.
    pub hits: Vec<u64>,
    /// Row ids that may satisfy it; verify against the data.
    pub candidates: Vec<u64>,
}

/// A set of per-chunk indexes loaded back from `.idx` files — the query
/// side of GTC task 2. Chunks whose index proves them empty for a range
/// are never read at all; only candidate rows of the remaining chunks
/// need verification against the data.
#[derive(Debug, Clone, Default)]
pub struct IndexSet {
    /// (compute/writer rank of the chunk, its index).
    pub per_chunk: Vec<(u64, BitmapIndex)>,
}

impl IndexSet {
    /// Load every `.idx` file produced by [`BitmapIndexOp::finalize`]
    /// across the staging ranks.
    pub fn load(paths: impl IntoIterator<Item = std::path::PathBuf>) -> std::io::Result<IndexSet> {
        let mut per_chunk = Vec::new();
        for path in paths {
            let blob = std::fs::read(&path)?;
            let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "corrupt index");
            if blob.len() < 4 {
                return Err(bad());
            }
            let n = u32::from_le_bytes(blob[..4].try_into().unwrap()) as usize;
            let mut pos = 4;
            for _ in 0..n {
                if blob.len() < pos + 12 {
                    return Err(bad());
                }
                let rank = u64::from_le_bytes(blob[pos..pos + 8].try_into().unwrap());
                let len = u32::from_le_bytes(blob[pos + 8..pos + 12].try_into().unwrap()) as usize;
                pos += 12;
                if blob.len() < pos + len {
                    return Err(bad());
                }
                let idx = BitmapIndex::from_bytes(&blob[pos..pos + len]).ok_or_else(bad)?;
                pos += len;
                per_chunk.push((rank, idx));
            }
        }
        per_chunk.sort_by_key(|(r, _)| *r);
        Ok(IndexSet { per_chunk })
    }

    /// Plan a range query: per chunk, the definite hits and candidates.
    /// Chunks absent from the result need no data access at all.
    pub fn plan(&self, lo: f64, hi: f64) -> Vec<(u64, QueryResult)> {
        self.per_chunk
            .iter()
            .filter_map(|(rank, idx)| {
                let q = idx.query(lo, hi);
                if q.hits.is_empty() && q.candidates.is_empty() {
                    None
                } else {
                    Some((*rank, q))
                }
            })
            .collect()
    }

    /// Rows indexed across all chunks.
    pub fn total_rows(&self) -> u64 {
        self.per_chunk.iter().map(|(_, i)| i.n_rows).sum()
    }
}

/// The in-transit indexing operation: builds one [`BitmapIndex`] per
/// (compute chunk × indexed column), keyed so later range queries can
/// prune whole chunks. Indexes for chunk `r` live on pipeline rank
/// `r % n` (two-level load balance, as in DataSpaces).
pub struct BitmapIndexOp {
    /// Attribute column to index.
    pub(crate) column: usize,
    /// Bins per index.
    pub(crate) bins: usize,
    range: (f64, f64),
    built: Vec<(u64, BitmapIndex)>,
}

impl BitmapIndexOp {
    pub fn new(column: usize, bins: usize) -> Self {
        assert!(column < PARTICLE_WIDTH && bins > 0);
        BitmapIndexOp {
            column,
            bins,
            range: (0.0, 1.0),
            built: Vec::new(),
        }
    }
}

impl ComputeSideOp for BitmapIndexOp {
    fn partial_calculate(&self, pg: &bpio::ProcessGroup, out: &mut ffs::AttrList) {
        attach_particle_stats(pg, out);
    }
}

impl StreamOp for BitmapIndexOp {
    fn name(&self) -> &str {
        "bitmap_index"
    }

    fn stage_rows(&self) -> StageRows {
        crate::stage_rows!("bitmap_index")
    }

    fn initialize(&mut self, agg: &Aggregates, _ctx: &OpCtx) {
        self.range = global_range(agg, self.column);
        self.built.clear();
    }

    fn mapper(&self) -> Arc<dyn ChunkMapper> {
        struct BitmapMapper {
            column: usize,
            bins: usize,
            range: (f64, f64),
        }
        impl ChunkMapper for BitmapMapper {
            fn map_chunk(&self, chunk: &PackedChunk, _ctx: &MapCtx) -> Vec<Tagged> {
                let Some(rows) = particles_of(&chunk.pg) else {
                    return Vec::new();
                };
                let idx = BitmapIndex::build(
                    rows.chunks_exact(PARTICLE_WIDTH).map(|r| r[self.column]),
                    self.range.0,
                    self.range.1,
                    self.bins,
                );
                vec![Tagged::new(chunk.writer_rank, idx.to_bytes())]
            }
        }
        Arc::new(BitmapMapper {
            column: self.column,
            bins: self.bins,
            range: self.range,
        })
    }

    fn reduce(&mut self, tag: u64, items: Vec<bytes::Bytes>, _ctx: &OpCtx) {
        for item in items {
            if let Some(idx) = BitmapIndex::from_bytes(&item) {
                self.built.push((tag, idx));
            }
        }
    }

    fn finalize(&mut self, ctx: &OpCtx) -> OpResult {
        let mut result = OpResult::new("bitmap_index");
        let total_rows: u64 = self.built.iter().map(|(_, i)| i.n_rows).sum();
        let total_bytes: u64 = self.built.iter().map(|(_, i)| i.heap_bytes() as u64).sum();
        result
            .values
            .set("indexed_chunks", Value::U64(self.built.len() as u64));
        result.values.set("indexed_rows", Value::U64(total_rows));
        result.values.set("index_bytes", Value::U64(total_bytes));
        // Persist: one index file for all owned chunks.
        let path = ctx.out_dir.join(format!(
            "bitmap_{}_step{}_rank{}.idx",
            PARTICLE_ATTRS[self.column],
            ctx.step,
            ctx.my_rank()
        ));
        // Encode each index once, then assemble into an exact-sized blob:
        // [count u32] then per chunk [rank u64][len u32][index bytes].
        let encoded: Vec<(u64, Vec<u8>)> = self
            .built
            .iter()
            .map(|(chunk_rank, idx)| (*chunk_rank, idx.to_bytes()))
            .collect();
        let total = 4 + encoded.iter().map(|(_, b)| 12 + b.len()).sum::<usize>();
        let mut blob = Vec::with_capacity(total);
        blob.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
        for (chunk_rank, b) in &encoded {
            blob.extend_from_slice(&chunk_rank.to_le_bytes());
            blob.extend_from_slice(&(b.len() as u32).to_le_bytes());
            blob.extend_from_slice(b);
        }
        debug_assert_eq!(blob.len(), total);
        let written = std::fs::write(&path, blob);
        record_output(ctx, &mut result, path, written);
        self.built.clear();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-row reference `build` must equal: push each row's bit into
    /// its bin's bitmap, in row order.
    fn build_by_push(values: &[f64], lo: f64, hi: f64, n_bins: usize) -> BitmapIndex {
        let mut bins = vec![CompressedBitmap::new(); n_bins];
        for (i, &v) in values.iter().enumerate() {
            bins[bin_index(lo, hi, n_bins, v)].push(i as u64);
        }
        BitmapIndex {
            lo,
            hi,
            bins,
            n_rows: values.len() as u64,
        }
    }

    /// Row counts at and around each word boundary, and any up to 2 000.
    fn arb_values() -> impl Strategy<Value = Vec<f64>> {
        let n = prop_oneof![
            prop::sample::select(vec![0usize, 1, 63, 64, 65, 127, 128, 129]),
            0usize..=2000,
        ];
        let v = || {
            prop_oneof![
                prop::sample::select(vec![f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY]),
                -2.0f64..12.0,
            ]
        };
        n.prop_flat_map(move |n| prop::collection::vec(v(), n..=n))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn dense_build_is_the_per_row_push(
            values in arb_values(),
            n_bins in 1usize..=40,
            // A range with width, and one with none (`hi <= lo`).
            range in prop_oneof![Just((0.0, 10.0)), (-1.0f64..5.0, -1.0f64..5.0)],
        ) {
            let (lo, hi) = range;
            let got = BitmapIndex::build(values.iter().copied(), lo, hi, n_bins);
            let expect = build_by_push(&values, lo, hi, n_bins);
            prop_assert_eq!(got.to_bytes(), expect.to_bytes());
            prop_assert_eq!(got.heap_bytes(), expect.heap_bytes());
            prop_assert_eq!(got.bins, expect.bins);
        }
    }

    #[test]
    fn bitmap_push_iter_roundtrip() {
        let mut bm = CompressedBitmap::new();
        let bits = [0u64, 1, 63, 64, 1000, 100_000];
        for &b in &bits {
            bm.push(b);
        }
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), bits);
        assert_eq!(bm.iter_ones().count() as u64, bits.len() as u64);
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn bitmap_rejects_out_of_order() {
        let mut bm = CompressedBitmap::new();
        bm.push(10);
        bm.push(5);
    }

    #[test]
    fn bitmap_compresses_sparse_runs() {
        let mut bm = CompressedBitmap::new();
        for i in 0..100 {
            bm.push(i * 100_000);
        }
        // 100 set bits spread over 10M positions: far less than a dense
        // 10M/8 = 1.25 MB bitmap.
        assert!(bm.heap_bytes() < 100 * 16 + 16);
        assert_eq!(bm.iter_ones().count() as u64, 100);
    }

    #[test]
    fn bitmap_serialization_roundtrip() {
        let mut bm = CompressedBitmap::new();
        for b in [3u64, 64, 65, 130, 4096] {
            bm.push(b);
        }
        let bytes = bm.to_bytes();
        let (back, used) = CompressedBitmap::from_bytes(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, bm);
    }

    #[test]
    fn index_query_matches_naive_scan() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.73).sin() * 10.0).collect();
        let idx = BitmapIndex::build(values.iter().copied(), -10.0, 10.0, 16);
        for (lo, hi) in [
            (-10.0, 10.0),
            (0.0, 5.0),
            (-2.5, 2.5),
            (9.0, 9.5),
            (5.0, 4.0),
        ] {
            let r = idx.query(lo, hi);
            // Hits must all truly match.
            for &row in &r.hits {
                let v = values[row as usize];
                assert!(v >= lo && v <= hi, "false hit {v} for [{lo},{hi}]");
            }
            // hits + verified candidates == naive scan.
            let mut found: Vec<u64> = r
                .hits
                .iter()
                .copied()
                .chain(r.candidates.iter().copied().filter(|&c| {
                    let v = values[c as usize];
                    v >= lo && v <= hi
                }))
                .collect();
            found.sort_unstable();
            let naive: Vec<u64> = values
                .iter()
                .enumerate()
                .filter(|(_, &v)| v >= lo && v <= hi)
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(found, naive, "range [{lo},{hi}]");
        }
    }

    #[test]
    fn narrow_query_avoids_full_scan() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let idx = BitmapIndex::build(values.iter().copied(), 0.0, 10_000.0, 64);
        let r = idx.query(100.0, 200.0);
        let touched = r.hits.len() + r.candidates.len();
        assert!(touched < 500, "touched {touched} of 10000 rows");
    }

    #[test]
    fn index_serialization_roundtrip() {
        let values: Vec<f64> = (0..257).map(|i| (i % 17) as f64).collect();
        let idx = BitmapIndex::build(values.iter().copied(), 0.0, 17.0, 8);
        let back = BitmapIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(back, idx);
        assert!(BitmapIndex::from_bytes(&idx.to_bytes()[..10]).is_none());
    }

    #[test]
    fn empty_index() {
        let idx = BitmapIndex::build(std::iter::empty(), 0.0, 1.0, 4);
        assert_eq!(idx.n_rows, 0);
        let r = idx.query(0.0, 1.0);
        assert!(r.hits.is_empty() && r.candidates.is_empty());
    }
}
