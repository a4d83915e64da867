//! Process groups: one writer's output for one step.

use std::collections::HashMap;

use crate::array::{linear_len, DataArray};
use crate::dtype::Dtype;
use crate::error::{BpError, Result};
use crate::group::{GroupDef, VarKind};
use crate::util::{R, W};

/// One variable's realized data inside a process group: resolved dims,
/// offsets (for global chunks) and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct PgVar {
    pub name: String,
    pub(crate) dtype: Dtype,
    /// Resolved local extents ([] for scalars).
    pub local: Vec<u64>,
    /// Resolved global extents ([] unless a global chunk).
    pub global: Vec<u64>,
    /// Resolved offsets ([] unless a global chunk).
    pub offset: Vec<u64>,
    pub data: DataArray,
}

/// One writer's output for one step, buildable incrementally and
/// encodable as one contiguous block (what travels to staging or to disk).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProcessGroup {
    pub group: String,
    pub writer_rank: u64,
    pub step: u64,
    pub vars: Vec<PgVar>,
}

impl ProcessGroup {
    pub fn new(group: &str, writer_rank: u64, step: u64) -> Self {
        ProcessGroup {
            group: group.to_string(),
            writer_rank,
            step,
            vars: Vec::new(),
        }
    }

    /// Validate `data` for `var` against the group declaration (dtype,
    /// resolved shape, bounds) and append it. Scalar dimension variables
    /// must be written before the arrays they size.
    pub fn write(&mut self, def: &GroupDef, var: &str, data: DataArray) -> Result<()> {
        let vd = def
            .var(var)
            .ok_or_else(|| BpError::NoSuchVar(var.to_string()))?;
        if vd.dtype != data.dtype() {
            return Err(BpError::DtypeMismatch {
                var: var.to_string(),
                expected: vd.dtype.name(),
                got: data.dtype().name(),
            });
        }
        let scalars = self.scalar_values();
        let (local, global, offset) = match &vd.kind {
            VarKind::Scalar => {
                if data.len() != 1 {
                    return Err(BpError::ShapeMismatch {
                        var: var.to_string(),
                        expected: 1,
                        got: data.len() as u64,
                    });
                }
                (vec![], vec![], vec![])
            }
            VarKind::Local { dims } => {
                let local = def.resolve_dims(dims, &scalars)?;
                let expect = linear_len(&local);
                if data.len() as u64 != expect {
                    return Err(BpError::ShapeMismatch {
                        var: var.to_string(),
                        expected: expect,
                        got: data.len() as u64,
                    });
                }
                (local, vec![], vec![])
            }
            VarKind::GlobalChunk {
                global,
                local,
                offset,
            } => {
                let g = def.resolve_dims(global, &scalars)?;
                let l = def.resolve_dims(local, &scalars)?;
                let o = def.resolve_dims(offset, &scalars)?;
                let expect = linear_len(&l);
                if data.len() as u64 != expect {
                    return Err(BpError::ShapeMismatch {
                        var: var.to_string(),
                        expected: expect,
                        got: data.len() as u64,
                    });
                }
                for d in 0..g.len() {
                    if o[d] + l[d] > g[d] {
                        return Err(BpError::OutOfBounds {
                            var: var.to_string(),
                        });
                    }
                }
                (l, g, o)
            }
        };
        self.vars.push(PgVar {
            name: var.to_string(),
            dtype: vd.dtype,
            local,
            global,
            offset,
            data,
        });
        Ok(())
    }

    /// `u64` scalar values written so far (for dimension resolution).
    pub(crate) fn scalar_values(&self) -> HashMap<String, u64> {
        let mut m = HashMap::new();
        for v in &self.vars {
            match &v.data {
                DataArray::U64(x) if v.local.is_empty() && v.global.is_empty() => {
                    m.insert(v.name.clone(), x[0]);
                }
                _ => {}
            }
        }
        m
    }

    pub fn var(&self, name: &str) -> Option<&PgVar> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Total payload bytes across variables.
    pub fn payload_bytes(&self) -> usize {
        self.vars.iter().map(|v| v.data.byte_len()).sum()
    }

    /// Encode as one contiguous block (the on-disk / on-wire PG form).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_indexed().0
    }

    /// Encode, also returning each variable's payload byte offset within
    /// the block — the writer records these in the footer index.
    pub fn encode_indexed(&self) -> (Vec<u8>, Vec<u64>) {
        let mut block = Vec::with_capacity(self.encoded_len());
        let mut offsets = Vec::with_capacity(self.vars.len());
        self.walk(&mut block, true, |at| offsets.push(at));
        (block, offsets)
    }

    /// Append every header byte of the block to `out` — the block less
    /// its payloads — and return where each variable's payload belongs:
    /// its offset in `out`, in `vars` order. Reading `out` up to each
    /// offset, that variable's payload ([`DataArray::as_le_bytes`]),
    /// and so on, then `out`'s tail, reads the block.
    pub fn encode_headers(&self, out: &mut Vec<u8>) -> Vec<usize> {
        let start = out.len();
        let mut cuts = Vec::with_capacity(self.vars.len());
        let mut payloads = 0;
        self.walk(out, false, |at| {
            cuts.push(start + at as usize - payloads);
            payloads += self.vars[cuts.len() - 1].data.byte_len();
        });
        cuts
    }

    /// Byte length of the encoded block.
    pub fn encoded_len(&self) -> usize {
        let dims = |d: &[u64]| 1 + 8 * d.len();
        let header = 4 + self.group.len() + 8 + 8 + 4;
        self.vars.iter().fold(header, |n, v| {
            let var_header =
                4 + v.name.len() + 1 + dims(&v.local) + dims(&v.global) + dims(&v.offset) + 8;
            n + var_header + v.data.byte_len()
        })
    }

    /// The one walk of the PG layout — every encoder drives it. Header
    /// bytes are appended to `out`, and payloads too when `with_payloads`
    /// (the contiguous form); a vectored encoder leaves them where they
    /// are, so `out` holds headers only. `payload_at` is told each
    /// payload's offset from the start of the whole block either way.
    fn walk(&self, out: &mut Vec<u8>, with_payloads: bool, mut payload_at: impl FnMut(u64)) {
        let start = out.len();
        let mut w = W(std::mem::take(out));
        // Payload bytes of the block that were not appended to `out`.
        let mut left_out = 0u64;
        w.s(&self.group);
        w.u64(self.writer_rank);
        w.u64(self.step);
        w.u32(self.vars.len() as u32);
        for v in &self.vars {
            w.s(&v.name);
            w.u8(v.dtype.tag());
            w.dims(&v.local);
            w.dims(&v.global);
            w.dims(&v.offset);
            w.u64(v.data.byte_len() as u64);
            payload_at((w.0.len() - start) as u64 + left_out);
            if with_payloads {
                w.0.extend_from_slice(&v.data.as_le_bytes());
            } else {
                left_out += v.data.byte_len() as u64;
            }
        }
        *out = w.0;
    }

    /// The PG block as a sequence of write segments that *borrow* each
    /// variable's payload: slices of `head` — scratch that is overwritten
    /// with every header byte of the block, one buffer for all variables
    /// — interleaved with byte views of the [`DataArray`] buffers
    /// ([`DataArray::as_le_bytes`]).
    /// Concatenated, the segments are byte-identical to
    /// [`ProcessGroup::encode_indexed`]'s block; the writer hands them to
    /// one vectored write, so payloads go from the operator's buffers to
    /// the file without ever being assembled into a contiguous block.
    ///
    /// Returns `(segments, payload_offsets, total_len)`; offsets are
    /// relative to the block start, exactly as in `encode_indexed`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn encode_parts<'a>(
        &'a self,
        head: &'a mut Vec<u8>,
    ) -> (Vec<std::borrow::Cow<'a, [u8]>>, Vec<u64>, u64) {
        use std::borrow::Cow;
        head.clear();
        let cuts = self.encode_headers(head);
        let head: &'a [u8] = head;
        let mut segments = Vec::with_capacity(1 + 2 * self.vars.len());
        let mut offsets = Vec::with_capacity(self.vars.len());
        let (mut from, mut payloads) = (0usize, 0usize);
        for (v, &cut) in self.vars.iter().zip(&cuts) {
            segments.push(Cow::Borrowed(&head[from..cut]));
            segments.push(v.data.as_le_bytes());
            offsets.push((cut + payloads) as u64);
            from = cut;
            payloads += v.data.byte_len();
        }
        segments.push(Cow::Borrowed(&head[from..]));
        (segments, offsets, (head.len() + payloads) as u64)
    }

    /// Decode a block produced by [`ProcessGroup::encode`]: a fresh
    /// group, [`ProcessGroup::decode_into`].
    pub fn decode(buf: &[u8]) -> Result<ProcessGroup> {
        let mut pg = ProcessGroup::default();
        pg.decode_into(buf)?;
        Ok(pg)
    }

    /// Decode a block produced by [`ProcessGroup::encode`] into `self`,
    /// replacing what it held — the one PG decoder. The group name, the
    /// variables and their names, dimension lists and arrays are reused
    /// in place, so decoding a group of the shape the last one had
    /// allocates nothing: a staging rank keeps one group and decodes
    /// every pulled chunk into it. The capacity kept is that of the
    /// largest group decoded into it.
    ///
    /// On error `self` holds part of the old group and part of the new
    /// one (each variable's array still of its dtype); the next decode
    /// that succeeds replaces all of it.
    pub fn decode_into(&mut self, buf: &[u8]) -> Result<()> {
        let mut r = R::new(buf);
        r.s_into(&mut self.group)?;
        self.writer_rank = r.u64()?;
        self.step = r.u64()?;
        // A variable is at least an empty name, a dtype tag, three empty
        // dimension lists and a payload length.
        let nvars = r.count(4 + 1 + 3 + 8)?;
        self.vars.truncate(nvars);
        self.vars.reserve_exact(nvars - self.vars.len());
        for i in 0..nvars {
            if i == self.vars.len() {
                self.vars.push(PgVar {
                    name: String::new(),
                    dtype: Dtype::U64,
                    local: Vec::new(),
                    global: Vec::new(),
                    offset: Vec::new(),
                    data: DataArray::U64(Vec::new()),
                });
            }
            let v = &mut self.vars[i];
            r.s_into(&mut v.name)?;
            let dtype = Dtype::from_tag(r.u8()?).ok_or(BpError::Corrupt("bad dtype tag"))?;
            r.dims_into(&mut v.local)?;
            r.dims_into(&mut v.global)?;
            r.dims_into(&mut v.offset)?;
            let plen = usize::try_from(r.u64()?).map_err(|_| BpError::Corrupt("payload length"))?;
            v.data.assign_le_bytes(dtype, r.take(plen)?)?;
            v.dtype = dtype;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{Dim, VarDef};

    fn grid_group() -> GroupDef {
        GroupDef::new(vec![
            VarDef::scalar("n", Dtype::U64),
            VarDef::scalar("off", Dtype::U64),
            VarDef::global_chunk(
                "field",
                Dtype::F64,
                vec![Dim::c(16)],
                vec![Dim::r("n")],
                vec![Dim::r("off")],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn write_validates_and_resolves() {
        let g = grid_group();
        let mut pg = ProcessGroup::new("grid", 2, 0);
        pg.write(&g, "n", DataArray::U64(vec![4])).unwrap();
        pg.write(&g, "off", DataArray::U64(vec![8])).unwrap();
        pg.write(&g, "field", DataArray::F64(vec![1.0; 4])).unwrap();
        let v = pg.var("field").unwrap();
        assert_eq!(v.local, vec![4]);
        assert_eq!(v.global, vec![16]);
        assert_eq!(v.offset, vec![8]);
        assert_eq!(pg.payload_bytes(), 8 + 8 + 32);
    }

    #[test]
    fn write_rejects_wrong_shape_and_bounds() {
        let g = grid_group();
        let mut pg = ProcessGroup::new("grid", 0, 0);
        pg.write(&g, "n", DataArray::U64(vec![4])).unwrap();
        pg.write(&g, "off", DataArray::U64(vec![14])).unwrap();
        assert!(matches!(
            pg.write(&g, "field", DataArray::F64(vec![0.0; 3])),
            Err(BpError::ShapeMismatch { .. })
        ));
        // 14 + 4 > 16
        assert!(matches!(
            pg.write(&g, "field", DataArray::F64(vec![0.0; 4])),
            Err(BpError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn write_rejects_wrong_dtype_and_unknown_var() {
        let g = grid_group();
        let mut pg = ProcessGroup::new("grid", 0, 0);
        assert!(matches!(
            pg.write(&g, "n", DataArray::F64(vec![1.0])),
            Err(BpError::DtypeMismatch { .. })
        ));
        assert!(matches!(
            pg.write(&g, "ghost", DataArray::U64(vec![0])),
            Err(BpError::NoSuchVar(_))
        ));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let g = grid_group();
        let mut pg = ProcessGroup::new("grid", 7, 3);
        pg.write(&g, "n", DataArray::U64(vec![2])).unwrap();
        pg.write(&g, "off", DataArray::U64(vec![0])).unwrap();
        pg.write(&g, "field", DataArray::F64(vec![0.5, -0.5]))
            .unwrap();
        let buf = pg.encode();
        let back = ProcessGroup::decode(&buf).unwrap();
        assert_eq!(back, pg);
    }

    #[test]
    fn encode_parts_concatenates_to_encode_indexed() {
        let g = grid_group();
        let mut full = ProcessGroup::new("grid", 7, 3);
        full.write(&g, "n", DataArray::U64(vec![2])).unwrap();
        full.write(&g, "off", DataArray::U64(vec![4])).unwrap();
        full.write(&g, "field", DataArray::F64(vec![0.5, -0.5]))
            .unwrap();
        let mut scalars_only = ProcessGroup::new("grid", 1, 0);
        scalars_only
            .write(&g, "n", DataArray::U64(vec![2]))
            .unwrap();
        let mut empty_array = ProcessGroup::new("grid", 2, 9);
        empty_array.write(&g, "n", DataArray::U64(vec![0])).unwrap();
        empty_array
            .write(&g, "off", DataArray::U64(vec![16]))
            .unwrap();
        empty_array
            .write(&g, "field", DataArray::F64(vec![]))
            .unwrap();
        let no_vars = ProcessGroup::new("grid", 0, 0);
        for pg in [full, scalars_only, empty_array, no_vars] {
            let (block, offsets) = pg.encode_indexed();
            assert_eq!(block, pg.encode());
            let mut head = b"scratch".to_vec();
            let (segments, part_offsets, total) = pg.encode_parts(&mut head);
            let concat: Vec<u8> = segments.iter().flat_map(|s| s.iter().copied()).collect();
            assert_eq!(concat, block);
            assert_eq!(part_offsets, offsets);
            assert_eq!(total, block.len() as u64);
            // (header, payload) per var + the header's tail.
            assert_eq!(segments.len(), 1 + 2 * pg.vars.len());
            assert_eq!(head.len(), block.len() - pg.payload_bytes());
        }
    }

    #[test]
    fn encode_headers_appends_the_block_less_its_payloads() {
        let g = grid_group();
        let mut pg = ProcessGroup::new("grid", 7, 3);
        pg.write(&g, "n", DataArray::U64(vec![2])).unwrap();
        pg.write(&g, "off", DataArray::U64(vec![4])).unwrap();
        pg.write(&g, "field", DataArray::F64(vec![0.5, -0.5]))
            .unwrap();
        let block = pg.encode();
        assert_eq!(pg.encoded_len(), block.len());
        assert_eq!(block.capacity(), block.len(), "sized exactly");
        let mut out = b"prefix".to_vec();
        let cuts = pg.encode_headers(&mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(out.len() - 6, block.len() - pg.payload_bytes());
        // Headers cut at `cuts`, payloads between: the block.
        let mut joined = Vec::new();
        let mut from = 6;
        for (v, &cut) in pg.vars.iter().zip(&cuts) {
            joined.extend_from_slice(&out[from..cut]);
            joined.extend_from_slice(&v.data.as_le_bytes());
            from = cut;
        }
        joined.extend_from_slice(&out[from..]);
        assert_eq!(joined, block);
        assert_eq!(ProcessGroup::new("empty", 0, 0).encoded_len(), 5 + 4 + 20);
    }

    /// A second group of the first one's shape lands in the first one's
    /// buffers: the same name, dimension and array allocations, holding
    /// the second group's values.
    #[test]
    fn decode_into_reuses_every_buffer() {
        let g = grid_group();
        let block = |rank: u64, off: u64, x: f64| {
            let mut pg = ProcessGroup::new("grid", rank, rank + 1);
            pg.write(&g, "n", DataArray::U64(vec![2])).unwrap();
            pg.write(&g, "off", DataArray::U64(vec![off])).unwrap();
            pg.write(&g, "field", DataArray::F64(vec![x, -x])).unwrap();
            pg
        };
        let (first, second) = (block(1, 0, 0.5), block(2, 14, 2.5));
        let mut kept = ProcessGroup::decode(&first.encode()).unwrap();
        let field = &kept.vars[2];
        let ptrs = (
            kept.group.as_ptr(),
            kept.vars.as_ptr(),
            field.name.as_ptr(),
            field.offset.as_ptr(),
            field.data.as_f64().unwrap().as_ptr(),
        );
        kept.decode_into(&second.encode()).unwrap();
        assert_eq!(kept, second);
        let field = &kept.vars[2];
        assert_eq!(
            ptrs,
            (
                kept.group.as_ptr(),
                kept.vars.as_ptr(),
                field.name.as_ptr(),
                field.offset.as_ptr(),
                field.data.as_f64().unwrap().as_ptr(),
            )
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let g = grid_group();
        let mut pg = ProcessGroup::new("grid", 0, 0);
        pg.write(&g, "n", DataArray::U64(vec![0])).unwrap();
        let buf = pg.encode();
        for cut in [1usize, buf.len() / 2, buf.len() - 1] {
            assert!(ProcessGroup::decode(&buf[..cut]).is_err());
        }
    }
}
