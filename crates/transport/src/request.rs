//! Data-fetch requests: the small control messages of Stage 1c.

use ffs::AttrList;

use crate::fabric::MemHandle;

/// A compute process announces one packed partial data chunk to its
/// staging node. The request is tiny; the bulk bytes stay exposed on the
/// compute node until the staging node pulls them.
#[derive(Debug, Clone)]
pub struct FetchRequest {
    /// Sender's compute rank (world-wide).
    pub src_rank: usize,
    /// I/O dump index this chunk belongs to; staging nodes gate their
    /// aggregation phase on having one request per served rank per step.
    pub io_step: u64,
    /// Handle to the exposed chunk memory.
    pub handle: MemHandle,
    /// Size of the exposed chunk in bytes (lets the scheduler plan without
    /// touching the data).
    pub chunk_bytes: usize,
    /// Fingerprint of the chunk's `ffs` format. Written by the client and
    /// read by no stage: every chunk carries its own schema, so the
    /// staging side decodes it without looking here.
    pub format: u64,
    /// Partial results attached by the compute-node pass
    /// (`partial_calculate`): local min/max, local sizes, prefix-sum
    /// inputs, etc. Hard-capped in size by `ffs::AttrList` encoding rules.
    pub attrs: AttrList,
}
