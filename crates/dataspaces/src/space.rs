//! The shared space: sharded block store, directory, coherence, queries.
//!
//! Storage lives in the sharded, cache-line-padded [`ShardIndex`]
//! (pending vs. published planes; see `index.rs`). This module owns the
//! *directory* — per-variable metadata sharded by name hash — and the
//! coherence protocol: `commit` freezes a version's blocks, publishes
//! them as an immutable snapshot, registers the version in the
//! directory, and wakes waiting readers. Registration, the committed
//! check, and the condvar wait all share one mutex per directory shard,
//! so a reader can never miss a wake-up between checking and parking
//! (the classic condvar race the old global `commit_lock` left open).
//!
//! Committed reads go through [`Session`]s (snapshot handles) and take
//! no lock a writer uses; see `session.rs`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bpio::{copy_box_between, DataArray, Dtype};
use parking_lot::{Condvar, Mutex, RwLock};
use transport::{retry, FaultKind, FaultPlan};

use crate::domain::{DsConfig, Region};
use crate::error::DsError;
use crate::index::{Block, ShardIndex};
use crate::session::Session;

/// Per-variable directory entry (sharded by variable-name hash).
struct VarMeta {
    /// Interned id: block keys are numeric, so index probes never
    /// allocate or hash strings.
    id: u32,
    dtype: Option<Dtype>,
    committed: Vec<u64>,
}

/// One directory shard: its variables plus the commit condvar. The
/// mutex covers *both* the committed set and the wait — commit
/// registration and `wait_committed` cannot race.
struct DirShard {
    vars: Mutex<HashMap<String, VarMeta>>,
    commit_cv: Condvar,
}

impl Default for DirShard {
    fn default() -> Self {
        DirShard {
            vars: Mutex::new(HashMap::new()),
            commit_cv: Condvar::new(),
        }
    }
}

/// A resolved variable handle: the directory lookup (name → interned
/// id + dtype) done once, so hot put loops skip the directory lock.
#[derive(Clone)]
pub(crate) struct VarRef {
    name: Arc<str>,
    id: u32,
    dtype: Dtype,
}

/// A hook invoked after every commit publishes (the query service's
/// continuous queries ride on this).
pub(crate) type CommitHook = Box<dyn Fn(&str, u64) + Send + Sync>;

/// Aggregation queries supported over regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    Min,
    Max,
    Sum,
    Count,
    Avg,
}

/// Operation counters.
#[derive(Debug, Default)]
pub struct SpaceStats {
    pub puts: AtomicU64,
    /// Range answers, direct or served by a `QueryService`.
    pub gets: AtomicU64,
    pub(crate) bytes_put: AtomicU64,
    /// Bytes of those answers.
    pub(crate) bytes_got: AtomicU64,
    pub blocks_touched: AtomicU64,
}

/// The virtual shared space. Thread-safe: writers (staging operators) and
/// readers (querying applications) call it concurrently; committed reads
/// are lock-free against writers.
pub struct DataSpaces {
    cfg: Arc<DsConfig>,
    index: ShardIndex,
    dirs: Box<[DirShard]>,
    next_var_id: AtomicU32,
    hooks: RwLock<Vec<CommitHook>>,
    stats: Arc<SpaceStats>,
    faults: Option<Arc<FaultPlan>>,
    obs: obs::Registry,
}

impl DataSpaces {
    /// A space with no fault plan, recording into the
    /// [global registry](obs::global).
    pub fn new(cfg: DsConfig) -> Self {
        Self::with_faults(cfg, None, obs::global().clone())
    }

    /// [`new`](Self::new) with a fault plan and the registry the space
    /// records into: the one way a plan or a registry reaches this
    /// space's puts and the queries a
    /// [`QueryService`](crate::QueryService) serves over it.
    pub fn with_faults(cfg: DsConfig, faults: Option<Arc<FaultPlan>>, obs: obs::Registry) -> Self {
        let index = ShardIndex::new(cfg.n_shards);
        let dirs = (0..cfg.n_shards).map(|_| DirShard::default()).collect();
        DataSpaces {
            cfg: Arc::new(cfg),
            index,
            dirs,
            next_var_id: AtomicU32::new(0),
            hooks: RwLock::new(Vec::new()),
            stats: Arc::default(),
            faults,
            obs,
        }
    }

    pub fn config(&self) -> &DsConfig {
        &self.cfg
    }

    pub fn stats(&self) -> &SpaceStats {
        &self.stats
    }

    /// The fault plan this space was built with, if any.
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// The registry this space, and a query service over it, record
    /// into.
    pub(crate) fn obs(&self) -> &obs::Registry {
        &self.obs
    }

    fn dir(&self, var: &str) -> &DirShard {
        &self.dirs[self.cfg.dir_shard_of(var)]
    }

    /// Directory entry for `var`, created on first touch.
    fn meta_id(&self, var: &str) -> u32 {
        let mut vars = self.dir(var).vars.lock();
        self.entry_id(&mut vars, var)
    }

    fn entry_id(&self, vars: &mut HashMap<String, VarMeta>, var: &str) -> u32 {
        match vars.get(var) {
            Some(m) => m.id,
            None => {
                let id = self.next_var_id.fetch_add(1, Ordering::Relaxed);
                vars.insert(
                    var.to_string(),
                    VarMeta {
                        id,
                        dtype: None,
                        committed: Vec::new(),
                    },
                );
                id
            }
        }
    }

    /// Resolve `var` to a reusable handle, registering `dtype` (first
    /// writer wins; conflicts error). Hot put loops resolve once and
    /// then call [`put_ref`](Self::put_ref), skipping the directory
    /// lock per put.
    pub(crate) fn resolve_var(&self, var: &str, dtype: Dtype) -> Result<VarRef, DsError> {
        let mut vars = self.dir(var).vars.lock();
        let id = self.entry_id(&mut vars, var);
        let meta = vars.get_mut(var).expect("entry just ensured");
        match meta.dtype {
            None => meta.dtype = Some(dtype),
            Some(d) if d == dtype => {}
            Some(_) => return Err(DsError::DtypeMismatch),
        }
        Ok(VarRef {
            name: Arc::from(var),
            id,
            dtype,
        })
    }

    /// Insert `data` (row-major over `region`) as version `version` of
    /// `var`. Data is split into blocks hashed across shards; puts only
    /// ever lock the pending plane of the shards they touch, so
    /// concurrent puts to different shards never contend and committed
    /// readers are never blocked at all.
    pub fn put(
        &self,
        var: &str,
        version: u64,
        region: &Region,
        data: DataArray,
    ) -> Result<(), DsError> {
        self.cfg.check(region)?;
        if data.len() as u64 != region.volume() {
            return Err(DsError::LengthMismatch {
                expected: region.volume(),
                got: data.len() as u64,
            });
        }
        let var = self.resolve_var(var, data.dtype())?;
        self.put_ref(&var, version, region, data)
    }

    /// [`put`](Self::put) through a pre-resolved handle (no directory
    /// lock on the hot path).
    pub(crate) fn put_ref(
        &self,
        var: &VarRef,
        version: u64,
        region: &Region,
        data: DataArray,
    ) -> Result<(), DsError> {
        self.cfg.check(region)?;
        if data.len() as u64 != region.volume() {
            return Err(DsError::LengthMismatch {
                expected: region.volume(),
                got: data.len() as u64,
            });
        }
        if data.dtype() != var.dtype {
            return Err(DsError::DtypeMismatch);
        }
        // Fault hook: the space's plan may fail this put (FaultKind::Put
        // rides the drop probability with its own salt). Transients are
        // absorbed by the retry rule before any block is touched — a
        // retried put never half-writes; exhaustion surfaces as
        // `PutFaulted` with the transport cause chained.
        let plan = self.faults.as_deref();
        retry::guard(
            &self.obs,
            plan,
            "put",
            FaultKind::Put,
            var.id as u64,
            version,
        )
        .map_err(|cause| DsError::PutFaulted {
            var: var.name.to_string(),
            version,
            cause,
        })?;
        for g in self.cfg.blocks_of(region) {
            let block_region = self.cfg.block_region(&g);
            let isect = block_region
                .intersect(region)
                .expect("blocks_of returned it");
            let key = (var.id, version, self.cfg.grid_index(&g));
            let dtype = var.dtype;
            self.index.with_block(
                self.cfg.shard_of(&g),
                key,
                move || Block::new(block_region, dtype),
                |block| {
                    copy_box_between(
                        &data,
                        &region.corner,
                        &region.extent,
                        &mut block.data,
                        &block.region.corner,
                        &block.region.extent,
                        &isect.corner,
                        &isect.extent,
                    )
                    .map_err(|_| DsError::DtypeMismatch)?;
                    block.mark_region(&isect);
                    Ok::<(), DsError>(())
                },
            )?;
            self.stats.blocks_touched.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_put
            .fetch_add(data.byte_len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Declare version `version` of `var` complete: freeze its pending
    /// blocks, publish them as an immutable snapshot,
    /// register the version, and wake waiting getters. Publication
    /// happens *before* registration, so a woken reader's snapshot
    /// always contains the committed blocks.
    pub fn commit(&self, var: &str, version: u64) {
        let id = self.meta_id(var);
        self.index.publish(id, version);
        {
            let dir = self.dir(var);
            let mut vars = dir.vars.lock();
            let meta = vars.get_mut(var).expect("meta_id ensured the entry");
            if !meta.committed.contains(&version) {
                meta.committed.push(version);
            }
            dir.commit_cv.notify_all();
        }
        for hook in self.hooks.read().iter() {
            hook(var, version);
        }
    }

    /// Block until `version` of `var` is committed, up to `timeout`.
    /// The committed check and the wait happen under the same mutex
    /// commit registers through — no missed-wakeup window.
    pub fn wait_committed(
        &self,
        var: &str,
        version: u64,
        timeout: Duration,
    ) -> Result<(), DsError> {
        let dir = self.dir(var);
        let mut vars = dir.vars.lock();
        let waited = dir.commit_cv.wait_while_for(
            &mut vars,
            |vars| {
                !vars
                    .get(var)
                    .is_some_and(|m| m.committed.contains(&version))
            },
            timeout,
        );
        if waited.timed_out() {
            return Err(DsError::VersionTimeout {
                var: var.to_string(),
                version,
            });
        }
        Ok(())
    }

    /// Open a read session pinned to the committed snapshot of
    /// `(var, version)`, waiting for the commit first. The session
    /// scans lock-free and survives later commits and evictions
    /// untouched (snapshot isolation).
    pub(crate) fn session(
        &self,
        var: &str,
        version: u64,
        timeout: Duration,
    ) -> Result<Session, DsError> {
        self.wait_committed(var, version, timeout)?;
        self.session_now(var, version)
    }

    /// `session` without waiting: errors with
    /// [`DsError::NotCommitted`] unless the version is committed right
    /// now (and not yet evicted).
    pub fn session_now(&self, var: &str, version: u64) -> Result<Session, DsError> {
        let (var_id, dtype) = {
            let vars = self.dir(var).vars.lock();
            let meta = vars.get(var).ok_or_else(|| DsError::NotCommitted {
                var: var.to_string(),
                version,
            })?;
            if !meta.committed.contains(&version) {
                return Err(DsError::NotCommitted {
                    var: var.to_string(),
                    version,
                });
            }
            (meta.id, meta.dtype)
        };
        let session = Session {
            cfg: Arc::clone(&self.cfg),
            var_id,
            version,
            dtype,
            shards: self.index.snapshot(),
            stats: Arc::clone(&self.stats),
        };
        Ok(session)
    }

    /// Retrieve the data of `region` at `version`, waiting for the commit
    /// first. Errors if parts of the region were never put. The scan
    /// runs on a committed snapshot: no shard write lock is taken and
    /// concurrent puts proceed unblocked.
    pub fn get(
        &self,
        var: &str,
        version: u64,
        region: &Region,
        timeout: Duration,
    ) -> Result<DataArray, DsError> {
        self.session(var, version, timeout)?.get(region)
    }

    /// Aggregation query over a region (paper: "max/min/average value for
    /// a particular field in a given sub-region"). Streams block by block
    /// over the committed snapshot; never materializes the full region.
    pub fn reduce(
        &self,
        var: &str,
        version: u64,
        region: &Region,
        how: Reduction,
        timeout: Duration,
    ) -> Result<f64, DsError> {
        let session = self.session(var, version, timeout)?;
        session.reduce(region, how)
    }

    /// Register a hook invoked after every commit publishes. Hooks run
    /// on the committing thread, after waiters were woken.
    pub(crate) fn on_commit(&self, hook: CommitHook) {
        self.hooks.write().push(hook);
    }

    /// Blocks held per shard — exposes the first-level load balance.
    pub fn shard_block_counts(&self) -> Vec<usize> {
        self.index.block_counts()
    }

    /// Drop all blocks of versions older than `keep_from` (staging memory
    /// is finite; old versions are evicted once consumers move on).
    /// Sessions already admitted keep their snapshot — an in-flight scan
    /// is never corrupted by eviction.
    pub fn evict_before(&self, var: &str, keep_from: u64) -> usize {
        let id = {
            let mut vars = self.dir(var).vars.lock();
            let Some(meta) = vars.get_mut(var) else {
                return 0;
            };
            meta.committed.retain(|&v| v >= keep_from);
            meta.id
        };
        self.index.evict_before(id, keep_from)
    }

    #[cfg(test)]
    pub(crate) fn test_index(&self) -> &ShardIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn space() -> DataSpaces {
        DataSpaces::new(DsConfig::new(vec![64, 64], vec![16, 16], 4))
    }

    fn ramp(region: &Region) -> DataArray {
        // value = global linear index over the domain row-major (64 wide)
        let mut v = Vec::with_capacity(region.volume() as usize);
        for i in 0..region.extent[0] {
            for j in 0..region.extent[1] {
                v.push(((region.corner[0] + i) * 64 + region.corner[1] + j) as f64);
            }
        }
        DataArray::F64(v)
    }

    #[test]
    fn put_get_identity() {
        let ds = space();
        let r = Region::new(vec![8, 8], vec![20, 20]);
        ds.put("field", 0, &r, ramp(&r)).unwrap();
        ds.commit("field", 0);
        let back = ds.get("field", 0, &r, Duration::from_secs(1)).unwrap();
        assert_eq!(back, ramp(&r));
    }

    #[test]
    fn redistribution_m_writers_n_readers() {
        // 4 writers put 32x32 quadrants; readers fetch arbitrary boxes.
        let ds = space();
        for (ci, cj) in [(0u64, 0u64), (0, 32), (32, 0), (32, 32)] {
            let r = Region::new(vec![ci, cj], vec![32, 32]);
            ds.put("field", 0, &r, ramp(&r)).unwrap();
        }
        ds.commit("field", 0);
        // A read crossing all four quadrants.
        let q = Region::new(vec![16, 16], vec![32, 32]);
        let got = ds.get("field", 0, &q, Duration::from_secs(1)).unwrap();
        assert_eq!(got, ramp(&q));
        // Single element.
        let one = Region::new(vec![63, 63], vec![1, 1]);
        let got = ds.get("field", 0, &one, Duration::from_secs(1)).unwrap();
        assert_eq!(got, DataArray::F64(vec![(63 * 64 + 63) as f64]));
    }

    #[test]
    fn get_detects_holes() {
        let ds = space();
        let r = Region::new(vec![0, 0], vec![8, 8]);
        ds.put("field", 0, &r, ramp(&r)).unwrap();
        ds.commit("field", 0);
        let q = Region::new(vec![0, 0], vec![8, 9]); // one column beyond
        let e = ds.get("field", 0, &q, Duration::from_secs(1)).unwrap_err();
        assert_eq!(e, DsError::Incomplete { missing_elems: 8 });
    }

    #[test]
    fn coherence_blocks_until_commit() {
        let ds = Arc::new(space());
        let r = Region::new(vec![0, 0], vec![4, 4]);
        ds.put("field", 7, &r, ramp(&r)).unwrap();
        // Not committed yet: get times out.
        let e = ds
            .get("field", 7, &r, Duration::from_millis(30))
            .unwrap_err();
        assert!(matches!(e, DsError::VersionTimeout { version: 7, .. }));

        // A reader blocked on the commit is released by it.
        let ds2 = Arc::clone(&ds);
        let h = std::thread::spawn(move || {
            let r = Region::new(vec![0, 0], vec![4, 4]);
            ds2.get("field", 7, &r, Duration::from_secs(5)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        ds.commit("field", 7);
        assert_eq!(h.join().unwrap(), ramp(&r));
    }

    #[test]
    fn commit_wakes_waiters_without_a_race_window() {
        // Hammer the register/wait race: a waiter that parks a beat
        // before the commit must still wake (registration and wait
        // share the directory-shard mutex).
        let ds = Arc::new(space());
        let r = Region::new(vec![0, 0], vec![4, 4]);
        for version in 0..100u64 {
            ds.put("race", version, &r, ramp(&r)).unwrap();
            let ds2 = Arc::clone(&ds);
            let waiter = std::thread::spawn(move || {
                ds2.wait_committed("race", version, Duration::from_secs(10))
            });
            ds.commit("race", version);
            waiter.join().unwrap().unwrap();
        }
        // No deadline overflow: a committed version answers at once.
        ds.wait_committed("race", 0, Duration::MAX).unwrap();
    }

    #[test]
    fn versions_are_independent() {
        let ds = space();
        let r = Region::new(vec![0, 0], vec![4, 4]);
        ds.put("f", 0, &r, DataArray::F64(vec![1.0; 16])).unwrap();
        ds.put("f", 1, &r, DataArray::F64(vec![2.0; 16])).unwrap();
        ds.commit("f", 0);
        ds.commit("f", 1);
        let v0 = ds.get("f", 0, &r, Duration::from_secs(1)).unwrap();
        let v1 = ds.get("f", 1, &r, Duration::from_secs(1)).unwrap();
        assert_eq!(v0, DataArray::F64(vec![1.0; 16]));
        assert_eq!(v1, DataArray::F64(vec![2.0; 16]));
    }

    #[test]
    fn reduction_queries() {
        let ds = space();
        let r = Region::new(vec![0, 0], vec![2, 3]);
        ds.put(
            "f",
            0,
            &r,
            DataArray::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        )
        .unwrap();
        ds.commit("f", 0);
        let q = |how| ds.reduce("f", 0, &r, how, Duration::from_secs(1)).unwrap();
        assert_eq!(q(Reduction::Min), 1.0);
        assert_eq!(q(Reduction::Max), 6.0);
        assert_eq!(q(Reduction::Sum), 21.0);
        assert_eq!(q(Reduction::Count), 6.0);
        assert_eq!(q(Reduction::Avg), 3.5);
        // Sub-region reduction.
        let sub = Region::new(vec![1, 0], vec![1, 2]);
        assert_eq!(
            ds.reduce("f", 0, &sub, Reduction::Sum, Duration::from_secs(1))
                .unwrap(),
            9.0
        );
    }

    #[test]
    fn commit_hooks_fire_after_publication() {
        let ds = space();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        ds.on_commit(Box::new(move |var, version| {
            seen2.lock().push((var.to_string(), version));
        }));
        let r = Region::new(vec![0, 0], vec![4, 4]);
        ds.put("f", 3, &r, ramp(&r)).unwrap();
        assert!(seen.lock().is_empty(), "puts do not fire commit hooks");
        ds.commit("f", 3);
        assert_eq!(seen.lock().as_slice(), &[("f".to_string(), 3)]);
    }

    #[test]
    fn dtype_conflicts_rejected() {
        let ds = space();
        let r = Region::new(vec![0, 0], vec![2, 2]);
        ds.put("f", 0, &r, DataArray::F64(vec![0.0; 4])).unwrap();
        let e = ds.put("f", 1, &r, DataArray::U64(vec![0; 4])).unwrap_err();
        assert_eq!(e, DsError::DtypeMismatch);
    }

    #[test]
    fn put_validates_shape() {
        let ds = space();
        let r = Region::new(vec![0, 0], vec![2, 2]);
        assert!(matches!(
            ds.put("f", 0, &r, DataArray::F64(vec![0.0; 5])),
            Err(DsError::LengthMismatch {
                expected: 4,
                got: 5
            })
        ));
        let oob = Region::new(vec![60, 60], vec![10, 10]);
        assert!(matches!(
            ds.put("f", 0, &oob, DataArray::F64(vec![0.0; 100])),
            Err(DsError::OutOfDomain)
        ));
    }

    #[test]
    fn eviction_frees_old_versions() {
        let ds = space();
        let r = Region::new(vec![0, 0], vec![16, 16]);
        for v in 0..4 {
            ds.put("f", v, &r, ramp(&r)).unwrap();
            ds.commit("f", v);
        }
        let dropped = ds.evict_before("f", 3);
        assert!(dropped > 0);
        assert!(matches!(
            ds.session_now("f", 2),
            Err(DsError::NotCommitted { .. })
        ));
        assert_eq!(ds.session_now("f", 3).unwrap().get(&r).unwrap(), ramp(&r));
    }

    #[test]
    fn concurrent_writers_disjoint_regions() {
        let ds = Arc::new(DataSpaces::new(DsConfig::new(
            vec![256, 64],
            vec![16, 16],
            8,
        )));
        std::thread::scope(|s| {
            for w in 0..8u64 {
                let ds = Arc::clone(&ds);
                s.spawn(move || {
                    let r = Region::new(vec![w * 32, 0], vec![32, 64]);
                    let data = DataArray::F64(vec![w as f64; (32 * 64) as usize]);
                    ds.put("f", 0, &r, data).unwrap();
                });
            }
        });
        ds.commit("f", 0);
        let whole = Region::whole(&[256, 64]);
        let all = ds.get("f", 0, &whole, Duration::from_secs(1)).unwrap();
        let v = all.as_f64().unwrap();
        for w in 0..8usize {
            assert!(v[w * 32 * 64..(w + 1) * 32 * 64]
                .iter()
                .all(|&x| x == w as f64));
        }
        // Load is spread across shards.
        let counts = ds.shard_block_counts();
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn committed_reads_take_no_put_locks() {
        // The acceptance-bar property: hold *every* put-side (pending)
        // lock and a committed-version get must still complete.
        let ds = Arc::new(space());
        let r = Region::new(vec![0, 0], vec![32, 32]);
        ds.put("f", 0, &r, ramp(&r)).unwrap();
        ds.commit("f", 0);
        let guards = ds.test_index().lock_all_pending();
        let ds2 = Arc::clone(&ds);
        let reader = std::thread::spawn(move || {
            let r = Region::new(vec![0, 0], vec![32, 32]);
            ds2.get("f", 0, &r, Duration::from_secs(5))
        });
        // The reader finishes while all pending locks stay held; if the
        // read path touched any of them this would deadlock until the
        // timeout below trips.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        std::thread::spawn(move || {
            let _ = tx.send(reader.join().unwrap());
        });
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("committed get blocked on a put lock");
        assert_eq!(got.unwrap(), ramp(&r));
        drop(guards);
    }

    #[test]
    fn snapshot_isolation_across_eviction() {
        let ds = space();
        let r = Region::new(vec![0, 0], vec![32, 32]);
        ds.put("f", 0, &r, ramp(&r)).unwrap();
        ds.commit("f", 0);
        let session = ds.session_now("f", 0).unwrap();
        let dropped = ds.evict_before("f", 1);
        assert!(dropped > 0);
        // New readers see the eviction...
        assert!(matches!(
            ds.session_now("f", 0),
            Err(DsError::NotCommitted { .. })
        ));
        // ...but the admitted session still scans its full snapshot.
        assert_eq!(session.get(&r).unwrap(), ramp(&r));
        assert_eq!(
            session.reduce(&r, Reduction::Count).unwrap(),
            (32 * 32) as f64
        );
    }

    #[test]
    fn put_after_commit_is_invisible_until_recommit() {
        let ds = space();
        let a = Region::new(vec![0, 0], vec![8, 8]);
        let b = Region::new(vec![8, 0], vec![8, 8]);
        ds.put("f", 0, &a, ramp(&a)).unwrap();
        ds.commit("f", 0);
        ds.put("f", 0, &b, ramp(&b)).unwrap();
        // Committed readers see the frozen snapshot (holes where b is)…
        let both = Region::new(vec![0, 0], vec![16, 8]);
        assert!(matches!(
            ds.get("f", 0, &both, Duration::from_secs(1)),
            Err(DsError::Incomplete { .. })
        ));
        // …and a re-commit publishes it.
        ds.commit("f", 0);
        assert_eq!(
            ds.get("f", 0, &both, Duration::from_secs(1)).unwrap(),
            ramp(&both)
        );
    }

    #[test]
    fn put_faults_are_absorbed_or_chain_their_cause() {
        // Transient: one injection per (var, version); the retry rule
        // absorbs it and the put lands byte-identical.
        let plan = FaultPlan::new(11).drop_chunks(1.0).max_injections(1);
        let ds = DataSpaces::with_faults(
            DsConfig::new(vec![64, 64], vec![16, 16], 4),
            Some(Arc::new(plan)),
            obs::Registry::new(),
        );
        let r = Region::new(vec![0, 0], vec![8, 8]);
        ds.put("field", 0, &r, ramp(&r)).unwrap();
        ds.commit("field", 0);
        assert_eq!(
            ds.get("field", 0, &r, Duration::from_secs(1)).unwrap(),
            ramp(&r)
        );
        let retries = ds
            .obs()
            .snapshot()
            .counter("transport.retries", &[("op", "put")]);
        assert_eq!(retries, Some(1), "one retry, in the space's registry");

        // Persistent: injections outlast the retries; the put
        // fails with the transport cause chained through `source()`.
        let plan = FaultPlan::new(11).drop_chunks(1.0);
        let ds = DataSpaces::with_faults(
            DsConfig::new(vec![64, 64], vec![16, 16], 4),
            Some(Arc::new(plan)),
            obs::Registry::new(),
        );
        let e = ds.put("field", 0, &r, ramp(&r)).unwrap_err();
        assert!(matches!(e, DsError::PutFaulted { version: 0, .. }), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
