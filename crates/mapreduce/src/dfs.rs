//! Distributed-file-system stand-in with I/O metering and an optional
//! durable, out-of-core backend.
//!
//! HaTen2 stores the input tensor and the factor matrices on HDFS between
//! jobs; the key property the evaluation exercises is *how many times each
//! dataset is read* (HaTen2-DRI reads the tensor once per ALS step instead
//! of twice). `Dfs` stores named, type-erased datasets and counts reads and
//! writes so that saving is observable.
//!
//! Two backends share this surface:
//!
//! * **Memory** ([`DfsBackend::Memory`]) — the historical pure in-memory
//!   map. Fast, nothing survives the process.
//! * **Durable** ([`DfsBackend::Durable`]) — every `put` is written
//!   through to a `haten2-blockstore` [`BlockStore`] (append-only
//!   segments + checksummed manifest) *and* cached in memory. When the
//!   resident cache exceeds the configured memory budget, datasets are
//!   **spilled** (one that alone exceeds the budget first, otherwise the
//!   least recently used): their in-memory copy leaves the cache and
//!   later reads reload them from the store through the page cache, into
//!   the allocation the last spill left behind when no reader holds it. A
//!   restarted process reopens the same directory and finds every
//!   committed dataset again — the property the chaos harness's
//!   kill-and-reexec scenario asserts. A dataset goes to the store as HDFS
//!   blocks — runs of whole records, ~256 KiB raw each, compressed and
//!   checksummed one by one — and both directions work a block at a time
//!   on every executor of the owning cluster's pool: a reload `pread`s,
//!   verifies, decodes and parses each block straight into the records it
//!   returns, never holding the dataset's bytes.
//!
//! Both backends enforce the same aggregate capacity: a `put` that would
//! push live bytes past `capacity_bytes` fails with the typed
//! [`crate::MrError::SpillCapacityExceeded`] on either backend, so budget
//! property tests can hold the two to identical behaviour.

use crate::fill::{fill_parts, Part};
use crate::persist::{parse_records, Persist};
use crate::pool::SharedPool;
use crate::size::{slice_est_bytes, EstimateSize};
use haten2_blockstore::{
    BlockBuf, BlockDirectory, BlockEntry, BlockStore, Codec, EncodedBlock, StoreOptions,
    BLOCK_TARGET_BYTES,
};
use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Which storage backend a [`Dfs`] (and therefore a cluster) runs on.
#[derive(Debug, Clone, Default)]
pub enum DfsBackend {
    /// Pure in-memory datasets (the historical behaviour).
    #[default]
    Memory,
    /// Write-through durable storage with spill-to-disk under a memory
    /// budget; state survives process restarts.
    Durable(DurableConfig),
}

/// Configuration for the durable backend.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Directory holding the block store (segments + manifest).
    pub dir: PathBuf,
    /// Preferred codec of the ~256 KiB record-aligned blocks a dataset is
    /// stored as; each block falls back to raw on its own when the
    /// encoding does not shrink it (every `f64` factor block does).
    pub codec: Codec,
    /// Resident-cache budget in estimated bytes: when the sum of
    /// in-memory dataset copies exceeds this, datasets are spilled (their
    /// resident copy given up; the durable copy remains the source of
    /// truth). A dataset just written or read that alone exceeds the
    /// budget is spilled first, on its own; otherwise the least recently
    /// used go. Beyond the budget the store keeps one allocation: that of
    /// the last copy it spilled, which the next reload decodes into.
    /// `None` keeps everything resident.
    pub memory_budget_bytes: Option<usize>,
    /// Segment rotation threshold for the underlying store.
    pub segment_rotate_bytes: u64,
}

impl DurableConfig {
    /// Durable backend rooted at `dir` with default codec and rotation,
    /// no memory budget (everything stays resident until configured
    /// otherwise).
    pub fn new(dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            dir: dir.into(),
            codec: Codec::Words,
            memory_budget_bytes: None,
            segment_rotate_bytes: haten2_blockstore::store::DEFAULT_SEGMENT_ROTATE_BYTES,
        }
    }

    /// Set the resident-cache budget.
    #[must_use]
    pub fn memory_budget(mut self, bytes: usize) -> DurableConfig {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Set the preferred codec.
    #[must_use]
    pub fn codec(mut self, codec: Codec) -> DurableConfig {
        self.codec = codec;
        self
    }
}

/// Spill/reload counters for the durable backend (all zero in memory
/// mode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Resident copies given up under memory pressure.
    pub spill_events: usize,
    /// Estimated bytes of those copies. They leave the resident set at
    /// once; the allocation of the last one stays with the store until
    /// the next reload decodes into it or frees it.
    pub spilled_bytes: usize,
    /// Reads served by reloading a spilled dataset from the store.
    pub reload_events: usize,
    /// Estimated bytes reloaded from the store.
    pub reloaded_bytes: usize,
    /// On-disk bytes shadowed by overwrites/deletes and not reclaimed
    /// (the store appends; nothing garbage-collects). Surfaced from
    /// [`haten2_blockstore::StoreStats::dead_stored_bytes`] so the spill
    /// benchmark can report a dead-byte ratio — observability only.
    pub dead_stored_bytes: u64,
}

/// Where a dataset's records currently live.
enum Payload {
    /// In memory (and, on the durable backend, also on disk).
    Resident(Arc<dyn Any + Send + Sync>),
    /// Durable backend only: the resident copy was dropped under memory
    /// pressure; the block store holds the bytes.
    Spilled,
}

/// Per-dataset bookkeeping.
struct Stored {
    payload: Payload,
    bytes: usize,
    reads: AtomicUsize,
    /// Logical access clock for LRU spill victim selection.
    last_access: AtomicU64,
}

/// A zero-copy view of a contiguous range of an immutable DFS dataset.
///
/// The underlying `Vec` is shared (`Arc`), never cloned: narrowing a
/// block, handing it to a map task, or keeping it across a concurrent
/// [`Dfs::put`] replacing the dataset all cost one reference count, not a
/// copy. This is the engine-side analogue of an HDFS block handle — a
/// reader holds (file, offset, length), not bytes. On the durable backend
/// the `Vec` behind a reloaded block is materialized from page-cache-backed
/// segment reads, so the handle semantics are identical across backends.
///
/// ```
/// use haten2_mapreduce::{Block, Dfs};
///
/// let dfs = Dfs::new();
/// dfs.put("t", vec![10u64, 20, 30, 40]).unwrap();
/// let block: Block<u64> = dfs.get_block("t").unwrap();
/// assert_eq!(block.slice(), &[10, 20, 30, 40]);
/// let tail = block.narrow(2..4);
/// assert_eq!(tail.slice(), &[30, 40]);
/// ```
pub struct Block<T> {
    data: Arc<Vec<T>>,
    range: std::ops::Range<usize>,
}

// Manual impl: cloning a block must not require `T: Clone` — it only
// bumps the `Arc`.
impl<T> Clone for Block<T> {
    fn clone(&self) -> Self {
        Block {
            data: Arc::clone(&self.data),
            range: self.range.clone(),
        }
    }
}

impl<T> Block<T> {
    /// A block covering all of `data`.
    pub fn whole(data: Arc<Vec<T>>) -> Self {
        let range = 0..data.len();
        Block { data, range }
    }

    /// The records this block covers.
    pub fn slice(&self) -> &[T] {
        &self.data[self.range.clone()]
    }

    /// Number of records in the block.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// A sub-block, `range` relative to this block's start. Shares the
    /// same underlying storage; panics if `range` exceeds this block.
    pub fn narrow(&self, range: std::ops::Range<usize>) -> Block<T> {
        assert!(
            range.end <= self.len(),
            "narrow {range:?} exceeds block of {} records",
            self.len()
        );
        Block {
            data: Arc::clone(&self.data),
            range: self.range.start + range.start..self.range.start + range.end,
        }
    }

    /// The shared storage, if this block covers it fully and is its last
    /// handle — the move-out path for a caller that wants the `Vec` back
    /// without a copy.
    pub fn try_unwrap(self) -> Result<Vec<T>, Block<T>> {
        if self.range != (0..self.data.len()) {
            return Err(self);
        }
        let range = self.range;
        Arc::try_unwrap(self.data).map_err(|data| Block { data, range })
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Block<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Block")
            .field("range", &self.range)
            .field("of", &self.data.len())
            .finish()
    }
}

/// Durable-backend state: the block store plus spill bookkeeping.
struct DurableState {
    store: BlockStore,
    memory_budget_bytes: Option<usize>,
    /// The resident copy the last spill gave up. The next reload decodes
    /// into its allocation when it is a `Vec` of that reload's record type
    /// that no reader still holds, and frees it otherwise.
    spare: Mutex<Option<Arc<dyn Any + Send + Sync>>>,
    spill_events: AtomicUsize,
    spilled_bytes: AtomicUsize,
    reload_events: AtomicUsize,
    reloaded_bytes: AtomicUsize,
}

/// A named, metered dataset store over a [`DfsBackend`].
///
/// ```
/// use haten2_mapreduce::Dfs;
///
/// let dfs = Dfs::new();
/// dfs.put("tensor", vec![(0u64, 1.5f64), (1, -2.0)]).unwrap();
/// let back = dfs.get::<(u64, f64)>("tensor").unwrap();
/// assert_eq!(back.len(), 2);
/// // Reads are metered — the §III-B4 disk-access accounting.
/// assert_eq!(dfs.reads_of("tensor"), Some(1));
/// ```
#[derive(Default)]
pub struct Dfs {
    datasets: RwLock<HashMap<String, Stored>>,
    bytes_written: AtomicUsize,
    bytes_read: AtomicUsize,
    /// Estimated bytes of all *live* datasets (latest generation of each
    /// name). Unlike `bytes_written`, replacement subtracts the old size.
    live_bytes: AtomicUsize,
    /// Aggregate capacity across live datasets; a `put` pushing past it
    /// fails with [`crate::MrError::SpillCapacityExceeded`].
    capacity_bytes: Option<usize>,
    /// Logical clock stamped onto datasets at access time (LRU order).
    clock: AtomicU64,
    durable: Option<DurableState>,
    /// The owning cluster's pool, which block-parallel spills and reloads
    /// run on; a `Dfs` built on its own has none and works inline.
    pub(crate) pool: Option<Arc<SharedPool>>,
}

impl Dfs {
    /// Empty in-memory store, no capacity bound.
    pub fn new() -> Self {
        Dfs::default()
    }

    /// In-memory store with an aggregate live-byte capacity.
    pub fn with_capacity(capacity_bytes: Option<usize>) -> Self {
        Dfs {
            capacity_bytes,
            ..Dfs::default()
        }
    }

    /// Open a durable store rooted at `config.dir`, replaying its
    /// manifest: every dataset committed by an earlier process is
    /// immediately visible (as a spilled entry that reloads on first
    /// read). Read counters start at zero after a reopen — the metering
    /// story is per-process, the data is not.
    pub fn durable(config: &DurableConfig, capacity_bytes: Option<usize>) -> crate::Result<Self> {
        let store = BlockStore::open(
            StoreOptions::new(&config.dir)
                .codec(config.codec)
                .segment_rotate_bytes(config.segment_rotate_bytes),
        )
        .map_err(|e| storage_error("(store)", "open", &e))?;
        let mut datasets = HashMap::new();
        let mut live = 0usize;
        for name in store.datasets() {
            if let Some(meta) = store.meta(&name) {
                let bytes = usize::try_from(meta.est_bytes).unwrap_or(usize::MAX);
                live += bytes;
                datasets.insert(
                    name,
                    Stored {
                        payload: Payload::Spilled,
                        bytes,
                        reads: AtomicUsize::new(0),
                        last_access: AtomicU64::new(0),
                    },
                );
            }
        }
        Ok(Dfs {
            datasets: RwLock::new(datasets),
            bytes_written: AtomicUsize::new(0),
            bytes_read: AtomicUsize::new(0),
            live_bytes: AtomicUsize::new(live),
            capacity_bytes,
            clock: AtomicU64::new(1),
            durable: Some(DurableState {
                store,
                memory_budget_bytes: config.memory_budget_bytes,
                spare: Mutex::new(None),
                spill_events: AtomicUsize::new(0),
                spilled_bytes: AtomicUsize::new(0),
                reload_events: AtomicUsize::new(0),
                reloaded_bytes: AtomicUsize::new(0),
            }),
            pool: None,
        })
    }

    /// Construct from a backend description plus capacity, as a cluster
    /// does from its config.
    pub fn from_backend(
        backend: &DfsBackend,
        capacity_bytes: Option<usize>,
    ) -> crate::Result<Self> {
        match backend {
            DfsBackend::Memory => Ok(Dfs::with_capacity(capacity_bytes)),
            DfsBackend::Durable(cfg) => Dfs::durable(cfg, capacity_bytes),
        }
    }

    /// Whether this store runs on the durable backend.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Shared body of [`Dfs::put`] and [`Dfs::put_shared`]: capacity
    /// check, durable write-through, insert, accounting, spill.
    fn put_impl<T>(&self, name: &str, records: Arc<Vec<T>>) -> crate::Result<usize>
    where
        T: EstimateSize + Persist + Send + Sync + 'static,
    {
        crate::sched::refuse_dfs_write_in_job("put", name)?;
        let bytes = slice_est_bytes(&records);
        // Encode before taking the namespace lock: the pool broadcast
        // inside helps drain other jobs' queued tasks while it waits, and
        // one of those reading this DFS under our write lock would
        // deadlock.
        let blocks = self
            .durable
            .as_ref()
            .map(|d| self.encode_blocks(&d.store, &records));
        let mut guard = self.datasets.write().expect("dfs lock poisoned");

        // Capacity is checked on live bytes *after* replacement: putting a
        // smaller generation over a large one always succeeds.
        let prior_bytes = guard.get(name).map_or(0, |s| s.bytes);
        let live_after = self.live_bytes.load(Ordering::Relaxed) - prior_bytes + bytes;
        if let Some(cap) = self.capacity_bytes {
            if live_after > cap {
                return Err(crate::MrError::SpillCapacityExceeded {
                    dataset: name.to_string(),
                    requested_bytes: bytes,
                    live_bytes: self.live_bytes.load(Ordering::Relaxed) - prior_bytes,
                    capacity_bytes: cap,
                });
            }
        }

        // Durable write-through: the store commits (segment fsync, then
        // manifest append) before the namespace switches generations, so a
        // crash mid-put leaves the previous generation intact.
        if let (Some(d), Some(blocks)) = (&self.durable, blocks) {
            d.store
                .put_blocks(name, &T::type_tag(), &blocks, bytes as u64)
                .map_err(|e| storage_error(name, "put", &e))?;
        }

        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        let prior_reads = guard
            .get(name)
            .map_or(0, |s| s.reads.load(Ordering::Relaxed));
        guard.insert(
            name.to_string(),
            Stored {
                payload: Payload::Resident(records),
                bytes,
                reads: AtomicUsize::new(prior_reads),
                last_access: AtomicU64::new(self.tick()),
            },
        );
        self.live_bytes.store(live_after, Ordering::Relaxed);
        self.enforce_budget(&mut guard, name);
        Ok(bytes)
    }

    /// `blocks` block indices cut into one contiguous range per executor of
    /// the cluster's pool (at most `ClusterConfig.threads`, at most one per
    /// block, and always at least one range).
    fn block_ranges(&self, blocks: usize) -> Vec<Range<usize>> {
        let threads = self.pool.as_ref().map_or(1, |p| p.threads());
        let ranges = threads.min(blocks).max(1);
        (0..ranges)
            .map(|r| blocks * r / ranges..blocks * (r + 1) / ranges)
            .collect()
    }

    /// Run `task` once per input — one per range of
    /// [`Dfs::block_ranges`] — on the executors of the cluster's pool, and
    /// return the results in input order. Without a pool or with one input
    /// this is a plain loop on the caller; the work done is the same
    /// either way.
    fn per_block_range<I: Send, R: Send>(
        &self,
        inputs: Vec<I>,
        task: &(dyn Fn(I) -> R + Sync),
    ) -> Vec<R> {
        let ranges = inputs.len();
        let inputs: Vec<Mutex<Option<I>>> =
            inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..ranges).map(|_| Mutex::new(None)).collect();
        // Ranges are claimed, not assigned: an executor the pool could not
        // start (its worker is inside another job) costs nothing, the
        // others take its range.
        let next = AtomicUsize::new(0);
        let drain = |_executor: usize| loop {
            let r = next.fetch_add(1, Ordering::Relaxed);
            let Some(input) = inputs.get(r) else { break };
            let input = (input.lock().expect("range slot poisoned").take())
                .expect("each range is claimed once");
            let result = task(input);
            *results[r].lock().expect("range slot poisoned") = Some(result);
        };
        match &self.pool {
            Some(pool) if ranges > 1 => pool.get().broadcast(ranges, &drain),
            _ => drain(0),
        }
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("range slot poisoned")
                    .expect("every range is claimed before the broadcast returns")
            })
            .collect()
    }

    /// Serialize, compress and checksum `records` as the blocks the store
    /// will append.
    fn encode_blocks<T>(&self, store: &BlockStore, records: &[T]) -> Vec<EncodedBlock<'static>>
    where
        T: EstimateSize + Persist + Sync,
    {
        let cuts = block_cuts(records);
        let encode_range = |range: Range<usize>| {
            let mut raw = Vec::with_capacity(BLOCK_TARGET_BYTES);
            let mut encoded = Vec::with_capacity(range.len());
            for b in range {
                let block = &records[cuts[b]..cuts[b + 1]];
                raw.clear();
                for record in block {
                    record.write_record(&mut raw);
                }
                encoded.push(store.encode_block(&raw, block.len() as u64).into_owned());
            }
            encoded
        };
        let ranges = self.block_ranges(cuts.len() - 1);
        let encoded = self.per_block_range(ranges, &encode_range);
        encoded.into_iter().flatten().collect()
    }

    /// Spill resident datasets until the resident set fits the durable
    /// memory budget. `keep` (the dataset just touched) is spilled first,
    /// on its own, when it alone exceeds the budget — it cannot stay
    /// resident, and evicting the rest on its account would gain nothing;
    /// otherwise it stays, and least-recently-used others go. Each spill
    /// leaves its resident copy with the store as the spare the next
    /// reload decodes into, replacing (and freeing) the one before.
    fn enforce_budget(&self, guard: &mut HashMap<String, Stored>, keep: &str) {
        let Some(d) = &self.durable else { return };
        let Some(budget) = d.memory_budget_bytes else {
            return;
        };
        let spill = |s: &mut Stored| {
            if let Payload::Resident(data) = std::mem::replace(&mut s.payload, Payload::Spilled) {
                d.spill_events.fetch_add(1, Ordering::Relaxed);
                d.spilled_bytes.fetch_add(s.bytes, Ordering::Relaxed);
                let _prior = d.spare.lock().expect("spare lock poisoned").replace(data);
            }
        };
        if let Some(s) = guard.get_mut(keep).filter(|s| s.bytes > budget) {
            spill(s);
        }
        loop {
            let resident: usize = guard
                .values()
                .filter(|s| matches!(s.payload, Payload::Resident(_)))
                .map(|s| s.bytes)
                .sum();
            if resident <= budget {
                return;
            }
            // `keep` now fits the budget on its own, so evicting every
            // other dataset always brings the resident set within it.
            let victim = guard
                .iter_mut()
                .filter(|(_, s)| matches!(s.payload, Payload::Resident(_)) && s.bytes > 0)
                .filter(|(n, _)| n.as_str() != keep)
                .min_by_key(|(_, s)| s.last_access.load(Ordering::Relaxed));
            let Some((_, victim)) = victim else { return };
            spill(victim);
        }
    }

    /// Store a dataset under `name`, replacing any previous contents.
    /// Returns the estimated size in bytes.
    ///
    /// Replace-while-read is well-defined: concurrent readers keep the
    /// `Arc` snapshot they fetched (the old contents stay alive until the
    /// last reader drops them), their bytes were metered at snapshot time
    /// against the old size, and the dataset's cumulative read count
    /// carries over to the replacement — a `put` can never erase §III-B4
    /// disk-access history.
    ///
    /// Fails with [`crate::MrError::SpillCapacityExceeded`] when the put
    /// would push aggregate live bytes past the configured capacity
    /// (identically on both backends), with
    /// [`crate::MrError::StorageFailed`] on durable-backend I/O errors, and
    /// with [`crate::MrError::PlanViolation`] when called from inside a
    /// running batch job (the DFS is written between batches).
    pub fn put<T>(&self, name: &str, records: Vec<T>) -> crate::Result<usize>
    where
        T: EstimateSize + Persist + Send + Sync + 'static,
    {
        self.put_impl(name, Arc::new(records))
    }

    /// Store a dataset that is already shared, without copying it: the
    /// `Arc` itself becomes the stored contents. Metered exactly like
    /// [`Dfs::put`] (the write is charged at full estimated size — the
    /// simulated DFS still "writes" the data even though the host
    /// doesn't move a byte; on the durable backend the bytes really are
    /// encoded and written through).
    pub fn put_shared<T>(&self, name: &str, records: Arc<Vec<T>>) -> crate::Result<usize>
    where
        T: EstimateSize + Persist + Send + Sync + 'static,
    {
        self.put_impl(name, records)
    }

    /// One metered snapshot of a dataset. The read is counted and its
    /// bytes metered only if the stored type matches `T` — a wrong-type
    /// probe is not a disk access. All read paths ([`Dfs::get`],
    /// [`Dfs::get_block`], [`Dfs::get_required`]) funnel through here so a
    /// concurrent [`Dfs::put`] replacing the dataset can neither tear the
    /// returned snapshot nor mis-size the byte accounting, no matter the
    /// entry point.
    ///
    /// On the durable backend a spilled dataset is reloaded from the
    /// block store (checksum-verified, decoded through [`Persist`], and
    /// re-cached as resident). The reload decodes into the allocation the
    /// last spill left with the store when that is a `Vec<T>` no reader
    /// still holds, so a snapshot a caller holds is never written over.
    /// `Ok(None)` means missing-or-wrong-type on both backends; `Err`
    /// carries durable I/O failures.
    fn snapshot<T>(&self, name: &str) -> crate::Result<Option<Arc<Vec<T>>>>
    where
        T: Persist + Send + Sync + 'static,
    {
        // Fast path: resident entry under the read lock.
        {
            let guard = self.datasets.read().expect("dfs lock poisoned");
            let Some(stored) = guard.get(name) else {
                return Ok(None);
            };
            stored.last_access.store(self.tick(), Ordering::Relaxed);
            match &stored.payload {
                Payload::Resident(data) => {
                    let Ok(typed) = Arc::clone(data).downcast::<Vec<T>>() else {
                        return Ok(None);
                    };
                    stored.reads.fetch_add(1, Ordering::Relaxed);
                    let snapshot_bytes = stored.bytes;
                    drop(guard);
                    self.bytes_read.fetch_add(snapshot_bytes, Ordering::Relaxed);
                    return Ok(Some(typed));
                }
                Payload::Spilled => {}
            }
        }
        self.reload(name)
    }

    /// Slow path of [`Dfs::snapshot`]: reload a spilled dataset from the
    /// block store and re-cache it.
    fn reload<T>(&self, name: &str) -> crate::Result<Option<Arc<Vec<T>>>>
    where
        T: Persist + Send + Sync + 'static,
    {
        let Some(d) = &self.durable else {
            // A spilled entry can only exist on the durable backend.
            return Ok(None);
        };
        let Some(meta) = d.store.meta(name) else {
            return Ok(None);
        };
        if meta.type_tag != T::type_tag() {
            // Same semantics as a wrong-type downcast in memory mode: the
            // manifest answers the probe, no segment is read.
            return Ok(None);
        }
        let dir = d
            .store
            .directory(name, meta)
            .map_err(|e| storage_error(name, "get", &e))?;
        // Decode into the allocation the last spill left behind if it is a
        // `Vec<T>` no reader still holds; otherwise free it first.
        let spare = d.spare.lock().expect("spare lock poisoned").take();
        let into = (spare.and_then(|spare| spare.downcast::<Vec<T>>().ok()))
            .and_then(|spare| Arc::try_unwrap(spare).ok())
            .unwrap_or_default();
        let records = self.decode_blocks(into, &d.store, name, &dir)?;
        d.store.record_read(&dir);
        let typed = Arc::new(records);
        let est = usize::try_from(dir.meta().est_bytes).unwrap_or(usize::MAX);
        d.reload_events.fetch_add(1, Ordering::Relaxed);
        d.reloaded_bytes.fetch_add(est, Ordering::Relaxed);

        let mut guard = self.datasets.write().expect("dfs lock poisoned");
        let metered = match guard.get_mut(name) {
            Some(stored) if matches!(stored.payload, Payload::Spilled) => {
                stored.payload =
                    Payload::Resident(Arc::clone(&typed) as Arc<dyn Any + Send + Sync>);
                stored.reads.fetch_add(1, Ordering::Relaxed);
                stored.last_access.store(self.tick(), Ordering::Relaxed);
                stored.bytes
            }
            Some(stored) => {
                // Another thread reloaded or replaced the entry while we
                // were off the lock; our decoded snapshot is still a
                // coherent generation — serve it and count the read.
                stored.reads.fetch_add(1, Ordering::Relaxed);
                est
            }
            // Deleted concurrently: the read began while the dataset was
            // live, so serving the fetched snapshot stays linearizable.
            None => est,
        };
        self.enforce_budget(&mut guard, name);
        drop(guard);
        self.bytes_read.fetch_add(metered, Ordering::Relaxed);
        Ok(Some(typed))
    }

    /// Read every block of `dir` and parse it into `into`, a contiguous
    /// range of blocks per executor. `into` is cleared and reserved up
    /// front to hold the directory's record count, keeping its allocation
    /// if that is large enough; each executor reads into its own two
    /// block-sized buffers and parses straight into its range's own
    /// stretch of that `Vec` ([`fill_parts`]), so no record is copied after
    /// it is parsed and the result does not depend on how many executors
    /// there were. The directory's lengths are checked before anything is
    /// reserved ([`check_directory`]). A range parses exactly its blocks'
    /// directory counts ([`parse_records`]), and the `Vec` is claimed only
    /// when every range is full; if a range
    /// fails, the first failure in block order is returned and every record
    /// already parsed is dropped.
    fn decode_blocks<T>(
        &self,
        into: Vec<T>,
        store: &BlockStore,
        name: &str,
        dir: &BlockDirectory,
    ) -> crate::Result<Vec<T>>
    where
        T: Persist + Send,
    {
        let malformed = |detail: String| crate::MrError::StorageFailed {
            dataset: name.to_string(),
            op: "decode",
            detail,
        };
        let entries = dir.entries();
        check_directory::<T>(entries).map_err(malformed)?;
        let ranges = self.block_ranges(entries.len());
        let lens: Vec<usize> = (ranges.iter())
            .map(|range| {
                let records: u64 = entries[range.clone()].iter().map(|e| e.records).sum();
                usize::try_from(records).unwrap_or(usize::MAX)
            })
            .collect();
        let decode_range = |range: Range<usize>, part: &mut Part<'_, T>| -> crate::Result<()> {
            let mut buf = BlockBuf::default();
            for b in range {
                let raw = store
                    .read_block(dir, b, &mut buf)
                    .map_err(|e| storage_error(name, "get", &e))?;
                parse_records(raw, Some(entries[b].records), |record| part.push(record))
                    .map_err(|detail| malformed(format!("block {b}: {detail}")))?;
            }
            Ok(())
        };
        fill_parts(into, &lens, |parts| {
            let inputs: Vec<(Range<usize>, Part<'_, T>)> = ranges.into_iter().zip(parts).collect();
            let decoded = self.per_block_range(inputs, &|(range, mut part)| {
                decode_range(range, &mut part).map(|()| part)
            });
            decoded.into_iter().collect()
        })
    }

    /// Fetch a dataset by name. Returns `None` when missing, when the
    /// stored type differs from `T`, or when a durable read fails (use
    /// [`Dfs::get_required`] to observe the typed error). Each call
    /// counts as one full read of the dataset, metered at snapshot time
    /// (see `Dfs::snapshot`).
    pub fn get<T>(&self, name: &str) -> Option<Arc<Vec<T>>>
    where
        T: Persist + Send + Sync + 'static,
    {
        self.snapshot(name).ok().flatten()
    }

    /// Fetch a dataset as a zero-copy [`Block`] covering all of it.
    /// Metering is identical to [`Dfs::get`]: one full read of the
    /// dataset, regardless of how the caller later narrows the block.
    pub fn get_block<T>(&self, name: &str) -> Option<Block<T>>
    where
        T: Persist + Send + Sync + 'static,
    {
        self.get(name).map(Block::whole)
    }

    /// Fetch a dataset that must exist, with the typed error instead of
    /// `None`: [`crate::MrError::DatasetMissing`] names the reading job and
    /// the dataset, so the caller gets a typed error instead of panicking
    /// on an `unwrap`; durable I/O failures surface as
    /// [`crate::MrError::StorageFailed`]. A single metered lookup — there
    /// is no separate existence probe whose answer could go stale before
    /// the fetch.
    pub fn get_required<T>(&self, job: &str, name: &str) -> crate::Result<Arc<Vec<T>>>
    where
        T: Persist + Send + Sync + 'static,
    {
        self.snapshot(name)?
            .ok_or_else(|| crate::MrError::DatasetMissing {
                job: job.to_string(),
                dataset: name.to_string(),
            })
    }

    /// Remove a dataset; returns true when it existed. On the durable
    /// backend the deletion is committed to the manifest, so it also
    /// survives a restart. Like [`Dfs::put`], refused with
    /// [`crate::MrError::PlanViolation`] from inside a running batch job.
    pub fn delete(&self, name: &str) -> crate::Result<bool> {
        crate::sched::refuse_dfs_write_in_job("delete", name)?;
        let mut guard = self.datasets.write().expect("dfs lock poisoned");
        let Some(stored) = guard.remove(name) else {
            return Ok(false);
        };
        self.live_bytes.fetch_sub(stored.bytes, Ordering::Relaxed);
        if let Some(d) = &self.durable {
            d.store
                .delete(name)
                .map_err(|e| storage_error(name, "delete", &e))?;
        }
        Ok(true)
    }

    /// Whether a dataset exists.
    pub fn contains(&self, name: &str) -> bool {
        self.datasets
            .read()
            .expect("dfs lock poisoned")
            .contains_key(name)
    }

    /// Names of all stored datasets (unordered).
    pub fn list(&self) -> Vec<String> {
        self.datasets
            .read()
            .expect("dfs lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Estimated stored size of a dataset in bytes.
    pub fn size_of(&self, name: &str) -> Option<usize> {
        self.datasets
            .read()
            .expect("dfs lock poisoned")
            .get(name)
            .map(|s| s.bytes)
    }

    /// Number of times a dataset has been read (this process; reopening a
    /// durable store starts the count fresh).
    pub fn reads_of(&self, name: &str) -> Option<usize> {
        self.datasets
            .read()
            .expect("dfs lock poisoned")
            .get(name)
            .map(|s| s.reads.load(Ordering::Relaxed))
    }

    /// Total bytes written since creation (cumulative across
    /// replacements; see [`Dfs::live_bytes`] for the current footprint).
    pub fn total_bytes_written(&self) -> usize {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total bytes read since creation.
    pub fn total_bytes_read(&self) -> usize {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Estimated bytes of all *live* datasets — the current storage
    /// footprint. Unlike [`Dfs::total_bytes_written`], replacing a
    /// dataset subtracts the displaced generation, so this is the gauge
    /// capacity budgets and allocation-proxy benchmarks should read.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// Estimated bytes of datasets currently resident in memory. Equal to
    /// [`Dfs::live_bytes`] on the memory backend; on the durable backend
    /// spilled datasets are excluded.
    pub fn resident_bytes(&self) -> usize {
        self.datasets
            .read()
            .expect("dfs lock poisoned")
            .values()
            .filter(|s| matches!(s.payload, Payload::Resident(_)))
            .map(|s| s.bytes)
            .sum()
    }

    /// Spill/reload counters (all zero on the memory backend).
    pub fn spill_stats(&self) -> SpillStats {
        match &self.durable {
            None => SpillStats::default(),
            Some(d) => SpillStats {
                spill_events: d.spill_events.load(Ordering::Relaxed),
                spilled_bytes: d.spilled_bytes.load(Ordering::Relaxed),
                reload_events: d.reload_events.load(Ordering::Relaxed),
                reloaded_bytes: d.reloaded_bytes.load(Ordering::Relaxed),
                dead_stored_bytes: d.store.stats().dead_stored_bytes,
            },
        }
    }

    /// Durable-store counters (raw/stored byte volumes, checksums,
    /// dead-byte volume); `None` on the memory backend.
    pub fn store_stats(&self) -> Option<haten2_blockstore::StoreStats> {
        self.durable.as_ref().map(|d| d.store.stats())
    }

    /// Per-dataset durable read/write byte counters; `None` on the
    /// memory backend. This is the metering `ANALYSIS.md` cross-checks
    /// against the Ballard-style I/O floor.
    pub fn durable_dataset_io(
        &self,
    ) -> Option<std::collections::BTreeMap<String, haten2_blockstore::DatasetIo>> {
        self.durable.as_ref().map(|d| d.store.dataset_io())
    }
}

/// Where `records` is cut into blocks: `cuts[b]..cuts[b + 1]` is block
/// `b`, a run of whole records closed by the first one that takes its
/// estimated wire bytes to [`BLOCK_TARGET_BYTES`] (so a record larger than
/// the target still fits, in a larger block). Depends on the records only
/// — never on the thread count — so a dataset has one on-disk form.
fn block_cuts<T: EstimateSize>(records: &[T]) -> Vec<usize> {
    let mut cuts = vec![0];
    match T::FIXED_BYTES {
        Some(width) => {
            let per_block = (BLOCK_TARGET_BYTES / width.max(1)).max(1);
            cuts.extend((per_block..records.len()).step_by(per_block));
        }
        None => {
            let mut block_bytes = 0usize;
            for (i, record) in records.iter().enumerate() {
                if block_bytes >= BLOCK_TARGET_BYTES {
                    cuts.push(i);
                    block_bytes = 0;
                }
                block_bytes += record.est_bytes();
            }
        }
    }
    if !records.is_empty() {
        cuts.push(records.len());
    }
    cuts
}

/// Refuse a block directory whose lengths no block of `T` written by this
/// store could have, before anything is reserved for its records: a row
/// must declare exactly `records × WIDTH` bytes for a fixed-width `T` (at
/// least one byte per record of any other sized `T`), and no more bytes
/// than its codec can expand its stored length to. A row that passes
/// bounds the reservation by its stored bytes — up to the codec's
/// expansion, which `ZeroRle` does not bound.
fn check_directory<T: Persist>(entries: &[BlockEntry]) -> Result<(), String> {
    let width = T::WIDTH.filter(|&w| w > 0);
    let sized = std::mem::size_of::<T>() > 0;
    for (b, e) in entries.iter().enumerate() {
        let fits = match width {
            Some(w) => e.records.checked_mul(w as u64) == Some(e.raw_len),
            None => !sized || e.records <= e.raw_len,
        };
        if !fits {
            return Err(format!(
                "block {b} declares {} {} records in {} bytes",
                e.records,
                T::type_tag(),
                e.raw_len
            ));
        }
        if e.codec
            .max_raw_len(e.stored_len)
            .is_some_and(|max| e.raw_len > max)
        {
            return Err(format!(
                "block {b} declares {} bytes from {} stored {:?} bytes",
                e.raw_len, e.stored_len, e.codec
            ));
        }
    }
    Ok(())
}

fn storage_error(dataset: &str, op: &'static str, e: &std::io::Error) -> crate::MrError {
    crate::MrError::StorageFailed {
        dataset: dataset.to_string(),
        op,
        detail: e.to_string(),
    }
}

impl std::fmt::Debug for Dfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dfs")
            .field("datasets", &self.list())
            .field("durable", &self.is_durable())
            .field("bytes_written", &self.total_bytes_written())
            .field("bytes_read", &self.total_bytes_read())
            .field("live_bytes", &self.live_bytes())
            .finish()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests clear their scratch store directories and race readers on raw threads"
)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("haten2-dfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip() {
        let dfs = Dfs::new();
        dfs.put("t", vec![(1u64, 2.0f64), (3, 4.0)]).unwrap();
        let back = dfs.get::<(u64, f64)>("t").unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], (1, 2.0));
    }

    #[test]
    fn wrong_type_returns_none() {
        let dfs = Dfs::new();
        dfs.put("t", vec![1u64]).unwrap();
        assert!(dfs.get::<f64>("t").is_none());
        assert!(dfs.get::<u64>("missing").is_none());
    }

    #[test]
    fn read_metering() {
        let dfs = Dfs::new();
        let bytes = dfs.put("t", vec![1u64, 2, 3]).unwrap();
        assert_eq!(bytes, 24);
        assert_eq!(dfs.reads_of("t"), Some(0));
        dfs.get::<u64>("t").unwrap();
        dfs.get::<u64>("t").unwrap();
        assert_eq!(dfs.reads_of("t"), Some(2));
        assert_eq!(dfs.total_bytes_read(), 48);
        assert_eq!(dfs.total_bytes_written(), 24);
    }

    #[test]
    fn delete_and_list() {
        let dfs = Dfs::new();
        dfs.put("a", vec![1u64]).unwrap();
        dfs.put("b", vec![2u64]).unwrap();
        assert_eq!(dfs.list().len(), 2);
        assert!(dfs.delete("a").unwrap());
        assert!(!dfs.delete("a").unwrap());
        assert!(!dfs.contains("a"));
        assert!(dfs.contains("b"));
    }

    #[test]
    fn put_replaces() {
        let dfs = Dfs::new();
        dfs.put("t", vec![1u64]).unwrap();
        dfs.put("t", vec![1u64, 2]).unwrap();
        assert_eq!(dfs.get::<u64>("t").unwrap().len(), 2);
        assert_eq!(dfs.size_of("t"), Some(16));
    }

    #[test]
    fn live_bytes_tracks_replacement_and_delete() {
        // Satellite regression: `bytes_written` is cumulative, so putting
        // over an existing name used to leave no gauge of the *current*
        // footprint. `live_bytes` subtracts displaced generations.
        let dfs = Dfs::new();
        dfs.put("t", vec![0u64; 100]).unwrap(); // 800 B
        assert_eq!(dfs.live_bytes(), 800);
        dfs.put("t", vec![0u64; 10]).unwrap(); // replace: 80 B live
        assert_eq!(dfs.live_bytes(), 80);
        assert_eq!(dfs.total_bytes_written(), 880, "written stays cumulative");
        dfs.put("u", vec![0u64; 5]).unwrap();
        assert_eq!(dfs.live_bytes(), 120);
        dfs.delete("t").unwrap();
        assert_eq!(dfs.live_bytes(), 40);
        dfs.delete("u").unwrap();
        assert_eq!(dfs.live_bytes(), 0);
        // Memory backend: resident == live.
        dfs.put("v", vec![0u64; 3]).unwrap();
        assert_eq!(dfs.resident_bytes(), dfs.live_bytes());
    }

    #[test]
    fn capacity_is_enforced_on_live_bytes() {
        let dfs = Dfs::with_capacity(Some(100));
        dfs.put("a", vec![0u64; 10]).unwrap(); // 80 B
        let err = dfs.put("b", vec![0u64; 5]).unwrap_err(); // +40 > 100
        match err {
            crate::MrError::SpillCapacityExceeded {
                dataset,
                requested_bytes,
                live_bytes,
                capacity_bytes,
            } => {
                assert_eq!(dataset, "b");
                assert_eq!(requested_bytes, 40);
                assert_eq!(live_bytes, 80);
                assert_eq!(capacity_bytes, 100);
            }
            other => panic!("wrong error: {other:?}"),
        }
        // Replacement frees the displaced generation first: shrinking a
        // dataset under capacity pressure always succeeds.
        dfs.put("a", vec![0u64; 2]).unwrap();
        dfs.put("b", vec![0u64; 5]).unwrap();
        assert_eq!(dfs.live_bytes(), 56);
    }

    #[test]
    fn replace_while_read_is_well_defined() {
        // Regression: a reader's snapshot survives replacement unchanged,
        // its bytes are metered against the snapshot (not the
        // replacement), and the cumulative read count carries over.
        let dfs = Dfs::new();
        dfs.put("t", vec![1u64, 2, 3]).unwrap(); // 24 bytes
        let snapshot = dfs.get::<u64>("t").unwrap();
        assert_eq!(dfs.total_bytes_read(), 24);
        assert_eq!(dfs.reads_of("t"), Some(1));

        // Replace mid-flight with a dataset of a different size.
        dfs.put("t", vec![9u64]).unwrap(); // 8 bytes
        assert_eq!(*snapshot, vec![1u64, 2, 3], "reader keeps its snapshot");
        assert_eq!(
            dfs.reads_of("t"),
            Some(1),
            "read history survives replacement"
        );
        // The pre-replacement read stays metered at the old size; a fresh
        // read meters the new size.
        dfs.get::<u64>("t").unwrap();
        assert_eq!(dfs.total_bytes_read(), 24 + 8);
        assert_eq!(dfs.reads_of("t"), Some(2));
    }

    #[test]
    fn concurrent_replace_and_read_accounting_is_consistent() {
        // Hammer get/put on one dataset: every metered read must account
        // either the old or the new size exactly — never a torn value.
        let dfs = std::sync::Arc::new(Dfs::new());
        dfs.put("t", vec![0u64; 4]).unwrap(); // 32 bytes
        let readers = 4;
        let rounds = 200;
        std::thread::scope(|s| {
            for _ in 0..readers {
                let dfs = std::sync::Arc::clone(&dfs);
                s.spawn(move || {
                    for _ in 0..rounds {
                        let snap = dfs.get::<u64>("t").unwrap();
                        assert!(snap.len() == 4 || snap.len() == 1);
                    }
                });
            }
            let writer = std::sync::Arc::clone(&dfs);
            s.spawn(move || {
                for i in 0..rounds {
                    if i % 2 == 0 {
                        writer.put("t", vec![0u64; 1]).unwrap(); // 8 bytes
                    } else {
                        writer.put("t", vec![0u64; 4]).unwrap(); // 32 bytes
                    }
                }
            });
        });
        // Total bytes read decomposes exactly into 8- and 32-byte reads.
        let total = dfs.total_bytes_read();
        let reads = dfs.reads_of("t").unwrap();
        assert_eq!(reads, readers * rounds);
        // total = 8a + 32b with a + b = reads  ⇒  solvable in nonneg ints.
        let min = 8 * reads;
        let max = 32 * reads;
        assert!(total >= min && total <= max && (total - min).is_multiple_of(24));
        // Live bytes settled on exactly the last generation written.
        assert!(dfs.live_bytes() == 8 || dfs.live_bytes() == 32);
    }

    #[test]
    fn missing_dataset_fails_cleanly() {
        let err = Dfs::new()
            .get_required::<(u64, u64)>("orphan", "nope")
            .unwrap_err();
        assert_eq!(
            err,
            crate::MrError::DatasetMissing {
                job: "orphan".into(),
                dataset: "nope".into()
            }
        );
    }

    #[test]
    fn type_mismatch_is_missing() {
        let dfs = Dfs::new();
        dfs.put("x", vec![1u64, 2, 3]).unwrap(); // not (K, V) pairs
        let err = dfs.get_required::<(u64, u64)>("typed", "x").unwrap_err();
        assert!(matches!(err, crate::MrError::DatasetMissing { .. }));
    }

    #[test]
    fn get_required_put_race_window_is_closed() {
        // Regression: `get_required` once risked a contains-then-fetch
        // shape, where a concurrent delete/put between the two lookups
        // could surface a stale answer (exists-but-missing, or a metered
        // read of the wrong generation). It now snapshots in a single
        // lookup, so under a put/delete storm every call either returns a
        // coherent generation or the typed DatasetMissing error — never a
        // panic or torn accounting.
        let dfs = std::sync::Arc::new(Dfs::new());
        let rounds = 400;
        std::thread::scope(|s| {
            for _ in 0..3 {
                let dfs = std::sync::Arc::clone(&dfs);
                s.spawn(move || {
                    for _ in 0..rounds {
                        match dfs.get_required::<u64>("job", "t") {
                            Ok(snap) => assert!(snap.len() == 2 || snap.len() == 5),
                            Err(crate::MrError::DatasetMissing { job, dataset }) => {
                                assert_eq!(job, "job");
                                assert_eq!(dataset, "t");
                            }
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                });
            }
            let writer = std::sync::Arc::clone(&dfs);
            s.spawn(move || {
                for i in 0..rounds {
                    match i % 3 {
                        0 => {
                            writer.put("t", vec![0u64; 2]).unwrap();
                        }
                        1 => {
                            writer.delete("t").unwrap();
                        }
                        _ => {
                            writer.put("t", vec![0u64; 5]).unwrap();
                        }
                    }
                }
            });
        });
        // Every successful read metered either the 16- or the 40-byte
        // generation: total decomposes as 16a + 40b.
        let total = dfs.total_bytes_read();
        assert!(total.is_multiple_of(8), "torn byte accounting: {total}");
    }

    #[test]
    fn block_views_share_storage() {
        let dfs = Dfs::new();
        dfs.put("t", vec![10u64, 20, 30, 40]).unwrap();
        let block = dfs.get_block::<u64>("t").unwrap();
        assert_eq!(block.len(), 4);
        assert!(!block.is_empty());
        assert_eq!(block.slice(), &[10, 20, 30, 40]);
        // One metered read regardless of later narrowing.
        assert_eq!(dfs.reads_of("t"), Some(1));
        assert_eq!(dfs.total_bytes_read(), 32);

        let mid = block.narrow(1..3);
        assert_eq!(mid.slice(), &[20, 30]);
        let tail = mid.narrow(1..2);
        assert_eq!(tail.slice(), &[30]);
        // Clones and narrows are refcount bumps on the same storage.
        let again = block.clone();
        assert_eq!(again.slice().as_ptr(), block.slice().as_ptr());
        assert_eq!(dfs.reads_of("t"), Some(1));

        // A narrowed block can't be unwrapped; the last whole one can.
        assert!(tail.try_unwrap().is_err());
        dfs.delete("t").unwrap();
        drop((mid, again));
        assert_eq!(block.try_unwrap().unwrap(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn try_unwrap_edge_cases() {
        // Satellite: narrow(0..len) *is* full coverage — unwrap succeeds
        // once the parent handle (which `narrow` does not consume) drops.
        let block = Block::whole(Arc::new(vec![1u64, 2, 3]));
        let full = block.narrow(0..3);
        let full = full.try_unwrap().unwrap_err(); // parent still alive
        drop(block);
        assert_eq!(full.try_unwrap().unwrap(), vec![1, 2, 3]);

        // Chained full-coverage narrows stay unwrappable.
        let block = Block::whole(Arc::new(vec![4u64, 5]));
        let full = block.narrow(0..2).narrow(0..2);
        drop(block);
        assert_eq!(full.try_unwrap().unwrap(), vec![4, 5]);

        // Empty storage: the whole block of an empty Vec unwraps.
        let empty = Block::whole(Arc::new(Vec::<u64>::new()));
        assert!(empty.is_empty());
        assert_eq!(empty.try_unwrap().unwrap(), Vec::<u64>::new());

        // An empty *view* of non-empty storage must refuse: handing out
        // the storage would leak records the view never covered.
        let block = Block::whole(Arc::new(vec![1u64, 2]));
        let empty_view = block.narrow(1..1);
        let back = empty_view.try_unwrap().unwrap_err();
        assert_eq!(back.len(), 0);
        drop(block);

        // Unwrap under a concurrent clone: refused, block handed back
        // intact; once the clone drops, unwrap succeeds.
        let block = Block::whole(Arc::new(vec![7u64, 8]));
        let clone = block.clone();
        let block = block.try_unwrap().unwrap_err();
        assert_eq!(block.slice(), &[7, 8]);
        drop(clone);
        assert_eq!(block.try_unwrap().unwrap(), vec![7, 8]);

        // A narrowed clone alive elsewhere also blocks the unwrap, and
        // the returned handle still works.
        let block = Block::whole(Arc::new(vec![9u64, 10, 11]));
        let narrow = block.narrow(0..1);
        let block = block.try_unwrap().unwrap_err();
        assert_eq!(narrow.slice(), &[9]);
        drop(narrow);
        assert_eq!(block.try_unwrap().unwrap(), vec![9, 10, 11]);
    }

    #[test]
    #[should_panic(expected = "narrow")]
    fn block_narrow_out_of_range_panics() {
        let block = Block::whole(Arc::new(vec![1u64, 2]));
        let _ = block.narrow(1..3);
    }

    #[test]
    fn put_shared_stores_without_copying() {
        let dfs = Dfs::new();
        let records = Arc::new(vec![1u64, 2, 3]);
        let ptr = records.as_ptr();
        let bytes = dfs.put_shared("t", Arc::clone(&records)).unwrap();
        assert_eq!(bytes, 24);
        assert_eq!(dfs.total_bytes_written(), 24);
        let back = dfs.get::<u64>("t").unwrap();
        assert_eq!(back.as_ptr(), ptr, "stored Arc is the caller's, not a copy");
        // Read history carries across a shared replacement, like put.
        dfs.put_shared("t", Arc::new(vec![9u64])).unwrap();
        assert_eq!(dfs.reads_of("t"), Some(1));
    }

    // ---- durable backend ----

    #[test]
    fn durable_roundtrip_and_restart() {
        let dir = tmpdir("restart");
        let cfg = DurableConfig::new(&dir);
        let records = vec![((1u64, 2u64, 3u64, 0u64), 1.5f64), ((4, 5, 6, 0), -2.0)];
        {
            let dfs = Dfs::durable(&cfg, None).unwrap();
            assert!(dfs.is_durable());
            dfs.put("tensor", records.clone()).unwrap();
            assert_eq!(
                *dfs.get::<((u64, u64, u64, u64), f64)>("tensor").unwrap(),
                records
            );
        }
        // A fresh process (simulated by a fresh Dfs over the same dir)
        // sees the dataset and reloads it bit-identically.
        let dfs = Dfs::durable(&cfg, None).unwrap();
        assert!(dfs.contains("tensor"));
        assert_eq!(dfs.size_of("tensor"), Some(80));
        assert_eq!(dfs.live_bytes(), 80);
        assert_eq!(
            dfs.reads_of("tensor"),
            Some(0),
            "read counters are per-process"
        );
        let back = dfs.get::<((u64, u64, u64, u64), f64)>("tensor").unwrap();
        assert_eq!(*back, records);
        // Wrong-type probe after restart behaves like a failed downcast.
        assert!(dfs.get::<u64>("tensor").is_none());
        let stats = dfs.spill_stats();
        assert_eq!(stats.reload_events, 1);
        assert_eq!(stats.reloaded_bytes, 80);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_delete_survives_restart() {
        let dir = tmpdir("delete");
        let cfg = DurableConfig::new(&dir);
        {
            let dfs = Dfs::durable(&cfg, None).unwrap();
            dfs.put("a", vec![1u64]).unwrap();
            dfs.put("b", vec![2u64]).unwrap();
            dfs.delete("a").unwrap();
        }
        let dfs = Dfs::durable(&cfg, None).unwrap();
        assert!(!dfs.contains("a"));
        assert_eq!(*dfs.get::<u64>("b").unwrap(), vec![2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_under_memory_budget_and_reload() {
        let dir = tmpdir("spill");
        // Budget fits one 800-byte dataset but not two.
        let cfg = DurableConfig::new(&dir).memory_budget(1000);
        let dfs = Dfs::durable(&cfg, None).unwrap();
        dfs.put("a", vec![0u64; 100]).unwrap(); // 800 B, resident
        assert_eq!(dfs.resident_bytes(), 800);
        dfs.put("b", vec![1u64; 100]).unwrap(); // spills a (LRU)
        assert_eq!(dfs.resident_bytes(), 800);
        assert_eq!(dfs.live_bytes(), 1600, "live counts spilled data too");
        let stats = dfs.spill_stats();
        assert_eq!(stats.spill_events, 1);
        assert_eq!(stats.spilled_bytes, 800);

        // Reading the spilled dataset reloads it (and spills b, now LRU).
        let a = dfs.get::<u64>("a").unwrap();
        assert_eq!(*a, vec![0u64; 100]);
        let stats = dfs.spill_stats();
        assert_eq!(stats.reload_events, 1);
        assert_eq!(stats.reloaded_bytes, 800);
        assert_eq!(stats.spill_events, 2);
        assert_eq!(dfs.resident_bytes(), 800);

        // Reads are metered identically whether served resident or
        // reloaded: two more reads, bytes at est size each.
        let before = dfs.total_bytes_read();
        dfs.get::<u64>("a").unwrap();
        dfs.get::<u64>("b").unwrap();
        assert_eq!(dfs.total_bytes_read(), before + 1600);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_refuses_a_directory_that_overstates_its_lengths() {
        type Rec = ((u64, u64, u64, u64), f64);
        let row = |stored_len, raw_len, records, codec| BlockEntry {
            stored_len,
            raw_len,
            records,
            codec,
            checksum: 0,
        };
        let honest = row(3_000, 40_000, 1_000, Codec::Words);
        assert_eq!(check_directory::<Rec>(&[honest]), Ok(()));
        // A row whose checksum would pass but whose lengths no block of
        // 40-byte records written by this store has: each is refused
        // before a 40 × 2⁴⁰-byte reservation could be attempted.
        let huge = 1u64 << 40;
        for forged in [
            row(3_000, huge * 40, huge, Codec::Words),
            row(3_000, 40 * 3_001, 3_001, Codec::Raw),
            row(3_000, 40_000, 999, Codec::Words),
            row(3_000, 40_000, 1_000, Codec::Raw),
            row(10, huge, huge / 40, Codec::ZeroRle),
        ] {
            let err = check_directory::<Rec>(&[honest, forged]).unwrap_err();
            assert!(err.starts_with("block 1 declares"), "{forged:?}: {err}");
        }
        // A variable-width type still needs a byte per record.
        assert!(check_directory::<String>(&[row(10, 10, 11, Codec::Raw)]).is_err());
        assert!(check_directory::<String>(&[row(10, 10, 10, Codec::Raw)]).is_ok());

        // Through a reload: a dataset of `u64` read back by a type of the
        // same tag but twice the width fails as a decode, not a panic.
        #[derive(Debug)]
        struct Wide(#[allow(dead_code, reason = "never read: the test needs only its width")] u64);
        impl Persist for Wide {
            fn type_tag() -> String {
                u64::type_tag()
            }
            fn write_record(&self, out: &mut Vec<u8>) {
                self.0.write_record(out);
            }
            fn read_record(bytes: &[u8], pos: &mut usize) -> Option<Self> {
                u64::read_record(bytes, pos).map(Wide)
            }
            const WIDTH: Option<usize> = Some(16);
        }
        let dir = tmpdir("forged");
        let dfs = Dfs::durable(&DurableConfig::new(&dir).memory_budget(0), None).unwrap();
        dfs.put("x", (0..100u64).collect()).unwrap();
        match dfs.get_required::<Wide>("job", "x").unwrap_err() {
            crate::MrError::StorageFailed { op, detail, .. } => {
                assert_eq!(op, "decode");
                assert!(detail.contains("800 bytes"), "{detail}");
            }
            other => panic!("expected a decode failure, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_dataset_spills_itself() {
        let dir = tmpdir("oversize");
        let cfg = DurableConfig::new(&dir).memory_budget(100);
        let dfs = Dfs::durable(&cfg, None).unwrap();
        // 800 B > 100 B budget: written through, immediately spilled.
        dfs.put("big", vec![0u64; 100]).unwrap();
        assert_eq!(dfs.resident_bytes(), 0);
        assert_eq!(dfs.live_bytes(), 800);
        // Still perfectly readable (reload each time).
        assert_eq!(dfs.get::<u64>("big").unwrap().len(), 100);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A dataset larger than the whole budget is spilled on its own when
    /// it is written or read, and evicts nothing that fits.
    #[test]
    fn an_oversized_dataset_spills_on_its_own_and_evicts_nothing() {
        let dir = tmpdir("oversize-alone");
        let cfg = DurableConfig::new(&dir).memory_budget(1000);
        let dfs = Dfs::durable(&cfg, None).unwrap();
        dfs.put("a", vec![1u64; 100]).unwrap(); // 800 B, resident
        dfs.put("big", vec![2u64; 250]).unwrap(); // 2000 B > budget
        assert_eq!(*dfs.get::<u64>("big").unwrap(), vec![2u64; 250]);
        assert_eq!(dfs.resident_bytes(), 800, "`a` stays resident");
        let stats = dfs.spill_stats();
        assert_eq!((stats.spill_events, stats.spilled_bytes), (2, 4000));
        assert_eq!((stats.reload_events, stats.reloaded_bytes), (1, 2000));
        assert_eq!(*dfs.get::<u64>("a").unwrap(), vec![1u64; 100]);
        assert_eq!(dfs.spill_stats().reload_events, 1, "`a` is served resident");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `u64` records over three and a bit store blocks.
    fn blocks_of_u64(seed: u64) -> Vec<u64> {
        let n = 3 * BLOCK_TARGET_BYTES / 8 + 5;
        (0..n as u64)
            .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    }

    #[test]
    fn reload_decodes_into_the_allocation_its_last_spill_left_behind() {
        let dir = tmpdir("reuse");
        let dfs = Dfs::durable(&DurableConfig::new(&dir).memory_budget(0), None).unwrap();
        let records = blocks_of_u64(1);
        // The put's own `Vec`, with room to spare, is what its spill
        // leaves behind: a reload into it keeps that capacity.
        let mut put = Vec::with_capacity(records.len() + 1000);
        put.extend_from_slice(&records);
        let (at, capacity) = (put.as_ptr(), put.capacity());
        dfs.put("x", put).unwrap();
        for _ in 0..3 {
            let again = dfs.get::<u64>("x").unwrap();
            assert_eq!(*again, records);
            assert_eq!((again.as_ptr(), again.capacity()), (at, capacity));
        }
        let stats = dfs.spill_stats();
        assert_eq!((stats.spill_events, stats.reload_events), (4, 3));
        assert_eq!(
            dfs.store_stats().unwrap().gets,
            3,
            "every reload reads the store"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_leaves_a_snapshot_still_held_as_it_was() {
        let dir = tmpdir("held");
        let dfs = Dfs::durable(&DurableConfig::new(&dir).memory_budget(0), None).unwrap();
        let (old, new) = (blocks_of_u64(1), blocks_of_u64(2));
        dfs.put("x", old.clone()).unwrap();
        let held = dfs.get::<u64>("x").unwrap();
        // Reloaded while `held` is the spare: decoded elsewhere.
        let again = dfs.get::<u64>("x").unwrap();
        assert_ne!(again.as_ptr(), held.as_ptr());
        assert_eq!(*again, old);
        drop(again);
        // A new generation of the same type and length, reloaded twice.
        dfs.put("x", new.clone()).unwrap();
        for _ in 0..2 {
            assert_eq!(*dfs.get::<u64>("x").unwrap(), new);
        }
        assert_eq!(*held, old, "the held snapshot keeps its bits");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_of_another_record_type_frees_the_spare() {
        let dir = tmpdir("other-type");
        let dfs = Dfs::durable(&DurableConfig::new(&dir).memory_budget(0), None).unwrap();
        dfs.put("pairs", vec![(1u64, 0.5f64); 100]).unwrap();
        dfs.put("words", blocks_of_u64(3)).unwrap();
        let words = dfs.get::<u64>("words").unwrap();
        let spare = Arc::downgrade(&words);
        drop(words);
        assert!(spare.upgrade().is_some(), "the store keeps it as its spare");
        let pairs = dfs.get::<(u64, f64)>("pairs").unwrap();
        assert_eq!(*pairs, vec![(1u64, 0.5f64); 100]);
        assert!(spare.upgrade().is_none(), "freed, not kept beside `pairs`");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_by_concurrent_readers_at_one_to_four_threads_is_identical() {
        let records = blocks_of_u64(4);
        for threads in 1..=4 {
            let dir = tmpdir(&format!("readers{threads}"));
            let cluster = crate::Cluster::new(crate::ClusterConfig {
                threads,
                dfs: DfsBackend::Durable(DurableConfig::new(&dir).memory_budget(0)),
                ..crate::ClusterConfig::with_machines(2)
            });
            let dfs = cluster.dfs();
            dfs.put("x", records.clone()).unwrap();
            std::thread::scope(|s| {
                let readers: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            (0..3).all(|_| *dfs.get_required::<u64>("r", "x").unwrap() == records)
                        })
                    })
                    .collect();
                for reader in readers {
                    assert!(reader.join().unwrap(), "{threads} readers");
                }
            });
            assert_eq!(dfs.reads_of("x"), Some(3 * threads));
            assert_eq!(dfs.store_stats().unwrap().gets, 3 * threads as u64);
            drop(cluster);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn capacity_error_is_identical_across_backends() {
        let dir = tmpdir("cap");
        let mem = Dfs::with_capacity(Some(100));
        let dur = Dfs::durable(&DurableConfig::new(&dir), Some(100)).unwrap();
        for dfs in [&mem, &dur] {
            dfs.put("a", vec![0u64; 10]).unwrap();
            let err = dfs.put("b", vec![0u64; 5]).unwrap_err();
            assert_eq!(
                err,
                crate::MrError::SpillCapacityExceeded {
                    dataset: "b".to_string(),
                    requested_bytes: 40,
                    live_bytes: 80,
                    capacity_bytes: 100,
                }
            );
        }
        // The rejected durable put must not have leaked into the store.
        drop(dur);
        let dur = Dfs::durable(&DurableConfig::new(&dir), Some(100)).unwrap();
        assert!(dur.contains("a"));
        assert!(!dur.contains("b"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_per_dataset_io_is_metered() {
        let dir = tmpdir("io");
        let cfg = DurableConfig::new(&dir).memory_budget(0); // everything spills
        let dfs = Dfs::durable(&cfg, None).unwrap();
        dfs.put("t", vec![(0u64, 1.0f64); 50]).unwrap();
        dfs.get::<(u64, f64)>("t").unwrap();
        dfs.get::<(u64, f64)>("t").unwrap();
        let io = dfs.durable_dataset_io().unwrap();
        assert_eq!(io["t"].writes, 1);
        assert_eq!(
            io["t"].reads, 2,
            "both reads hit the store under a zero budget"
        );
        assert_eq!(io["t"].bytes_written, 800);
        assert_eq!(io["t"].bytes_read, 1600);
        let stats = dfs.store_stats().unwrap();
        assert_eq!(stats.puts, 1);
        assert_eq!(stats.gets, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_type_probe_of_a_spilled_dataset_is_not_a_disk_read() {
        let dir = tmpdir("probe");
        let cfg = DurableConfig::new(&dir).memory_budget(0); // everything spills
        let dfs = Dfs::durable(&cfg, None).unwrap();
        dfs.put("t", vec![((1u64, 2u64, 3u64, 0u64), 1.5f64); 50])
            .unwrap();
        let before = (
            dfs.durable_dataset_io().unwrap(),
            dfs.store_stats().unwrap(),
            dfs.spill_stats(),
            dfs.total_bytes_read(),
            dfs.reads_of("t"),
        );
        assert!(dfs.get::<u8>("t").is_none());
        assert!(dfs.get_required::<(u64, f64)>("job", "t").is_err());
        let after = (
            dfs.durable_dataset_io().unwrap(),
            dfs.store_stats().unwrap(),
            dfs.spill_stats(),
            dfs.total_bytes_read(),
            dfs.reads_of("t"),
        );
        assert_eq!(before, after);
        // The right type still reads, and is metered.
        assert_eq!(
            dfs.get::<((u64, u64, u64, u64), f64)>("t").unwrap().len(),
            50
        );
        assert_eq!(dfs.store_stats().unwrap().gets, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn block_cuts_fall_on_record_boundaries_near_the_target() {
        // Fixed width: arithmetic.
        let per_block = BLOCK_TARGET_BYTES / 8;
        assert_eq!(block_cuts::<u64>(&[]), vec![0]);
        assert_eq!(block_cuts(&vec![0u64; per_block]), vec![0, per_block]);
        assert_eq!(
            block_cuts(&vec![0u64; 2 * per_block + 1]),
            vec![0, per_block, 2 * per_block, 2 * per_block + 1]
        );
        assert_eq!(block_cuts(&[(); 5]), vec![0, 5]);
        // Variable width: a block closes at the first record that takes it
        // to the target, however far past — an oversized record too.
        let small = "x".repeat(BLOCK_TARGET_BYTES / 2 - 4); // est = target / 2
        let giant = "y".repeat(3 * BLOCK_TARGET_BYTES);
        let records = vec![small.clone(), small.clone(), small.clone(), giant, small];
        assert_eq!(block_cuts(&records), vec![0, 2, 4, 5]);
    }

    #[test]
    fn from_backend_selects_mode() {
        let dir = tmpdir("backend");
        let mem = Dfs::from_backend(&DfsBackend::Memory, None).unwrap();
        assert!(!mem.is_durable());
        let dur = Dfs::from_backend(&DfsBackend::Durable(DurableConfig::new(&dir)), None).unwrap();
        assert!(dur.is_durable());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
