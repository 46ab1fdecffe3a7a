//! The shared checkpoint-store manager: one warming pass per
//! (workload, warm geometry, sampling design), no matter how many jobs
//! ask for it concurrently.
//!
//! Store identity is [`StoreMeta::fingerprint`] — the warm-geometry
//! fingerprint folded with benchmark, scale, and every sampling-design
//! field. The manager maps each fingerprint to one file under its root
//! directory and enforces a *single-producer* discipline:
//!
//! * the first job to ask for an absent store gets a [`StoreTicket::Warm`]
//!   and writes to a `.partial` temp path;
//! * concurrent askers block until the warmer commits (rename to the
//!   final path) or aborts, in which case one of them is promoted to be
//!   the new warmer;
//! * every later asker gets a [`StoreTicket::Replay`] against the
//!   committed file.
//!
//! The rename-on-success protocol makes "final path exists" equivalent
//! to "store is complete": a crash or cancellation can only ever leave
//! a `.partial` file behind, which is a CRC-intact salvageable prefix
//! (see `smarts-ckpt`'s truncation tolerance) but is never served. The
//! final path is the only record of a complete store: the manager's
//! one table, under one lock, holds a slot only for a store it is
//! acting on — one being warmed, or one held open — and a fingerprint
//! without a slot has its file's header checked each time it is asked
//! for, so a store whose file is gone is warmed again.
//!
//! Committed stores are also held **open** (memory-mapped) across jobs:
//! [`StoreManager::open_store`] returns a shared
//! [`MappedStore`] from the table's least-recently-used open slots, so
//! repeated replays of a hot store skip the open/validate work and
//! share one zero-copy mapping. A store file never changes after its
//! rename-on-commit (same fingerprint ⇒ byte-identical content), so
//! open mappings need no invalidation — only LRU eviction past
//! [`MAX_OPEN_STORES`]. Each open slot also owns the store's
//! [`UnitMemo`]: every job on the mapping shares it, so a unit one job
//! replayed is statistics, not simulation, for the next — and it is
//! evicted with the mapping, which bounds it.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use smarts_ckpt::{read_store_meta, MappedStore, StoreMeta};
use smarts_core::SmartsSim;
use smarts_exec::{CancelToken, ParallelReport, UnitMemo};
use smarts_uarch::MachineConfig;

/// Locks one of this module's tables, ignoring poisoning. Every update
/// here is an insert or a remove on a map or queue, with counters
/// beside it; the store table's holder may also read a store's header,
/// but before it updates anything. So a holder can only panic before or
/// after a whole update, never inside one: a poisoned lock still guards
/// a consistent table. (A `ResultsCache` byte count
/// could lag its map only through an allocation failure, which aborts
/// the process.)
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Permission to either produce a store or replay an existing one.
#[derive(Debug)]
pub enum StoreTicket {
    /// This job is the single warmer: write checkpoints to `temp`, then
    /// [`StoreManager::commit`] to publish at `final_path` (or
    /// [`StoreManager::abort`] on failure/cancellation).
    Warm {
        /// The store fingerprint this ticket is for.
        fingerprint: u64,
        /// The `.partial` path to write through.
        temp: PathBuf,
        /// The path the store is published at on commit.
        final_path: PathBuf,
    },
    /// The store is already complete: replay from `path`.
    Replay {
        /// The committed store file.
        path: PathBuf,
    },
}

/// Cap on concurrently open (memory-mapped) stores; past it the
/// least-recently-used mapping, and its unit memo, is evicted.
pub const MAX_OPEN_STORES: usize = 8;

/// One open store: the shared mapping, and the outcomes of the units
/// already replayed from it under the machine it was opened for.
#[derive(Debug, Clone)]
pub struct OpenStore {
    /// The zero-copy mapping.
    pub store: Arc<MappedStore>,
    /// The unit outcomes known so far; lives and dies with the mapping's
    /// LRU slot, so at most `cap × records` outcomes (~300 B each) stay.
    pub memo: Arc<UnitMemo>,
}

/// What the manager is doing with one store.
#[derive(Clone)]
enum Slot {
    /// Exactly one job holds the warm ticket and is producing.
    Warming,
    /// The store is mapped, for every job that replays it.
    Open(OpenStore),
}

/// The manager's counts since it was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// Warming passes started.
    pub warm_passes: u64,
    /// Acquisitions served by an already-complete store.
    pub store_hits: u64,
    /// Mappings opened (open-slot misses).
    pub stores_opened: u64,
    /// Mappings evicted from their open slots.
    pub stores_evicted: u64,
    /// Units every served run booked.
    pub units_replayed: u64,
    /// Of those, the units a memo supplied without simulation.
    pub units_memoized: u64,
}

/// The store table: a slot for each store being warmed or held open,
/// the open ones from least- to most-recently used, and the counts.
struct Table {
    slots: HashMap<u64, Slot>,
    /// The fingerprints of the `Open` slots, least-recently used first.
    lru: VecDeque<u64>,
    /// Cap on `lru`'s length.
    cap: usize,
    counts: StoreCounts,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("slots", &self.slots.len())
            .field("open", &self.lru.len())
            .field("cap", &self.cap)
            .finish()
    }
}

impl Table {
    /// Moves `fingerprint` to the most-recently-used position.
    fn touch(&mut self, fingerprint: u64) {
        if let Some(at) = self.lru.iter().position(|&fp| fp == fingerprint) {
            self.lru.remove(at);
        }
        self.lru.push_back(fingerprint);
    }

    /// `fingerprint`'s open store, now the most recently used, if it has
    /// one.
    fn open_hit(&mut self, fingerprint: u64) -> Option<OpenStore> {
        let Some(Slot::Open(slot)) = self.slots.get(&fingerprint).cloned() else {
            return None;
        };
        self.touch(fingerprint);
        Some(slot)
    }
}

/// Shared manager for the server's store directory.
#[derive(Debug)]
pub struct StoreManager {
    root: PathBuf,
    table: Mutex<Table>,
    changed: Condvar,
}

impl StoreManager {
    /// Creates a manager over `root`, creating the directory if absent.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message if the directory cannot be created.
    pub fn new(root: impl AsRef<Path>) -> Result<StoreManager, String> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create store dir {}: {e}", root.display()))?;
        Ok(StoreManager {
            root,
            table: Mutex::new(Table {
                slots: HashMap::new(),
                lru: VecDeque::new(),
                cap: MAX_OPEN_STORES,
                counts: StoreCounts::default(),
            }),
            changed: Condvar::new(),
        })
    }

    /// The directory stores live under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn final_path(&self, fingerprint: u64) -> PathBuf {
        self.root.join(format!("{fingerprint:016x}.ck"))
    }

    fn temp_path(&self, fingerprint: u64) -> PathBuf {
        self.root.join(format!("{fingerprint:016x}.ck.partial"))
    }

    /// Whether the on-disk file at the final path really is the store
    /// `fingerprint` names: readable header whose meta re-fingerprints
    /// (under `cfg`) to the expected value. Guards against missing and
    /// unrelated files, stale formats, and hash-name collisions — and,
    /// as the fingerprint folds in [`StoreMeta::isa`], keeps a ready
    /// store's header frontend the asker's, which a served replay runs
    /// under.
    fn validate_existing(&self, fingerprint: u64, cfg: &MachineConfig) -> bool {
        let path = self.final_path(fingerprint);
        match read_store_meta(&path) {
            Ok((_, meta)) => meta.fingerprint(cfg) == fingerprint,
            Err(_) => false,
        }
    }

    /// Resolves a ticket for the store identified by `meta` + `cfg`: a
    /// replay of an open store or of a valid file at the final path, or
    /// else the warm ticket. Blocks while another job holds the warm
    /// ticket; returns an error if `cancel` fires while waiting.
    ///
    /// # Errors
    ///
    /// Only cancellation while waiting for a racing warmer.
    pub fn acquire(
        &self,
        meta: &StoreMeta,
        cfg: &MachineConfig,
        cancel: &CancelToken,
    ) -> Result<StoreTicket, String> {
        let fingerprint = meta.fingerprint(cfg);
        let mut table = lock(&self.table);
        loop {
            match table.slots.get(&fingerprint) {
                Some(Slot::Warming) => {
                    if cancel.is_cancelled() {
                        return Err("cancelled while waiting for a racing warming pass".into());
                    }
                    let (guard, _) = self
                        .changed
                        .wait_timeout(table, Duration::from_millis(50))
                        .unwrap_or_else(PoisonError::into_inner);
                    table = guard;
                }
                Some(Slot::Open(_)) => break,
                None if self.validate_existing(fingerprint, cfg) => break,
                None => {
                    table.slots.insert(fingerprint, Slot::Warming);
                    table.counts.warm_passes += 1;
                    return Ok(StoreTicket::Warm {
                        fingerprint,
                        temp: self.temp_path(fingerprint),
                        final_path: self.final_path(fingerprint),
                    });
                }
            }
        }
        table.counts.store_hits += 1;
        Ok(StoreTicket::Replay {
            path: self.final_path(fingerprint),
        })
    }

    /// Publishes a completed warming pass: renames the temp file to the
    /// final path, which is then the store's one record, and frees the
    /// warm slot.
    ///
    /// # Errors
    ///
    /// On rename failure the warm slot is freed all the same (racers
    /// retry) and the I/O error message is returned.
    pub fn commit(&self, ticket: &StoreTicket) -> Result<(), String> {
        let StoreTicket::Warm {
            fingerprint,
            temp,
            final_path,
        } = ticket
        else {
            return Ok(());
        };
        let renamed = std::fs::rename(temp, final_path)
            .map_err(|e| format!("cannot publish store {}: {e}", final_path.display()));
        self.release(*fingerprint);
        renamed
    }

    /// Releases a warm ticket without publishing: the slot is freed so a
    /// waiting racer can become the new warmer. The `.partial` file is
    /// left on disk — it is a CRC-intact salvageable prefix, and the
    /// next warmer truncates it on create.
    pub fn abort(&self, ticket: &StoreTicket) {
        if let StoreTicket::Warm { fingerprint, .. } = ticket {
            self.release(*fingerprint);
        }
    }

    /// Frees `fingerprint`'s warm slot and wakes the racers waiting on
    /// it. A slot that a replay opened meanwhile (over a file put back
    /// at the final path) is an open store like any other, and stays.
    fn release(&self, fingerprint: u64) {
        let mut table = lock(&self.table);
        if let Some(Slot::Warming) = table.slots.get(&fingerprint) {
            table.slots.remove(&fingerprint);
        }
        self.changed.notify_all();
    }

    /// Returns the shared mapping for a committed store and its unit
    /// memo, opening the store into an open slot on first use. Hits
    /// touch the LRU order; misses map the file at `path` under `sim`'s
    /// machine and start an empty memo for `sim` — outside the lock, so
    /// no other store's jobs wait on it — then take the open slot, which
    /// may evict the least-recently-used one past the cap. A miss that a
    /// racer filled meanwhile drops its own mapping and shares the
    /// racer's slot. Eviction only drops the table's `Arc`s — jobs
    /// mid-replay keep their clones alive until they finish.
    ///
    /// Committed store files are immutable (rename-on-commit) and
    /// content-deterministic per fingerprint, so an open mapping never
    /// goes stale.
    ///
    /// # Errors
    ///
    /// Any `smarts-ckpt` open/validation error, as a message.
    pub fn open_store(
        &self,
        fingerprint: u64,
        path: &Path,
        sim: &SmartsSim,
    ) -> Result<OpenStore, String> {
        if let Some(slot) = lock(&self.table).open_hit(fingerprint) {
            return Ok(slot);
        }
        let store = MappedStore::open(path, sim.config())
            .map_err(|e| format!("cannot open store {}: {e}", path.display()))?;
        let slot = OpenStore {
            memo: Arc::new(UnitMemo::new(sim, &store)),
            store: Arc::new(store),
        };
        let mut table = lock(&self.table);
        if let Some(raced) = table.open_hit(fingerprint) {
            return Ok(raced);
        }
        table.counts.stores_opened += 1;
        table.slots.insert(fingerprint, Slot::Open(slot.clone()));
        table.lru.push_back(fingerprint);
        while table.lru.len() > table.cap {
            if let Some(oldest) = table.lru.pop_front() {
                table.slots.remove(&oldest);
                table.counts.stores_evicted += 1;
            }
        }
        Ok(slot)
    }

    /// Adds one finished run's units to the served totals: all it
    /// booked, and those of them that came out of a memo.
    pub fn count_units(&self, run: &ParallelReport) {
        let mut table = lock(&self.table);
        for worker in &run.workers {
            table.counts.units_replayed += worker.units;
            table.counts.units_memoized += worker.memoized;
        }
    }

    /// The counts so far, and how many stores are open now, read as one
    /// snapshot.
    pub fn counts(&self) -> (StoreCounts, u64) {
        let table = lock(&self.table);
        (table.counts, table.lru.len() as u64)
    }
}

/// In-memory results cache: (store fingerprint, machine config, sampler
/// key) → the canonical report line. The store fingerprint pins
/// workload, scale, and the warmed sampling design; the machine config
/// distinguishes detailed cores that share warm state (the
/// replay-many-configs case — same store, different reports); and the
/// sampler key ([`smarts_core::SamplerSpec::cache_key`]) distinguishes
/// unit-selection strategies over the same store — without it, two jobs
/// differing only in sampler, seed, or CI target would alias to one
/// cached line.
///
/// The cache is the one owner of every line it holds (a job record
/// keeps a `Weak`), and it is a least-recently-used cache bounded by the
/// lines' total bytes: past [`MAX_CACHED_LINE_BYTES`] the least recently
/// put or served line goes — except that the newest
/// [`MIN_CACHED_LINES`] stay whatever their size, so a line larger than
/// the bound is still there for the client that waits on its job.
#[derive(Debug, Default)]
pub struct ResultsCache {
    lines: Mutex<CachedLines>,
    hits: AtomicU64,
}

/// Total bytes of report lines the results cache keeps: about 45 of the
/// ~22 KB lines of an n = 100 job.
pub const MAX_CACHED_LINE_BYTES: usize = 1 << 20;

/// Lines the results cache keeps whatever their size: the most recent.
pub const MIN_CACHED_LINES: usize = 4;

/// (store fingerprint, machine config, sampler key).
type CacheKey = (u64, u32, u64);

#[derive(Debug, Default)]
struct CachedLines {
    /// Each line with its last use.
    entries: HashMap<CacheKey, (Arc<String>, u64)>,
    /// Last use → key, oldest first.
    recency: BTreeMap<u64, CacheKey>,
    /// Sum of the cached lines' lengths.
    bytes: usize,
    /// The last use handed out.
    tick: u64,
}

impl CachedLines {
    /// Marks `key`'s entry used now; returns its line.
    fn touch(&mut self, key: CacheKey) -> Option<Arc<String>> {
        self.tick += 1;
        let (line, used) = self.entries.get_mut(&key)?;
        self.recency.remove(used);
        *used = self.tick;
        self.recency.insert(self.tick, key);
        Some(Arc::clone(line))
    }
}

impl ResultsCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a cached canonical report line.
    pub fn get(
        &self,
        store_fingerprint: u64,
        config: u32,
        sampler_key: u64,
    ) -> Option<Arc<String>> {
        let cached = lock(&self.lines).touch((store_fingerprint, config, sampler_key));
        if cached.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        cached
    }

    /// Caches a canonical report line and returns the cache's own copy —
    /// the one already there if another job put it first (the line is
    /// deterministic, so the two are equal) — evicting least-recently
    /// used lines past the byte bound.
    pub fn put(
        &self,
        store_fingerprint: u64,
        config: u32,
        sampler_key: u64,
        line: String,
    ) -> Arc<String> {
        let key = (store_fingerprint, config, sampler_key);
        let mut lines = lock(&self.lines);
        if let Some(cached) = lines.touch(key) {
            return cached;
        }
        let line = Arc::new(line);
        lines.bytes += line.len();
        let tick = lines.tick;
        lines.entries.insert(key, (Arc::clone(&line), tick));
        lines.recency.insert(tick, key);
        while lines.bytes > MAX_CACHED_LINE_BYTES && lines.entries.len() > MIN_CACHED_LINES {
            let Some((_, oldest)) = lines.recency.pop_first() else {
                break;
            };
            if let Some((evicted, _)) = lines.entries.remove(&oldest) {
                lines.bytes -= evicted.len();
            }
        }
        line
    }

    /// Cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        lock(&self.lines).entries.len()
    }

    /// Bytes of the lines currently cached.
    pub fn bytes(&self) -> usize {
        lock(&self.lines).bytes
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_ckpt::IsaId;
    use smarts_core::{SamplingParams, Warming};

    fn test_meta() -> StoreMeta {
        StoreMeta {
            params: SamplingParams {
                unit_size: 100,
                detailed_warming: 200,
                warming: Warming::Functional,
                interval: 10,
                offset: 0,
            },
            benchmark: "hashp-2".to_string(),
            scale: 1.0,
            isa: IsaId::Builtin,
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smarts-storemgr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A manager over `root` that holds at most `cap` stores open, so
    /// the eviction tests need not open `MAX_OPEN_STORES + 1` of them.
    fn capped(root: &Path, cap: usize) -> StoreManager {
        let mgr = StoreManager::new(root).unwrap();
        lock(&mgr.table).cap = cap;
        mgr
    }

    #[test]
    fn first_acquire_warms_then_replays_after_commit() {
        let root = temp_root("basic");
        let mgr = StoreManager::new(&root).unwrap();
        let meta = test_meta();
        let cfg = MachineConfig::eight_way();
        let cancel = CancelToken::new();

        let ticket = mgr.acquire(&meta, &cfg, &cancel).unwrap();
        let StoreTicket::Warm {
            temp, final_path, ..
        } = &ticket
        else {
            panic!("expected a warm ticket, got {ticket:?}");
        };
        assert_eq!(mgr.counts().0.warm_passes, 1);
        assert_eq!(mgr.counts().0.store_hits, 0);

        // Simulate a warming pass by writing a real (empty) store.
        {
            use smarts_ckpt::CkptWriter;
            let writer = CkptWriter::create(temp, &cfg, &meta).unwrap();
            writer.finish().unwrap();
        }
        mgr.commit(&ticket).unwrap();
        assert!(final_path.exists());
        assert!(!temp.exists());

        match mgr.acquire(&meta, &cfg, &cancel).unwrap() {
            StoreTicket::Replay { path } => assert_eq!(&path, final_path),
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(mgr.counts().0.warm_passes, 1);
        assert_eq!(mgr.counts().0.store_hits, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn abort_promotes_a_racer_to_warmer() {
        let root = temp_root("abort");
        let mgr = Arc::new(StoreManager::new(&root).unwrap());
        let meta = test_meta();
        let cfg = MachineConfig::eight_way();
        let cancel = CancelToken::new();

        let first = mgr.acquire(&meta, &cfg, &cancel).unwrap();
        assert!(matches!(first, StoreTicket::Warm { .. }));

        let racer = {
            let mgr = Arc::clone(&mgr);
            let meta = meta.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || mgr.acquire(&meta, &cfg, &CancelToken::new()).unwrap())
        };
        std::thread::sleep(Duration::from_millis(20));
        mgr.abort(&first);
        let second = racer.join().unwrap();
        assert!(
            matches!(second, StoreTicket::Warm { .. }),
            "racer should inherit the warm ticket, got {second:?}"
        );
        assert_eq!(mgr.counts().0.warm_passes, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn waiting_racer_honours_cancellation() {
        let root = temp_root("cancelwait");
        let mgr = Arc::new(StoreManager::new(&root).unwrap());
        let meta = test_meta();
        let cfg = MachineConfig::eight_way();

        let _warm = mgr.acquire(&meta, &cfg, &CancelToken::new()).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = mgr.acquire(&meta, &cfg, &cancel).unwrap_err();
        assert!(err.contains("cancelled"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn preexisting_complete_store_is_reused_and_junk_is_not() {
        let root = temp_root("preseed");
        let mgr = StoreManager::new(&root).unwrap();
        let meta = test_meta();
        let cfg = MachineConfig::eight_way();
        let cancel = CancelToken::new();

        // Seed a complete store directly at the final path.
        let fingerprint = meta.fingerprint(&cfg);
        {
            use smarts_ckpt::CkptWriter;
            let writer = CkptWriter::create(mgr.final_path(fingerprint), &cfg, &meta).unwrap();
            writer.finish().unwrap();
        }
        assert!(matches!(
            mgr.acquire(&meta, &cfg, &cancel).unwrap(),
            StoreTicket::Replay { .. }
        ));
        assert_eq!(mgr.counts().0.warm_passes, 0);

        // A different design whose final path holds junk must re-warm.
        let mut other = test_meta();
        other.params.offset = 3;
        let other_fp = other.fingerprint(&cfg);
        std::fs::write(mgr.final_path(other_fp), b"not a store").unwrap();
        assert!(matches!(
            mgr.acquire(&other, &cfg, &cancel).unwrap(),
            StoreTicket::Warm { .. }
        ));
        assert_eq!(mgr.counts().0.warm_passes, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A store written under another frontend is never ready for a
    /// spec, even planted at the spec's final path: its header
    /// re-fingerprints to its own frontend's identity, so the spec warms.
    #[test]
    fn a_store_of_another_frontend_is_never_ready() {
        let root = temp_root("otherisa");
        let mgr = StoreManager::new(&root).unwrap();
        let cfg = MachineConfig::eight_way();
        let cancel = CancelToken::new();
        let builtin = test_meta();
        let risc = StoreMeta {
            isa: IsaId::Risc,
            ..test_meta()
        };
        let risc_fp = risc.fingerprint(&cfg);
        assert_ne!(builtin.fingerprint(&cfg), risc_fp);
        {
            use smarts_ckpt::CkptWriter;
            let writer = CkptWriter::create(mgr.final_path(risc_fp), &cfg, &builtin).unwrap();
            writer.finish().unwrap();
        }
        assert!(matches!(
            mgr.acquire(&risc, &cfg, &cancel).unwrap(),
            StoreTicket::Warm { .. }
        ));
        let (counts, _) = mgr.counts();
        assert_eq!((counts.warm_passes, counts.store_hits), (1, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn open_store_cache_hits_evicts_lru_and_counts() {
        use smarts_ckpt::CkptWriter;
        let root = temp_root("openlru");
        let mgr = capped(&root, 2);
        let cfg = MachineConfig::eight_way();
        let sim = SmartsSim::new(cfg.clone());

        // Seed three distinct committed stores.
        let fps: Vec<u64> = (0..3u64)
            .map(|offset| {
                let mut meta = test_meta();
                meta.params.offset = offset;
                let fp = meta.fingerprint(&cfg);
                let writer = CkptWriter::create(mgr.final_path(fp), &cfg, &meta).unwrap();
                writer.finish().unwrap();
                fp
            })
            .collect();
        let path = |fp: u64| mgr.final_path(fp);

        let a = mgr.open_store(fps[0], &path(fps[0]), &sim).unwrap();
        let a_again = mgr.open_store(fps[0], &path(fps[0]), &sim).unwrap();
        assert!(
            Arc::ptr_eq(&a.store, &a_again.store) && Arc::ptr_eq(&a.memo, &a_again.memo),
            "hit must share the mapping and its memo"
        );
        assert_eq!(mgr.counts().0.stores_opened, 1);
        assert_eq!(mgr.counts().0.stores_evicted, 0);

        mgr.open_store(fps[1], &path(fps[1]), &sim).unwrap();
        assert_eq!(mgr.counts().1, 2);

        // Touch store 0 so store 1 is now least-recently used, then
        // overflow the cap: store 1 must be the eviction victim.
        mgr.open_store(fps[0], &path(fps[0]), &sim).unwrap();
        mgr.open_store(fps[2], &path(fps[2]), &sim).unwrap();
        assert_eq!(mgr.counts().1, 2);
        assert_eq!(mgr.counts().0.stores_evicted, 1);
        assert_eq!(mgr.counts().0.stores_opened, 3);

        // Store 0 survived the eviction (still a hit); store 1 did not.
        mgr.open_store(fps[0], &path(fps[0]), &sim).unwrap();
        assert_eq!(mgr.counts().0.stores_opened, 3);
        mgr.open_store(fps[1], &path(fps[1]), &sim).unwrap();
        assert_eq!(mgr.counts().0.stores_opened, 4);
        assert_eq!(mgr.counts().0.stores_evicted, 2);

        // A junk file fails to open and is not cached.
        let junk = root.join("junk.ck");
        std::fs::write(&junk, b"not a store").unwrap();
        let err = mgr.open_store(0xdead, &junk, &sim).unwrap_err();
        assert!(err.contains("cannot open store"), "unexpected error: {err}");
        assert_eq!(mgr.counts().1, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A store is mapped outside the lock, so two jobs may both miss its
    /// open slot: the one that fills it second shares the first one's
    /// slot, memo included, and only one mapping is counted.
    #[test]
    fn racing_opens_of_one_store_share_one_slot() {
        use smarts_ckpt::CkptWriter;
        let root = temp_root("openrace");
        let mgr = StoreManager::new(&root).unwrap();
        let cfg = MachineConfig::eight_way();
        let sim = SmartsSim::new(cfg.clone());
        let meta = test_meta();
        let fp = meta.fingerprint(&cfg);
        let path = mgr.final_path(fp);
        CkptWriter::create(&path, &cfg, &meta)
            .unwrap()
            .finish()
            .unwrap();
        let opens: Vec<OpenStore> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| mgr.open_store(fp, &path, &sim).unwrap()))
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(Arc::ptr_eq(&opens[0].store, &opens[1].store));
        assert!(Arc::ptr_eq(&opens[0].memo, &opens[1].memo));
        assert_eq!((mgr.counts().0.stores_opened, mgr.counts().1), (1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The final path is the only record of a complete store: once its
    /// open slot is evicted, a store is asked of the disk again — a hit
    /// while its file is there, a warm ticket once the file is gone.
    #[test]
    fn an_evicted_store_is_revalidated_on_disk() {
        use smarts_ckpt::CkptWriter;
        let root = temp_root("vanished");
        let mgr = capped(&root, 1);
        let cfg = MachineConfig::eight_way();
        let sim = SmartsSim::new(cfg.clone());
        let cancel = CancelToken::new();
        let (first, mut second) = (test_meta(), test_meta());
        second.params.offset = 1;

        // Warm, commit and open the first store; opening the second
        // evicts it.
        let ticket = mgr.acquire(&first, &cfg, &cancel).unwrap();
        let StoreTicket::Warm {
            fingerprint,
            temp,
            final_path,
        } = &ticket
        else {
            panic!("expected a warm ticket, got {ticket:?}");
        };
        CkptWriter::create(temp, &cfg, &first)
            .unwrap()
            .finish()
            .unwrap();
        mgr.commit(&ticket).unwrap();
        mgr.open_store(*fingerprint, final_path, &sim).unwrap();
        let other = mgr.final_path(second.fingerprint(&cfg));
        CkptWriter::create(&other, &cfg, &second)
            .unwrap()
            .finish()
            .unwrap();
        mgr.open_store(second.fingerprint(&cfg), &other, &sim)
            .unwrap();
        assert_eq!(mgr.counts().0.stores_evicted, 1);

        // Its file still there: a store hit, no warm pass.
        let again = mgr.acquire(&first, &cfg, &cancel).unwrap();
        assert!(matches!(again, StoreTicket::Replay { .. }), "got {again:?}");
        let (counts, _) = mgr.counts();
        assert_eq!((counts.warm_passes, counts.store_hits), (1, 1));

        // Its file gone: warmed again, not replayed from nothing.
        std::fs::remove_file(final_path).unwrap();
        let gone = mgr.acquire(&first, &cfg, &cancel).unwrap();
        assert!(matches!(gone, StoreTicket::Warm { .. }), "got {gone:?}");
        let (counts, _) = mgr.counts();
        assert_eq!((counts.warm_passes, counts.store_hits), (2, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn evicting_an_open_store_drops_its_memo_and_a_reopen_starts_empty() {
        use smarts_core::SamplerSpec;
        use smarts_exec::{approx_len, replay, sample, Executor};
        let root = temp_root("memolru");
        let mgr = capped(&root, 1);
        let cfg = MachineConfig::eight_way();
        let sim = SmartsSim::new(cfg.clone());

        // Two committed stores with records in them.
        let len = approx_len(IsaId::Builtin, "loopy-1", 0.02).unwrap();
        let functional = Warming::Functional;
        let fps: Vec<u64> = (0..2u64)
            .map(|offset| {
                let meta = StoreMeta {
                    params: SamplingParams::for_sample_size(len, 100, 200, functional, 6, offset)
                        .unwrap(),
                    benchmark: "loopy-1".to_string(),
                    scale: 0.02,
                    isa: IsaId::Builtin,
                };
                let fp = meta.fingerprint(&cfg);
                let (one, path) = (Executor::new(1).unwrap(), mgr.final_path(fp));
                let spec = SamplerSpec::systematic();
                sample(&one, &sim, &meta, &spec, Some(&path)).unwrap();
                fp
            })
            .collect();
        // One full replay through the slot's memo, counted as a served
        // run: the units it booked, and how many the memo supplied.
        let replay = |open: &OpenStore| {
            let executor = Executor::new(1).unwrap().with_memo(Arc::clone(&open.memo));
            let spec = SamplerSpec::systematic();
            let run = replay(&executor, &sim, &open.store, &spec).unwrap();
            let report = run.estimate.report();
            mgr.count_units(report);
            let worker = report.workers[0];
            (worker.units, worker.memoized)
        };

        let first = mgr
            .open_store(fps[0], &mgr.final_path(fps[0]), &sim)
            .unwrap();
        let (units, memoized) = replay(&first);
        assert!(units > 0 && memoized == 0, "a new slot's memo starts empty");
        // A second job on the open store shares the slot, memo included.
        let again = mgr
            .open_store(fps[0], &mgr.final_path(fps[0]), &sim)
            .unwrap();
        assert_eq!(replay(&again), (units, units));

        // Opening the other store evicts the slot; once the jobs that
        // hold it are done, the memo is gone with the mapping.
        let (mapping, memo) = (Arc::downgrade(&first.store), Arc::downgrade(&first.memo));
        drop((first, again));
        assert!(memo.upgrade().is_some(), "the open slot keeps its memo");
        mgr.open_store(fps[1], &mgr.final_path(fps[1]), &sim)
            .unwrap();
        assert_eq!(mgr.counts().0.stores_evicted, 1);
        assert!(mapping.upgrade().is_none() && memo.upgrade().is_none());

        // A re-open maps the file again and knows nothing.
        let reopened = mgr
            .open_store(fps[0], &mgr.final_path(fps[0]), &sim)
            .unwrap();
        assert_eq!(mgr.counts().0.stores_opened, 3);
        assert_eq!(replay(&reopened), (units, 0));
        assert_eq!(replay(&reopened), (units, units));
        let (counts, _) = mgr.counts();
        assert_eq!(
            (counts.units_replayed, counts.units_memoized),
            (4 * units, 2 * units)
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn results_cache_round_trips_and_counts_hits() {
        use smarts_core::SamplerSpec;
        let sys = SamplerSpec::systematic().cache_key();
        let cache = ResultsCache::new();
        assert!(cache.is_empty());
        assert!(cache.get(1, 8, sys).is_none());
        assert_eq!(cache.hits(), 0);
        let put = cache.put(1, 8, sys, "line".to_string());
        assert!(Arc::ptr_eq(&cache.get(1, 8, sys).unwrap(), &put));
        assert_eq!(put.as_str(), "line");
        assert_eq!(cache.hits(), 1);
        // Same store, different detailed core: distinct entry.
        assert!(cache.get(1, 16, sys).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn results_cache_keys_on_the_sampler_spec() {
        use smarts_core::{SamplerKind, SamplerSpec};
        let cache = ResultsCache::new();
        let sys = SamplerSpec::systematic();
        let stratified = SamplerSpec {
            kind: SamplerKind::Stratified,
            ..SamplerSpec::systematic()
        };
        let reseeded = SamplerSpec {
            seed: 1,
            ..stratified
        };
        // Same store and machine, different sampling designs: three
        // distinct entries — the regression this key exists to prevent
        // is a stratified job being answered with the systematic line.
        cache.put(7, 8, sys.cache_key(), "sys".to_string());
        cache.put(7, 8, stratified.cache_key(), "strat".to_string());
        cache.put(7, 8, reseeded.cache_key(), "strat-s1".to_string());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(7, 8, sys.cache_key()).unwrap().as_str(), "sys");
        assert_eq!(
            cache.get(7, 8, stratified.cache_key()).unwrap().as_str(),
            "strat"
        );
        assert_eq!(
            cache.get(7, 8, reseeded.cache_key()).unwrap().as_str(),
            "strat-s1"
        );
        // Systematic specs hash to one stable key regardless of the
        // sampled-only knobs, so pre-existing cache behaviour holds.
        let tuned = SamplerSpec {
            seed: 99,
            strata: 9,
            pilot: 50,
            epsilon: 0.01,
            confidence: 0.95,
            ..SamplerSpec::systematic()
        };
        assert_eq!(tuned.cache_key(), sys.cache_key());
    }

    #[test]
    fn results_cache_keys_on_the_frontend() {
        use smarts_core::SamplerSpec;
        use smarts_uarch::MachineConfig;
        // Same benchmark, scale, and sampling design under a different
        // frontend must be a different store identity: the cache keys on
        // the store fingerprint, and the fingerprint folds the ISA tag
        // for non-builtin frontends. The regression this prevents is a
        // `risc` job being answered with the builtin frontend's line.
        let cfg = MachineConfig::eight_way();
        let builtin = test_meta();
        let risc = StoreMeta {
            isa: IsaId::Risc,
            ..builtin.clone()
        };
        assert_ne!(builtin.fingerprint(&cfg), risc.fingerprint(&cfg));

        let sys = SamplerSpec::systematic().cache_key();
        let cache = ResultsCache::new();
        cache.put(
            builtin.fingerprint(&cfg),
            8,
            sys,
            "builtin-line".to_string(),
        );
        assert!(cache.get(risc.fingerprint(&cfg), 8, sys).is_none());
        cache.put(risc.fingerprint(&cfg), 8, sys, "risc-line".to_string());
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.get(risc.fingerprint(&cfg), 8, sys).unwrap().as_str(),
            "risc-line"
        );
    }

    #[test]
    fn results_cache_stays_within_its_byte_bound_and_keeps_the_newest() {
        let cache = ResultsCache::new();
        let line = |k: u64| format!("{k:0>1000}");
        let total = 100_000u64;
        for k in 0..total {
            let cached = cache.put(k, 8, 0, line(k));
            assert!(cache.bytes() <= MAX_CACHED_LINE_BYTES, "after put {k}");
            // Every put stays served for the job that made it.
            assert_eq!(*cached, line(k));
        }
        let kept = cache.len();
        assert_eq!(kept, MAX_CACHED_LINE_BYTES / 1000);
        assert_eq!(cache.bytes(), kept * 1000);
        // The newest are served; the ones before them are gone.
        for k in total - kept as u64..total {
            assert_eq!(cache.get(k, 8, 0).as_deref(), Some(&line(k)), "{k}");
        }
        assert!(cache.get(total - kept as u64 - 1, 8, 0).is_none());
        assert!(cache.get(0, 8, 0).is_none());
    }

    #[test]
    fn results_cache_evicts_the_least_recently_used_line() {
        let cache = ResultsCache::new();
        let big = |tag: char| tag.to_string().repeat(MAX_CACHED_LINE_BYTES / 5);
        for k in 0..5 {
            cache.put(k, 8, 0, big('a'));
        }
        // Serving line 0 makes line 1 the least recently used.
        assert!(cache.get(0, 8, 0).is_some());
        cache.put(5, 8, 0, big('b'));
        assert!(cache.get(1, 8, 0).is_none());
        assert!(cache.get(0, 8, 0).is_some());
        // A repeated put is the line already cached, not a second copy.
        let first = cache.get(5, 8, 0).unwrap();
        assert!(Arc::ptr_eq(&cache.put(5, 8, 0, big('b')), &first));
        assert_eq!(cache.len(), 5);
        // Lines over the whole bound: the newest few stay regardless.
        for k in 10..20 {
            cache.put(k, 8, 0, "x".repeat(MAX_CACHED_LINE_BYTES + 1));
        }
        assert_eq!(cache.len(), MIN_CACHED_LINES);
        assert!(cache.get(19, 8, 0).is_some());
    }
}
