//! Content-addressed cache of compiled simulator executables.
//!
//! The paper's headline claim is wall-clock acceleration, yet repeated
//! simulations of the same model pay GCC every time: harness measurements
//! show compilation (0.5–3.5 s at `-O3`) dwarfing the simulation loop
//! itself (tens of milliseconds at 100k steps). [`BuildCache`] removes
//! that cost for repeated builds: executables are stored under a key
//! derived from everything that determines the binary — the generated
//! source files, the compiler's identity (`cc --version`), the
//! optimization level and the fixed flag set — so a hit is guaranteed to
//! be byte-equivalent to what a fresh compile would produce.
//!
//! Concurrency: entries are inserted by writing to a temporary name and
//! `rename`-ing into place, which is atomic on one filesystem, so any
//! number of processes and threads can share a cache root. Lookups that
//! race an eviction simply miss and recompile. Stores and evictions are
//! additionally serialized across *processes* by a lease file (`.lock`,
//! taken with `create_new`, with stale-lease takeover), so two `accmos
//! batch` processes sharing one cache root cannot interleave an eviction
//! scan with each other's insertions.

use crate::lease::{self, LeaseGuard};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hit/miss/eviction counters of a [`BuildCache`] (shared by all clones
/// of the cache handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups satisfied from the cache (no compiler invocation).
    pub hits: u64,
    /// Lookups that fell through to a real compile.
    pub misses: u64,
    /// Entries removed to keep the cache within its size bound.
    pub evictions: u64,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A content-addressed store of compiled simulator executables.
///
/// Cloning the handle shares the same root directory and counters.
///
/// # Examples
///
/// ```no_run
/// use accmos_backend::{BuildCache, Compiler};
///
/// let cache = BuildCache::new();          // $XDG_CACHE_HOME/accmos or fallback
/// let cc = Compiler::detect()?.with_cache(cache.clone());
/// // ... compile the same program twice ...
/// assert_eq!(cache.stats().hits, 0);      // before any compile
/// # Ok::<(), accmos_backend::BackendError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BuildCache {
    root: PathBuf,
    max_entries: usize,
    counters: Arc<Counters>,
}

/// Name of the cached executable inside an entry directory.
const EXE_NAME: &str = "sim";
/// Name of the marker file re-written on every hit so eviction can order
/// entries by recency of *use*, not of insertion. The file's contents are
/// the monotonic hit sequence number (see [`SEQ_NAME`]); its mtime is
/// only the second-level tie-breaker, because 1-second-granularity
/// filesystems make mtimes tie between a just-refreshed entry and older
/// ones, which would leave the eviction victim arbitrary.
const STAMP_NAME: &str = "last-used";
/// Name of the root-level counter file holding the last issued hit
/// sequence number. Bumped on every lookup hit and store; the new value
/// is persisted in the touched entry's stamp so eviction has a total
/// recency order even when every mtime ties.
const SEQ_NAME: &str = ".seq";
/// Name of the cross-process lease file under the cache root.
const LOCK_NAME: &str = ".lock";

impl BuildCache {
    /// Default number of executables kept before least-recently-used
    /// entries are evicted.
    pub const DEFAULT_MAX_ENTRIES: usize = 256;

    /// A cache at the default root: `$ACCMOS_CACHE_DIR` if set, else
    /// `$XDG_CACHE_HOME/accmos`, else `$HOME/.cache/accmos`, else an
    /// `accmos-cache` directory under the system temp dir.
    pub fn new() -> BuildCache {
        BuildCache::at(default_root())
    }

    /// A cache rooted at `root` (created lazily on first store).
    pub fn at(root: impl Into<PathBuf>) -> BuildCache {
        BuildCache {
            root: root.into(),
            max_entries: Self::DEFAULT_MAX_ENTRIES,
            counters: Arc::default(),
        }
    }

    /// Builder-style: keep at most `n` entries (1 minimum).
    pub fn with_max_entries(mut self, n: usize) -> BuildCache {
        self.max_entries = n.max(1);
        self
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
        }
    }

    /// Look up a compiled executable by content key, counting the outcome.
    ///
    /// Returns the path of the cached executable, which callers must copy
    /// out (entries can be evicted at any time by other handles).
    pub fn lookup(&self, key: &str) -> Option<PathBuf> {
        self.lookup_first(&[key]).map(|(_, exe)| exe)
    }

    /// Look up the first of `keys` the cache holds (a build that accepts
    /// several artifacts, preferred first), counting one hit or one miss
    /// for the whole lookup. Returns the index of the key found and the
    /// cached file's path.
    pub fn lookup_first(&self, keys: &[&str]) -> Option<(usize, PathBuf)> {
        for (i, key) in keys.iter().enumerate() {
            let exe = self.root.join(key).join(EXE_NAME);
            if exe.is_file() {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                // Refresh the entry's recency for LRU eviction; best-effort.
                self.touch(&self.root.join(key));
                return Some((i, exe));
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert the executable at `exe` under `key`, then evict the
    /// least-recently-used entries beyond the size bound.
    ///
    /// Insertion is atomic (temp file + rename), so concurrent stores of
    /// the same key are safe — last writer wins with identical content.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the caller may ignore them (a failed
    /// store only costs a future recompile).
    pub fn store(&self, key: &str, exe: &Path) -> std::io::Result<()> {
        let entry = self.root.join(key);
        std::fs::create_dir_all(&entry)?;
        // Hold the cross-process lease over insert + evict so a concurrent
        // process's eviction scan never interleaves with this store.
        let _lease = self.acquire_lease();
        let tmp = entry.join(format!("sim.tmp.{}", std::process::id()));
        std::fs::copy(exe, &tmp)?; // preserves the executable bit
        std::fs::rename(&tmp, entry.join(EXE_NAME))?;
        self.touch(&entry);
        self.evict_lru();
        Ok(())
    }

    /// Mark `entry` as just-used: bump the root-level hit sequence and
    /// persist the new number in the entry's stamp file. Best-effort —
    /// a failed write only degrades eviction ordering to the mtime/key
    /// fallback. Concurrent unlocked bumps (lookup hits take no lease)
    /// may issue duplicate numbers; ties fall back to stamp mtime, then
    /// entry key, so the victim stays deterministic.
    fn touch(&self, entry: &Path) {
        let seq_path = self.root.join(SEQ_NAME);
        let next = std::fs::read_to_string(&seq_path)
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(0)
            .saturating_add(1);
        let _ = std::fs::write(&seq_path, next.to_string());
        let _ = std::fs::write(entry.join(STAMP_NAME), next.to_string());
    }

    /// Take the cross-process lease file under the cache root (see
    /// [`crate::lease`] for the protocol: `create_new`, stale-lease
    /// takeover, proceed-unlocked after a bounded wait — the lock reduces
    /// cross-process races, it is not required for correctness).
    fn acquire_lease(&self) -> Option<LeaseGuard> {
        lease::acquire(&self.root.join(LOCK_NAME))
    }

    /// Remove every entry (counters are preserved).
    pub fn clear(&self) -> std::io::Result<()> {
        if self.root.exists() {
            std::fs::remove_dir_all(&self.root)?;
        }
        Ok(())
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entries(&self) -> Vec<PathBuf> {
        let Ok(rd) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        rd.filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.join(EXE_NAME).is_file())
            .collect()
    }

    /// Whether the cross-process lease file is currently held (visible for
    /// tests and diagnostics).
    pub fn lease_held(&self) -> bool {
        self.root.join(LOCK_NAME).exists()
    }

    fn evict_lru(&self) {
        // Recency order: persisted hit sequence first (total order even
        // when a coarse-mtime filesystem ties every stamp), then stamp
        // mtime (entries from before the sequence existed), then entry
        // key, so the victim is deterministic in every case.
        let mut entries: Vec<(u64, std::time::SystemTime, PathBuf)> = self
            .entries()
            .into_iter()
            .map(|p| {
                let stamp = p.join(STAMP_NAME);
                let seq = std::fs::read_to_string(&stamp)
                    .ok()
                    .and_then(|s| s.trim().parse::<u64>().ok())
                    .unwrap_or(0);
                let used = std::fs::metadata(&stamp)
                    .or_else(|_| std::fs::metadata(&p))
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                (seq, used, p)
            })
            .collect();
        if entries.len() <= self.max_entries {
            return;
        }
        entries.sort();
        let excess = entries.len() - self.max_entries;
        for (_, _, path) in entries.into_iter().take(excess) {
            if std::fs::remove_dir_all(&path).is_ok() {
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Default for BuildCache {
    fn default() -> Self {
        BuildCache::new()
    }
}

/// The default state root: `$ACCMOS_CACHE_DIR` if set, else
/// `$XDG_CACHE_HOME/accmos`, else `$HOME/.cache/accmos`, else an
/// `accmos-cache` directory under the system temp dir. Shared with the
/// run ledger and the quarantine store, which live alongside the cache.
pub(crate) fn default_root() -> PathBuf {
    if let Some(dir) = std::env::var_os("ACCMOS_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    if let Some(dir) = std::env::var_os("XDG_CACHE_HOME") {
        if !dir.is_empty() {
            return PathBuf::from(dir).join("accmos");
        }
    }
    if let Some(home) = std::env::var_os("HOME") {
        if !home.is_empty() {
            return PathBuf::from(home).join(".cache").join("accmos");
        }
    }
    std::env::temp_dir().join("accmos-cache")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir()
            .join(format!("accmos-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn fake_exe(dir: &Path, name: &str, contents: &[u8]) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn lookup_miss_then_store_then_hit() {
        let root = scratch_root("basic");
        let cache = BuildCache::at(&root);
        assert!(cache.lookup("k1").is_none());
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1, evictions: 0 });

        let exe = fake_exe(&root.join("src"), "bin", b"#!/bin/true");
        cache.store("k1", &exe).unwrap();
        let hit = cache.lookup("k1").expect("stored entry found");
        assert_eq!(std::fs::read(hit).unwrap(), b"#!/bin/true");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(cache.len(), 1);
        cache.clear().unwrap();
    }

    #[test]
    fn lookup_first_takes_the_earliest_key_held_and_counts_once() {
        let root = scratch_root("first");
        let cache = BuildCache::at(&root);
        assert!(cache.lookup_first(&["o3", "o1"]).is_none());
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1, evictions: 0 });
        let exe = fake_exe(&root.join("src"), "bin", b"x");
        cache.store("o1", &exe).unwrap();
        assert_eq!(cache.lookup_first(&["o3", "o1"]).map(|(i, _)| i), Some(1));
        cache.store("o3", &exe).unwrap();
        assert_eq!(cache.lookup_first(&["o3", "o1"]).map(|(i, _)| i), Some(0));
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1, evictions: 0 });
        cache.clear().unwrap();
    }

    #[test]
    fn clones_share_counters() {
        let root = scratch_root("clone");
        let cache = BuildCache::at(&root);
        let clone = cache.clone();
        assert!(clone.lookup("nope").is_none());
        assert_eq!(cache.stats().misses, 1);
        cache.clear().unwrap();
    }

    #[test]
    fn store_releases_the_lease() {
        let root = scratch_root("lease");
        let cache = BuildCache::at(&root);
        let exe = fake_exe(&root.join("src"), "bin", b"x");
        cache.store("k", &exe).unwrap();
        assert!(!cache.lease_held(), "lease must be released after store");
        assert!(cache.lookup("k").is_some());
        cache.clear().unwrap();
    }

    #[test]
    fn stale_lease_is_taken_over() {
        let root = scratch_root("stale-lease");
        std::fs::create_dir_all(&root).unwrap();
        // A lease left behind by a crashed process 60 s ago.
        let old_ts = crate::telemetry::now_ms() - 60_000;
        std::fs::write(root.join(LOCK_NAME), format!("99999 {old_ts}")).unwrap();
        let cache = BuildCache::at(&root);
        let exe = fake_exe(&root.join("src"), "bin", b"x");
        let start = std::time::Instant::now();
        cache.store("k", &exe).unwrap();
        assert!(
            start.elapsed() < lease::LOCK_WAIT,
            "stale lease must be taken over, not waited out"
        );
        assert!(!cache.lease_held());
        assert!(cache.lookup("k").is_some());
        cache.clear().unwrap();
    }

    #[test]
    fn garbled_lease_is_treated_as_stale() {
        let root = scratch_root("garbled-lease");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join(LOCK_NAME), "not a lease").unwrap();
        assert!(lease::lease_is_stale(&root.join(LOCK_NAME)));
        // A fresh, well-formed lease is respected.
        std::fs::write(
            root.join(LOCK_NAME),
            format!("{} {}", std::process::id(), crate::telemetry::now_ms()),
        )
        .unwrap();
        assert!(!lease::lease_is_stale(&root.join(LOCK_NAME)));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Pin a stamp's mtime, simulating a 1-second-granularity filesystem
    /// where refreshes within the same second tie.
    fn pin_stamp_mtime(root: &Path, key: &str, t: std::time::SystemTime) {
        let stamp = root.join(key).join(STAMP_NAME);
        let f = std::fs::File::options().write(true).open(&stamp).unwrap();
        f.set_modified(t).unwrap();
    }

    #[test]
    fn eviction_breaks_mtime_ties_with_the_hit_sequence() {
        // Regression: eviction used to order entries by stamp mtime
        // alone, so on coarse-mtime filesystems a just-refreshed (hot)
        // entry tied with older ones and the victim was arbitrary. The
        // persisted hit sequence must decide even when every mtime is
        // identical.
        let root = scratch_root("mtime-tie");
        let cache = BuildCache::at(&root).with_max_entries(2);
        let exe = fake_exe(&root.join("src"), "bin", b"x");
        cache.store("a", &exe).unwrap();
        cache.store("b", &exe).unwrap();
        assert!(cache.lookup("a").is_some(), "refresh a: b is now LRU");
        let t = std::time::SystemTime::UNIX_EPOCH
            + std::time::Duration::from_secs(1_700_000_000);
        pin_stamp_mtime(&root, "a", t);
        pin_stamp_mtime(&root, "b", t);
        cache.store("c", &exe).unwrap(); // must evict b, not a
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup("b").is_none(), "stale entry evicted despite the tie");
        assert!(cache.lookup("a").is_some(), "hot entry survived the mtime tie");
        assert!(cache.lookup("c").is_some());
        cache.clear().unwrap();
    }

    #[test]
    fn eviction_falls_back_to_key_order_without_sequence_info() {
        // Entries from before the sequence file existed (empty stamps)
        // with identical mtimes: the victim must still be deterministic —
        // lexicographically smallest key first.
        let root = scratch_root("key-order");
        let cache = BuildCache::at(&root).with_max_entries(3);
        let t = std::time::SystemTime::UNIX_EPOCH
            + std::time::Duration::from_secs(1_700_000_000);
        for key in ["x", "m", "d"] {
            let entry = root.join(key);
            std::fs::create_dir_all(&entry).unwrap();
            std::fs::write(entry.join(EXE_NAME), b"x").unwrap();
            std::fs::write(entry.join(STAMP_NAME), b"").unwrap();
            pin_stamp_mtime(&root, key, t);
        }
        let exe = fake_exe(&root.join("src"), "bin", b"x");
        cache.store("zz", &exe).unwrap(); // 4 entries: one must go
        assert!(cache.lookup("d").is_none(), "smallest key evicted on full tie");
        assert!(cache.lookup("m").is_some());
        assert!(cache.lookup("x").is_some());
        assert!(cache.lookup("zz").is_some());
        cache.clear().unwrap();
    }

    #[test]
    fn eviction_keeps_most_recently_used() {
        let root = scratch_root("evict");
        let cache = BuildCache::at(&root).with_max_entries(2);
        let exe = fake_exe(&root.join("src"), "bin", b"x");
        cache.store("a", &exe).unwrap();
        // Ensure distinguishable mtimes on coarse-grained filesystems.
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store("b", &exe).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(cache.lookup("a").is_some()); // refresh a: b is now LRU
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store("c", &exe).unwrap(); // evicts b
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup("a").is_some(), "recently used entry survived");
        assert!(cache.lookup("b").is_none(), "LRU entry evicted");
        assert!(cache.lookup("c").is_some());
        cache.clear().unwrap();
    }
}
