//! Cross-process file leases.
//!
//! One lease implementation shared by everything that writes state under
//! a common directory: the [`crate::BuildCache`] (serializing store +
//! evict) and every JSONL store appended through
//! [`crate::telemetry::Store`] — the run ledger, the fuzz campaign state,
//! the persistent quarantine store and the serve daemon's job journal.
//! The protocol is the one the build cache has always used:
//!
//! - the lease is a file taken with `create_new` (atomic on every
//!   filesystem we care about);
//! - its content is `"<pid> <millis-since-epoch>"`, so staleness is
//!   content-based — no mtime games — and a holder that crashed is taken
//!   over after [`LOCK_STALE`];
//! - a taker that cannot get the lease within [`LOCK_WAIT`] proceeds
//!   unlocked: every caller's writes are individually atomic (rename or
//!   single `O_APPEND` write), so the lease reduces interleaving, it is
//!   not required for correctness.

use std::io::Write;
use std::path::{Path, PathBuf};
use crate::telemetry::now_ms;
use std::time::{Duration, Instant};

/// A lease older than this is considered abandoned (holder crashed) and
/// taken over.
pub(crate) const LOCK_STALE: Duration = Duration::from_secs(10);
/// How long to wait for a lease before proceeding unlocked.
pub(crate) const LOCK_WAIT: Duration = Duration::from_secs(5);

/// Removes the lease file on drop, releasing the cross-process lock.
pub(crate) struct LeaseGuard {
    path: PathBuf,
}

impl Drop for LeaseGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Take the lease file at `path`: `create_new` with stale-lease takeover.
/// Returns `None` — proceed unlocked — if the lease cannot be taken
/// within [`LOCK_WAIT`].
pub(crate) fn acquire(path: &Path) -> Option<LeaseGuard> {
    let deadline = Instant::now() + LOCK_WAIT;
    loop {
        match std::fs::OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut f) => {
                // pid + wall-clock millis: content-based staleness, so
                // takeover needs no mtime games.
                let _ = write!(f, "{} {}", std::process::id(), now_ms());
                return Some(LeaseGuard { path: path.to_path_buf() });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                if lease_is_stale(path) {
                    // Best-effort takeover; loop back to create_new so
                    // only one of the racing takers wins.
                    let _ = std::fs::remove_file(path);
                    continue;
                }
                if Instant::now() >= deadline {
                    return None;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return None, // e.g. parent dir vanished mid-clear
        }
    }
}

/// A lease is stale when its recorded timestamp is older than
/// [`LOCK_STALE`] — or unreadable/garbled, which only happens when the
/// writer died mid-write.
pub(crate) fn lease_is_stale(path: &Path) -> bool {
    let Ok(contents) = std::fs::read_to_string(path) else {
        // Vanished between create_new failing and this read: not stale,
        // just released — the retry loop will take it.
        return false;
    };
    let Some(ts) = contents.split_whitespace().nth(1).and_then(|t| t.parse::<u64>().ok()) else {
        return true; // garbled lease: writer died mid-write
    };
    u128::from(now_ms().saturating_sub(ts)) > LOCK_STALE.as_millis()
}
