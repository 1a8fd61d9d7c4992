//! In-process execution of generated simulators compiled as shared
//! objects.
//!
//! `accmos serve` amortizes compilation across thousands of jobs, but a
//! subprocess run still pays `fork`+`exec`, pipe setup, and line-buffered
//! protocol I/O per job. This module loads the simulator built by
//! [`crate::Compiler::compile_shared`] with `dlopen` and calls its
//! `accmos_entry` symbol directly: the `ACCMOS:` records arrive through
//! an emit callback instead of a pipe, and the caller's kill deadline is
//! passed to the entry point, whose generated loop checks it against its
//! own clock every 512 steps and returns early, rather than enforced by
//! `SIGKILL`. No thread watches the call.
//!
//! The trade is isolation: a simulator that crashes in-process takes the
//! host down. Callers therefore route only trusted, deterministic models
//! here (the serve daemon falls back to the subprocess path for `rand:`
//! models and on any load failure) — see `DESIGN.md` §10 for the policy.
//!
//! ## Why every load copies the `.so` first
//!
//! The generated simulator carries mutable process-global state (signal
//! buffers, the one-shot `accmos_entry_used` latch). `dlopen` of one path
//! returns **one shared mapping** per process no matter how many times it
//! is called, so two concurrent loads of the cached artifact would race
//! on the same statics. Copying the artifact to a unique scratch path
//! gives every run its own inode and therefore its own mapping; `dlclose`
//! then unmaps it and the copy is deleted.

#![allow(unsafe_code)]

use crate::error::BackendError;
use crate::protocol::parse_report;
use crate::run::{budget_ms_value, fold_lanes, run_lanes, write_test_file, RunOptions, TempPath};
use crate::supervise::FailureKind;
use accmos_ir::{SimulationReport, TestVectors};
use std::ffi::{c_char, c_int, c_void, CStr, CString};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// `dlopen` and friends live in libc proper on every glibc >= 2.34 and on
// musl; no `-ldl` link directive is needed there.
extern "C" {
    fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn dlclose(handle: *mut c_void) -> c_int;
    fn dlerror() -> *mut c_char;
}

const RTLD_NOW: c_int = 2;

/// The generated `accmos_emit_fn` callback type: one `ACCMOS:` record (or
/// record fragment) per call, NUL-terminated.
type EmitFn = unsafe extern "C" fn(ctx: *mut c_void, text: *const c_char);

/// The generated `accmos_entry` symbol. Mirrors the C declaration emitted
/// by `accmos-codegen`'s synthesis pass:
///
/// ```c
/// int accmos_entry(uint64_t total_step, const char *const *tc_path,
///                  int tc_n, int stop_on_diag, uint64_t budget_ms,
///                  uint64_t kill_ns, accmos_emit_fn emit, void *emit_ctx);
/// ```
type EntryFn = unsafe extern "C" fn(
    u64,
    *const *const c_char,
    c_int,
    c_int,
    u64,
    u64,
    Option<EmitFn>,
    *mut c_void,
) -> c_int;

/// Entry return codes, fixed by the generated driver.
const ENTRY_OK: c_int = 0;
const ENTRY_STALE: c_int = 3;
const ENTRY_CANCELED: c_int = 4;

/// Appends the emitted record bytes to the `Vec<u8>` behind `ctx`. Only
/// ever installed while the owning `Vec` is alive on the calling
/// thread's stack, and the generated code never calls emit after
/// `accmos_entry` returns.
unsafe extern "C" fn capture_emit(ctx: *mut c_void, text: *const c_char) {
    if ctx.is_null() || text.is_null() {
        return;
    }
    let buf = &mut *(ctx as *mut Vec<u8>);
    buf.extend_from_slice(CStr::from_ptr(text).to_bytes());
}

static DYLIB_SEQ: AtomicU64 = AtomicU64::new(0);

/// One completed in-process run.
#[derive(Debug)]
pub struct DylibRun {
    /// The parsed simulation report — same parser, same schema as the
    /// subprocess path — its lanes folded
    /// ([`SimulationReport::fold_lanes`]).
    pub report: SimulationReport,
    /// Wall-clock time of the entry calls (load/unload excluded), summed
    /// over the lanes: the in-process analogue of the subprocess
    /// lifetime.
    pub wall: Duration,
}

/// What one load-and-call lifecycle produced.
enum EntryOutcome {
    /// `dlopen`/`dlsym` failed before the entry ran.
    LoadFailed(String),
    /// The entry ran to completion (any return code) with this capture.
    Finished { rc: c_int, captured: Vec<u8>, wall: Duration },
}

/// Runs a simulator `.so` (from [`crate::Compiler::compile_shared`])
/// in-process via its `accmos_entry` symbol.
///
/// Each [`DylibRunner::run`] lane is fully independent: the cached
/// artifact is copied to a scratch path, loaded, invoked once, unloaded,
/// and the copy removed. The entry call checks the caller's kill
/// deadline itself; a run that stops on it reports
/// [`FailureKind::Timeout`] through [`BackendError::Supervised`], exactly
/// like a killed subprocess. Any failure to *load* — as opposed to run —
/// surfaces as [`BackendError::RunFailed`], the caller's signal to fall
/// back to the subprocess path.
#[derive(Debug, Clone)]
pub struct DylibRunner {
    so: PathBuf,
}

impl DylibRunner {
    /// A runner for `so`, staging scratch copies and test-vector files
    /// beside it.
    pub fn new(so: impl Into<PathBuf>) -> DylibRunner {
        DylibRunner { so: so.into() }
    }

    /// A runner for a compiled dylib artifact.
    pub fn for_dylib(dylib: &crate::CompiledDylib) -> DylibRunner {
        DylibRunner::new(dylib.so())
    }

    /// The shared object this runner loads.
    pub fn so(&self) -> &Path {
        &self.so
    }

    /// Run the simulator in-process for `steps` steps against `tests`,
    /// one load per lane, with `deadline` (over all the lanes) passed to
    /// each entry call as what is left of it.
    ///
    /// # Errors
    ///
    /// - [`BackendError::Supervised`] with [`FailureKind::Timeout`] when
    ///   the entry stopped at the deadline, or it passed before a lane
    ///   started;
    /// - [`BackendError::Protocol`] when the entry succeeded but its
    ///   emitted records did not parse, or the lanes report different
    ///   coverage points;
    /// - [`BackendError::RunFailed`] for every load-side failure (missing
    ///   file, `dlopen`/`dlsym` error, stale one-shot entry, in-process
    ///   panic) — the caller should fall back to the subprocess engine on
    ///   this variant;
    /// - [`BackendError::Io`] when the test-vector file cannot be
    ///   written.
    pub fn run(
        &self,
        steps: u64,
        tests: &TestVectors,
        opts: &RunOptions,
        deadline: Option<Duration>,
    ) -> Result<DylibRun, BackendError> {
        let lanes = run_lanes(&self.so, steps, tests, opts, deadline, |steps, tests, opts, left| {
            self.run_lane(steps, tests, opts, left)
        })?;
        Ok(DylibRun {
            wall: lanes.iter().map(|l| l.wall).sum(),
            report: fold_lanes(lanes.into_iter().map(|l| l.report).collect())?,
        })
    }

    /// One lane of [`DylibRunner::run`]: one load and entry call.
    fn run_lane(
        &self,
        steps: u64,
        tests: &TestVectors,
        opts: &RunOptions,
        deadline: Option<Duration>,
    ) -> Result<DylibRun, BackendError> {
        // Unique scratch copy: see the module docs for why this is
        // mandatory, not an optimization.
        let seq = DYLIB_SEQ.fetch_add(1, Ordering::Relaxed);
        let scratch = self.so.with_file_name(format!("sim-dy-{}-{seq}.so", std::process::id()));
        std::fs::copy(&self.so, &scratch)
            .map_err(|source| BackendError::Io { path: self.so.clone(), source })?;
        let scratch = TempPath(scratch);

        let tc_guard = write_test_file(&self.so, tests)?;
        let tc_path = tc_guard
            .as_ref()
            .map(|t| CString::new(t.path().to_string_lossy().into_owned()))
            .transpose()
            .map_err(|_| BackendError::RunFailed {
                exe: self.so.clone(),
                detail: "test-vector path contains a NUL byte".into(),
            })?;
        let budget_ms = opts.time_budget.map(budget_ms_value).unwrap_or(0);
        let stop_on_diag = c_int::from(opts.stop_on_diagnostic);

        // The lane's deadline runs from here. The entry runs on this
        // thread and checks it itself every 512 steps, so it returns at
        // most one block of work after the deadline.
        let kill_at = deadline.map(|limit| Instant::now() + limit);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tc_path = tc_path.as_deref();
            load_and_run(scratch.path(), steps, tc_path, stop_on_diag, budget_ms, kill_at)
        }));
        drop(tc_guard);
        drop(scratch);

        let Ok(outcome) = outcome else {
            // Poisoned simulator state is possible after a panic — treat
            // it like a crash and let the caller fall back to a
            // subprocess.
            return Err(BackendError::RunFailed {
                exe: self.so.clone(),
                detail: "in-process simulator run panicked".into(),
            });
        };

        match outcome {
            EntryOutcome::LoadFailed(detail) => Err(BackendError::RunFailed {
                exe: self.so.clone(),
                detail,
            }),
            EntryOutcome::Finished { rc: ENTRY_OK, captured, wall } => {
                let report = parse_report(&String::from_utf8_lossy(&captured))?;
                Ok(DylibRun { report, wall })
            }
            EntryOutcome::Finished { rc: ENTRY_CANCELED, .. } => {
                let t = deadline.unwrap_or_default();
                Err(BackendError::Supervised {
                    exe: self.so.clone(),
                    kind: FailureKind::Timeout,
                    attempts: 1,
                    detail: format!(
                        "in-process run canceled after exceeding the {t:?} deadline \
                         (cooperative cancel honored)"
                    ),
                })
            }
            EntryOutcome::Finished { rc, captured, .. } => {
                let why = match rc {
                    ENTRY_STALE => "accmos_entry is one-shot per load and was reused",
                    _ => "unknown entry failure",
                };
                Err(BackendError::RunFailed {
                    exe: self.so.clone(),
                    detail: format!(
                        "accmos_entry returned {rc} ({why}); capture tail: {}",
                        crate::supervise::tail_str(&captured, 512)
                    ),
                })
            }
        }
    }
}

/// The whole dlopen → dlsym → call → dlclose lifecycle, confined to one
/// function frame so raw handles never escape it.
fn load_and_run(
    so: &Path,
    steps: u64,
    tc_path: Option<&CStr>,
    stop_on_diag: c_int,
    budget_ms: u64,
    kill_at: Option<Instant>,
) -> EntryOutcome {
    let Ok(c_path) = CString::new(so.to_string_lossy().into_owned()) else {
        return EntryOutcome::LoadFailed("shared object path contains a NUL byte".into());
    };
    // SAFETY: `c_path` is a valid NUL-terminated string; RTLD_NOW resolves
    // every symbol up front so no lazy-binding fault can fire mid-run.
    let handle = unsafe { dlopen(c_path.as_ptr(), RTLD_NOW) };
    if handle.is_null() {
        return EntryOutcome::LoadFailed(format!("dlopen failed: {}", last_dl_error()));
    }
    // Unmap on every exit path below.
    struct CloseGuard(*mut c_void);
    impl Drop for CloseGuard {
        fn drop(&mut self) {
            // SAFETY: the handle came from a successful dlopen and is
            // closed exactly once.
            unsafe { dlclose(self.0) };
        }
    }
    let _guard = CloseGuard(handle);

    let symbol = CString::new("accmos_entry").expect("static symbol name");
    // SAFETY: valid handle, valid symbol name.
    let entry = unsafe { dlsym(handle, symbol.as_ptr()) };
    if entry.is_null() {
        return EntryOutcome::LoadFailed(format!(
            "dlsym(accmos_entry) failed: {} (artifact predates the dylib ABI?)",
            last_dl_error()
        ));
    }
    // SAFETY: the symbol was emitted by our own codegen with exactly the
    // EntryFn signature; transmuting a non-null dlsym result to it is the
    // canonical dlopen idiom.
    let entry: EntryFn = unsafe { std::mem::transmute::<*mut c_void, EntryFn>(entry) };

    let mut captured: Vec<u8> = Vec::with_capacity(4096);
    let argv: Vec<*const c_char> = tc_path.iter().map(|p| p.as_ptr()).collect();
    let start = Instant::now();
    // What is left of the deadline, in ns. 0 means no deadline, so a spent
    // one passes 1 ns and the entry stops at its first check.
    let kill_ns = kill_at.map_or(0, |at| {
        let left = at.saturating_duration_since(start).as_nanos();
        u64::try_from(left).unwrap_or(u64::MAX).max(1)
    });
    // SAFETY: `argv` outlives the call and holds `tc_n` valid pointers;
    // `captured` outlives the call and is only touched through the emit
    // callback on this thread.
    let rc = unsafe {
        entry(
            steps,
            if argv.is_empty() { std::ptr::null() } else { argv.as_ptr() },
            argv.len() as c_int,
            stop_on_diag,
            budget_ms,
            kill_ns,
            Some(capture_emit),
            (&mut captured) as *mut Vec<u8> as *mut c_void,
        )
    };
    let wall = start.elapsed();
    EntryOutcome::Finished { rc, captured, wall }
}

/// The pending `dlerror()` message, or a placeholder when libc reports
/// none.
fn last_dl_error() -> String {
    // SAFETY: dlerror returns NULL or a pointer to a NUL-terminated
    // string valid until the next dl* call on this thread.
    let msg = unsafe { dlerror() };
    if msg.is_null() {
        "unknown dlopen error".into()
    } else {
        // SAFETY: non-null dlerror result is a valid C string.
        unsafe { CStr::from_ptr(msg) }.to_string_lossy().into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dlopen_of_a_missing_file_is_a_load_failure_not_a_panic() {
        let dir = std::env::temp_dir();
        let runner = DylibRunner::new(dir.join("no-such-sim.so"));
        let err = runner
            .run(8, &TestVectors::default(), &RunOptions::default(), None)
            .unwrap_err();
        match err {
            BackendError::Io { .. } | BackendError::RunFailed { .. } => {}
            other => panic!("expected a fallback-signaling error, got {other:?}"),
        }
    }

    #[test]
    fn dlopen_of_a_non_elf_file_reports_dlerror_detail() {
        let dir = std::env::temp_dir();
        let so = dir.join(format!("accmos-not-an-so-{}.so", std::process::id()));
        std::fs::write(&so, b"definitely not ELF").unwrap();
        let runner = DylibRunner::new(&so);
        let err = runner
            .run(8, &TestVectors::default(), &RunOptions::default(), None)
            .unwrap_err();
        let BackendError::RunFailed { detail, .. } = err else {
            panic!("expected RunFailed, got {err:?}");
        };
        assert!(detail.contains("dlopen failed"), "detail: {detail}");
        let _ = std::fs::remove_file(&so);
    }
}
