//! Compiling generated simulators.
//!
//! The paper compiles the synthesized code with GCC at `-O3` (§4). The
//! [`Compiler`] writes the generated files to a build directory, invokes
//! the system C compiler with the required flags (`-fwrapv` pins the
//! integer wrap semantics the diagnosis templates rely on; `-lm` links the
//! math library), and returns a runnable [`crate::CompiledSimulator`].
//!
//! `-O3` pays off only on long runs: it compiles in about 1.8× the time
//! of `-O1` and wins that back after 1.5 M simulated steps on the
//! earliest benchmark model, 2–8 M on most. A compiler told its build's step budget
//! ([`Compiler::for_budget`]) builds at `-O1` below [`O3_BUDGET`] and at
//! `-O3` from it on, and takes a cached `-O3` artifact of the same sources
//! over building at `-O1`. Every level produces bit-identical results.

use crate::cache::BuildCache;
use crate::error::BackendError;
use crate::run::CompiledSimulator;
use accmos_codegen::GeneratedProgram;
use accmos_ir::source_digest_hex;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Optimization level passed to the C compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// `-O0` — the Rapid Accelerator configuration.
    O0,
    /// `-O1`
    O1,
    /// `-O3` — the AccMoS configuration (paper §4).
    #[default]
    O3,
}

impl OptLevel {
    fn flag(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O3 => "-O3",
        }
    }

    /// The level's name without the dash (`O3`), as the run ledger
    /// records it.
    pub fn label(self) -> &'static str {
        &self.flag()[1..]
    }
}

/// The step budget (steps × lanes) from which a budget-chosen build
/// compiles at `-O3`; below it, `-O1`. Set by the `ablation --grid opt`
/// harness (EXPERIMENTS.md, "Optimization level by step budget"): `-O3`
/// breaks even with `-O1` at 1.5 M steps on the earliest model, so below
/// 1 M `-O1` is the cheaper build on every benchmark model.
pub const O3_BUDGET: u64 = 1_000_000;

/// The level a build of `budget` steps × lanes compiles at when nothing
/// pins one: `-O1` below [`O3_BUDGET`], `-O3` from it on.
pub fn budget_level(budget: u64) -> OptLevel {
    if budget < O3_BUDGET {
        OptLevel::O1
    } else {
        OptLevel::O3
    }
}

/// A C compiler driver.
#[derive(Debug, Clone)]
pub struct Compiler {
    cc: String,
    cc_version: String,
    opt: OptLevel,
    /// Set by [`Compiler::for_budget`]: a build takes a cached `-O3`
    /// artifact of the same sources before building at `opt`.
    prefer_o3: bool,
    work_dir: Option<PathBuf>,
    cache: Option<BuildCache>,
}

static BUILD_SEQ: AtomicU64 = AtomicU64::new(0);

/// Flags always passed to the C compiler, part of the cache key: a change
/// here must not serve executables built with the old flag set.
const FIXED_CFLAGS: [&str; 2] = ["-fwrapv", "-std=gnu11"];

/// Extra flags for the shared-object artifact ([`Compiler::compile_shared`]),
/// part of its cache key — a `.so` and an executable built from the same
/// sources never share a cache entry.
const SHARED_CFLAGS: [&str; 2] = ["-shared", "-fPIC"];

/// A generated simulator compiled as a shared object, ready for
/// [`crate::DylibRunner`] to load in-process.
#[derive(Debug, Clone)]
pub struct CompiledDylib(Artifact);

impl CompiledDylib {
    /// The build directory holding the generated sources and the `.so`.
    pub fn dir(&self) -> &Path {
        &self.0.dir
    }

    /// The shared-object path.
    pub fn so(&self) -> &Path {
        &self.0.path
    }

    /// Wall-clock time spent compiling — or, on a build-cache hit, time
    /// spent fetching the cached artifact.
    pub fn compile_time(&self) -> std::time::Duration {
        self.0.time
    }

    /// Whether this artifact came out of the [`BuildCache`] without
    /// invoking the C compiler.
    pub fn cache_hit(&self) -> bool {
        self.0.cache_hit
    }

    /// The optimization level the shared object was built at.
    pub fn opt_level(&self) -> OptLevel {
        self.0.opt
    }

    /// Remove the build directory.
    pub fn clean(&self) {
        clean_build_dir(&self.0.dir);
    }
}

/// One built artifact: its build directory, the file itself, the time
/// spent compiling or fetching it, whether the cache supplied it, and
/// the level it was built at.
#[derive(Debug, Clone)]
pub(crate) struct Artifact {
    pub(crate) dir: PathBuf,
    pub(crate) path: PathBuf,
    pub(crate) time: Duration,
    pub(crate) cache_hit: bool,
    pub(crate) opt: OptLevel,
}

impl Compiler {
    /// Locate a system C compiler (`cc`, then `gcc`) and record its
    /// `--version` banner (part of the build-cache key, so a toolchain
    /// upgrade never serves stale executables).
    ///
    /// The compiler starts with the default [`BuildCache`] enabled; use
    /// [`Compiler::without_cache`] to force every compile through the
    /// C compiler.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::CompilerNotFound`] if neither responds to
    /// `--version`.
    pub fn detect() -> Result<Compiler, BackendError> {
        let candidates = ["cc", "gcc"];
        for cand in candidates {
            let Ok(out) = Command::new(cand).arg("--version").output() else {
                continue;
            };
            if out.status.success() {
                let banner = String::from_utf8_lossy(&out.stdout);
                let version = banner.lines().next().unwrap_or("").trim().to_owned();
                return Ok(Compiler {
                    cc: cand.to_owned(),
                    cc_version: version,
                    opt: OptLevel::default(),
                    prefer_o3: false,
                    work_dir: None,
                    cache: Some(BuildCache::new()),
                });
            }
        }
        Err(BackendError::CompilerNotFound {
            tried: candidates.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Builder-style: set the optimization level.
    pub fn with_opt(mut self, opt: OptLevel) -> Compiler {
        self.opt = opt;
        self.prefer_o3 = false;
        self
    }

    /// Builder-style: choose the level from the build's step budget
    /// (steps × lanes, summed over every run of the artifact):
    /// [`budget_level`]. A build below [`O3_BUDGET`] still takes a cached
    /// `-O3` artifact of the same sources when there is one, and builds
    /// at `-O1` only on a miss.
    pub fn for_budget(mut self, budget: u64) -> Compiler {
        self.opt = budget_level(budget);
        self.prefer_o3 = true;
        self
    }

    /// Builder-style: make each build's directory under `dir` instead of
    /// the system temp directory. Every build still gets a directory of
    /// its own, and cleaning a build removes only that one.
    pub fn with_work_dir(mut self, dir: impl Into<PathBuf>) -> Compiler {
        self.work_dir = Some(dir.into());
        self
    }

    /// Builder-style: use `cache` for compiled artifacts (replacing the
    /// default cache).
    pub fn with_cache(mut self, cache: BuildCache) -> Compiler {
        self.cache = Some(cache);
        self
    }

    /// Builder-style: disable the build cache — every compile invokes the
    /// C compiler. Paper-faithful timing harnesses use this so reported
    /// compile times are cold.
    pub fn without_cache(mut self) -> Compiler {
        self.cache = None;
        self
    }

    /// The build cache in use, if any.
    pub fn cache(&self) -> Option<&BuildCache> {
        self.cache.as_ref()
    }

    /// The compiler executable name.
    pub fn cc(&self) -> &str {
        &self.cc
    }

    /// The first line of the compiler's `--version` output.
    pub fn cc_version(&self) -> &str {
        &self.cc_version
    }

    /// The content key a program's executable caches under at this
    /// compiler's level: see [`Compiler::source_digest`] and
    /// [`level_key`].
    pub fn cache_key(&self, program: &GeneratedProgram) -> String {
        level_key(&self.source_digest(program), self.opt, &[])
    }

    /// A digest of everything an artifact depends on but its level and
    /// artifact flags: every generated file (name and contents), the
    /// compiler identity and version, and the fixed flag set. Programs
    /// with equal digests build equal artifacts at every level.
    pub fn source_digest(&self, program: &GeneratedProgram) -> String {
        let mut parts: Vec<Vec<u8>> =
            vec![self.cc.clone().into_bytes(), self.cc_version.clone().into_bytes()];
        for flag in FIXED_CFLAGS {
            parts.push(flag.as_bytes().to_vec());
        }
        for (name, contents) in program.files() {
            parts.push(name.into_bytes());
            parts.push(contents.as_bytes().to_vec());
        }
        source_digest_hex(parts)
    }

    /// Write the program's files into a build directory and compile them —
    /// or, when the configured [`BuildCache`] already holds an executable
    /// built from byte-identical sources with this exact compiler
    /// configuration, copy that executable into the build directory
    /// without invoking the C compiler at all.
    ///
    /// Returns the compiled simulator together with the wall-clock time
    /// spent inside the compiler (the paper reports AccMoS times that
    /// include compilation; the harness reports both). On a cache hit the
    /// reported time is the artifact-fetch time and
    /// [`CompiledSimulator::cache_hit`] returns `true`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and compiler failures (with captured stderr).
    /// Cache *store* failures are swallowed — they only cost a future
    /// recompile.
    pub fn compile(&self, program: &GeneratedProgram) -> Result<CompiledSimulator, BackendError> {
        Ok(CompiledSimulator::new(program.clone(), self.build(program, &[], "sim")?))
    }

    /// Compile the program as a position-independent shared object (same
    /// sources, same optimization level, plus `-shared -fPIC`) for
    /// in-process loading through [`crate::DylibRunner`], cached exactly
    /// like [`Compiler::compile`] caches executables.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and compiler failures. Cache *store*
    /// failures are swallowed.
    pub fn compile_shared(
        &self,
        program: &GeneratedProgram,
    ) -> Result<CompiledDylib, BackendError> {
        Ok(CompiledDylib(self.build(program, &SHARED_CFLAGS, "sim.so")?))
    }

    /// The build path behind [`Compiler::compile`] and
    /// [`Compiler::compile_shared`]: write the sources, then fetch the
    /// artifact (`extra` flags, file `out_name`) from the cache (a cached
    /// `-O3` one first when the level is budget-chosen) or run the C
    /// compiler at this compiler's level.
    fn build(
        &self,
        program: &GeneratedProgram,
        extra: &[&str],
        out_name: &str,
    ) -> Result<Artifact, BackendError> {
        let start = Instant::now();
        let dir = self.work_dir.clone().unwrap_or_else(std::env::temp_dir).join(format!(
            "accmos-build-{}-{}",
            std::process::id(),
            BUILD_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|source| BackendError::Io { path: dir.clone(), source })?;

        let mut c_file = None;
        for (name, contents) in program.files() {
            let path = dir.join(&name);
            std::fs::write(&path, contents)
                .map_err(|source| BackendError::Io { path: path.clone(), source })?;
            if name.ends_with(".c") {
                c_file = Some(path);
            }
        }
        let c_file = c_file.expect("generated program has a .c file");
        let out = dir.join(out_name);

        // The levels a lookup accepts, preferred first, and their keys,
        // all derived from one digest of the sources.
        let levels = match self.prefer_o3 && self.opt != OptLevel::O3 {
            true => vec![OptLevel::O3, self.opt],
            false => vec![self.opt],
        };
        let keys: Vec<String> = match &self.cache {
            Some(_) => {
                let digest = self.source_digest(program);
                levels.iter().map(|&opt| level_key(&digest, opt, extra)).collect()
            }
            None => Vec::new(),
        };
        if let Some(cache) = &self.cache {
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            if let Some((i, cached)) = cache.lookup_first(&keys) {
                // `fs::copy` carries the mode bits, so a copied executable
                // stays executable. A racing eviction surfaces here as an
                // I/O error; fall through to a real compile in that case.
                if std::fs::copy(&cached, &out).is_ok() {
                    let time = start.elapsed();
                    return Ok(Artifact { dir, path: out, time, cache_hit: true, opt: levels[i] });
                }
            }
        }

        let flags = [&FIXED_CFLAGS[..], extra].concat();
        let cc_start = Instant::now();
        let output = Command::new(&self.cc)
            .arg(self.opt.flag())
            .args(&flags)
            .arg("-o")
            .arg(&out)
            .arg(&c_file)
            .arg("-lm")
            .current_dir(&dir)
            .output()
            .map_err(|source| BackendError::Io { path: PathBuf::from(&self.cc), source })?;
        let compile_time = cc_start.elapsed();

        if !output.status.success() {
            return Err(BackendError::CompileFailed {
                command: format!(
                    "{} {} {} -o {} {} -lm",
                    self.cc,
                    self.opt.flag(),
                    flags.join(" "),
                    out.display(),
                    c_file.display()
                ),
                stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
            });
        }
        if let (Some(cache), Some(key)) = (&self.cache, keys.last()) {
            let _ = cache.store(key, &out);
        }
        Ok(Artifact { dir, path: out, time: compile_time, cache_hit: false, opt: self.opt })
    }
}

/// The cache key of an artifact built from sources with digest `digest`
/// ([`Compiler::source_digest`]) at `opt`, with `extra` flags on top of
/// the fixed set. Level and flags are part of the key, so levels never
/// share an entry, nor do a `.so` and an executable of the same sources.
fn level_key(digest: &str, opt: OptLevel, extra: &[&str]) -> String {
    source_digest_hex([digest, opt.flag()].iter().chain(extra))
}

/// Remove a build directory created by [`Compiler::compile`].
pub fn clean_build_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
