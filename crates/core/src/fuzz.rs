//! Differential fuzz campaigns: seeded random models, every backend
//! compared bit-for-bit, every failure classified, every divergence
//! minimized into a replayable corpus entry.
//!
//! The pipeline's strongest claims — interpreter and generated C
//! bit-identical; analyzer-pruned builds digest-identical to
//! unpruned ones — are only as strong as the models they were tested on.
//! A [`FuzzCampaign`] multiplies that from ten hand-built benchmarks to
//! unbounded seeded random structure:
//!
//! - each **trial** derives a [`TrialPlan`] deterministically from
//!   `(campaign seed, index)`: a [`ModelGenConfig`] over the full actor
//!   catalogue (float math, vectors, conditional groups, nested
//!   subsystems), a lane width in `{1, 4}`, steps, stimulus rows and the
//!   C optimization level;
//! - the model runs on the interpretive reference and on the generated-C
//!   simulator (analyzer-pruned *and* unpruned builds), all compared
//!   exactly on output digest, final outputs and signal-log samples (as
//!   bit patterns), step counts, all four coverage bitmaps, every
//!   diagnostic and custom-probe event, and each lane's report. A
//!   trial's few steps build at `-O1` by the step-budget rule; one trial
//!   in four pins `-O3`, so every level stays under the oracle;
//! - compiled binaries execute under the existing [`Supervisor`] /
//!   [`ExecPolicy`], so a hung or crashing simulator is killed,
//!   classified and quarantined — a [`Verdict`], never a dead campaign;
//! - campaign state is `fuzz.jsonl`, one of the state directory's
//!   append-only, torn-tail-tolerant JSONL stores ([`FuzzStore`]);
//!   [`FuzzConfig::resume`] skips already-completed trial indices, so a
//!   killed nightly run continues where it died;
//! - a divergence triggers the delta-debugging [`minimize`] pass: the
//!   *generator plan* is shrunk (lanes, steps, rows, feature flags,
//!   actor count, dtype catalogue, inports — re-checking the divergence
//!   after every candidate shrink) and the minimal repro is written as
//!   an `.mdlx` + expected-digest pair for `tests/corpus.rs` to replay
//!   as a tier-1 regression test forever after.
//!
//! The detector itself is tested end-to-end through
//! [`CodegenOptions::sabotage_digest`], a test-only flag that makes the
//! generated C fold one extra word into its digest: campaigns running
//! with sabotage enabled must detect, minimize and corpus-ize the
//! planted divergence.

use crate::exec::{
    interp_lane_run, Entry, Executor, Fallback, Job, Stop, Subject, Trail, NO_DEADLINE,
};
use crate::{
    preprocess, AccMoS, AccMoSError, BuildCache, CodegenOptions, ExecPolicy, OptLevel,
    RunOptions, Supervisor, Tracer,
};
use accmos_backend::telemetry::{self, parse_flat_object, Fields, JsonObject, Record, Store};
use accmos_ir::{CoverageKind, Model, SignalSample, SimulationReport, TestVectors};
use accmos_parse::{parse_mdlx, write_mdlx};
use accmos_testgen::{random_tests, ModelGenConfig, RandomModelGen, TestRng};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Configuration of one differential fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed: every trial plan derives deterministically from
    /// `(seed, trial index)`, so two runs of the same campaign test the
    /// same models and a resumed campaign continues the same sequence.
    pub seed: u64,
    /// Number of trials the campaign plans (indices `0..trials`).
    pub trials: u64,
    /// Upper bound on simulated steps per trial (the per-trial *step
    /// budget*; individual plans draw fewer).
    pub steps: u64,
    /// Upper bound on stimulus rows per trial.
    pub rows: usize,
    /// State directory holding `fuzz.jsonl`, the build cache, the run
    /// ledger and the quarantine store. `None` uses the default cache
    /// directory (`$ACCMOS_CACHE_DIR`, ...).
    pub state_dir: Option<PathBuf>,
    /// Skip trial indices that already have a record in `fuzz.jsonl`
    /// for this campaign seed (crash-resume). Without this flag,
    /// existing records are ignored and every trial runs again.
    pub resume: bool,
    /// Supervised-execution policy of every trial run (kill timeout,
    /// retries, backoff, quarantine threshold). Its kill timeout is each
    /// compiled or injected run's deadline, so no seed can wedge the
    /// campaign.
    pub exec_policy: ExecPolicy,
    /// Directory minimized divergence repros are written to (an `.mdlx`
    /// plus `.expected` sidecar per divergence). `None` disables corpus
    /// writes; minimization still runs and is reported.
    pub corpus_dir: Option<PathBuf>,
    /// Run the delta-debugging minimizer on every divergence.
    pub minimize: bool,
    /// Stop after this many *executed* trials even if more are planned
    /// (bounded nightly chunks; the next `--resume` run continues).
    pub max_trials_per_run: Option<u64>,
    /// Path to a `faultsim`-style fault-injection binary. When set,
    /// deterministic trial indices run a copy of it (as
    /// `faultsim-crash` / `faultsim-hang`) under the supervisor instead
    /// of a real model, proving mid-campaign crashes and hangs are
    /// classified, not fatal.
    pub inject_fault_exe: Option<PathBuf>,
    /// **Test-only.** Build the generated-C side with
    /// [`CodegenOptions::sabotage_digest`], planting a digest divergence
    /// on every model so the detection → minimization → corpus path is
    /// exercised end-to-end.
    pub sabotage: bool,
    /// Trace collector: when set, the campaign records one `fuzz` span
    /// per executed trial (with its verdict) and the spans of every
    /// compiled or injected run (inside its trial's span, or after it for
    /// a divergence's minimization runs), so `--trace-out` covers the
    /// whole campaign.
    pub tracer: Option<Tracer>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 1,
            trials: 50,
            steps: 64,
            rows: 12,
            state_dir: None,
            resume: false,
            exec_policy: ExecPolicy::default()
                .with_kill_timeout(Duration::from_secs(10))
                .with_retries(1)
                .with_backoff(Duration::from_millis(50))
                .with_quarantine_after(2),
            corpus_dir: None,
            minimize: true,
            max_trials_per_run: None,
            inject_fault_exe: None,
            sabotage: false,
            tracer: None,
        }
    }
}

/// Which fault a `faultsim`-injected trial provokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The injected binary dies on a signal (classified `crash`, counts
    /// toward quarantine).
    Crash,
    /// The injected binary hangs until the kill timeout (classified
    /// `timeout`).
    Hang,
}

impl FaultMode {
    /// The `faultsim` dispatch name (`faultsim-<mode>`).
    pub fn exe_name(self) -> &'static str {
        match self {
            FaultMode::Crash => "faultsim-crash",
            FaultMode::Hang => "faultsim-hang",
        }
    }
}

/// One deterministic trial: everything needed to (re)run it.
#[derive(Debug, Clone)]
pub struct TrialPlan {
    /// Trial index inside the campaign.
    pub index: u64,
    /// Per-trial seed (mixed from campaign seed and index).
    pub seed: u64,
    /// Model generator configuration.
    pub cfg: ModelGenConfig,
    /// Lane width (1 or 4): lane-4 trials run each engine on four
    /// independently-seeded stimuli and fold the lanes.
    pub lanes: usize,
    /// Simulated steps.
    pub steps: u64,
    /// Stimulus rows.
    pub rows: usize,
    /// Build both generated-C variants at a pinned `-O3` instead of the
    /// step budget's level (`-O1` at a trial's step counts).
    pub o3: bool,
    /// Fault-injection trial (no model runs; a `faultsim` copy does).
    pub inject: Option<FaultMode>,
}

impl TrialPlan {
    /// The stimulus seed of this plan (derived from the trial seed so a
    /// corpus entry can pin it independently of the campaign).
    pub fn stim_seed(&self) -> u64 {
        self.seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0x9E37)
    }
}

/// SplitMix64-style mix of campaign seed and trial index.
fn mix_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut z = campaign_seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build the deterministic plan for trial `index` of a campaign.
///
/// Fault-injection trials are scheduled when the campaign carries an
/// injection binary: every index `≡ 7 (mod 10)` crashes, every index
/// `≡ 3 (mod 10)` hangs. The schedule depends only on the index, so a
/// resumed campaign injects the same trials.
///
/// The `-O3` arm is drawn last, so every earlier draw, and with it every
/// pinned corpus entry and the trial sequence a `--resume` continues, is
/// what it was before the arm existed.
pub fn plan_trial(config: &FuzzConfig, index: u64) -> TrialPlan {
    let seed = mix_seed(config.seed, index);
    let mut rng = TestRng::seed_from_u64(seed);
    let conditional = rng.gen_bool(0.4);
    let cfg = ModelGenConfig {
        seed,
        actors: rng.gen_range(8..=40i128) as usize,
        float_math: rng.gen_bool(0.3),
        vectors: rng.gen_bool(0.3),
        conditional,
        nested: conditional && rng.gen_bool(0.5),
        inports: rng.gen_range(1..=3i128) as usize,
        ..ModelGenConfig::default()
    };
    let lanes = if rng.gen_bool(0.25) { 4 } else { 1 };
    let steps = rng.gen_range(8..=config.steps.max(8) as i128) as u64;
    let rows = rng.gen_range(2..=config.rows.max(2) as i128) as usize;
    let o3 = rng.gen_bool(0.25);
    let inject = if config.inject_fault_exe.is_some() {
        match index % 10 {
            7 => Some(FaultMode::Crash),
            3 => Some(FaultMode::Hang),
            _ => None,
        }
    } else {
        None
    };
    TrialPlan { index, seed, cfg, lanes, steps, rows, o3, inject }
}

/// The random model a standalone seed maps to (the CLI's `rand:SEED`
/// model specifier): the trial planner's model configuration for a
/// single-trial campaign with that seed.
///
/// # Errors
///
/// Returns the generator's validation error ([`accmos_testgen::ModelGenError`])
/// formatted as a string (the configuration produced here is always
/// valid; the error path exists for API symmetry).
pub fn planned_model(seed: u64) -> Result<Model, String> {
    let config = FuzzConfig { seed, ..FuzzConfig::default() };
    let plan = plan_trial(&config, 0);
    RandomModelGen::new(plan.cfg).try_generate().map_err(|e| e.to_string())
}

/// Seeded lane stimulus: the primary test vectors plus `lanes - 1`
/// further independently-seeded vectors for [`RunOptions::lane_tests`].
/// Shared by campaigns and corpus replay so a pinned `stim_seed`
/// regenerates the exact stimulus.
pub fn lane_stimulus(
    pre: &accmos_graph::PreprocessedModel,
    rows: usize,
    stim_seed: u64,
    lanes: usize,
) -> (TestVectors, Vec<TestVectors>) {
    let primary = random_tests(pre, rows, stim_seed);
    let lane_tests = (1..lanes.max(1))
        .map(|l| random_tests(pre, rows, stim_seed.wrapping_add(l as u64)))
        .collect();
    (primary, lane_tests)
}

/// How one trial ended. Every variant except [`Verdict::Panic`] and
/// [`Verdict::InjectedUnclassified`] is *classified*: the campaign knows
/// exactly what happened and the taxonomy is mechanical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// All compared backends agree exactly.
    Ok,
    /// Two backends disagree; `detail` names the pair and the field.
    Divergence {
        /// Which comparison failed and how.
        detail: String,
    },
    /// The supervised run failed with a classified [`crate::FailureKind`]
    /// (`kind` is its short label).
    Failed {
        /// The failure-kind label (`timeout`, `crash`, `exit`, ...).
        kind: String,
        /// Human-readable failure detail.
        detail: String,
    },
    /// The executable was refused: quarantined by earlier crashes.
    Quarantined,
    /// The generated program did not compile.
    CompileFailed {
        /// Compiler failure detail.
        detail: String,
    },
    /// The trial plan could not generate or preprocess a model.
    GenFailed {
        /// Generator/validation error detail.
        detail: String,
    },
    /// A fault-injection trial was classified as intended.
    Injected {
        /// The classified failure label (`crash`, `timeout`,
        /// `quarantined`).
        kind: String,
    },
    /// A fault-injection trial escaped classification (the injected
    /// binary ran "successfully") — counted as unclassified.
    InjectedUnclassified {
        /// What the injected run returned instead.
        detail: String,
    },
    /// The trial panicked; the campaign caught it and moved on, but a
    /// panic is by definition outside the failure taxonomy.
    Panic {
        /// The panic payload, if printable.
        detail: String,
    },
}

impl Verdict {
    /// Short stable label stored in `fuzz.jsonl`.
    pub fn label(&self) -> String {
        match self {
            Verdict::Ok => "ok".into(),
            Verdict::Divergence { .. } => "divergence".into(),
            Verdict::Failed { kind, .. } => format!("failed:{kind}"),
            Verdict::Quarantined => "quarantined".into(),
            Verdict::CompileFailed { .. } => "compile-failed".into(),
            Verdict::GenFailed { .. } => "gen-failed".into(),
            Verdict::Injected { kind } => format!("injected:{kind}"),
            Verdict::InjectedUnclassified { .. } => "injected-unclassified".into(),
            Verdict::Panic { .. } => "panic".into(),
        }
    }

    /// Whether the outcome is inside the mechanical taxonomy.
    pub fn classified(&self) -> bool {
        !matches!(self, Verdict::Panic { .. } | Verdict::InjectedUnclassified { .. })
    }

    /// The detail string, when the variant carries one.
    pub fn detail(&self) -> &str {
        match self {
            Verdict::Divergence { detail }
            | Verdict::Failed { detail, .. }
            | Verdict::CompileFailed { detail }
            | Verdict::GenFailed { detail }
            | Verdict::InjectedUnclassified { detail }
            | Verdict::Panic { detail } => detail,
            _ => "",
        }
    }
}

/// One line of the campaign state file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzRecord {
    /// Milliseconds since the Unix epoch at append time.
    pub ts_ms: u64,
    /// Campaign seed the trial belongs to.
    pub campaign: u64,
    /// Trial index inside the campaign.
    pub index: u64,
    /// Per-trial seed.
    pub seed: u64,
    /// Lane width of the trial.
    pub lanes: u64,
    /// Planned actor count of the trial's generator config.
    pub actors: u64,
    /// Simulated steps.
    pub steps: u64,
    /// Verdict label ([`Verdict::label`]).
    pub verdict: String,
    /// Verdict detail (empty when the verdict carries none).
    pub detail: String,
    /// Whether this was a fault-injection trial.
    pub injected: bool,
    /// Whether the verdict is inside the mechanical taxonomy.
    pub classified: bool,
    /// Trial wall-clock in microseconds.
    pub duration_us: u64,
}

impl Record for FuzzRecord {
    const FILE_NAME: &'static str = "fuzz.jsonl";

    fn write(&self, out: &mut JsonObject) {
        out.num("ts_ms", self.ts_ms)
            .num("campaign", self.campaign)
            .num("index", self.index)
            .num("seed", self.seed)
            .num("lanes", self.lanes)
            .num("actors", self.actors)
            .num("steps", self.steps)
            .str("verdict", &self.verdict);
        if !self.detail.is_empty() {
            out.str("detail", &self.detail);
        }
        out.bool("injected", self.injected)
            .bool("classified", self.classified)
            .num("duration_us", self.duration_us);
    }

    fn read(f: &Fields) -> Option<FuzzRecord> {
        Some(FuzzRecord {
            ts_ms: f.num("ts_ms").unwrap_or(0),
            campaign: f.num("campaign")?,
            index: f.num("index")?,
            seed: f.num("seed").unwrap_or(0),
            lanes: f.num("lanes").unwrap_or(1),
            actors: f.num("actors").unwrap_or(0),
            steps: f.num("steps").unwrap_or(0),
            verdict: f.str("verdict")?,
            detail: f.str("detail").unwrap_or_default(),
            injected: f.bool("injected").unwrap_or(false),
            classified: f.bool("classified").unwrap_or(true),
            duration_us: f.num("duration_us").unwrap_or(0),
        })
    }
}

/// The append-only `fuzz.jsonl` campaign state under a state directory.
/// A failed append fails the campaign loudly: the state is the product of
/// a fuzz run.
pub type FuzzStore = Store<FuzzRecord>;

/// Completed trial indices of campaign `seed` in `store` (for `--resume`).
pub fn completed_indices(store: &FuzzStore, seed: u64) -> HashSet<u64> {
    store.read().records.iter().filter(|r| r.campaign == seed).map(|r| r.index).collect()
}

/// A minimized divergence repro written to the corpus.
#[derive(Debug, Clone)]
pub struct MinimizedRepro {
    /// Corpus entry name (`min-s<campaign>-i<index>`).
    pub name: String,
    /// Path of the written `.mdlx` (empty when no corpus dir was set).
    pub mdlx_path: PathBuf,
    /// Final generator actor count after shrinking.
    pub actors: usize,
    /// Final lane width.
    pub lanes: usize,
    /// Final steps.
    pub steps: u64,
    /// Final stimulus rows.
    pub rows: usize,
    /// The reference (interpreter) digest the repro pins.
    pub digest: u64,
    /// The divergence the repro preserves.
    pub detail: String,
}

/// Aggregate result of one campaign run.
#[derive(Debug, Default)]
pub struct CampaignSummary {
    /// Trials the campaign plans in total.
    pub planned: u64,
    /// Trials executed by *this* run.
    pub executed: u64,
    /// Trials skipped because a resume found them completed.
    pub resumed: u64,
    /// `ok` verdicts this run.
    pub ok: u64,
    /// Divergence verdicts this run.
    pub divergences: u64,
    /// Classified failure verdicts this run (failed/quarantined/
    /// compile-failed/gen-failed).
    pub failures: u64,
    /// Fault-injection trials classified this run.
    pub injected: u64,
    /// Unclassified outcomes this run (panics, unclassified injections).
    pub unclassified: u64,
    /// Minimized repros produced this run.
    pub minimized: Vec<MinimizedRepro>,
    /// The campaign store path.
    pub store_path: PathBuf,
}

impl CampaignSummary {
    /// Whether the run is clean: no divergence and nothing unclassified.
    pub fn clean(&self) -> bool {
        self.divergences == 0 && self.unclassified == 0
    }
}

/// A runnable differential fuzz campaign.
#[derive(Debug)]
pub struct FuzzCampaign {
    config: FuzzConfig,
}

impl FuzzCampaign {
    /// A campaign with the given configuration.
    pub fn new(config: FuzzConfig) -> FuzzCampaign {
        FuzzCampaign { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FuzzConfig {
        &self.config
    }

    /// Run the campaign: plan each trial, execute it under supervision,
    /// append its record to `fuzz.jsonl`, and minimize + corpus-ize any
    /// divergence.
    ///
    /// # Errors
    ///
    /// Campaign *infrastructure* errors only — a state-dir or store
    /// append failure. Trial-level trouble (crashes, hangs, compile
    /// failures, even panics) is classified into verdicts and never
    /// fails the campaign.
    pub fn run(&self) -> Result<CampaignSummary, AccMoSError> {
        let cfg = &self.config;
        let state_dir =
            cfg.state_dir.clone().unwrap_or_else(accmos_backend::default_state_dir);
        std::fs::create_dir_all(&state_dir)
            .map_err(|e| AccMoSError::Batch(format!("fuzz state dir: {e}")))?;
        let store = FuzzStore::in_dir(&state_dir);
        let supervisor = Supervisor::new(cfg.exec_policy.clone()).with_state_dir(&state_dir);
        let cache = BuildCache::at(&state_dir);
        let fault_dir = state_dir.join("fuzz-bin");

        let done = if cfg.resume {
            completed_indices(&store, cfg.seed)
        } else {
            HashSet::new()
        };

        let mut summary =
            CampaignSummary { planned: cfg.trials, store_path: store.path().to_path_buf(), ..CampaignSummary::default() };

        for index in 0..cfg.trials {
            if done.contains(&index) {
                summary.resumed += 1;
                continue;
            }
            if let Some(max) = cfg.max_trials_per_run {
                if summary.executed >= max {
                    break;
                }
            }
            let plan = plan_trial(cfg, index);
            let start = Instant::now();
            let trial_start = cfg.tracer.as_ref().map(|t| t.now_us());
            // A panicking trial must not kill the campaign: classify it.
            let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_trial(&plan, &supervisor, &cache, &fault_dir)
            }))
            .unwrap_or_else(|payload| Verdict::Panic { detail: panic_text(payload) });
            let duration = start.elapsed();
            let duration_us = telemetry::micros(duration);
            if let (Some(t), Some(span_start)) = (&cfg.tracer, trial_start) {
                t.record(crate::TraceSpan {
                    name: format!("trial {index}"),
                    cat: "fuzz".to_owned(),
                    start_us: span_start,
                    dur_us: duration_us,
                    tid: 1,
                    args: vec![
                        ("verdict".to_owned(), verdict.label().to_string()),
                        ("lanes".to_owned(), plan.lanes.to_string()),
                    ],
                });
            }

            self.tally(&mut summary, &verdict);
            let record = FuzzRecord {
                ts_ms: telemetry::now_ms(),
                campaign: cfg.seed,
                index,
                seed: plan.seed,
                lanes: plan.lanes as u64,
                actors: plan.cfg.actors as u64,
                steps: plan.steps,
                verdict: verdict.label(),
                detail: truncate(verdict.detail(), 600),
                injected: plan.inject.is_some(),
                classified: verdict.classified(),
                duration_us,
            };
            store
                .append(&record)
                .map_err(|e| AccMoSError::Batch(format!("fuzz store append: {e}")))?;
            summary.executed += 1;

            if let Verdict::Divergence { detail } = &verdict {
                if cfg.minimize {
                    let repro =
                        self.minimize(&plan, detail, &supervisor, &cache);
                    summary.minimized.push(repro);
                }
            }
        }
        Ok(summary)
    }

    fn tally(&self, summary: &mut CampaignSummary, verdict: &Verdict) {
        match verdict {
            Verdict::Ok => summary.ok += 1,
            Verdict::Divergence { .. } => summary.divergences += 1,
            Verdict::Failed { .. }
            | Verdict::Quarantined
            | Verdict::CompileFailed { .. }
            | Verdict::GenFailed { .. } => summary.failures += 1,
            Verdict::Injected { .. } => summary.injected += 1,
            Verdict::Panic { .. } | Verdict::InjectedUnclassified { .. } => {
                summary.unclassified += 1;
            }
        }
    }

    /// Execute one trial to a verdict. Never returns an error: every
    /// outcome is a classification.
    fn run_trial(
        &self,
        plan: &TrialPlan,
        supervisor: &Supervisor,
        cache: &BuildCache,
        fault_dir: &Path,
    ) -> Verdict {
        if let Some(mode) = plan.inject {
            return self.run_injected(plan, mode, supervisor, fault_dir);
        }
        self.run_differential(plan, supervisor, cache, self.config.sabotage)
    }

    /// Run a fault-injection trial: a copy of the injection binary, run on
    /// the job executor's subprocess rung like any raw executable. The
    /// verdict must come back classified.
    fn run_injected(
        &self,
        plan: &TrialPlan,
        mode: FaultMode,
        supervisor: &Supervisor,
        fault_dir: &Path,
    ) -> Verdict {
        let Some(src) = &self.config.inject_fault_exe else {
            return Verdict::InjectedUnclassified {
                detail: "injection scheduled without an injection binary".into(),
            };
        };
        let exe = fault_dir.join(mode.exe_name());
        if !exe.exists() {
            if let Err(e) = std::fs::create_dir_all(fault_dir)
                .and_then(|()| std::fs::copy(src, &exe).map(|_| ()))
            {
                return Verdict::InjectedUnclassified {
                    detail: format!("could not stage injection binary: {e}"),
                };
            }
        }
        let traced = self.config.tracer.as_ref().map(|t| (t, t.now_us()));
        let policy = self.config.exec_policy.clone();
        let pipeline = AccMoS::new().without_cache().with_exec_policy(policy);
        let executor = Executor { pipeline: &pipeline, supervisor: Some(supervisor) };
        let (tests, opts) = (TestVectors::new(), RunOptions::default());
        let job = Job { steps: plan.steps.min(8), tests: &tests, opts: &opts };
        let mut trail = Trail::default();
        let run = executor.compiled(Subject::Executable(&exe), Entry::Subprocess, &job, &mut trail);
        if let Some((tracer, start_us)) = traced {
            trail.trace(tracer, 1, mode.exe_name(), start_us, &[]);
        }
        match run {
            Ok(_) => Verdict::InjectedUnclassified {
                detail: format!("{} ran to completion", mode.exe_name()),
            },
            Err(Stop::Failed(accmos_backend::BackendError::Quarantined { .. })) => {
                Verdict::Injected { kind: "quarantined".into() }
            }
            Err(Stop::Failed(e)) => match e.failure_kind() {
                Some(kind) => Verdict::Injected {
                    kind: crate::FailureKind::label(kind.index()).to_string(),
                },
                None => Verdict::InjectedUnclassified { detail: e.to_string() },
            },
            Err(Stop::Fallback(cause)) => {
                Verdict::InjectedUnclassified { detail: cause.to_string() }
            }
        }
    }

    /// Run one differential trial: interp vs pruned C vs unpruned C,
    /// compared exactly.
    fn run_differential(
        &self,
        plan: &TrialPlan,
        supervisor: &Supervisor,
        cache: &BuildCache,
        sabotage: bool,
    ) -> Verdict {
        let model = match RandomModelGen::new(plan.cfg.clone()).try_generate() {
            Ok(m) => m,
            Err(e) => return Verdict::GenFailed { detail: e.to_string() },
        };
        let pre = match preprocess(&model) {
            Ok(p) => p,
            Err(e) => return Verdict::GenFailed { detail: format!("preprocess: {e}") },
        };
        let (tests, lane_tests) = lane_stimulus(&pre, plan.rows, plan.stim_seed(), plan.lanes);
        let run_opts = RunOptions { lane_tests, ..RunOptions::default() };
        let job = Job { steps: plan.steps, tests: &tests, opts: &run_opts };

        let interp = interp_lane_run(&pre, &tests, &run_opts, plan.steps, None).expect(NO_DEADLINE);

        // Generated C, analyzer pruning ON (the production configuration).
        let pruned_opts = CodegenOptions { sabotage_digest: sabotage, ..CodegenOptions::accmos() };
        let pruned = match self.run_compiled(&model, &pruned_opts, plan.o3, &job, supervisor, cache)
        {
            Ok(report) => report,
            Err(v) => return v,
        };
        if let Some(detail) = compare_reports("interp", &interp, "accmos", &pruned) {
            return Verdict::Divergence { detail };
        }

        // Generated C, pruning OFF: the analyzer's soundness claim.
        let unpruned_opts = CodegenOptions { prune_proven_safe: false, ..pruned_opts };
        let unpruned =
            match self.run_compiled(&model, &unpruned_opts, plan.o3, &job, supervisor, cache) {
            Ok(report) => report,
            Err(v) => return v,
        };
        if let Some(detail) = compare_reports("accmos", &pruned, "accmos-noprune", &unpruned) {
            return Verdict::Divergence { detail };
        }
        Verdict::Ok
    }

    /// Compile and supervise one generated-C variant on the job
    /// executor's compiled rungs (no interpreter fallback), mapping where
    /// they stopped into a verdict, and trace it as a job named for its
    /// variant. The build is pinned at `-O3` when `o3` is set and follows
    /// the job's step budget otherwise.
    fn run_compiled(
        &self,
        model: &Model,
        opts: &CodegenOptions,
        o3: bool,
        job: &Job<'_>,
        supervisor: &Supervisor,
        cache: &BuildCache,
    ) -> Result<SimulationReport, Verdict> {
        let traced = self.config.tracer.as_ref().map(|t| (t, t.now_us()));
        let mut pipeline = AccMoS::new()
            .with_codegen(opts.clone())
            .with_cache(cache.clone())
            .with_exec_policy(self.config.exec_policy.clone());
        if o3 {
            pipeline = pipeline.with_opt(OptLevel::O3);
        }
        let planned =
            pipeline.plan(model).map_err(|e| Verdict::GenFailed { detail: e.to_string() })?;
        let mut trail = Trail { prepare: planned.phases(), ..Trail::default() };
        let executor = Executor { pipeline: &pipeline, supervisor: Some(supervisor) };
        let run = executor.compiled(Subject::Plan(&planned), Entry::Subprocess, job, &mut trail);
        if let Some((tracer, start_us)) = traced {
            let name = if opts.prune_proven_safe { "accmos" } else { "accmos-noprune" };
            trail.trace(tracer, 1, name, start_us, &[]);
        }
        run.map_err(|stop| match stop {
            Stop::Fallback(Fallback::Compile(detail)) => Verdict::CompileFailed { detail },
            Stop::Fallback(_) => Verdict::Quarantined,
            Stop::Failed(e) => Verdict::Failed {
                kind: e
                    .failure_kind()
                    .map_or("backend", |kind| crate::FailureKind::label(kind.index()))
                    .to_string(),
                detail: truncate(&e.to_string(), 600),
            },
        })
    }

    /// Whether `plan` still produces a divergence verdict (the
    /// minimizer's oracle).
    fn diverges(&self, plan: &TrialPlan, supervisor: &Supervisor, cache: &BuildCache) -> bool {
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_differential(plan, supervisor, cache, self.config.sabotage)
        }))
        .unwrap_or(Verdict::Panic { detail: String::new() });
        matches!(verdict, Verdict::Divergence { .. })
    }

    /// Delta-debug a diverging plan down to a minimal repro, writing the
    /// `.mdlx` + `.expected` pair when a corpus directory is configured.
    ///
    /// Shrink order (re-checking the divergence after every candidate,
    /// keeping only shrinks that preserve it): lanes → steps → rows →
    /// feature flags (nested, conditional, vectors, float math) →
    /// actor count (halve, then decrement) → dtype catalogue (drop one
    /// at a time) → inports.
    fn minimize(
        &self,
        plan: &TrialPlan,
        detail: &str,
        supervisor: &Supervisor,
        cache: &BuildCache,
    ) -> MinimizedRepro {
        let mut best = plan.clone();

        // Lanes first: a scalar repro is strictly simpler.
        if best.lanes > 1 {
            let mut candidate = best.clone();
            candidate.lanes = 1;
            if self.diverges(&candidate, supervisor, cache) {
                best = candidate;
            }
        }
        // Steps, then rows: halve while the divergence survives.
        while best.steps > 4 {
            let mut candidate = best.clone();
            candidate.steps /= 2;
            if self.diverges(&candidate, supervisor, cache) {
                best = candidate;
            } else {
                break;
            }
        }
        while best.rows > 2 {
            let mut candidate = best.clone();
            candidate.rows /= 2;
            if self.diverges(&candidate, supervisor, cache) {
                best = candidate;
            } else {
                break;
            }
        }
        // Feature flags: each independently if droppable.
        for strip in [
            fn_strip_nested as fn(&mut ModelGenConfig),
            fn_strip_conditional,
            fn_strip_vectors,
            fn_strip_float,
        ] {
            let mut candidate = best.clone();
            strip(&mut candidate.cfg);
            if candidate.cfg != best.cfg && self.diverges(&candidate, supervisor, cache) {
                best = candidate;
            }
        }
        // Actor count: halve greedily, then decrement.
        while best.cfg.actors > 1 {
            let mut candidate = best.clone();
            candidate.cfg.actors = (best.cfg.actors / 2).max(1);
            if candidate.cfg.actors < best.cfg.actors
                && self.diverges(&candidate, supervisor, cache)
            {
                best = candidate;
                continue;
            }
            let mut candidate = best.clone();
            candidate.cfg.actors -= 1;
            if self.diverges(&candidate, supervisor, cache) {
                best = candidate;
            } else {
                break;
            }
        }
        // Dtype catalogue: drop one at a time while the divergence holds.
        let mut i = 0;
        while best.cfg.dtypes.len() > 1 && i < best.cfg.dtypes.len() {
            let mut candidate = best.clone();
            candidate.cfg.dtypes.remove(i);
            if self.diverges(&candidate, supervisor, cache) {
                best = candidate;
            } else {
                i += 1;
            }
        }
        // Inports last.
        while best.cfg.inports > 1 {
            let mut candidate = best.clone();
            candidate.cfg.inports -= 1;
            if self.diverges(&candidate, supervisor, cache) {
                best = candidate;
            } else {
                break;
            }
        }

        self.write_repro(&best, detail)
    }

    /// Materialize the minimized plan as a corpus entry.
    fn write_repro(&self, plan: &TrialPlan, detail: &str) -> MinimizedRepro {
        let name = format!("min-s{}-i{}", self.config.seed, plan.index);
        self.write_repro_named(plan, detail, &name)
    }

    fn write_repro_named(&self, plan: &TrialPlan, detail: &str, name: &str) -> MinimizedRepro {
        let name = name.to_string();
        // The reference digest comes from the interpreter over the exact
        // pinned stimulus.
        let digest = RandomModelGen::new(plan.cfg.clone())
            .try_generate()
            .ok()
            .and_then(|model| preprocess(&model).ok().map(|pre| (model, pre)))
            .map(|(_, pre)| {
                let (tests, lane_tests) =
                    lane_stimulus(&pre, plan.rows, plan.stim_seed(), plan.lanes);
                let run_opts = RunOptions { lane_tests, ..RunOptions::default() };
                let interp = interp_lane_run(&pre, &tests, &run_opts, plan.steps, None);
                interp.expect(NO_DEADLINE).output_digest
            })
            .unwrap_or(0);
        let mut repro = MinimizedRepro {
            name: name.clone(),
            mdlx_path: PathBuf::new(),
            actors: plan.cfg.actors,
            lanes: plan.lanes,
            steps: plan.steps,
            rows: plan.rows,
            digest,
            detail: detail.to_string(),
        };
        let Some(dir) = &self.config.corpus_dir else {
            return repro;
        };
        let Ok(model) = RandomModelGen::new(plan.cfg.clone()).try_generate() else {
            return repro;
        };
        let mdlx_path = dir.join(format!("{name}.mdlx"));
        let expected_path = dir.join(format!("{name}.expected"));
        let expected = JsonObject::default()
            .num("schema", 1)
            .str("name", &name)
            .num("stim_seed", plan.stim_seed())
            .num("rows", plan.rows)
            .num("steps", plan.steps)
            .num("lanes", plan.lanes)
            .num("digest", digest)
            .finish();
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&mdlx_path, write_mdlx(&model)))
            .and_then(|()| std::fs::write(&expected_path, expected));
        if written.is_ok() {
            repro.mdlx_path = mdlx_path;
        }
        repro
    }
}

/// Compare two simulation reports exactly: output digest, final outputs
/// and signal-log samples as bit patterns ([`SimulationReport::output_bits`],
/// so a NaN equals itself, as it does in the digest), step counts, the
/// four coverage bitmaps, every diagnostic and custom-probe event, then
/// each lane's report the same way. `None` = identical; `Some(detail)`
/// names the first mismatch.
pub fn compare_reports(
    label_a: &str,
    a: &SimulationReport,
    label_b: &str,
    b: &SimulationReport,
) -> Option<String> {
    let differ = |what: String| Some(format!("{label_a} vs {label_b}: {what}"));
    if a.output_digest != b.output_digest {
        return differ(format!(
            "output digest {:016x} != {:016x}",
            a.output_digest, b.output_digest
        ));
    }
    if a.output_bits() != b.output_bits() {
        return differ(format!("final outputs {:?} != {:?}", a.final_outputs, b.final_outputs));
    }
    if a.steps != b.steps {
        return differ(format!("steps {} != {}", a.steps, b.steps));
    }
    if let (Some(ca), Some(cb)) = (&a.coverage, &b.coverage) {
        if let Some(kind) = CoverageKind::ALL.into_iter().find(|k| ca.bitmap(*k) != cb.bitmap(*k)) {
            let (na, nb) = (ca.counts(kind), cb.counts(kind));
            return differ(format!("{kind} coverage bitmaps differ ({na:?} vs {nb:?})"));
        }
    }
    if a.diagnostics != b.diagnostics {
        let (na, nb) = (a.diagnostics.len(), b.diagnostics.len());
        return differ(format!("diagnostics differ ({na} vs {nb} events)"));
    }
    let samples = |r: &SimulationReport| -> Vec<(String, u64, Vec<u64>)> {
        let bits = |s: &SignalSample| s.value.elems().iter().map(|e| e.to_bits_u64()).collect();
        r.signal_log.iter().map(|s| (s.path.clone(), s.step, bits(s))).collect()
    };
    if samples(a) != samples(b) {
        let (na, nb) = (a.signal_log.len(), b.signal_log.len());
        return differ(format!("signal logs differ ({na} vs {nb} samples)"));
    }
    if a.custom != b.custom {
        return differ(format!("custom probe events {:?} != {:?}", a.custom, b.custom));
    }
    if a.lane_reports.len() != b.lane_reports.len() {
        return differ(format!("lanes {} != {}", a.lane_reports.len(), b.lane_reports.len()));
    }
    a.lane_reports.iter().zip(&b.lane_reports).enumerate().find_map(|(i, (la, lb))| {
        compare_reports(&format!("{label_a} lane {i}"), la, &format!("{label_b} lane {i}"), lb)
    })
}

/// Replay one corpus entry (an `.mdlx` path with an `.expected` sidecar
/// next to it): regenerate the pinned stimulus, run the interpreter and
/// the compiled simulator, and check both against each other and the
/// pinned digest.
///
/// # Errors
///
/// A descriptive string when the entry cannot be read/parsed, when
/// either engine's digest drifts from the pinned one, or when the two
/// engines diverge — exactly the condition the corpus entry was checked
/// in to guard.
pub fn replay_corpus_entry(mdlx_path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(mdlx_path)
        .map_err(|e| format!("{}: {e}", mdlx_path.display()))?;
    let expected_path = mdlx_path.with_extension("expected");
    let expected_text = std::fs::read_to_string(&expected_path)
        .map_err(|e| format!("{}: {e}", expected_path.display()))?;
    let fields = parse_flat_object(expected_text.trim())
        .ok_or_else(|| format!("{}: not a flat JSON object", expected_path.display()))?;
    let stim_seed =
        fields.num("stim_seed").ok_or_else(|| "expected file missing stim_seed".to_string())?;
    let rows = fields.num("rows").unwrap_or(8) as usize;
    let steps = fields.num("steps").unwrap_or(16);
    let lanes = fields.num("lanes").unwrap_or(1) as usize;
    let digest = fields.num("digest").ok_or_else(|| "expected file missing digest".to_string())?;

    let model = parse_mdlx(&text).map_err(|e| format!("{}: {e}", mdlx_path.display()))?;
    let pre = preprocess(&model).map_err(|e| format!("{}: {e}", mdlx_path.display()))?;
    let (tests, lane_tests) = lane_stimulus(&pre, rows, stim_seed, lanes);
    let run_opts = RunOptions { lane_tests, ..RunOptions::default() };

    let interp = interp_lane_run(&pre, &tests, &run_opts, steps, None).expect(NO_DEADLINE);
    if interp.output_digest != digest {
        return Err(format!(
            "{}: interpreter digest {:016x} != pinned {digest:016x} (reference drift)",
            mdlx_path.display(),
            interp.output_digest
        ));
    }
    let sim = AccMoS::new()
        .without_cache()
        .prepare(&model)
        .map_err(|e| format!("{}: compile: {e}", mdlx_path.display()))?;
    let compiled = sim
        .run(steps, &tests, &run_opts)
        .map_err(|e| format!("{}: run: {e}", mdlx_path.display()))?;
    if compiled.output_digest != digest {
        return Err(format!(
            "{}: compiled digest {:016x} != pinned {digest:016x} (the regression this entry guards)",
            mdlx_path.display(),
            compiled.output_digest
        ));
    }
    if let Some(detail) = compare_reports("interp", &interp, "accmos", &compiled) {
        return Err(format!("{}: {detail}", mdlx_path.display()));
    }
    Ok(())
}

/// All `.mdlx` corpus entries under `dir`, sorted by name (empty when
/// the directory does not exist).
pub fn corpus_entries(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "mdlx"))
        .collect();
    paths.sort();
    paths
}

/// Pin trial `index` of a campaign as a corpus entry *without* requiring
/// a divergence: compute the interpreter's reference digest for the
/// exact planned model and stimulus and write the `.mdlx` + `.expected`
/// pair (named `pin-s<seed>-i<index>`) into `dir`.
///
/// This is how known-good regression anchors get checked in, and how a
/// maintainer re-pins an entry after an *intentional* semantic change
/// (see the corpus-triage workflow in the README).
///
/// # Errors
///
/// A descriptive string when the planned model cannot be generated or
/// the entry cannot be written.
pub fn pin_corpus_entry(
    config: &FuzzConfig,
    index: u64,
    dir: &Path,
) -> Result<MinimizedRepro, String> {
    let plan = plan_trial(config, index);
    let campaign = FuzzCampaign::new(FuzzConfig {
        corpus_dir: Some(dir.to_path_buf()),
        ..config.clone()
    });
    let name = format!("pin-s{}-i{index}", config.seed);
    let repro = campaign.write_repro_named(&plan, "pinned regression anchor", &name);
    if repro.mdlx_path.as_os_str().is_empty() {
        return Err(format!("could not write corpus entry {name} under {}", dir.display()));
    }
    Ok(repro)
}

fn fn_strip_nested(cfg: &mut ModelGenConfig) {
    cfg.nested = false;
}
fn fn_strip_conditional(cfg: &mut ModelGenConfig) {
    cfg.conditional = false;
    cfg.nested = false;
}
fn fn_strip_vectors(cfg: &mut ModelGenConfig) {
    cfg.vectors = false;
}
fn fn_strip_float(cfg: &mut ModelGenConfig) {
    cfg.float_math = false;
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}...", &s[..end])
}

/// A caught panic's payload as text.
pub(crate) fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("accmos-fuzz-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_record(index: u64) -> FuzzRecord {
        FuzzRecord {
            ts_ms: 100 + index,
            campaign: 1,
            index,
            seed: mix_seed(1, index),
            lanes: 1,
            actors: 20,
            steps: 64,
            verdict: "ok".into(),
            detail: String::new(),
            injected: false,
            classified: true,
            duration_us: 1234,
        }
    }

    #[test]
    fn store_appends_reads_and_reports_torn_tail() {
        let dir = scratch_dir("store");
        let store = FuzzStore::in_dir(&dir);
        assert!(store.read().records.is_empty());
        store.append(&sample_record(0)).unwrap();
        let mut diverged = sample_record(1);
        diverged.verdict = "divergence".into();
        diverged.detail = "interp vs accmos: output digest \"quoted\"\n".into();
        diverged.injected = true;
        diverged.classified = false;
        store.append(&diverged).unwrap();
        // Torn tail: a writer died mid-append.
        let mut contents = std::fs::read(store.path()).unwrap();
        contents.extend_from_slice(br#"{"schema":1,"ts_ms":102,"campaign":1,"ind"#);
        std::fs::write(store.path(), &contents).unwrap();
        let view = store.read();
        assert_eq!(view.records, [sample_record(0), diverged]);
        assert!(view.truncated_tail);
        // The next append repairs the tear.
        store.append(&sample_record(3)).unwrap();
        let view = store.read();
        assert_eq!(view.records.len(), 3);
        assert_eq!(view.skipped, 1, "the torn record, now newline-terminated");
        assert_eq!(completed_indices(&store, 1), HashSet::from([0, 1, 3]));
        assert!(completed_indices(&store, 2).is_empty(), "per-campaign indices");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn golden_fuzz_lines_of_the_previous_format_read_back() {
        // Lines as an earlier build wrote them (an injected trial, a
        // divergence with its detail, a quarantined trial), then a
        // foreign-schema line, a garbled line and a torn tail.
        let lines = [
            r#"{"schema":1,"ts_ms":1792427960656,"campaign":1,"index":3,"seed":8196980753821780235,"lanes":4,"actors":22,"steps":58,"verdict":"injected:timeout","injected":true,"classified":true,"duration_us":502551}"#,
            r#"{"schema":1,"ts_ms":1792428153329,"campaign":5,"index":0,"seed":7134611160154358618,"lanes":1,"actors":34,"steps":30,"verdict":"divergence","detail":"interp vs accmos: output digest 6a474b91e0080a4a != 7f0a3e4cabee5d0a","injected":false,"classified":true,"duration_us":103262}"#,
            r#"{"schema":1,"ts_ms":1792427963635,"campaign":1,"index":17,"seed":15040563541741120241,"lanes":1,"actors":36,"steps":11,"verdict":"injected:quarantined","injected":true,"classified":true,"duration_us":690}"#,
            r#"{"schema":2,"ts_ms":1792427963640,"campaign":1,"index":18,"seed":1,"lanes":1,"actors":3,"steps":11,"verdict":"ok","injected":false,"classified":true,"duration_us":9}"#,
            r#"{"schema":1,"ts_ms":1792427963641,"campaign":1,"index":19,"verdict":ok}"#,
        ];
        let dir = scratch_dir("golden");
        let store = FuzzStore::in_dir(&dir);
        let torn = r#"{"schema":1,"ts_ms":1792427963642,"campaign":1,"index":20,"se"#;
        std::fs::write(store.path(), format!("{}\n{torn}", lines.join("\n"))).unwrap();
        let view = store.read();
        assert_eq!((view.records.len(), view.skipped, view.truncated_tail), (3, 2, true));
        let want = FuzzRecord {
            ts_ms: 1792428153329,
            campaign: 5,
            index: 0,
            seed: 7134611160154358618,
            lanes: 1,
            actors: 34,
            steps: 30,
            verdict: "divergence".into(),
            detail: "interp vs accmos: output digest 6a474b91e0080a4a != 7f0a3e4cabee5d0a".into(),
            injected: false,
            classified: true,
            duration_us: 103262,
        };
        assert_eq!(view.records[1], want);
        let verdicts: Vec<_> = view.records.iter().map(|r| (r.index, r.verdict.as_str())).collect();
        assert_eq!(verdicts, [(3, "injected:timeout"), (0, "divergence"), (17, "injected:quarantined")]);
        assert_eq!(completed_indices(&store, 1), HashSet::from([3, 17]));
        // Appending a record writes the line it was read from.
        std::fs::remove_file(store.path()).unwrap();
        for r in &view.records {
            store.append(r).unwrap();
        }
        let written = std::fs::read_to_string(store.path()).unwrap();
        assert_eq!(written, format!("{}\n", lines[..3].join("\n")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trial_plans_are_deterministic_and_varied() {
        let config = FuzzConfig { seed: 9, trials: 64, ..FuzzConfig::default() };
        let mut lanes4 = 0;
        let mut conditional = 0;
        for index in 0..64 {
            let a = plan_trial(&config, index);
            let b = plan_trial(&config, index);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.cfg, b.cfg, "plan {index} not deterministic");
            assert_eq!(a.lanes, b.lanes);
            assert!(a.cfg.validate().is_ok(), "planned configs are always valid");
            assert!(a.inject.is_none(), "no injection without an injection binary");
            if a.lanes == 4 {
                lanes4 += 1;
            }
            if a.cfg.conditional {
                conditional += 1;
            }
        }
        assert!(lanes4 > 0, "some lane-4 trials");
        assert!(conditional > 0, "some conditional-group trials");
    }

    #[test]
    fn injection_schedule_is_deterministic() {
        let config = FuzzConfig {
            inject_fault_exe: Some(PathBuf::from("/nonexistent/faultsim")),
            ..FuzzConfig::default()
        };
        assert_eq!(plan_trial(&config, 3).inject, Some(FaultMode::Hang));
        assert_eq!(plan_trial(&config, 7).inject, Some(FaultMode::Crash));
        assert_eq!(plan_trial(&config, 17).inject, Some(FaultMode::Crash));
        assert_eq!(plan_trial(&config, 5).inject, None);
    }

    #[test]
    fn verdict_labels_and_classification() {
        assert_eq!(Verdict::Ok.label(), "ok");
        assert!(Verdict::Ok.classified());
        let failed = Verdict::Failed { kind: "timeout".into(), detail: "x".into() };
        assert_eq!(failed.label(), "failed:timeout");
        assert!(failed.classified());
        assert!(Verdict::Quarantined.classified());
        assert!(Verdict::Injected { kind: "crash".into() }.classified());
        assert!(!Verdict::Panic { detail: "boom".into() }.classified());
        assert!(!Verdict::InjectedUnclassified { detail: "x".into() }.classified());
        assert_eq!(Verdict::Divergence { detail: "d".into() }.detail(), "d");
    }

    #[test]
    fn planned_models_are_valid() {
        for seed in [0, 1, 42, 1000] {
            let model = planned_model(seed).unwrap();
            assert!(preprocess(&model).is_ok(), "rand:{seed} must preprocess");
        }
    }

    #[test]
    fn compare_reports_finds_each_field() {
        use accmos_ir::{CoverageBitmap, CustomEvent, DiagnosticEvent, DiagnosticKind, Scalar, Value};
        let a = SimulationReport::new("M", "interp");
        let mut b = a.clone();
        assert!(compare_reports("a", &a, "b", &b).is_none());
        b.output_digest = 5;
        let detail = compare_reports("a", &a, "b", &b).unwrap();
        assert!(detail.contains("digest"), "{detail}");
        let mut c = a.clone();
        c.steps = 9;
        assert!(compare_reports("a", &a, "c", &c).unwrap().contains("steps"));

        // Equal counts, different bits.
        let covered = |bit: usize| {
            let mut r = a.clone();
            let mut bitmaps = accmos_ir::CoverageBitmaps::default();
            *bitmaps.bitmap_mut(CoverageKind::Decision) = CoverageBitmap::with_len(4);
            bitmaps.set(CoverageKind::Decision, bit);
            r.coverage = Some(bitmaps);
            r
        };
        let detail = compare_reports("a", &covered(0), "b", &covered(1)).unwrap();
        assert!(detail.contains("Decision coverage bitmaps differ"), "{detail}");

        // One differing signal-log sample; a NaN sample equals itself.
        let logged = |x: f64| {
            let mut r = a.clone();
            let value = Value::scalar(Scalar::F64(x));
            r.signal_log = vec![SignalSample { path: "M_Out".into(), step: 3, value }];
            r
        };
        assert!(compare_reports("a", &logged(f64::NAN), "b", &logged(f64::NAN)).is_none());
        let detail = compare_reports("a", &logged(1.0), "b", &logged(2.0)).unwrap();
        assert!(detail.contains("signal logs differ"), "{detail}");

        let mut probed = a.clone();
        probed.custom =
            vec![CustomEvent { name: "p".into(), actor: "M_A".into(), first_step: 1, count: 2 }];
        assert!(compare_reports("a", &a, "b", &probed).unwrap().contains("custom probe"));

        // Lane 1's diagnostics differ while the aggregates agree.
        let lanes = |count: u64| {
            let kind = DiagnosticKind::DivisionByZero;
            let event = DiagnosticEvent { actor: "M_Div".into(), kind, first_step: 2, count };
            let mut lane1 = a.clone();
            lane1.diagnostics = vec![event.clone()];
            let mut r = a.clone();
            r.diagnostics = vec![DiagnosticEvent { count: 9, ..event }];
            r.lane_reports = vec![a.clone(), lane1];
            r
        };
        let detail = compare_reports("a", &lanes(4), "b", &lanes(5)).unwrap();
        assert!(detail.starts_with("a lane 1 vs b lane 1: diagnostics differ"), "{detail}");
    }

    #[test]
    fn compare_reports_matches_outputs_by_bit_pattern() {
        use accmos_ir::{Scalar, Value};
        let with_out = |x: f64| {
            let mut r = SimulationReport::new("M", "interp");
            r.final_outputs = vec![("Out1".into(), Value::scalar(Scalar::F64(x)))];
            r
        };
        let nan = with_out(f64::NAN);
        assert!(compare_reports("a", &nan, "b", &nan.clone()).is_none(), "NaN equals itself");
        let detail = compare_reports("a", &nan, "b", &with_out(-f64::NAN)).unwrap();
        assert!(detail.contains("final outputs"), "{detail}");
        assert!(compare_reports("a", &with_out(0.0), "b", &with_out(-0.0)).is_some());
    }

    #[test]
    fn a_trials_span_lasts_what_its_record_says() {
        let dir = scratch_dir("trial-span");
        let tracer = Tracer::new();
        let config = FuzzConfig {
            seed: 3,
            trials: 2,
            state_dir: Some(dir.clone()),
            tracer: Some(tracer.clone()),
            ..FuzzConfig::default()
        };
        FuzzCampaign::new(config).run().unwrap();
        let records = FuzzStore::in_dir(&dir).read().records;
        let spans: Vec<_> = tracer.spans().into_iter().filter(|s| s.cat == "fuzz").collect();
        assert_eq!((records.len(), spans.len()), (2, 2));
        for r in &records {
            let name = format!("trial {}", r.index);
            let span = spans.iter().find(|s| s.name == name).expect("a span per trial");
            assert_eq!(span.dur_us, r.duration_us, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn o3_arm_samples_about_one_trial_in_four() {
        let config = FuzzConfig { seed: 1, trials: 50, ..FuzzConfig::default() };
        let o3 = (0..config.trials).filter(|&i| plan_trial(&config, i).o3).count();
        assert!((5..=25).contains(&o3), "{o3} of 50 trials pin -O3");
    }
}
