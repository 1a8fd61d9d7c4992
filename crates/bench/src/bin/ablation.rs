//! Ablation of the code-generation design choices: what does each piece of
//! simulation-oriented instrumentation cost, and how much does the
//! compiler's optimizer contribute?
//!
//! Matrix: {bare, +coverage, +diagnosis, full} x {-O0, -O3} on one
//! compute-heavy (SPV) and one control-heavy (TWC) benchmark.
//!
//! `--grid opt` runs the grid behind the pipeline's step-budget rule
//! instead: {-O1, -O3} x {5k, 200k, 2M} steps x the 10 Table 1 models.
//! Each cell reports the cold compile time, the loop's ns/step and the
//! run length at which `-O3`'s longer compile is won back, and whether the
//! rule (`-O1` below `O3_BUDGET` steps, `-O3` from it on) picked the
//! faster build for that run length. The last line is one JSON record:
//! the plan, its hash, provenance in a fixed field order, and every cell.

use accmos::telemetry::JsonObject;
use accmos::{AccMoS, CodegenOptions, OptLevel, PreparedSimulation, RunOptions, O3_BUDGET};
use accmos_bench::{arg_str, arg_u64, check_flags, record_run};
use accmos_ir::{DiagnosticPolicy, TestVectors};
use accmos_testgen::random_tests;
use std::process::Command;
use std::time::Duration;

fn configs() -> Vec<(&'static str, CodegenOptions)> {
    let full = CodegenOptions::accmos();
    let bare = CodegenOptions { instrument: false, ..full.clone() };
    let cov_only = CodegenOptions {
        instrument: true,
        coverage: true,
        policy: DiagnosticPolicy::none(),
        ..full.clone()
    };
    let diag_only = CodegenOptions { instrument: true, coverage: false, ..full.clone() };
    vec![("bare", bare), ("+coverage", cov_only), ("+diagnosis", diag_only), ("full", full)]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_flags(&args, &["--steps", "--seed", "--grid"]);
    let seed = arg_u64(&args, "--seed", 2024);
    match arg_str(&args, "--grid") {
        Some("opt") => return opt_grid(seed),
        Some(other) => {
            eprintln!("unknown grid `{other}` (valid: opt)");
            std::process::exit(2)
        }
        None => {}
    }
    let steps = arg_u64(&args, "--steps", 200_000);

    println!("Instrumentation / optimization ablation ({steps} steps)");
    println!(
        "{:<7} {:<12} {:>10} {:>10} {:>8}",
        "Model", "config", "-O0", "-O3", "O0/O3"
    );
    for name in ["SPV", "TWC"] {
        let model = accmos_models::by_name(name);
        let pre = accmos::preprocess(&model).unwrap();
        let tests = random_tests(&pre, 64, seed);
        for (label, codegen) in configs() {
            let mut times: Vec<Duration> = Vec::new();
            for opt in [OptLevel::O0, OptLevel::O3] {
                let sim = AccMoS::new()
                    .with_codegen(codegen.clone())
                    .with_opt(opt)
                    .prepare(&model)
                    .unwrap();
                let r = sim.run(steps, &tests, &RunOptions::default()).unwrap();
                sim.clean();
                record_run("ablation", name, &format!("{label}-{}", opt.label()), steps, r.wall);
                times.push(r.wall);
            }
            println!(
                "{:<7} {:<12} {:>9.3}s {:>9.3}s {:>7.1}x",
                name,
                label,
                times[0].as_secs_f64(),
                times[1].as_secs_f64(),
                times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-9)
            );
        }
    }
    println!("\nReading: the full-instrumentation overhead vs bare code is the cost of");
    println!("the paper's coverage bitmaps + diagnostic calls; O0/O3 shows how much of");
    println!("AccMoS's speed is the C compiler's optimizer (paper §4's pipelining note).");
}

/// The grid's factors, in the order cells are reported.
const GRID_LEVELS: [OptLevel; 2] = [OptLevel::O1, OptLevel::O3];
const GRID_STEPS: [u64; 3] = [5_000, 200_000, 2_000_000];
/// Stimulus rows per model, as perfbench makes it.
const GRID_ROWS: usize = 64;
/// Cold compiles per (model, level), alternating levels; the minimum is
/// reported, as is the minimum loop time over this many runs per cell.
const GRID_REPEATS: usize = 2;

/// One model's measurements at both levels.
struct ModelGrid {
    name: &'static str,
    /// Minimum cold compile seconds, per level.
    cc_s: [f64; 2],
    /// Minimum loop ns/step, per step count, per level.
    ns: [[f64; 2]; 3],
}

impl ModelGrid {
    /// The run length from which `-O3` (compile + loop) is faster than
    /// `-O1`, at the loop speeds measured for step count `k`; `None` when
    /// `-O3`'s loop is no faster, so it never wins its compile back.
    fn break_even(&self, k: usize) -> Option<f64> {
        let gain_ns = self.ns[k][0] - self.ns[k][1];
        (gain_ns > 0.0).then(|| (self.cc_s[1] - self.cc_s[0]).max(0.0) * 1e9 / gain_ns)
    }

    /// Seconds a run of `GRID_STEPS[k]` costs at level `l`, compile included.
    fn total_s(&self, k: usize, l: usize) -> f64 {
        self.cc_s[l] + self.ns[k][l] * GRID_STEPS[k] as f64 / 1e9
    }
}

fn opt_grid(seed: u64) {
    let plan = format!(
        "opt-level-by-budget levels=O1,O3 steps={} models={} rows={GRID_ROWS} repeats={GRID_REPEATS} seed={seed}",
        GRID_STEPS.map(|s| s.to_string()).join(","),
        accmos_models::TABLE1.map(|(n, _, _)| n).join(","),
    );
    let plan_hash = accmos_ir::source_digest_hex([plan.as_str()]);
    let provenance = provenance(seed);
    println!("Optimization level by step budget ({plan})");
    println!("plan hash {plan_hash}; {}", provenance.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(", "));
    println!(
        "{:<6} {:>9} {:>8} {:>8} {:>10} {:>10} {:>12} {:>5} {:>7}",
        "Model", "steps", "cc O1", "cc O3", "ns/st O1", "ns/st O3", "break-even", "rule", "faster"
    );
    let mut grids = Vec::new();
    for (name, _, _) in accmos_models::TABLE1 {
        let grid = measure_model(name, seed);
        for (k, steps) in GRID_STEPS.iter().enumerate() {
            let rule = if *steps < O3_BUDGET { "O1" } else { "O3" };
            let faster = if grid.total_s(k, 0) <= grid.total_s(k, 1) { "O1" } else { "O3" };
            println!(
                "{:<6} {:>9} {:>7.3}s {:>7.3}s {:>10.0} {:>10.0} {:>12} {:>5} {:>7}",
                name,
                steps,
                grid.cc_s[0],
                grid.cc_s[1],
                grid.ns[k][0],
                grid.ns[k][1],
                grid.break_even(k).map_or("never".into(), |n| format!("{:.2}M", n / 1e6)),
                rule,
                faster
            );
        }
        grids.push(grid);
    }
    let earliest = grids
        .iter()
        .filter_map(|g| g.break_even(GRID_STEPS.len() - 1).map(|n| (n, g.name)))
        .min_by(|a, b| a.0.total_cmp(&b.0));
    if let Some((n, name)) = earliest {
        println!(
            "\nEarliest break-even at {} steps: {:.2}M ({name}); O3_BUDGET = {O3_BUDGET}.",
            GRID_STEPS[GRID_STEPS.len() - 1],
            n / 1e6
        );
    }
    println!("{}", grid_json(&plan, &plan_hash, &provenance, &grids));
}

/// Compile `name` cold at both levels, alternating, and time its loop at
/// every step count of the grid.
fn measure_model(name: &'static str, seed: u64) -> ModelGrid {
    let model = accmos_models::by_name(name);
    let pre = accmos::preprocess(&model).expect("benchmark model preprocesses");
    let tests = random_tests(&pre, GRID_ROWS, seed);
    let mut cc_s = [f64::INFINITY; 2];
    let mut sims: [Option<PreparedSimulation>; 2] = [None, None];
    for _ in 0..GRID_REPEATS {
        for (l, opt) in GRID_LEVELS.iter().enumerate() {
            let pipeline = AccMoS::new().with_opt(*opt).without_cache();
            let sim = pipeline.prepare(&model).expect("grid compile");
            cc_s[l] = cc_s[l].min(sim.compile_time().as_secs_f64());
            if let Some(old) = sims[l].replace(sim) {
                old.clean();
            }
        }
    }
    let sims = sims.map(|s| s.expect("compiled at least once"));
    let mut ns = [[f64::INFINITY; 2]; 3];
    for (k, steps) in GRID_STEPS.iter().enumerate() {
        let repeats = if *steps >= 1_000_000 { 1 } else { GRID_REPEATS + 1 };
        for _ in 0..repeats {
            for (l, sim) in sims.iter().enumerate() {
                let wall = run_loop(sim, *steps, &tests);
                ns[k][l] = ns[k][l].min(wall.as_nanos() as f64 / *steps as f64);
                let tag = GRID_LEVELS[l].label();
                record_run("ablation", name, &format!("full-{tag}"), *steps, wall);
            }
        }
    }
    for sim in &sims {
        sim.clean();
    }
    ModelGrid { name, cc_s, ns }
}

/// The simulation loop's own time (the report's wall) for one run.
fn run_loop(sim: &PreparedSimulation, steps: u64, tests: &TestVectors) -> Duration {
    let report = sim.run(steps, tests, &RunOptions::default()).expect("grid run");
    assert_eq!(report.steps, steps);
    report.wall
}

/// Where the grid ran, in a fixed field order: the C compiler, the CPU,
/// the number of CPUs, the commit (`unknown` outside a git checkout) and
/// the seed.
fn provenance(seed: u64) -> Vec<(&'static str, String)> {
    let first_line = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().next().map(str::to_owned))
            .map_or_else(|| "unknown".to_owned(), |l| l.trim().to_owned())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("cc", first_line("cc", &["--version"])),
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("commit", first_line("git", &["rev-parse", "--short", "HEAD"])),
        ("seed", seed.to_string()),
    ]
}

fn grid_json(plan: &str, hash: &str, provenance: &[(&str, String)], grids: &[ModelGrid]) -> String {
    let mut prov = JsonObject::default();
    for (k, v) in provenance {
        prov.str(k, v);
    }
    let mut cells = Vec::new();
    for g in grids {
        for (k, steps) in GRID_STEPS.iter().enumerate() {
            for (l, opt) in GRID_LEVELS.iter().enumerate() {
                let even = g.break_even(k).map_or("null".into(), |n| format!("{n:.0}"));
                let mut cell = JsonObject::default();
                cell.str("model", g.name).str("opt", opt.label()).num("steps", steps);
                cell.num("cc_s", format_args!("{:.4}", g.cc_s[l]));
                cell.num("loop_ns_per_step", format_args!("{:.1}", g.ns[k][l]));
                cells.push(cell.raw("break_even_steps", &even).finish());
            }
        }
    }
    JsonObject::default()
        .str("plan_name", "opt-level-by-budget")
        .str("plan", plan)
        .str("plan_hash", hash)
        .num("o3_budget", O3_BUDGET)
        .raw("provenance", &prov.finish())
        .raw("cells", &format!("[{}]", cells.join(",")))
        .finish()
}
