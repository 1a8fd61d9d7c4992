//! `perfbench` — run one workload (the form automated runners use), the whole suite, a
//! comparison of two result files, or regenerate the pinned oracle.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out PATH] [--out PATH] [--smoke]
//! perfbench [--workload NAME]... [same flags]      # suite, one child per workload
//! perfbench compare OLD.jsonl NEW.jsonl
//! perfbench --pin
//! ```

use accmos_perfbench::compare;
use accmos_perfbench::json::{self, Json};
use accmos_perfbench::oracle::{Oracle, PIN_PATH};
use accmos_perfbench::spec::{RunResult, WORKLOADS};
use accmos_perfbench::workloads::{self, Settings, Sizes};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const DEFAULT_SEED: u64 = 2024;
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage: perfbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
[--trace-out PATH] [--out PATH] [--smoke]\n       perfbench compare OLD.jsonl NEW.jsonl\n       \
perfbench --pin\nworkloads: cold_suite long_run sse_baseline serve_burst batch_sweep";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
    pin: bool,
    /// Where the command was started (the checkout), for provenance.
    cwd: PathBuf,
}

/// Strict flag parsing: an unknown flag, a missing or unparsable value
/// or an unknown workload is a usage error, never a silent default.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        out: None,
        smoke: false,
        pin: false,
        cwd: std::env::current_dir().unwrap_or_default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(name, _)| name == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                a.workloads.push(w.clone());
            }
            "--seed" => {
                let v = value()?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            "--trace-out" => {
                a.trace_out = Some(PathBuf::from(value()?));
                a.trace = true;
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            "--pin" => a.pin = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn absolute(p: &Path) -> PathBuf {
    std::env::current_dir()
        .map(|d| d.join(p))
        .unwrap_or_else(|_| p.to_path_buf())
}

/// Scratch space next to the binary's build directory, so a run reads
/// and writes only inside the checkout that built it.
fn work_root() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."));
    let root = dir.join("perfbench-work");
    std::fs::create_dir_all(&root)?;
    root.canonicalize()
}

/// Append `line` to the results file at `path`, starting a new file
/// with the provenance record.
fn append_line(path: &Path, a: &Args, line: &str) -> std::io::Result<()> {
    let fresh = !path.exists();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if fresh {
        writeln!(f, "{}", provenance(a))?;
    }
    writeln!(f, "{line}")
}

/// Run one workload in this process and print its result line last.
fn run_one(a: &Args) -> Result<RunResult, String> {
    let io = |e: std::io::Error| format!("scratch directory: {e}");
    let root = work_root().map_err(io)?;
    let run_dir = root.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(run_dir.join("tmp")).map_err(io)?;
    let (trace_out, out) = (
        a.trace_out.as_deref().map(absolute),
        a.out.as_deref().map(absolute),
    );
    // Before any thread starts: compiler scratch, build directories and
    // any default-state fallback all stay inside the run directory.
    std::env::set_current_dir(&run_dir).map_err(io)?;
    std::env::set_var("TMPDIR", run_dir.join("tmp"));
    std::env::set_var("ACCMOS_CACHE_DIR", run_dir.join("default-state"));

    let settings = Settings {
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
        work: run_dir.clone(),
        tracer: a.trace.then(accmos::Tracer::new),
    };
    let sizes = if a.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let mut oracle = Oracle::new();
    let result = workloads::run(&a.workloads[0], &settings, &sizes, &mut oracle);

    if let (Some(tracer), Some(path)) = (&settings.tracer, &trace_out) {
        tracer
            .write_chrome_json(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote trace {}", path.display());
    }
    std::env::set_current_dir(&root).map_err(io)?;
    std::fs::remove_dir_all(&run_dir).map_err(io)?;
    if let Some(path) = &out {
        append_line(path, a, &result.record_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(result)
}

fn print_metrics(r: &RunResult) {
    for (name, value, unit) in &r.metrics {
        println!("{} {name} {} {unit}", r.workload, json::num(*value));
    }
}

fn first_line(cmd: &str, arg: &str) -> String {
    Command::new(cmd)
        .arg(arg)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Machine, toolchain and run settings, as a results-file record.
fn provenance(a: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            let line = c.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(&a.cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let fields = vec![
        ("cpu", Json::Str(cpu)),
        ("nproc", Json::Num(nproc as f64)),
        ("cc", Json::Str(first_line("cc", "--version"))),
        ("rustc", Json::Str(first_line("rustc", "-V"))),
        ("commit", Json::Str(commit)),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        (
            "sizes",
            Json::Str(if a.smoke { "smoke" } else { "full" }.into()),
        ),
    ];
    let obj = Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    Json::Obj(vec![("provenance".into(), obj)]).to_string_compact()
}

/// Run each workload in its own child process, so set-up, peak RSS and
/// loaded libraries never leak between workloads. Children print their
/// metric lines and result line, and append to `--out`, themselves.
fn run_suite(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let names: Vec<String> = if a.workloads.is_empty() {
        WORKLOADS.iter().map(|(n, _)| n.to_string()).collect()
    } else {
        a.workloads.clone()
    };
    let mut all_ok = true;
    for name in &names {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        if a.smoke {
            cmd.arg("--smoke");
        }
        if let Some(path) = &a.trace_out {
            cmd.arg("--trace-out")
                .arg(absolute(&path.with_extension(format!("{name}.json"))));
        }
        if let Some(path) = &a.out {
            cmd.arg("--out").arg(absolute(path));
        }
        let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
        if !status.success() {
            eprintln!("perfbench: {name} ended with {status}");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

fn pin() -> Result<(), String> {
    let sizes = Sizes::full();
    let settings = Settings {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        work: PathBuf::new(),
        tracer: None,
    };
    let mut oracle = Oracle::empty();
    for (name, _) in WORKLOADS {
        for key in workloads::oracle_keys(name, &settings, &sizes) {
            oracle.expect(&key);
        }
    }
    std::fs::write(PIN_PATH, oracle.to_tsv()).map_err(|e| format!("{PIN_PATH}: {e}"))?;
    eprintln!("pinned {PIN_PATH} in {:.1}s", oracle.spent().as_secs_f64());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, old, new] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let read = |p: &String| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{p}: {e}"))
                .and_then(|t| compare::read_runs(&t).map_err(|e| format!("{p}: {e}")))
        };
        return match (read(old), read(new)) {
            (Ok(o), Ok(n)) => {
                let (table, regressed) = compare::compare(&o, &n);
                print!("{table}");
                ExitCode::from(u8::from(regressed))
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.pin {
        pin().map(|()| true)
    } else if args.workloads.len() == 1 {
        run_one(&args).map(|r| {
            print_metrics(&r);
            println!("{}", r.contract_json());
            r.correct
        })
    } else {
        run_suite(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
