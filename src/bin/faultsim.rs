//! `faultsim` — a deterministic misbehaving stand-in for a generated
//! simulator, used by the fault-injection tests.
//!
//! It accepts the same command line the backend passes to real compiled
//! simulators (`<steps> [--tests f.csv] [--stop-on-diag] [--budget-ms N]`)
//! and then misbehaves in exactly one way, selected by the executable's
//! *file name* (`faultsim-<mode>`) or the `FAULTSIM_MODE` environment
//! variable. Name-based selection lets a test copy the binary once per
//! mode and run all copies concurrently — no process-global environment
//! races, and each mode quarantines independently (quarantine is keyed by
//! executable path).
//!
//! Modes:
//!
//! | mode       | behaviour |
//! |------------|-----------|
//! | `ok`       | emit a valid `ACCMOS:` report, exit 0 |
//! | `hang`     | emit one line, then sleep forever (supervisor must kill) |
//! | `crash`    | die on SIGABRT via `std::process::abort` |
//! | `segv`     | die on SIGSEGV (delivered by `kill`; falls back to abort) |
//! | `garbled`  | emit a syntactically invalid protocol line, exit 0 |
//! | `truncate` | emit two records, then stop mid-record (no newline) |
//! | `midexit`  | emit a valid prefix but exit 0 without `ACCMOS:END` |
//! | `flaky`    | exit 3 on the first run (`<exe>.state` sentinel), then ok |
//! | `hangflush`| emit a partial record, detach a child that flushes protocol-completing bytes ~1.5 s later through the inherited stdout, then hang — exercises the supervisor's drain grace after a kill |

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = mode_from(&args[0]);
    if args.iter().any(|a| a == "--lateflush") {
        // The detached `hangflush` straggler: by now the supervisor has
        // killed our parent and, after its drain grace, stopped reading
        // its stdout; these bytes must never reach the attempt's
        // classification.
        std::thread::sleep(std::time::Duration::from_millis(1500));
        println!("9");
        println!("ACCMOS:END");
        return;
    }
    let steps: u64 = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .and_then(|a| a.parse().ok())
        .unwrap_or(0);

    match mode.as_str() {
        "hang" => {
            println!("ACCMOS:MODEL faultsim-hang");
            let _ = std::io::stdout().flush();
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        "hangflush" => {
            // A valid-looking prefix cut mid-record, flushed now...
            print!("ACCMOS:MODEL faultsim-hangflush\nACCMOS:TIME_");
            let _ = std::io::stdout().flush();
            // ...then hand the write end of stdout to a detached child
            // (inherited fd) that completes the protocol much later,
            // while this process hangs until the supervisor kills it.
            let _ = std::process::Command::new(&args[0]).arg("--lateflush").spawn();
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        "crash" => std::process::abort(),
        "segv" => {
            // Ask the system `kill` to deliver SIGSEGV to us; if that
            // fails (non-unix, no kill binary), abort still dies on a
            // signal, keeping the mode's contract of "signal death".
            let pid = std::process::id().to_string();
            let _ = std::process::Command::new("kill").args(["-SEGV", &pid]).status();
            std::thread::sleep(std::time::Duration::from_millis(200));
            std::process::abort();
        }
        "garbled" => {
            println!("ACCMOS:BOGUS this is not a valid record");
            println!("ACCMOS:END");
        }
        "truncate" => {
            println!("ACCMOS:MODEL faultsim-truncate");
            println!("ACCMOS:STEPS {steps}");
            print!("ACCMOS:DIG");
            let _ = std::io::stdout().flush();
        }
        "midexit" => {
            println!("ACCMOS:MODEL faultsim-midexit");
            println!("ACCMOS:STEPS {steps}");
        }
        "flaky" => {
            let state = format!("{}.state", args[0]);
            if !std::path::Path::new(&state).exists() {
                let _ = std::fs::write(&state, b"first run failed\n");
                eprintln!("faultsim: injected transient failure");
                std::process::exit(3);
            }
            ok_report(steps);
        }
        _ => ok_report(steps),
    }
}

/// Mode from the executable name (`faultsim-<mode>`), else
/// `FAULTSIM_MODE`, else `ok`.
fn mode_from(argv0: &str) -> String {
    let base = std::path::Path::new(argv0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("faultsim");
    if let Some(mode) = base.strip_prefix("faultsim-") {
        return mode.to_string();
    }
    std::env::var("FAULTSIM_MODE").unwrap_or_else(|_| "ok".to_string())
}

/// A minimal valid report: the digest depends only on `steps`, so a
/// retried run reproduces the same answer.
fn ok_report(steps: u64) {
    let digest = 0xFA_0175u64.wrapping_mul(steps.wrapping_add(1));
    println!("ACCMOS:MODEL faultsim");
    println!("ACCMOS:STEPS {steps}");
    println!("ACCMOS:TIME_NS 1000");
    println!("ACCMOS:DIGEST {digest:016x}");
    println!("ACCMOS:END");
}
