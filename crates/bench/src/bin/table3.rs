//! Reproduces **Table 3**: coverage achieved by AccMoS and SSE within
//! equal wall-clock budgets, on random test cases.
//!
//! The paper budgets 5 s / 15 s / 60 s; the defaults here are scaled to
//! 0.2 s / 0.6 s / 2.4 s (`--scale-ms N` sets the base budget in ms) —
//! the comparison shape (AccMoS covering more per unit time, both
//! saturating) is the target.

use accmos_bench::{
    arg_tracer, arg_u64, check_flags, coverage_row, coverage_within_budget, record_run,
    write_trace,
};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_flags(&args, &["--scale-ms", "--seed", "--trace-out"]);
    let base_ms = arg_u64(&args, "--scale-ms", 200);
    let seed = arg_u64(&args, "--seed", 2024);
    let tracer = arg_tracer(&args);
    let budgets = [base_ms, base_ms * 3, base_ms * 12];

    println!("Table 3: Coverage of AccMoS and SSE (budgets {budgets:?} ms)");
    println!(
        "{:<7} {:>7} | {:>7} {:>7} | {:>7} {:>7} | {:>7} {:>7} | {:>7} {:>7}",
        "Model", "ms", "Act A", "Act S", "Cond A", "Cond S", "Dec A", "Dec S", "MCDC A", "MCDC S"
    );
    for (name, _, _) in accmos_models::TABLE1 {
        let model = accmos_models::by_name(name);
        for ms in budgets {
            let start = tracer.as_ref().map(|t| t.now_us());
            let (acc, sse) =
                coverage_within_budget(&model, Duration::from_millis(ms), seed);
            if let (Some(tr), Some(start)) = (&tracer, start) {
                tr.span("bench", &format!("table3 {name} {ms}ms"), start, tr.now_us() - start, 1);
            }
            record_run("table3", name, &acc.engine, acc.steps, acc.wall);
            record_run("table3", name, &sse.engine, sse.steps, sse.wall);
            let a = coverage_row(&acc);
            let s = coverage_row(&sse);
            println!(
                "{:<7} {:>7} | {:>6.0}% {:>6.0}% | {:>6.0}% {:>6.0}% | {:>6.0}% {:>6.0}% | {:>6.0}% {:>6.0}%",
                name, ms, a[0], s[0], a[1], s[1], a[2], s[2], a[3], s[3]
            );
        }
    }
    println!("(A = AccMoS, S = SSE; paper Table 3 uses 5/15/60 s budgets)");

    write_trace(&args, &tracer);
}
