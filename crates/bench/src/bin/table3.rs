//! Reproduces **Table 3**: coverage achieved by AccMoS and SSE within
//! equal wall-clock budgets, on random test cases.
//!
//! The paper budgets 5 s / 15 s / 60 s; the defaults here are scaled to
//! 0.2 s / 0.6 s / 2.4 s (`--scale-ms N` sets the base budget in ms) —
//! the comparison shape (AccMoS covering more per unit time, both
//! saturating) is the target.
//!
//! `--lanes N` (N >= 2) appends the lane-parallel experiment: the same
//! N-vector workload run as N sequential scalar simulations and as one
//! lane-N simulation, with the measured wall-clock speedup per model.
//! Both configurations land in the run ledger under distinct lane keys
//! (`accmos` vs `accmos@N`), so `accmos trends` baselines them apart.

use accmos_bench::{
    arg_tracer, arg_u64, check_flags, coverage_row, coverage_within_budget, geo_mean,
    measure_lane_speedup, record_lane_run, record_run, write_trace,
};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_flags(&args, &["--scale-ms", "--seed", "--lanes", "--trace-out"]);
    let base_ms = arg_u64(&args, "--scale-ms", 200);
    let seed = arg_u64(&args, "--seed", 2024);
    let lanes = arg_u64(&args, "--lanes", 0) as usize;
    let tracer = arg_tracer(&args);
    let budgets = [base_ms, base_ms * 3, base_ms * 12];

    println!("Table 3: Coverage of AccMoS and SSE (budgets {budgets:?} ms)");
    println!(
        "{:<7} {:>7} | {:>7} {:>7} | {:>7} {:>7} | {:>7} {:>7} | {:>7} {:>7}",
        "Model", "ms", "Act A", "Act S", "Cond A", "Cond S", "Dec A", "Dec S", "MCDC A", "MCDC S"
    );
    let mut accmos_steps_per_ms = Vec::new();
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
            accmos_steps_per_ms.push((name, ms, acc.steps));
            let a = coverage_row(&acc);
            let s = coverage_row(&sse);
            println!(
                "{:<7} {:>7} | {:>6.0}% {:>6.0}% | {:>6.0}% {:>6.0}% | {:>6.0}% {:>6.0}% | {:>6.0}% {:>6.0}%",
                name, ms, a[0], s[0], a[1], s[1], a[2], s[2], a[3], s[3]
            );
        }
    }
    println!("(A = AccMoS, S = SSE; paper Table 3 uses 5/15/60 s budgets)");

    if lanes >= 2 {
        // The lane experiment answers: given the base coverage budget,
        // is it cheaper to spend it on N independent vectors via N
        // scalar launches or via one lane-N launch? So split the steps
        // the base budget bought across the lanes — same total wall
        // budget, same per-vector work on both sides.
        println!();
        println!("Lane-parallel throughput: {lanes} scalar runs vs one lane-{lanes} run");
        println!(
            "{:<7} {:>10} | {:>11} {:>11} | {:>8}",
            "Model", "steps", "scalar", "lane", "speedup"
        );
        let mut speedups = Vec::new();
        for (name, _, _) in accmos_models::TABLE1 {
            let model = accmos_models::by_name(name);
            let steps = accmos_steps_per_ms
                .iter()
                .find(|(n, ms, _)| *n == name && *ms == base_ms)
                .map(|(_, _, s)| (*s / lanes as u64).max(1000))
                .unwrap_or(10_000);
            let start = tracer.as_ref().map(|t| t.now_us());
            let m = measure_lane_speedup(&model, steps, seed, lanes);
            if let (Some(tr), Some(start)) = (&tracer, start) {
                tr.span("bench", &format!("table3 lane-{lanes} {name}"), start, tr.now_us() - start, 1);
            }
            record_lane_run("table3-lane", name, "accmos", m.steps * lanes as u64, m.scalar_wall, 1);
            record_lane_run("table3-lane", name, "accmos", m.steps, m.lane_wall, lanes as u64);
            println!(
                "{:<7} {:>10} | {:>11.2?} {:>11.2?} | {:>7.2}x",
                name, m.steps, m.scalar_wall, m.lane_wall, m.speedup()
            );
            speedups.push(m.speedup());
        }
        println!(
            "geomean lane-{lanes} speedup: {:.2}x (same total work, per-lane digests verified)",
            geo_mean(speedups)
        );
    }
    write_trace(&args, &tracer);
}
