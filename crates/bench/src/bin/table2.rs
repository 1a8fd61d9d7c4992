//! Reproduces **Table 2**: simulation time of AccMoS vs SSE, SSE_ac and
//! SSE_rac on the ten benchmark models.
//!
//! The paper simulates 50 million steps; the default here is scaled down
//! (`--steps N` to change) because speedup ratios are the reproduction
//! target, not absolute seconds. Codegen+compile time is reported
//! separately, as the harness measures the simulation loop alone.

use accmos_bench::{
    arg_tracer, arg_u64, batch_table, check_flags, geo_mean, measure_model, write_trace,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flags = ["--steps", "--seed", "--jobs", "--dispatch-runs", "--trace-out"];
    check_flags(&args, &flags);
    let steps = arg_u64(&args, "--steps", 50_000);
    let seed = arg_u64(&args, "--seed", 2024);
    let workers = arg_u64(&args, "--jobs", 4) as usize;
    let tracer = arg_tracer(&args);

    println!("Table 2: Comparison of simulation time ({steps} steps per model)");
    println!(
        "{:<7} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8} | {:>7} {:>7} {:>6}",
        "Model", "AccMoS", "no-prune", "SSE", "SSE_ac", "SSE_rac", "x SSE", "x ac", "x rac",
        "gen(s)", "cc(s)", "pruned"
    );
    let (mut r_sse, mut r_ac, mut r_rac) = (Vec::new(), Vec::new(), Vec::new());
    let mut pruned_total = 0usize;
    for (name, _, _) in accmos_models::TABLE1 {
        let model = accmos_models::by_name(name);
        let start = tracer.as_ref().map(|t| t.now_us());
        let t = measure_model(&model, steps, seed);
        if let (Some(tr), Some(start)) = (&tracer, start) {
            tr.span("bench", &format!("table2 {name}"), start, tr.now_us() - start, 1);
        }
        println!(
            "{:<7} {:>8.3}s {:>8.3}s {:>8.3}s {:>8.3}s {:>8.3}s | {:>7.1}x {:>7.1}x {:>7.1}x | {:>7.2} {:>7.2} {:>6}",
            t.model,
            t.accmos.as_secs_f64(),
            t.accmos_unpruned.as_secs_f64(),
            t.sse.as_secs_f64(),
            t.sse_ac.as_secs_f64(),
            t.sse_rac.as_secs_f64(),
            t.speedup_sse(),
            t.speedup_ac(),
            t.speedup_rac(),
            t.codegen.as_secs_f64(),
            t.compile.as_secs_f64(),
            t.pruned_sites,
        );
        r_sse.push(t.speedup_sse());
        r_ac.push(t.speedup_ac());
        r_rac.push(t.speedup_rac());
        pruned_total += t.pruned_sites;
    }
    println!(
        "instrumentation pruning: {pruned_total} diagnosis site(s) proven dead and dropped \
         across the suite (AccMoS column = pruned build, no-prune = all checks emitted)"
    );
    println!(
        "geomean speedup: {:.1}x vs SSE, {:.1}x vs SSE_ac, {:.1}x vs SSE_rac",
        geo_mean(r_sse.iter().copied()),
        geo_mean(r_ac.iter().copied()),
        geo_mean(r_rac.iter().copied()),
    );
    println!("(paper, 50M steps on i7-13700F: 215.3x / 76.32x / 19.8x average)");

    // Batched AccMoS pass over the same suite: unique programs compile
    // once on a worker pool, and the build cache can satisfy repeats.
    // Cold and cached compile times are reported separately — the table
    // above stays paper-faithful (cache disabled), this section shows
    // what the batching/caching layer saves on top.
    let models: Vec<_> =
        accmos_models::TABLE1.iter().map(|(n, _, _)| accmos_models::by_name(n)).collect();
    let batch_start = tracer.as_ref().map(|t| t.now_us());
    let batch = batch_table(&models, steps, seed, workers);
    if let (Some(tr), Some(start)) = (&tracer, batch_start) {
        tr.span("bench", "table2 batch pass", start, tr.now_us() - start, 1);
    }
    let s = &batch.summary;
    println!();
    println!(
        "Batch pass (BatchRunner, {workers} worker(s)): {} job(s), {} unique program(s), wall {:.2?}",
        s.jobs, s.unique_programs, s.total_wall
    );
    println!(
        "  compile: {} cold in {:.2?}, {} cache hit(s) in {:.2?} (reported separately; cold = paper-faithful)",
        s.cold_compiles, s.cold_compile_time, s.cached_compiles, s.cached_compile_time
    );
    println!("  codegen {:.2?}, simulation {:.2?}, {} failure(s)", s.codegen_time, s.run_time, s.failures);
    println!(
        "  supervision: {} retry(ies), {} degraded job(s), {} quarantined binarie(s)",
        s.retries, s.degraded, s.quarantined
    );
    let kinds: Vec<String> = s
        .retry_kinds
        .iter()
        .enumerate()
        .filter(|(_, n)| **n > 0)
        .map(|(i, n)| format!("{} x{n}", accmos::FailureKind::label(i)))
        .collect();
    if kinds.is_empty() {
        println!("  retries by kind: none; backoff slept {:.2?}", s.backoff_sleep);
    } else {
        println!("  retries by kind: {}; backoff slept {:.2?}", kinds.join(", "), s.backoff_sleep);
    }
    // In-process dispatch column: what `accmos serve` saves per run once
    // the simulator is cached — the fixed spawn+pipe cost versus one
    // `dlopen` + `accmos_entry` call, measured on single-step runs where
    // dispatch dominates.
    #[cfg(unix)]
    {
        let runs = arg_u64(&args, "--dispatch-runs", 30) as u32;
        let model = accmos_models::by_name("SPV");
        let dispatch_start = tracer.as_ref().map(|t| t.now_us());
        let d = accmos_bench::measure_dispatch_overhead(&model, runs);
        if let (Some(tr), Some(start)) = (&tracer, dispatch_start) {
            tr.span("bench", "table2 dispatch overhead", start, tr.now_us() - start, 1);
        }
        println!();
        println!(
            "In-process dispatch (serve engine, cached {} simulator, {} runs of 1 step):",
            d.model, d.runs
        );
        println!(
            "  subprocess spawn+pipe {:.2?}/run, dylib accmos_entry {:.2?}/run ({:.1}x lower overhead)",
            d.subprocess_per_run(),
            d.dylib_per_run(),
            d.improvement(),
        );
    }
    write_trace(&args, &tracer);
}
