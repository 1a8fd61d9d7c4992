//! Structure of the chunked model system function: `Model_Exe` calls
//! `accmos_exe_0..k` in order and nothing else, and those chunks hold
//! every actor's block exactly once, in schedule order, at most 64 to a
//! chunk, with sizes that differ by at most one. Profiling sites keep
//! their schedule-order numbers across the cut.
//!
//! Together with the equality sweeps (`benchmarks_e2e`, `differential`,
//! `lane_differential`, `profile`), this is the check that chunking
//! moved only function boundaries.

use accmos_codegen::{generate, CodegenOptions};
use accmos_models::TABLE1;

/// Most actor blocks in one `accmos_exe_<k>` chunk.
const CHUNK_ACTORS: usize = 64;

/// The non-empty body lines, trimmed, of the C function whose
/// definition line is `header`; `None` if the file has no such function.
fn body<'a>(c: &'a str, header: &str) -> Option<Vec<&'a str>> {
    let rest = &c[c.find(header)? + header.len()..];
    let end = rest.find("\n}\n").expect("function is closed");
    Some(rest[..end].lines().map(str::trim).filter(|l| !l.is_empty()).collect())
}

fn check_build(model: &str, build: &str, opts: &CodegenOptions) {
    let ctx = format!("{model} {build}");
    let pre = accmos::preprocess(&accmos_models::by_name(model)).unwrap();
    let c = generate(&pre, opts).main_c;
    let blocks: Vec<String> = pre
        .flat
        .ordered_actors()
        .map(|a| format!("/* {} type actor \"{}\" */", a.kind.type_name(), a.path))
        .collect();

    let mut chunks: Vec<Vec<&str>> = Vec::new();
    while let Some(lines) = body(
        &c,
        &format!("static __attribute__((noinline)) void accmos_exe_{}(void) {{", chunks.len()),
    ) {
        chunks.push(lines);
    }
    let chunk_blocks: Vec<Vec<&str>> = chunks
        .iter()
        .map(|lines| lines.iter().copied().filter(|l| l.contains(" type actor \"")).collect())
        .collect();
    let sizes: Vec<usize> = chunk_blocks.iter().map(Vec::len).collect();
    assert_eq!(chunks.len(), blocks.len().div_ceil(CHUNK_ACTORS), "{ctx}: chunk count {sizes:?}");
    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
    assert!(*max <= CHUNK_ACTORS && max - min <= 1, "{ctx}: unbalanced chunks {sizes:?}");

    // The chunks hold every block in schedule order, and no block
    // appears anywhere else in the file.
    assert_eq!(chunk_blocks.concat(), blocks, "{ctx}: actor blocks in chunk order");
    for block in &blocks {
        assert_eq!(c.matches(block.as_str()).count(), 1, "{ctx}: `{block}`");
    }

    // Profiling sites are numbered in schedule order across chunks.
    if opts.profile {
        let sites: Vec<&str> = chunks
            .concat()
            .into_iter()
            .filter_map(|l| l.strip_prefix("accmos_prof_calls[")?.strip_suffix("]++;"))
            .collect();
        let want: Vec<String> = (0..blocks.len()).map(|s| s.to_string()).collect();
        assert_eq!(sites, want, "{ctx}: profile site numbers");
    }

    // Model_Exe keeps only the profiling sample line and the calls.
    let mut want: Vec<String> = Vec::new();
    if opts.profile {
        want.push("accmos_prof_on = (accmos_step % ACCMOS_PROF_PERIOD) == 0;".into());
    }
    want.extend((0..chunks.len()).map(|k| format!("accmos_exe_{k}();")));
    assert_eq!(body(&c, "static void Model_Exe(void) {").unwrap(), want, "{ctx}: Model_Exe");
}

#[test]
fn model_exe_is_balanced_schedule_order_chunks() {
    let builds = [
        ("scalar", CodegenOptions::accmos()),
        ("profiled", CodegenOptions::accmos().with_profile()),
        ("rapid", CodegenOptions::rapid_accelerator()),
    ];
    for (model, _, _) in TABLE1 {
        for (build, opts) in &builds {
            check_build(model, build, opts);
        }
    }
}
