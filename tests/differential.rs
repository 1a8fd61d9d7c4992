//! Differential testing: the interpretive reference engine and the
//! generated C simulator must produce bit-identical results on integer
//! models — output digests, final outputs, all four coverage metrics and
//! every diagnostic event.
//!
//! This is the strongest correctness argument the reproduction has: two
//! independent implementations of the actor semantics (one in Rust, one
//! emitted as C and compiled by GCC) are driven with boundary-biased
//! random models and stimuli and compared exactly.

use accmos::{AccMoS, NormalEngine, RunOptions, SimOptions};
use accmos::Engine as _;
use accmos_ir::{CoverageBitmaps, OutputDigest, TestVectors};
use accmos_testgen::{random_tests, ModelGenConfig, RandomModelGen};

fn check_seed(seed: u64, actors: usize, steps: u64) {
    let model = RandomModelGen::new(ModelGenConfig {
        seed,
        actors,
        ..ModelGenConfig::default()
    })
    .generate();
    let pre = accmos::preprocess(&model).unwrap();
    let tests = random_tests(&pre, 16, seed.wrapping_mul(7919));

    let interp = NormalEngine::new().run(&pre, &tests, &SimOptions::steps(steps));

    let sim = AccMoS::new().prepare(&model).unwrap_or_else(|e| {
        let program = AccMoS::new().generate(&model).unwrap();
        panic!("seed {seed}: compile failed: {e}\n{}", program.main_c);
    });
    let compiled = sim.run(steps, &tests, &RunOptions::default()).unwrap();
    sim.clean();

    assert_eq!(
        interp.output_digest, compiled.output_digest,
        "seed {seed}: digest mismatch\ninterp: {interp}\ncompiled: {compiled}\n--- generated C ---\n{}",
        sim.program().main_c
    );
    assert_eq!(interp.output_bits(), compiled.output_bits(), "seed {seed}: final outputs");
    assert_eq!(interp.steps, compiled.steps, "seed {seed}: step counts");

    assert!(interp.coverage.is_some(), "seed {seed}: interp coverage");
    assert_eq!(interp.coverage, compiled.coverage, "seed {seed}: coverage bitmaps");

    assert_eq!(
        interp.diagnostics, compiled.diagnostics,
        "seed {seed}: diagnostics mismatch"
    );
}

#[test]
fn random_integer_models_match_bit_for_bit() {
    // 12 seeds at 28 actors, plus a 26-actor set (seeds 700..704).
    for (seed, actors) in (0..12).map(|s| (s, 28)).chain((700..704).map(|s| (s, 26))) {
        check_seed(seed, actors, 64);
    }
}

#[test]
fn larger_random_models_match() {
    for seed in 100..104 {
        check_seed(seed, 80, 48);
    }
}

#[test]
fn long_runs_accumulate_identically() {
    // Longer horizons let integrators wrap and delays cycle many times.
    for seed in 200..203 {
        check_seed(seed, 24, 2000);
    }
}

/// The interpreter against a lane-`lanes` run (1 = scalar) of one
/// generated model. Lane `i` runs its own stimulus and must match an
/// interpreter run of it on digest, final outputs and diagnostics; a
/// lane run's aggregate digest must be the FNV fold of the lane
/// digests. The run's coverage must be the union of the lanes' bitmaps.
/// Returns the model's actor count.
fn check_config(cfg: ModelGenConfig, steps: u64, lanes: usize) -> usize {
    let seed = cfg.seed;
    let model = RandomModelGen::new(cfg).generate();
    let pre = accmos::preprocess(&model).unwrap();
    let stimuli: Vec<TestVectors> = (0..lanes as u64)
        .map(|lane| random_tests(&pre, 16, seed.wrapping_mul(31).wrapping_add(lane)))
        .collect();

    let pipeline = AccMoS::new();
    let sim = pipeline.prepare(&model).unwrap_or_else(|e| {
        let program = pipeline.generate(&model).unwrap();
        panic!("seed {seed}: compile failed: {e}\n{}", program.main_c);
    });
    let opts = RunOptions { lane_tests: stimuli[1..].to_vec(), ..RunOptions::default() };
    let compiled = sim.run(steps, &stimuli[0], &opts).unwrap();
    sim.clean();

    let mut digest = OutputDigest::new();
    let mut union: Option<CoverageBitmaps> = None;
    for (lane, tests) in stimuli.iter().enumerate() {
        let ctx = format!("seed {seed} lanes {lanes} lane {lane}");
        let interp = NormalEngine::new().run(&pre, tests, &SimOptions::steps(steps));
        let bitmaps = interp.coverage.clone().unwrap();
        let got = if lanes == 1 { &compiled } else { &compiled.lane_reports[lane] };
        assert_eq!(
            interp.output_digest, got.output_digest,
            "{ctx}: digest mismatch\ninterp: {interp}\ncompiled: {got}\n--- generated C ---\n{}",
            sim.program().main_c
        );
        assert_eq!(interp.output_bits(), got.output_bits(), "{ctx}: final outputs");
        assert_eq!(interp.diagnostics, got.diagnostics, "{ctx}: diagnostics");
        digest.write_u64(interp.output_digest);
        match &mut union {
            Some(u) => u.merge(&bitmaps),
            None => union = Some(bitmaps),
        }
    }
    if lanes > 1 {
        assert_eq!(compiled.output_digest, digest.finish(), "seed {seed}: aggregate digest");
    }
    assert_eq!(compiled.coverage, union, "seed {seed} lanes {lanes}: coverage bitmaps");
    pre.flat.ordered_actors().count()
}

/// Float math evaluates through the same glibc libm in both paths, so
/// even transcendental pipelines must digest identically.
#[test]
fn float_models_match_bit_for_bit() {
    for seed in 300..308 {
        check_config(
            ModelGenConfig { seed, actors: 30, float_math: true, ..ModelGenConfig::default() },
            64,
            1,
        );
    }
}

/// Vector signals: mux/demux/selector/dot-product and element-wise loops.
#[test]
fn vector_models_match_bit_for_bit() {
    for seed in 400..408 {
        check_config(
            ModelGenConfig { seed, actors: 32, vectors: true, ..ModelGenConfig::default() },
            64,
            1,
        );
    }
}

/// Float math and vectors together: three-inport 48-actor models, plus
/// a single-inport 36-actor set (seeds 800..803).
#[test]
fn mixed_models_match_bit_for_bit() {
    let wide = (500..506).map(|seed| (seed, 48, 3));
    let narrow = (800..803).map(|seed| (seed, 36, ModelGenConfig::default().inports));
    for (seed, actors, inports) in wide.chain(narrow) {
        check_config(
            ModelGenConfig {
                seed,
                actors,
                float_math: true,
                vectors: true,
                inports,
                ..ModelGenConfig::default()
            },
            128,
            1,
        );
    }
}

/// Conditional groups: Enabled/Triggered subsystems with held state and
/// randomly-typed control signals — the gating and edge-detection
/// semantics must agree between the interpreter and the generated C.
#[test]
fn conditional_group_models_match_bit_for_bit() {
    for seed in 600..608 {
        check_config(
            ModelGenConfig { seed, actors: 32, conditional: true, ..ModelGenConfig::default() },
            96,
            1,
        );
    }
}

/// Nested conditional groups chain parent gating; a child may only run
/// while every ancestor is active.
#[test]
fn nested_group_models_match_bit_for_bit() {
    for seed in 700..708 {
        check_config(
            ModelGenConfig {
                seed,
                actors: 40,
                conditional: true,
                nested: true,
                inports: 3,
                ..ModelGenConfig::default()
            },
            96,
            1,
        );
    }
}


/// Conditional and nested groups, float math and vector state straddle
/// `Model_Exe` chunk boundaries: each model has more than 128 actors, so
/// at least three 64-actor chunks. The fuzz models `rand:1`…`rand:8`
/// flatten to 11–41 actors and never build a second chunk.
#[test]
fn models_spanning_several_chunks_match_bit_for_bit() {
    let nested = |seed| ModelGenConfig {
        seed,
        actors: 150,
        conditional: true,
        nested: true,
        inports: 3,
        ..ModelGenConfig::default()
    };
    let mixed = ModelGenConfig { float_math: true, vectors: true, ..nested(903) };
    for cfg in [nested(900), nested(901), nested(902), mixed] {
        for lanes in [1, 4] {
            let actors = check_config(cfg.clone(), 96, lanes);
            assert!(actors > 128, "seed {}: {actors} actors fill fewer than 3 chunks", cfg.seed);
        }
    }
}
