#!/usr/bin/env sh
# CI gate: release build, full test suite, fault-injection suite, static
# analyzer gate, sanitizer smoke test, benchmark-package build and tests,
# clippy over every target with warnings denied.
set -eu

cargo build --release
cargo build --release --bin faultsim
cargo test -q --workspace
# Fault-injection suites, run explicitly so a regression in supervision is
# named in the CI log (both also run as part of `cargo test --workspace`
# above). Every injected hang dies at a ~200 ms kill deadline, so this
# stays fast.
cargo test -q -p accmos-backend --test supervise
cargo test -q --test chaos
# Dylib equality sweep, named so a divergence between the in-process and
# subprocess engines is called out in the CI log (also part of `cargo
# test`). It runs as a native cargo test rather than under the sanitizer
# leg below because an ASan-instrumented .so cannot load into the
# uninstrumented host binary; the sanitizer leg still covers the
# entry-point code, since the generated main() routes through
# accmos_entry and the same emit path the dylib engine calls.
cargo test -q --test serve
# Chunking structure check, named so a build whose `Model_Exe` chunks
# lose, repeat or reorder an actor block, or exceed 64 blocks, is called
# out in the CI log (also part of `cargo test`). With the equality sweeps
# it shows that the cut moved only function boundaries.
cargo test -q --test chunking

# Static-analyzer gate: every Table 1 benchmark must produce well-formed
# JSON and zero error-severity findings (the lint catalogue's `error`
# rules flag guaranteed-wrong models; a benchmark tripping one is a bug
# in either the model or the analyzer). The suite-wide count of proven
# sites — diagnosis checks the analyzer proves can never fire — must
# stay at or above the established baseline (~170): a drop means the
# analyzer silently lost precision.
cargo build --release -p accmos --bin accmos
SITES=0
for m in CPUT CSEV FMTM LANS LEDLC RAC SPV TCP TWC UTPC; do
    n=$(./target/release/accmos analyze "bench:$m" --format json --deny error \
        | python3 -c "import json,sys; d=json.load(sys.stdin); print(d['prunable_checks'])") \
        || { echo "ci: accmos analyze failed on bench:$m" >&2; exit 1; }
    SITES=$((SITES + n))
done
[ "$SITES" -ge 170 ] \
    || { echo "ci: suite-wide proven sites dropped to $SITES (baseline >= 170)" >&2; exit 1; }
echo "ci: analyzer gate passed on all 10 benchmarks ($SITES proven prunable sites)"

# Removed-flag gate: generated C is the only compiled engine, every actor
# compiles from its template (the analyzer only prunes diagnosis checks),
# and the CLI rejects any flag its usage line does not list, so the flags
# of the removed generated-Rust backend and of the removed analyzer-driven
# rewrite of calculation code must fail loudly rather than be ignored.
for removed in "simulate assets/figure1.mdlx --steps 10 --engine rust" \
               "generate assets/figure1.mdlx --rust" \
               "generate bench:SPV --no-optimize" \
               "simulate bench:SPV --steps 10 --no-optimize" \
               "analyze bench:SPV --explain"; do
    # shellcheck disable=SC2086 # word-split the argument list on purpose
    if ./target/release/accmos $removed > /dev/null 2>&1; then
        echo "ci: 'accmos $removed' exited 0; expected a usage error" >&2; exit 1
    fi
done
echo "ci: removed Rust-backend and calculation-rewrite flags are rejected"
# The bench harnesses reject unknown flags too, so `table3`'s removed
# fused-segment coverage section cannot be asked for silently.
cargo build --release -p accmos-bench --bin table3
if ./target/release/table3 --fused-lanes 8 > /dev/null 2>&1; then
    echo "ci: 'table3 --fused-lanes 8' exited 0; expected a usage error" >&2; exit 1
fi
echo "ci: removed table3 flag is rejected"

# Sanitizer smoke test: compile generated Table 1 simulators with
# UBSan+ASan (no recovery, so any report aborts) and run a short
# simulation of each. Catches UB in the generated C that -O3 happens to
# tolerate. SPV has no conditional groups; CSEV has 11, and two of its
# three `Model_Exe` chunk boundaries fall inside a group.
SAN_DIR=$(mktemp -d)
trap 'rm -rf "$SAN_DIR"' EXIT
for m in SPV CSEV; do
    ./target/release/accmos generate "bench:$m" --out "$SAN_DIR/$m"
    ${CC:-cc} -O1 -g -fwrapv -std=gnu11 \
        -fsanitize=undefined,address -fno-sanitize-recover=all \
        "$SAN_DIR/$m/$m.c" -o "$SAN_DIR/$m/san" -lm
    "$SAN_DIR/$m/san" 5000 > "$SAN_DIR/$m/san_out.txt" \
        || { echo "ci: sanitizer run failed on $m" >&2; exit 1; }
    grep -q "ACCMOS:END" "$SAN_DIR/$m/san_out.txt" \
        || { echo "ci: sanitized $m simulator produced no protocol output" >&2; exit 1; }
done
echo "ci: sanitizer smoke test passed (SPV and CSEV, 5000 steps, UBSan+ASan clean)"

# Run-ledger + trend gate: two batches into one fresh cache dir must both
# append schema-versioned ledger records, and the trend check must pass
# over that history (the huge threshold keeps timing noise out of CI; the
# gate exercises the ledger/trends plumbing, not machine speed).
LEDGER_DIR=$(mktemp -d)
trap 'rm -rf "$SAN_DIR" "$LEDGER_DIR"' EXIT
ACCMOS_CACHE_DIR="$LEDGER_DIR" ./target/release/accmos batch bench:SPV bench:TWC --steps 500 --repeat 2 > /dev/null \
    || { echo "ci: first ledger batch failed" >&2; exit 1; }
COUNT1=$(wc -l < "$LEDGER_DIR/ledger.jsonl")
[ "$COUNT1" -ge 4 ] || { echo "ci: first batch appended $COUNT1 ledger record(s), expected >= 4" >&2; exit 1; }
ACCMOS_CACHE_DIR="$LEDGER_DIR" ./target/release/accmos batch bench:SPV bench:TWC --steps 500 --repeat 2 > /dev/null \
    || { echo "ci: second ledger batch failed" >&2; exit 1; }
COUNT2=$(wc -l < "$LEDGER_DIR/ledger.jsonl")
[ "$COUNT2" -gt "$COUNT1" ] || { echo "ci: second batch did not grow the ledger ($COUNT1 -> $COUNT2)" >&2; exit 1; }
ACCMOS_CACHE_DIR="$LEDGER_DIR" ./target/release/accmos trends --check --max-regress 10000 \
    || { echo "ci: trend gate failed" >&2; exit 1; }
echo "ci: run ledger grew $COUNT1 -> $COUNT2 record(s) across two batches; trend gate passed"

# Optimization-level gate: in a fresh cache a short run builds at -O1 (no
# cache hit), a run of O3_BUDGET steps builds at -O3, and a second short
# run takes that -O3 build from the cache instead of its own -O1 one. The
# ledger records the level that served each run.
LEVEL_DIR=$(mktemp -d)
trap 'rm -rf "$SAN_DIR" "$LEDGER_DIR" "$LEVEL_DIR"' EXIT
for steps in 5000 1000000 5000; do
    ACCMOS_CACHE_DIR="$LEVEL_DIR" ./target/release/accmos simulate bench:SPV --steps $steps > /dev/null \
        || { echo "ci: level-gate run of $steps steps failed" >&2; exit 1; }
done
python3 - "$LEVEL_DIR/ledger.jsonl" <<'EOF' \
    || { echo "ci: the ledger does not show O1, O3, then a cached O3" >&2; exit 1; }
import json, sys
records = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
got = [(r["steps"], r.get("opt"), r["compile_cached"]) for r in records]
assert got == [(5000, "O1", False), (1000000, "O3", False), (5000, "O3", True)], got
EOF
echo "ci: level gate passed (5000 steps at O1, 1000000 at O3, then 5000 from the cached O3 build)"

# Lane-parallel gates: (1) the per-lane digests of one lane-4 run must
# equal four scalar runs over the same seeded stimuli — the
# structure-of-arrays codegen may never change simulation results; (2) a
# lane-8 simulator must be UBSan+ASan clean; (3) a ledger mixing scalar
# and lane runs must pass the trend gate with the two engine keys
# (`accmos` / `accmos@4`) baselined apart.
LANE_DIR=$(mktemp -d)
trap 'rm -rf "$SAN_DIR" "$LEDGER_DIR" "$LEVEL_DIR" "$LANE_DIR"' EXIT
ACCMOS_CACHE_DIR="$LANE_DIR" ./target/release/accmos simulate bench:TWC --steps 2000 --seed 77 --lanes 4 > "$LANE_DIR/lane_out.txt" \
    || { echo "ci: lane-4 simulate failed" >&2; exit 1; }
for i in 0 1 2 3; do
    lane=$(sed -n "s/^  lane $i: digest \([0-9a-f]*\),.*/\1/p" "$LANE_DIR/lane_out.txt")
    scalar=$(ACCMOS_CACHE_DIR="$LANE_DIR" ./target/release/accmos simulate bench:TWC --steps 2000 --seed $((77 + i)) \
        | sed -n 's/^  digest: \([0-9a-f]*\)$/\1/p')
    [ -n "$lane" ] && [ "$lane" = "$scalar" ] \
        || { echo "ci: lane $i digest '$lane' != scalar digest '$scalar'" >&2; exit 1; }
done
echo "ci: lane-4 digests match scalar runs (TWC, 2000 steps)"

./target/release/accmos generate bench:SPV --lanes 8 --out "$LANE_DIR"
${CC:-cc} -O1 -g -fwrapv -std=gnu11 \
    -fsanitize=undefined,address -fno-sanitize-recover=all \
    "$LANE_DIR"/SPV.c -o "$LANE_DIR"/spv_lane_san -lm
"$LANE_DIR"/spv_lane_san 2000 > "$LANE_DIR"/lane_san_out.txt \
    || { echo "ci: lane-8 sanitizer run failed" >&2; exit 1; }
grep -q "ACCMOS:LANES 8" "$LANE_DIR"/lane_san_out.txt \
    || { echo "ci: sanitized lane simulator did not report 8 lanes" >&2; exit 1; }
echo "ci: lane-8 sanitizer smoke test passed (SPV, 2000 steps, UBSan+ASan clean)"

ACCMOS_CACHE_DIR="$LANE_DIR" ./target/release/accmos trends --check --max-regress 10000 \
    || { echo "ci: mixed scalar+lane trend gate failed" >&2; exit 1; }
ACCMOS_CACHE_DIR="$LANE_DIR" ./target/release/accmos trends | grep -q "accmos@4" \
    || { echo "ci: trends does not surface the lane engine key" >&2; exit 1; }
echo "ci: mixed scalar+lane ledger passed the trend gate"

# Differential-fuzz gate: a short deterministic campaign (fixed seed, 50
# trials — the planner mixes in lane-4, conditional-group and pinned -O3
# trials, and the `plan mix` line proves it) must complete with zero
# divergences and zero unclassified failures; a second `--resume` run
# over the same state
# must skip every completed trial. The corpus replay suite pins every
# previously-minimized divergence (it also runs under `cargo test`; named
# here so a re-fired repro is called out in the CI log).
cargo test -q --test corpus
FUZZ_DIR=$(mktemp -d)
trap 'rm -rf "$SAN_DIR" "$LEDGER_DIR" "$LEVEL_DIR" "$LANE_DIR" "$FUZZ_DIR"' EXIT
./target/release/accmos fuzz --trials 50 --seed 1 --cache-dir "$FUZZ_DIR" \
    > "$FUZZ_DIR/fuzz_out.txt" \
    || { cat "$FUZZ_DIR/fuzz_out.txt" >&2; echo "ci: fuzz campaign failed" >&2; exit 1; }
grep -q "ok 50, divergences 0, classified failures 0, injected 0, unclassified 0" \
    "$FUZZ_DIR/fuzz_out.txt" \
    || { cat "$FUZZ_DIR/fuzz_out.txt" >&2; echo "ci: fuzz campaign not fully clean" >&2; exit 1; }
MIX=$(sed -n 's/^  plan mix: //p' "$FUZZ_DIR/fuzz_out.txt")
case "$MIX" in
    0\ lane-4*|*" 0 conditional"*|*" 0 -O3"|*nested)
        echo "ci: fuzz plan mix missing a feature: $MIX" >&2; exit 1 ;;
esac
./target/release/accmos fuzz --trials 50 --seed 1 --cache-dir "$FUZZ_DIR" --resume \
    > "$FUZZ_DIR/resume_out.txt" \
    || { cat "$FUZZ_DIR/resume_out.txt" >&2; echo "ci: fuzz resume failed" >&2; exit 1; }
grep -q "50 planned, 0 executed, 50 resumed-skip" "$FUZZ_DIR/resume_out.txt" \
    || { cat "$FUZZ_DIR/resume_out.txt" >&2; echo "ci: resume did not skip completed trials" >&2; exit 1; }
echo "ci: fuzz gate passed (50 trials clean, mix: $MIX, resume skipped all 50)"

# Sanitize a sample of fuzz-generated models: the same random models the
# campaign exercises, compiled with UBSan+ASan (scalar and lane-4 shapes)
# and run for a short simulation. Catches UB in generated C that the
# digest comparison alone cannot see.
for spec in "3:" "9:--lanes 4"; do
    seed=${spec%%:*}; lanes=${spec#*:}
    GEN_DIR="$FUZZ_DIR/gen$seed"
    ./target/release/accmos generate "rand:$seed" $lanes --out "$GEN_DIR" > /dev/null \
        || { echo "ci: generate rand:$seed failed" >&2; exit 1; }
    ${CC:-cc} -O1 -g -fwrapv -std=gnu11 \
        -fsanitize=undefined,address -fno-sanitize-recover=all \
        "$GEN_DIR"/Rand*.c -o "$GEN_DIR/rand_san" -lm
    "$GEN_DIR/rand_san" 500 > "$GEN_DIR/san_out.txt" \
        || { echo "ci: sanitized rand:$seed run failed" >&2; exit 1; }
    grep -q "ACCMOS:END" "$GEN_DIR/san_out.txt" \
        || { echo "ci: sanitized rand:$seed produced no protocol output" >&2; exit 1; }
done
echo "ci: fuzz-model sanitizer smoke test passed (rand:3 scalar, rand:9 lane-4)"

# Analyzer gate over fuzz-generated models: the same two random models
# must analyze clean at error severity — the lint catalogue's `error`
# rules may never fire on generator output (the generator only builds
# well-formed models; an error finding means an analyzer false positive
# or a generator bug).
for seed in 3 9; do
    ./target/release/accmos analyze "rand:$seed" --format json --deny error \
        | python3 -c "import json,sys; json.load(sys.stdin)" \
        || { echo "ci: accmos analyze failed on rand:$seed" >&2; exit 1; }
done
echo "ci: analyzer gate passed on rand:3 and rand:9"

# Observability gate: a profiled run must (1) be digest-identical to the
# unprofiled run of the same model/stimuli — the self-profiling
# instrumentation may never perturb simulation results; (2) produce a
# ranked hot-site report naming a real actor; (3) write a well-formed
# Chrome trace-event JSON containing pipeline, supervisor and per-actor
# profile spans.
PROF_DIR=$(mktemp -d)
trap 'rm -rf "$SAN_DIR" "$LEDGER_DIR" "$LEVEL_DIR" "$LANE_DIR" "$FUZZ_DIR" "$PROF_DIR"' EXIT
PLAIN=$(ACCMOS_CACHE_DIR="$PROF_DIR" ./target/release/accmos simulate bench:CSEV --steps 5000 --seed 11 \
    | sed -n 's/^  digest: \([0-9a-f]*\)$/\1/p')
PROFILED=$(ACCMOS_CACHE_DIR="$PROF_DIR" ./target/release/accmos simulate bench:CSEV --steps 5000 --seed 11 --profile \
    | sed -n 's/^  digest: \([0-9a-f]*\)$/\1/p')
[ -n "$PLAIN" ] && [ "$PLAIN" = "$PROFILED" ] \
    || { echo "ci: profiled digest '$PROFILED' != plain digest '$PLAIN'" >&2; exit 1; }
ACCMOS_CACHE_DIR="$PROF_DIR" ./target/release/accmos profile bench:CSEV --steps 5000 --seed 11 \
    --trace-out "$PROF_DIR/trace.json" > "$PROF_DIR/prof_out.txt" \
    || { cat "$PROF_DIR/prof_out.txt" >&2; echo "ci: accmos profile failed" >&2; exit 1; }
grep -q "CSEV_" "$PROF_DIR/prof_out.txt" \
    || { echo "ci: profile report names no CSEV actor site" >&2; exit 1; }
python3 - "$PROF_DIR/trace.json" <<'EOF' \
    || { echo "ci: trace JSON validation failed" >&2; exit 1; }
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
cats = {e["cat"] for e in events}
missing = {"pipeline", "supervisor", "actor"} - cats
assert not missing, f"trace missing span categories: {missing}"
assert any(e["name"] == "run" for e in events), "no pipeline run span"
assert all(e["ph"] == "X" for e in events), "non-complete event in trace"
EOF
echo "ci: observability gate passed (profiled digest identical, trace has pipeline/supervisor/actor spans)"

# Serve smoke gate: start the daemon, stream 9 jobs through it — six
# trusted bench jobs on the in-process dylib engine, a repeat of one of
# them that must run from the daemon's memo (no planning, no build), one
# untrusted rand: job on the flagged subprocess path, and one
# fault-injected job (the rand: job's cached executable swapped for a
# crashing faultsim copy) that must classify as failed without taking the
# daemon down — then assert ledger growth, the persistent job journal,
# and a clean shutdown that removes the socket.
SERVE_DIR=$(mktemp -d)
trap 'rm -rf "$SAN_DIR" "$LEDGER_DIR" "$LEVEL_DIR" "$LANE_DIR" "$FUZZ_DIR" "$PROF_DIR" "$SERVE_DIR"; kill "${SERVE_PID:-}" 2>/dev/null || true' EXIT
SOCK="$SERVE_DIR/accmos.sock"
FAULTSIM_MODE=crash ./target/release/accmos serve --socket "$SOCK" --cache-dir "$SERVE_DIR" \
    --workers 2 --exec-timeout 2000 --retries 1 > "$SERVE_DIR/serve_log.txt" 2>&1 &
SERVE_PID=$!
i=0
until ./target/release/accmos submit --ping --socket "$SOCK" > /dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { cat "$SERVE_DIR/serve_log.txt" >&2; echo "ci: serve daemon never came up" >&2; exit 1; }
    sleep 0.2
done
: > "$SERVE_DIR/submit_out.txt"
for job in "bench:SPV 500" "bench:TWC 500 --lanes 4" "bench:RAC 500" \
           "bench:CPUT 500 --seed 9" "bench:LANS 500" "bench:CSEV 500 --lanes 2"; do
    ./target/release/accmos submit $job --socket "$SOCK" >> "$SERVE_DIR/submit_out.txt" \
        || { cat "$SERVE_DIR/submit_out.txt" "$SERVE_DIR/serve_log.txt" >&2; echo "ci: serve job '$job' failed" >&2; exit 1; }
done
[ "$(grep -c "outcome=ok engine=accmos-dylib" "$SERVE_DIR/submit_out.txt")" -eq 6 ] \
    || { cat "$SERVE_DIR/submit_out.txt" >&2; echo "ci: expected 6 in-process dylib results" >&2; exit 1; }
# Warm path: SPV again, so its plan and shared object come from the memo
# and its ledger record shows a cached build and no code generation.
./target/release/accmos submit bench:SPV 500 --seed 9 --socket "$SOCK" > "$SERVE_DIR/warm_out.txt" \
    || { cat "$SERVE_DIR/warm_out.txt" "$SERVE_DIR/serve_log.txt" >&2; echo "ci: warm serve job failed" >&2; exit 1; }
grep -q "outcome=ok engine=accmos-dylib" "$SERVE_DIR/warm_out.txt" \
    || { cat "$SERVE_DIR/warm_out.txt" >&2; echo "ci: warm serve job did not run in process" >&2; exit 1; }
python3 - "$SERVE_DIR/ledger.jsonl" <<'EOF' \
    || { echo "ci: warm SPV job did not run from the memo" >&2; exit 1; }
import json, sys
records = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
spv = [r for r in records if r["source"] == "serve" and r["model"] == "SPV"][-1]
assert spv["compile_cached"] is True and spv["codegen_us"] == 0, spv
EOF
./target/release/accmos submit rand:5 300 --socket "$SOCK" >> "$SERVE_DIR/submit_out.txt" \
    || { cat "$SERVE_DIR/submit_out.txt" >&2; echo "ci: untrusted rand: job failed" >&2; exit 1; }
grep -q "outcome=degraded" "$SERVE_DIR/submit_out.txt" \
    || { cat "$SERVE_DIR/submit_out.txt" >&2; echo "ci: rand: job did not take the flagged subprocess path" >&2; exit 1; }
# Fault injection: only untrusted jobs build the cached *executable*
# (trusted jobs build only the .so), so every `sim` file in the cache
# belongs to the rand:5 job just run; swap them for faultsim and the
# resubmitted job must fail cleanly.
find "$SERVE_DIR" -name sim -type f | grep -q . \
    || { echo "ci: no cached subprocess executable to fault-inject" >&2; exit 1; }
find "$SERVE_DIR" -name sim -type f -exec cp ./target/release/faultsim {} \;
if ./target/release/accmos submit rand:5 300 --socket "$SOCK" >> "$SERVE_DIR/submit_out.txt" 2>&1; then
    cat "$SERVE_DIR/submit_out.txt" >&2; echo "ci: fault-injected serve job did not fail" >&2; exit 1
fi
./target/release/accmos submit --ping --socket "$SOCK" > /dev/null \
    || { echo "ci: daemon did not survive the fault-injected job" >&2; exit 1; }
# An oversized submit must be refused with an error, never journaled, and
# must leave the daemon up (its stimulus would not fit in memory).
if ./target/release/accmos submit bench:SPV 10 --rows 1000000000000 --socket "$SOCK" \
    >> "$SERVE_DIR/submit_out.txt" 2>&1; then
    cat "$SERVE_DIR/submit_out.txt" >&2; echo "ci: oversized serve job was accepted" >&2; exit 1
fi
./target/release/accmos submit --ping --socket "$SOCK" > /dev/null \
    || { cat "$SERVE_DIR/serve_log.txt" >&2; echo "ci: daemon did not survive the oversized submit" >&2; exit 1; }
COUNT=$(wc -l < "$SERVE_DIR/ledger.jsonl")
[ "$COUNT" -ge 9 ] || { echo "ci: serve ledger has $COUNT record(s), expected >= 9" >&2; exit 1; }
JOBS=$(wc -l < "$SERVE_DIR/jobs.jsonl")
[ "$JOBS" -ge 18 ] || { echo "ci: jobs journal has $JOBS record(s), expected >= 18 (9 queued + 9 done)" >&2; exit 1; }
./target/release/accmos submit --shutdown --socket "$SOCK" | grep -q "shutting down" \
    || { echo "ci: shutdown handshake failed" >&2; exit 1; }
i=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { echo "ci: serve daemon did not exit after shutdown" >&2; kill -9 "$SERVE_PID"; exit 1; }
    sleep 0.2
done
[ ! -e "$SOCK" ] || { echo "ci: daemon left its socket behind" >&2; exit 1; }
echo "ci: serve gate passed (6 dylib jobs, 1 warm memo hit, 1 subprocess-isolated, 1 fault-injected failure, 1 oversized submit refused; ledger $COUNT, journal $JOBS, clean shutdown)"

# Benchmark package gate: perfbench/ is its own workspace, so a public-API
# change in crates/ could break it without the legs above noticing.
cargo build --release --manifest-path perfbench/Cargo.toml
cargo test -q --manifest-path perfbench/Cargo.toml

cargo clippy --workspace --all-targets -- -D warnings
