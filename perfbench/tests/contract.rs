//! The benchmark against its published contract: `BENCHMARK.json` names
//! exactly the workloads and metrics the program defines, every workload
//! emits every named metric with no failed operation (smoke profile), and
//! malformed arguments are usage errors.

use accmos_perfbench::json::Json;
use accmos_perfbench::spec::{self, MetricDef, RunResult};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    doc.get(key)
        .expect(key)
        .arr()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::str).unwrap_or_default().to_string();
            (
                s("name"),
                s("unit"),
                s("better"),
                m.get("bound").and_then(Json::num),
            )
        })
        .collect()
}

fn defined(defs: Vec<MetricDef>) -> Vec<(String, String, String, Option<f64>)> {
    defs.into_iter()
        .map(|d| {
            (
                d.name,
                d.unit.to_string(),
                d.better.as_str().to_string(),
                d.bound,
            )
        })
        .collect()
}

#[test]
fn benchmark_json_mirrors_the_program() {
    let doc = benchmark_json();
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .unwrap()
        .arr()
        .iter()
        .map(|w| {
            let s = |k: &str| w.get(k).and_then(Json::str).unwrap().to_string();
            (s("name"), s("why"))
        })
        .collect();
    let expected: Vec<(String, String)> = spec::WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, expected);
    assert_eq!(listed(&doc, "end_to_end"), defined(spec::end_to_end()));
    assert_eq!(listed(&doc, "per_layer"), defined(spec::per_layer()));
}

fn run(args: &[&str]) -> (std::process::ExitStatus, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn smoke_profile_emits_every_named_metric_without_failures() {
    let doc = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names: Vec<String> = listed(&doc, key).into_iter().map(|m| m.0).collect();
        for (workload, _) in spec::WORKLOADS {
            let (status, stdout) = run(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert!(
                status.success(),
                "{workload} trace={trace}: {status}\n{stdout}"
            );
            let last = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
            let keys: Vec<&str> = last.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let mut labelled = vec![
                ("workload".to_string(), Json::Str(workload.to_string())),
                ("seed".to_string(), Json::Num(3.0)),
                ("trace".to_string(), Json::Bool(trace == "1")),
            ];
            labelled.extend(last.members().iter().cloned());
            let r = RunResult::from_json(&Json::Obj(labelled)).unwrap();
            assert!(
                r.correct && r.failed == 0 && r.attempted >= 1,
                "{workload}: {r:?}"
            );
            let emitted: Vec<String> = r.metrics.iter().map(|m| m.0.clone()).collect();
            assert_eq!(emitted, names, "{workload} trace={trace}");
        }
    }
}

#[test]
fn malformed_arguments_are_usage_errors() {
    for args in [
        &["--workload", "long_run", "--seed", "banana"][..],
        &["--workload", "nope"],
        &["--workload", "long_run", "--seconds", "0"],
        &["--workload", "long_run", "--trace", "2"],
        &["--workload"],
        &["--frobnicate"],
        &["compare", "only-one.jsonl"],
    ] {
        let (status, stdout) = run(args);
        assert_eq!(status.code(), Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed a result: {stdout}");
    }
}
