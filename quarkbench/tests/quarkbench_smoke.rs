//! Runs every workload at 1 % size through the real binary and holds its
//! output against `BENCHMARK.json`: every workload and metric the file names
//! is printed, with the same unit, and nothing it does not name.

#[path = "../src/json.rs"]
mod json;

use std::path::Path;
use std::process::Command;

use json::Json;

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_array()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_named_workload_and_metric_is_reported_and_nothing_else() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = Json::parse(&spec).expect("BENCHMARK.json parses");
    let end_to_end = names(spec.get("end_to_end").expect("end_to_end"));
    let per_layer = names(spec.get("per_layer").expect("per_layer"));
    let mut workloads: Vec<String> = names(spec.get("workloads").expect("workloads"))
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    workloads.sort();

    // Beside the binary, in the build directory: nothing outside it is touched.
    let out = Path::new(env!("CARGO_BIN_EXE_quarkbench"))
        .with_file_name(format!("quarkbench-smoke-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_quarkbench"))
        .args([
            "--workload",
            "all",
            "--scale",
            "0.01",
            "--seconds",
            "0.3",
            "--seed",
            "5",
        ])
        .arg("--out")
        .arg(&out)
        .status()
        .expect("run quarkbench");
    assert!(status.success(), "a scaled run failed its output checks");
    let doc = Json::parse(&std::fs::read_to_string(&out).expect("--out document")).expect("parses");

    let runs = doc.get("runs").expect("runs").as_array();
    let mut seen: Vec<String> = Vec::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .expect("workload name");
        let traced = run.get("trace") == Some(&Json::Bool(true));
        assert_eq!(
            run.get("stamp")
                .and_then(|s| s.get("scale"))
                .and_then(Json::as_f64),
            Some(0.01),
            "the scale is recorded"
        );
        let result = run.get("result").expect("result");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert!(
            result
                .get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("{workload}: metrics is not an object");
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{workload} {name}"
                );
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect();
        assert_eq!(
            printed,
            if traced {
                per_layer.clone()
            } else {
                end_to_end.clone()
            },
            "{workload} trace={traced}"
        );
        if traced {
            assert!(
                !run.get("spans").expect("spans").as_array().is_empty(),
                "{workload}"
            );
        } else {
            seen.push(workload.to_string());
        }
    }
    seen.sort();
    assert_eq!(seen, workloads, "workloads run vs workloads named");
    assert_eq!(
        runs.len(),
        2 * workloads.len(),
        "one untraced and one traced run each"
    );

    // A scaled output is a smoke test, not a measurement: `compare` refuses it.
    let compared = Command::new(env!("CARGO_BIN_EXE_quarkbench"))
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .arg("--benchmark")
        .arg(root.join("BENCHMARK.json"))
        .output()
        .expect("run compare");
    assert_eq!(compared.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&compared.stderr).contains("scaled"));
    let _ = std::fs::remove_file(&out);
}
