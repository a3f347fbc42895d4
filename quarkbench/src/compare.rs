//! `quarkbench compare A B`: apply the regression bounds of
//! `BENCHMARK.json` to two sides, each an output of `--out` (one run, or a
//! `--workload all` document) or a directory of such outputs — what taking
//! the two sides as interleaved pairs leaves behind. Repeated runs of a
//! workload are reduced to medians, and their quartile spread decides
//! whether a difference can be resolved at all.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;

/// Stamp fields that define the load. Two outputs that differ in any of
/// them did different work and are not comparable.
const LOAD_KEYS: [&str; 5] = ["seed", "seconds", "clients", "warmup_ops", "stream_len"];

/// The untraced runs of one side (end-to-end metrics come from those).
fn load(path: &str) -> Result<Vec<Json>, String> {
    let mut files = vec![Path::new(path).to_path_buf()];
    if files[0].is_dir() {
        files = std::fs::read_dir(path)
            .map_err(|e| format!("read {path}: {e}"))?
            .flatten()
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        files.sort();
    }
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        match doc.get("runs") {
            Some(all) => runs.extend(all.as_array().iter().cloned()),
            None => runs.push(doc),
        }
    }
    runs.retain(|r| r.get("trace") == Some(&Json::Bool(false)));
    Ok(runs)
}

fn workload_of(run: &Json) -> &str {
    run.get("workload").and_then(Json::as_str).unwrap_or("?")
}

/// The load parameters of every run of `workload`, sorted: equal between
/// the two sides or the comparison is refused.
fn load_of(runs: &[Json], workload: &str) -> Result<Vec<Vec<String>>, String> {
    let mut loads = Vec::new();
    for run in runs.iter().filter(|r| workload_of(r) == workload) {
        let stamp = run.get("stamp").ok_or("run without a stamp")?;
        if stamp.get("scale").and_then(Json::as_f64) != Some(1.0) {
            return Err(format!(
                "{workload}: a scaled run is a smoke test, not a measurement"
            ));
        }
        loads.push(
            LOAD_KEYS
                .iter()
                .map(|k| stamp.get(k).map_or("missing".into(), Json::render))
                .collect(),
        );
    }
    loads.sort();
    Ok(loads)
}

/// Every value of `metric` the runs of `workload` reported, sorted.
fn values_of(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    let mut values: Vec<f64> = runs
        .iter()
        .filter(|r| workload_of(r) == workload)
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect();
    values.sort_by(f64::total_cmp);
    values
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`.
/// `0.0` for fewer than two values: one run has no spread to show.
fn spread(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(sorted)
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regression,
    /// The runs of a side spread wider than the bound, so a difference of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

/// Judge side `b` against side `a` (both sorted). A metric whose runs spread
/// wider than its bound is unresolved — not passed, not failed — unless
/// every run of `b` reads better than every run of `a`.
fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> Verdict {
    if spread(a).max(spread(b)) > bound {
        let b_always_better = if better == "higher" {
            b[0] > a[a.len() - 1]
        } else {
            b[b.len() - 1] < a[0]
        };
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(median(a), median(b), better) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let (mut files, mut benchmark) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            files.push(arg.as_str());
        }
    }
    let [a_path, b_path] = files[..] else {
        return Err("compare takes exactly two sides".into());
    };
    let spec = std::fs::read_to_string(&benchmark).map_err(|e| {
        format!("read {benchmark}: {e} (run from the repository root or pass --benchmark)")
    })?;
    let spec = Json::parse(&spec).map_err(|e| format!("{benchmark}: {e}"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);

    let (mut regressions, mut unresolved) = (0, 0);
    println!(
        "{:<20} {:<14} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}",
        "workload", "metric", "A median", "spread", "B median", "spread", "B worse", "bound"
    );
    for w in spec.get("workloads").map_or(&[][..], Json::as_array) {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let (load_a, load_b) = (load_of(&a, name)?, load_of(&b, name)?);
        if load_a != load_b {
            return Err(format!(
                "{name}: the two outputs did different work \
                 ({LOAD_KEYS:?} are {load_a:?} in {a_path} and {load_b:?} in {b_path})"
            ));
        }
        if load_a.is_empty() {
            continue;
        }
        for run in b.iter().filter(|r| workload_of(r) == name) {
            if run.get("result").and_then(|r| r.get("correct")) != Some(&Json::Bool(true)) {
                println!("{name:<20} a run in {b_path} failed its output checks");
                regressions += 1;
            }
        }
        for metric in spec.get("end_to_end").map_or(&[][..], Json::as_array) {
            let field = |k: &str| metric.get(k).and_then(Json::as_str).unwrap_or("?");
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let (va, vb) = (
                values_of(&a, name, field("name")),
                values_of(&b, name, field("name")),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name}: {} missing from an output", field("name")));
            }
            let verdict = judge(&va, &vb, field("better"), bound);
            println!(
                "{name:<20} {:<14} {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>+7.1}% {:>5.1}%{}",
                field("name"),
                median(&va),
                spread(&va) * 100.0,
                median(&vb),
                spread(&vb) * 100.0,
                worsening(median(&va), median(&vb), field("better")) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "",
                    Verdict::Regression => "  REGRESSION",
                    Verdict::Unresolved => "  UNRESOLVED (spread wider than the bound)",
                }
            );
            regressions += usize::from(verdict == Verdict::Regression);
            unresolved += usize::from(verdict == Verdict::Unresolved);
        }
    }
    println!("{regressions} regression(s), {unresolved} unresolved");
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: f64, scale: f64, ops_per_s: f64) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("trace", Json::Bool(false)),
            (
                "stamp",
                Json::obj([
                    ("seed", Json::Num(seed)),
                    ("seconds", Json::Num(8.0)),
                    ("scale", Json::Num(scale)),
                    ("clients", Json::Num(2.0)),
                    ("warmup_ops", Json::Num(100.0)),
                    ("stream_len", Json::Num(64.0)),
                ]),
            ),
            (
                "result",
                Json::obj([(
                    "metrics",
                    Json::obj([("ops_per_s", Json::obj([("value", Json::Num(ops_per_s))]))]),
                )]),
            ),
        ])
    }

    #[test]
    fn medians_and_direction() {
        let runs = [
            run("w", 1.0, 1.0, 90.0),
            run("w", 2.0, 1.0, 100.0),
            run("w", 3.0, 1.0, 300.0),
        ];
        assert_eq!(median(&values_of(&runs, "w", "ops_per_s")), 100.0);
        assert!(values_of(&runs, "other", "ops_per_s").is_empty());
        assert!((worsening(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
        assert!(worsening(100.0, 110.0, "higher") < 0.0);
    }

    #[test]
    fn spread_uses_the_quartiles_python_reports() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert!((spread(&v) - (31.0 - 3.5) / 13.5).abs() < 1e-12);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((spread(&[10.0, 12.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_a_verdict() {
        let steady = [100.0, 101.0, 102.0, 103.0];
        assert_eq!(
            judge(&steady, &[104.0, 105.0, 106.0, 107.0], "lower", 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 122.0, 123.0], "lower", 0.1),
            Verdict::Regression
        );
        // The same medians with one side swinging by half its median.
        let noisy = [70.0, 90.0, 121.0, 150.0];
        assert_eq!(judge(&steady, &noisy, "lower", 0.1), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &steady, "higher", 0.1), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[10.0, 20.0, 30.0, 40.0], "lower", 0.1),
            Verdict::Ok
        );
        // One run a side has no spread: the bound alone decides.
        assert_eq!(judge(&[100.0], &[111.0], "lower", 0.1), Verdict::Regression);
    }

    #[test]
    fn loads_must_match_and_scaled_runs_are_refused() {
        let a = [run("w", 1.0, 1.0, 1.0), run("w", 2.0, 1.0, 1.0)];
        let b = [run("w", 2.0, 1.0, 1.0), run("w", 1.0, 1.0, 1.0)];
        assert_eq!(load_of(&a, "w").unwrap(), load_of(&b, "w").unwrap());
        let other_seed = [run("w", 1.0, 1.0, 1.0), run("w", 3.0, 1.0, 1.0)];
        assert_ne!(
            load_of(&a, "w").unwrap(),
            load_of(&other_seed, "w").unwrap()
        );
        assert!(load_of(&[run("w", 1.0, 0.01, 1.0)], "w").is_err());
    }
}
