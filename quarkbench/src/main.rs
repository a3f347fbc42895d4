//! `quarkbench`: the repository's closed-loop benchmark.
//!
//! ```text
//! quarkbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!            [--out PATH] [--repeat N] [--scale F]
//! quarkbench compare A B [--benchmark BENCHMARK.json]
//! ```
//!
//! A run builds the workload, drives it for `--seconds`, checks the outputs
//! and prints every metric as `name value unit`; the last line of standard
//! output is the result object the benchmark contract asks for. `--out`
//! also writes one JSON document with the environment stamp and, for a
//! traced run, the spans. See `README.md` beside this package.

mod checks;
mod compare;
mod hist;
mod json;
mod layers;
mod loadgen;
mod metrics;
mod run;
mod trace;
mod workload;

use std::process::ExitCode;

use json::Json;
use run::{Options, Outcome};

const USAGE: &str = "usage: quarkbench [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out PATH] [--repeat N] [--scale F]\n       \
                     quarkbench compare A B [--benchmark BENCHMARK.json]   \
                     (A, B: an --out file, or a directory of them)";

struct Args {
    workload: String,
    opts: Options,
    out: Option<String>,
    repeat: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        opts: Options {
            seed: 1,
            seconds: 20.0,
            trace: false,
            scale: 1.0,
        },
        out: None,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.opts.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.opts.seconds > 0.0 && parsed.opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                parsed.opts.scale = value.parse().map_err(|_| bad())?;
                if !(parsed.opts.scale > 0.0 && parsed.opts.scale <= 1.0) {
                    return Err(bad());
                }
            }
            "--repeat" => parsed.repeat = value.parse().ok().filter(|&n| n >= 1).ok_or_else(bad)?,
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Whole-run percentiles of one statement kind, with the sample count
/// behind them.
fn latency(h: &hist::Histogram) -> Json {
    Json::obj([
        ("samples", Json::Num(h.count() as f64)),
        ("p50_us", Json::Num(h.quantile_us(0.5))),
        ("p90_us", Json::Num(h.quantile_us(0.9))),
        ("p99_us", Json::Num(h.quantile_us(0.99))),
    ])
}

/// The document `--out` writes for one run.
fn document(o: &Outcome, trace: bool) -> Json {
    let spans = o
        .spans
        .iter()
        .map(|s| {
            Json::obj([
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("stmt", Json::Num(s.stmt as f64)),
                ("layer", Json::str(s.layer)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
        })
        .collect();
    let slices = o
        .slices
        .iter()
        .map(|s| {
            Json::obj([
                ("ops_per_s", Json::Num(s.ops_per_s)),
                ("write_p50_us", Json::Num(s.write_p50_us)),
                ("samples_write", Json::Num(s.samples_write as f64)),
                ("samples_read", Json::Num(s.samples_read as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(o.workload.name)),
        ("why", Json::str(o.workload.why)),
        ("trace", Json::Bool(trace)),
        ("stamp", o.stamp.clone()),
        (
            "setups_s",
            Json::Arr(o.setups_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("write_latency", latency(&o.writes)),
        ("read_latency", latency(&o.reads)),
        ("slices", Json::Arr(slices)),
        ("result", result_object(o)),
        ("spans", Json::Arr(spans)),
    ])
}

/// The contract's result: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_object(o: &Outcome) -> Json {
    let metrics = o.metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let workload = workload::find(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{}` (one of: {}, all)",
            args.workload,
            names.join(", ")
        )
    })?;
    let outcome = run::run(workload, &args.opts)?;
    println!(
        "workload {} seed {} trace {}",
        workload.name, args.opts.seed, args.opts.trace as u8
    );
    println!(
        "samples write {} read {} attempted {} failed {}",
        outcome.writes.count(),
        outcome.reads.count(),
        outcome.attempted,
        outcome.failed
    );
    for (name, value, unit) in &outcome.metrics {
        println!("{name} {value} {unit}");
    }
    for problem in &outcome.problems {
        eprintln!("quarkbench: output check failed: {problem}");
    }
    if let Some(path) = &args.out {
        std::fs::write(path, document(&outcome, args.opts.trace).render() + "\n")
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", result_object(&outcome).render());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--workload all`: every workload in a child process of its own (so
/// `peak_rss_mb` belongs to one workload), untraced then traced, for seeds
/// `seed .. seed + repeat`. `--out` collects the children's documents.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let scratch = run::scratch_root();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create scratch: {e}"))?;
    let child_out = scratch.join("child.json");
    let mut runs = Vec::new();
    let mut all_correct = true;
    for seed in args.opts.seed..args.opts.seed + args.repeat {
        for w in &workload::WORKLOADS {
            for trace in ["0", "1"] {
                let status = std::process::Command::new(&exe)
                    .args(["--workload", w.name, "--trace", trace])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &args.opts.seconds.to_string()])
                    .args(["--scale", &args.opts.scale.to_string()])
                    .arg("--out")
                    .arg(&child_out)
                    .status()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                all_correct &= status.success();
                let text = std::fs::read_to_string(&child_out).map_err(|e| {
                    format!(
                        "{} seed {seed} trace {trace} wrote no document: {e}",
                        w.name
                    )
                })?;
                runs.push(Json::parse(&text)?);
                let _ = std::fs::remove_file(&child_out);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(path) = &args.out {
        let doc = Json::obj([
            ("seed", Json::Num(args.opts.seed as f64)),
            ("repeat", Json::Num(args.repeat as f64)),
            ("runs", Json::Arr(runs)),
        ]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = if args.first().is_some_and(|a| a == "compare") {
        compare::main(&args[1..])
    } else {
        parse_args(&args).and_then(|args| {
            if args.workload == "all" {
                run_all(&args)
            } else {
                run_one(&args)
            }
        })
    };
    done.unwrap_or_else(|e| {
        eprintln!("quarkbench: {e}");
        ExitCode::from(2)
    })
}
