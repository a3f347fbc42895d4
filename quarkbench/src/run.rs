//! One workload run: set up, drive the clients, check the outputs, and (in
//! a traced run) split the time by layer.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use quark_core::relational::Stats;
use quark_core::SessionPool;
use quark_server::{Client, Server, ServerConfig, ServerHandle};

use crate::checks::{check_live, check_recovered};
use crate::hist::Histogram;
use crate::json::Json;
use crate::layers;
use crate::loadgen::{statement_stream, Fixture, Op, Rng};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::workload::{run_clients, warm_up, Conn, Tally, Transport, Workload, SLICES};

/// An untraced run sets up at least this many times and reports the median
/// as `setup_s`; quick set-ups repeat until [`SETUP_BUDGET`] is spent, up to
/// [`MAX_SETUPS`]. (A traced run reports no set-up time and sets up once.)
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET: Duration = Duration::from_millis(2_000);

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
}

/// Everything one run reports.
pub struct Outcome {
    pub workload: &'static Workload,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    /// `(name, value, unit)`: the end-to-end metrics, or in a traced run
    /// the per-layer ones.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Client-observed latencies over the whole timed phase.
    pub writes: Histogram,
    pub reads: Histogram,
    /// Every complete set-up's time; `setup_s` is their median.
    pub setups_s: Vec<f64>,
    /// Every slice of the timed phase.
    pub slices: Vec<SliceRow>,
    pub spans: Vec<crate::trace::Span>,
    pub stamp: Json,
}

/// One slice of the timed phase as the `--out` document shows it.
pub struct SliceRow {
    pub ops_per_s: f64,
    pub write_p50_us: f64,
    pub samples_write: u64,
    pub samples_read: u64,
}

/// Scratch space for this process, inside the build directory (the
/// benchmark may only write inside its checkout): next to the executable.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent()
        .expect("executable has a directory")
        .join("quarkbench-data")
        .join(std::process::id().to_string())
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn per(count: u64, writes: u64) -> f64 {
    if writes == 0 {
        0.0
    } else {
        count as f64 / writes as f64
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A system ready for the clock: built, served, connected and warm.
struct Ready {
    fixture: Fixture,
    /// Only a wire workload has a server.
    server: Option<ServerHandle>,
    conns: Vec<Conn>,
    /// What the warm-up acknowledged (the firing check counts from the
    /// moment the fixture was built).
    tallies: Vec<Tally>,
}

/// One connection per client over `transport`.
fn connect(
    w: &Workload,
    transport: Transport,
    fixture: &Fixture,
    server: Option<&ServerHandle>,
) -> Result<Vec<Conn>, String> {
    (0..w.clients)
        .map(|_| match (transport, server) {
            (Transport::Wire, Some(s)) => Client::connect(s.addr()).map(Conn::Remote),
            _ => Ok(Conn::Local(fixture.session.fork())),
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))
}

/// Everything that happens before the clock starts, and how long it took:
/// schema, load, views and every `CREATE TRIGGER`; for a wire workload the
/// server's start and the clients' connections; the warm-up statements.
/// The statement streams are generated on the first call and reused (the
/// generator's time is `client.pregen_s`, not the system's).
fn set_up(
    w: &Workload,
    dir: &Path,
    seed: u64,
    streams: &mut Option<(Vec<Vec<Op>>, f64)>,
) -> Result<(Ready, Duration), String> {
    let t0 = Instant::now();
    let fixture = w.build(dir)?;
    let built = t0.elapsed();
    let (streams, _) = streams.get_or_insert_with(|| {
        let t0 = Instant::now();
        let mut rng = Rng::new(seed);
        let streams = fixture.targets[..w.clients]
            .iter()
            .map(|target| statement_stream(&mut rng, target, w.stream_len, w.reads_per_1000))
            .collect();
        (streams, t0.elapsed().as_secs_f64())
    });
    let t0 = Instant::now();
    let server = (w.transport == Transport::Wire)
        .then(|| {
            Server::start(
                SessionPool::new(fixture.session.fork()),
                "127.0.0.1:0",
                ServerConfig {
                    workers: w.clients,
                    ..ServerConfig::default()
                },
            )
            .map_err(|e| format!("start server: {e}"))
        })
        .transpose()?;
    let mut conns = connect(w, w.transport, &fixture, server.as_ref())?;
    let tallies = warm_up(&mut conns, streams, w.warmup_ops);
    let took = built + t0.elapsed();
    Ok((
        Ready {
            fixture,
            server,
            conns,
            tallies,
        },
        took,
    ))
}

pub fn run(workload: &'static Workload, opts: &Options) -> Result<Outcome, String> {
    let w = workload.scaled(opts.scale);
    let scratch = Scratch(scratch_root());
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("create scratch: {e}"))?;

    // ---- set-up, before the clock ---------------------------------------
    let mut setups_s = Vec::new();
    let mut streams = None;
    let started = Instant::now();
    let (ready, dir) = loop {
        let k = setups_s.len();
        let dir = scratch.0.join(format!("db-{k}"));
        let (ready, took) = set_up(&w, &dir, opts.seed, &mut streams)?;
        setups_s.push(took.as_secs_f64());
        if opts.trace
            || k + 1 >= MAX_SETUPS
            || (k + 1 >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET)
        {
            break (ready, dir);
        }
        // Take this system down before building the next: set-ups share
        // nothing.
        let Ready {
            fixture,
            server,
            conns,
            ..
        } = ready;
        drop(conns);
        drop(server.map(ServerHandle::shutdown));
        drop(fixture);
        let _ = std::fs::remove_dir_all(&dir);
    };
    let Ready {
        fixture,
        server,
        mut conns,
        tallies,
    } = ready;
    let (streams, pregen_s) = streams.expect("the first set-up generated the streams");

    let stats = || fixture.session.quark().stats();
    // A durable system checkpoints in the background; here once a slice. The
    // guard's drop is a global commit: it drains the writers, checkpoints
    // and truncates the log.
    let checkpoint = || {
        if w.sync.is_some() {
            drop(fixture.session.quark_mut());
        }
    };

    // ---- the timed phase -------------------------------------------------
    // A traced run spends half its time here (for the counter deltas) and
    // the rest in the replay and probes.
    let duration = Duration::from_secs_f64(opts.seconds * if opts.trace { 0.5 } else { 1.0 });
    let run = run_clients(&mut conns, &streams, tallies, duration, stats, checkpoint);
    // Before the checks: reopening a copy of the data directory is the
    // benchmark's memory, not the system's.
    let peak_rss_mb = peak_rss_mb();
    // Close the load connections: the server's workers are per connection,
    // and the probes below need one.
    drop(conns);

    // ---- output checks ---------------------------------------------------
    let mut problems: Vec<String> = run
        .tallies
        .iter()
        .filter_map(|t| t.first_failure.clone())
        .collect();
    if let Err(e) = check_live(&fixture.session, &fixture.targets, &streams, &run.tallies) {
        problems.push(e);
    }
    let mut recover = Duration::ZERO;
    if w.sync.is_some() {
        match check_recovered(
            &fixture.session,
            &dir,
            &scratch.0.join("copy"),
            &fixture.targets,
            &streams,
            &run.tallies,
        ) {
            Ok(d) => recover = d,
            Err(e) => problems.push(e),
        }
    }

    let crate::workload::Slice { writes, reads } = run.total();
    let attempted: u64 = run.tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = run.tallies.iter().map(|t| t.failed).sum();

    let mut m = Metrics::default();
    let mut spans = Vec::new();
    if opts.trace {
        counter_metrics(&mut m, &run.before, &run.after, writes.count(), attempted);
        m.set("client.samples_write", writes.count() as f64);
        m.set("client.samples_read", reads.count() as f64);
        m.set("client.write_p99_us", writes.quantile_us(0.99));
        m.set("client.read_p50_us", reads.quantile_us(0.5));
        m.set("client.read_p99_us", reads.quantile_us(0.99));
        m.set("client.failed_ops_share", failed as f64 / attempted as f64);
        m.set("client.pregen_s", pregen_s);
        spans = layers::measure(
            &w,
            &fixture,
            &streams,
            server.as_ref().map(ServerHandle::addr),
            &scratch.0,
            &mut m,
        );
        if server.is_some() {
            // Round-trip overhead under the workload's own concurrency: the
            // same clients and statements in process. (A lone probe
            // connection would mostly time how long an idle core takes to
            // wake.)
            let mut local = connect(&w, Transport::InProcess, &fixture, None)?;
            let warm = warm_up(&mut local, &streams, w.warmup_ops / 4);
            let probe =
                run_clients(&mut local, &streams, warm, duration / 3, stats, checkpoint).total();
            m.set(
                "server.roundtrip_overhead_write_us",
                writes.quantile_us(0.5) - probe.writes.quantile_us(0.5),
            );
            if reads.count() > 0 {
                m.set(
                    "server.roundtrip_overhead_read_us",
                    reads.quantile_us(0.5) - probe.reads.quantile_us(0.5),
                );
            }
        }
        if w.sync.is_some() {
            // Restart cost and space, after everything else has run.
            m.set("storage.recover_ms", recover.as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let checkpointed = fixture.session.quark().checkpoint();
            m.set("storage.checkpoint_ms", t0.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = checkpointed {
                problems.push(format!("checkpoint: {e}"));
            }
            m.set("storage.dir_bytes", layers::dir_bytes(&dir) as f64);
        }
    } else {
        m.set("setup_s", median(setups_s.clone()));
        m.set(
            "ops_per_s",
            (writes.count() + reads.count()) as f64 / run.elapsed.as_secs_f64(),
        );
        m.set("write_p50_us", writes.quantile_us(0.5));
        m.set("peak_rss_mb", peak_rss_mb);
    }

    if let Some(server) = server {
        drop(server.shutdown());
    }
    let stamp = stamp(&w, opts, &dir);
    drop(fixture);

    Ok(Outcome {
        workload,
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        problems,
        metrics: m.in_order(if opts.trace { PER_LAYER } else { END_TO_END }),
        writes,
        reads,
        setups_s,
        slices: (0..SLICES)
            .map(|i| {
                let s = run.slice(i);
                let (samples_write, samples_read) = (s.writes.count(), s.reads.count());
                SliceRow {
                    ops_per_s: (samples_write + samples_read) as f64 / run.slice.as_secs_f64(),
                    write_p50_us: s.writes.quantile_us(0.5),
                    samples_write,
                    samples_read,
                }
            })
            .collect(),
        spans,
        stamp,
    })
}

/// Per-write and per-statement ratios of the engine's own counters over
/// the timed phase.
fn counter_metrics(m: &mut Metrics, before: &Stats, after: &Stats, writes: u64, ops: u64) {
    let d = |f: fn(&Stats) -> u64| f(after) - f(before);
    m.set(
        "relational.rows_scanned_per_write",
        per(d(|s| s.rows_scanned), writes),
    );
    m.set(
        "relational.index_probes_per_write",
        per(d(|s| s.index_probes), writes),
    );
    m.set(
        "relational.build_cache_hits_per_write",
        per(d(|s| s.build_cache_hits), writes),
    );
    m.set(
        "relational.statements_per_write",
        per(d(|s| s.statements), writes),
    );
    m.set(
        "core.triggers_fired_per_write",
        per(d(|s| s.triggers_fired), writes),
    );
    m.set(
        "core.latch_waits_per_write",
        per(d(|s| s.latch_waits), writes),
    );
    m.set(
        "core.latch_conflicts_per_write",
        per(d(|s| s.latch_conflicts), writes),
    );
    m.set(
        "storage.wal_bytes_per_write",
        per(d(|s| s.wal_bytes_written), writes),
    );
    m.set("server.frames_per_op", per(d(|s| s.frames_received), ops));
    m.set(
        "server.backpressure_stalls",
        d(|s| s.backpressure_stalls) as f64,
    );
    m.set("server.frames_rejected", d(|s| s.frames_rejected) as f64);
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mountinfo`.
fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            // "… <mount point> <options> … - <fs type> <source> …"
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            path.starts_with(mount_point).then(|| {
                (
                    mount_point.len(),
                    right.split(' ').next().unwrap_or("unknown"),
                )
            })
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs.to_string())
}

/// Where and how the numbers were taken. `compare` refuses to set two
/// outputs side by side unless their load parameters match.
fn stamp(w: &Workload, opts: &Options, data_dir: &Path) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("available_parallelism", Json::Num(parallelism as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("scale", Json::Num(opts.scale)),
        ("clients", Json::Num(w.clients as f64)),
        ("warmup_ops", Json::Num(w.warmup_ops as f64)),
        ("stream_len", Json::Num(w.stream_len as f64)),
        (
            "sync_mode",
            Json::str(
                w.sync
                    .map_or("none (in memory)".into(), |s| format!("{s:?}")),
            ),
        ),
        ("data_dir_fs", Json::str(filesystem_of(data_dir))),
    ])
}
