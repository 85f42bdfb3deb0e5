//! `fsbench` — the serving benchmark for fstore.
//!
//! ```text
//! fsbench --workload <features|embeddings|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload assembles a two-shard cluster on loopback TCP from the
//! library's public constructors, in one process pinned to one CPU, loads
//! seed-derived data, and drives it through one `RouterClient`: an
//! open-loop phase at a fixed rate, then a closed-loop phase of pipelined
//! bursts. Each phase yields the CPU time spent per request, and wall-clock
//! latency and throughput for the report. Every answer is checked against
//! an oracle computed from the seed.
//!
//! Standard output ends with two JSON lines: a report (run metadata,
//! settings, per-op counts and latency quantiles with sample sizes,
//! diagnostics), then the result `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` a separate traced run reports per-layer metrics instead.
//! A wrong answer makes the run exit with status 1.

mod cluster;
mod data;
mod embeddings;
mod features;
mod host;
mod ingest;
mod layers;
mod load;
mod trace;

use cluster::{Cluster, Settings};
use fstore_common::stats::exact_quantile;
use fstore_common::{FsError, Result};
use fstore_serve::{FeatureClient, MetricsSnapshot, Request, Response, Transport};
use fstore_shard::RouterClient;
use load::{Ledger, Op, Workload};
use serde_json::{Number, Value};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Shares of `--seconds` for the open-loop and closed-loop phases, and
/// (traced runs) for outside-in layer sampling.
const OPEN_SHARE: f64 = 0.65;
const PEAK_SHARE: f64 = 0.35;
const TRACED_OPEN_SHARE: f64 = 0.4;
const TRACED_SAMPLE_SHARE: f64 = 0.3;
const TRACED_PEAK_SHARE: f64 = 0.3;
/// Open- and closed-loop phases are split into windows of this length;
/// each wall-clock figure is the median over windows (see `load`).
const WINDOW: Duration = Duration::from_secs(1);
/// Requests per `send_many` burst in the closed loop.
const DEPTH: usize = 32;
const SHARDS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["features", "embeddings", "ingest"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (features, embeddings, ingest)"
        ));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fsbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((report, result, correct)) => {
            println!("{report}");
            println!("{result}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("fsbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The workload-specific half of a run.
enum Mix {
    Features(features::Mix),
    Embeddings(embeddings::Mix, Vec<embeddings::Tier>),
    Ingest(ingest::Mix),
}

impl Mix {
    fn workload(&mut self) -> &mut dyn Workload {
        match self {
            Mix::Features(m) => m,
            Mix::Embeddings(m, _) => m,
            Mix::Ingest(m) => m,
        }
    }
}

/// A workload's shape: its open-loop rate, its two op types, and how many
/// times an untraced run sets it up (`setup_s` is their median; fewer for
/// the workload whose set-up takes seconds).
struct Shape {
    rate: f64,
    setups: usize,
    /// The single-key read.
    point: Op,
    /// The other op of the mix.
    other: Op,
}

fn shape(workload: &str) -> Shape {
    match workload {
        "features" => Shape {
            rate: features::RATE,
            setups: 7,
            point: Op::Get,
            other: Op::MGet,
        },
        "embeddings" => Shape {
            rate: embeddings::RATE,
            setups: 3,
            point: Op::Embed,
            other: Op::Search,
        },
        _ => Shape {
            rate: ingest::RATE,
            setups: 7,
            point: Op::Get,
            other: Op::Put,
        },
    }
}

fn sizes(workload: &str) -> Value {
    match workload {
        "features" => obj([
            ("entities", int(features::ENTITIES as u64)),
            ("features", int(features::FEATURES as u64)),
            ("batch", int(features::BATCH as u64)),
            ("mget_share", Value::from(features::MGET_SHARE)),
            ("zipf", Value::from(features::ZIPF)),
        ]),
        "embeddings" => obj([
            ("keys", int(embeddings::KEYS as u64)),
            ("dim", int(embeddings::DIM as u64)),
            ("versions", int(u64::from(embeddings::VERSIONS))),
            ("k", int(embeddings::K as u64)),
            ("clusters", int(embeddings::CLUSTERS)),
            ("queries", int(embeddings::QUERIES as u64)),
            ("search_share", Value::from(embeddings::SEARCH_SHARE)),
            ("latest_share", Value::from(embeddings::LATEST_SHARE)),
            (
                "hnsw",
                obj([
                    ("m", int(embeddings::HNSW.m as u64)),
                    (
                        "ef_construction",
                        int(embeddings::HNSW.ef_construction as u64),
                    ),
                    ("ef_search", int(embeddings::HNSW.ef_search as u64)),
                    ("seed", int(embeddings::HNSW.seed)),
                ]),
            ),
            (
                "tier_budget_fraction",
                Value::from(embeddings::TIER_BUDGET_FRACTION),
            ),
            ("tier_block_bytes", int(embeddings::TIER_BLOCK_BYTES as u64)),
            (
                "tier_high_watermark",
                Value::from(embeddings::TIER_WATERMARKS.0),
            ),
            (
                "tier_low_watermark",
                Value::from(embeddings::TIER_WATERMARKS.1),
            ),
            (
                "tier_cache_shards",
                int(embeddings::TIER_CACHE_SHARDS as u64),
            ),
        ]),
        _ => obj([
            ("entities", int(ingest::ENTITIES as u64)),
            ("features", int(ingest::FEATURES as u64)),
            ("put_share", Value::from(ingest::PUT_SHARE)),
            ("zipf", Value::from(ingest::ZIPF)),
            ("followers_per_shard", int(1)),
        ]),
    }
}

/// Assemble the workload's cluster, then open the router and wait for
/// its first answer — the end of set-up as a client sees it.
fn setup(
    workload: &str,
    settings: &Settings,
    seed: u64,
    phases: &mut Vec<(&'static str, f64)>,
) -> Result<(Cluster, RouterClient, Option<Vec<embeddings::Tier>>)> {
    let (cluster, tiers) = match workload {
        "features" => (features::setup(settings, seed, phases)?, None),
        "embeddings" => {
            let (cluster, tiers) = embeddings::setup(settings, seed, phases)?;
            (cluster, Some(tiers))
        }
        _ => (ingest::setup(settings, seed, phases)?, None),
    };
    let t = Instant::now();
    let mut router = cluster.router();
    match router.call(&Request::Health) {
        Ok(Response::Health { .. }) => {}
        other => return Err(FsError::Storage(format!("first request: {other:?}"))),
    }
    phases.push(("first_request", t.elapsed().as_secs_f64()));
    Ok((cluster, router, tiers))
}

fn shutdown(cluster: Cluster, tiers: Option<Vec<embeddings::Tier>>) {
    for t in tiers.into_iter().flatten() {
        t.tier.shutdown();
    }
    cluster.shutdown();
}

/// Sum of a counter over every leader server's metrics.
fn leaders_sum(snapshots: &[MetricsSnapshot], f: impl Fn(&MetricsSnapshot) -> u64) -> u64 {
    snapshots.iter().map(f).sum()
}

/// Named values for a JSON object, in output order.
type Metrics = Vec<(&'static str, Value)>;

fn metric(value: f64, unit: &str) -> Value {
    obj([("value", Value::from(value)), ("unit", Value::from(unit))])
}

fn need(value: Option<f64>, what: &str) -> Result<f64> {
    value.ok_or_else(|| FsError::Storage(format!("no samples for {what}")))
}

/// A JSON object from `(key, value)` pairs, keys in the order given.
fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn int(n: u64) -> Value {
    Value::Num(Number::U64(n))
}

/// A number, or `null` when there is none.
fn opt(x: Option<f64>) -> Value {
    x.map_or(Value::Null, Value::from)
}

fn run(args: &Args) -> Result<(Value, Value, bool)> {
    let settings = Settings::new(SHARDS);
    let shape = shape(&args.workload);
    let nproc = host::nproc();
    let cpu =
        host::pin_to_one_cpu().map_err(|e| FsError::Storage(format!("pin to one CPU: {e}")))?;
    let stall_frac = host::stall_fraction(Duration::from_secs(1));
    let run_start = host::Usage::now();

    let setups = if args.trace { 1 } else { shape.setups };
    let mut setup_s = Vec::with_capacity(setups);
    let mut phases = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        phases.clear();
        let t = Instant::now();
        let (cluster, router, tiers) = setup(&args.workload, &settings, args.seed, &mut phases)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < setups {
            shutdown(cluster, tiers);
        } else {
            kept = Some((cluster, router, tiers));
        }
    }
    let (cluster, mut router, tiers) = kept.expect("at least one set-up");

    let mut mix = match args.workload.as_str() {
        "features" => Mix::Features(features::Mix::new(args.seed)),
        "embeddings" => Mix::Embeddings(
            embeddings::Mix::new(args.seed, embeddings::Queries::new(args.seed)),
            tiers.unwrap_or_default(),
        ),
        _ => Mix::Ingest(ingest::Mix::new(args.seed, &cluster)),
    };

    let seconds = args.seconds as f64;
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new();
    let wal_before = leader_snapshots(&cluster);
    let puts_before = match &mix {
        Mix::Ingest(m) => m.puts_acked,
        _ => 0,
    };

    // Open loop. On `ingest` a second thread watches the followers for
    // each acknowledged write. A traced run puts every other request in a
    // span; the latency difference between the halves is the overhead.
    let (open_share, peak_share) = if args.trace {
        (TRACED_OPEN_SHARE, TRACED_PEAK_SHARE)
    } else {
        (OPEN_SHARE, PEAK_SHARE)
    };
    let open_span = Duration::from_secs_f64(seconds * open_share);
    let open_start = host::Usage::now();
    let rusage_start = host::rusage_counts();
    // CPU per request, as the kernel counts it (without hypervisor steal),
    // less the freshness watcher's own polling.
    let watcher_ns = AtomicU64::new(0);
    let mut probe = host::Probe::new();
    let cpu_now = || host::process_cpu_seconds() - watcher_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    let (gen, fresh) = std::thread::scope(|scope| {
        let watcher = match &mut mix {
            Mix::Ingest(m) => {
                let (tx, rx) = std::sync::mpsc::channel();
                m.watch = Some(tx);
                let (cluster, spent) = (&cluster, &watcher_ns);
                Some(scope.spawn(move || ingest::watch(cluster, rx, spent)))
            }
            _ => None,
        };
        let gen = load::open_loop(
            &mut router,
            mix.workload(),
            shape.rate,
            open_span,
            WINDOW,
            &cpu_now,
            &mut probe,
            &mut ledger,
            args.trace.then_some(&mut tracer),
        );
        if let Mix::Ingest(m) = &mut mix {
            m.watch = None;
        }
        let fresh = watcher.map(|w| w.join().expect("freshness watcher panicked"));
        (gen, fresh)
    });
    let watcher_cpu = fresh.as_ref().map_or(0.0, |f| f.cpu_s);
    let open_usage = host::Usage::now().since(&open_start);
    let rusage_open = host::rusage_counts();
    let per_op = |i: usize| (rusage_open[i] - rusage_start[i]) as f64 / gen.sent.max(1) as f64;
    let open_counts = obj([
        ("minor_faults_per_op", Value::from(per_op(0))),
        ("voluntary_switches_per_op", Value::from(per_op(1))),
        ("involuntary_switches_per_op", Value::from(per_op(2))),
    ]);
    // After a fixed amount of work: what the closed loop adds depends on
    // how fast it ran (on `ingest`, the publication log grows with it).
    drop(probe);
    let rss_mb = host::rss_mb();
    // The gated figure: per window, CPU per request over the host probe's
    // CPU around it (in thousandths of a probe run), then the median over
    // windows. A neighbour that slows the whole host slows the probe
    // too; one that does so for a few seconds moves a few windows.
    let open_cpu_mprobe: Vec<f64> = gen
        .cpu_us_per_op
        .iter()
        .zip(&gen.probe_us)
        .map(|(cpu, probe)| cpu / probe * 1e3)
        .collect();
    let open_cpu_per_op = exact_quantile(&open_cpu_mprobe, 0.5);
    let open_cpu_us_pooled = (open_usage.process - watcher_cpu) * 1e6 / gen.sent.max(1) as f64;
    let wal_after = leader_snapshots(&cluster);
    let puts_open = match &mix {
        Mix::Ingest(m) => m.puts_acked - puts_before,
        _ => 0,
    };

    let mut samples = Vec::new();
    if args.trace {
        let mut directs = layers::direct_clients(&cluster, &settings.router.client)
            .map_err(|e| FsError::Storage(format!("direct connections: {e}")))?;
        samples = layers::sample(
            &cluster,
            &mut router,
            &mut directs,
            mix.workload(),
            Duration::from_secs_f64(seconds * TRACED_SAMPLE_SHARE),
            &mut tracer,
            &mut ledger,
        );
    }
    let peak_before = leader_snapshots(&cluster);
    let peak_start = host::Usage::now();
    let peak = load::closed_loop(
        &mut router,
        mix.workload(),
        DEPTH,
        Duration::from_secs_f64(seconds * peak_share),
        WINDOW,
        &mut ledger,
    );
    let peak_usage = host::Usage::now().since(&peak_start);
    let peak_cpu_us = peak_usage.process * 1e6 / peak.completed.max(1) as f64;
    let peak_after = leader_snapshots(&cluster);

    // End-of-run checks: every acknowledged write reads back, and the
    // followers converge to exactly the leaders' rows.
    if let Mix::Ingest(m) = &mut mix {
        for e in 0..ingest::ENTITIES {
            let job = m.get(e);
            let result = router.call(&job.request);
            load::settle(m, &job, result, Instant::now(), &mut ledger);
        }
        if !ingest::converged(&cluster, Duration::from_secs(30)) {
            ledger
                .errors
                .push("followers did not converge after the run".into());
            ledger.op(Op::Put).wrong += 1;
        }
        let diverged = replica_divergence(&cluster);
        if diverged > 0 {
            ledger
                .errors
                .push(format!("{diverged} follower rows differ from the leader"));
            ledger.op(Op::Put).wrong += diverged;
        }
    }
    let fresh_ms = fresh
        .as_ref()
        .map(|f| f.fresh_ms.clone())
        .unwrap_or_default();
    let lag = fresh
        .as_ref()
        .map(|f| f.lag_epochs.clone())
        .unwrap_or_default();
    let lost = fresh.as_ref().map_or(0, |f| f.lost);
    if lost > 0 {
        ledger.errors.push(format!(
            "{lost} acknowledged writes never reached a follower"
        ));
        ledger.op(Op::Put).wrong += lost;
    }
    let steal_frac = host::Usage::now().since(&run_start).steal_frac();

    // Report: everything needed to interpret (and reproduce) the numbers.
    let mut ops = Vec::new();
    for (op, o) in &ledger.ops {
        ops.push((
            op.name(),
            obj([
                ("attempted", int(o.attempted)),
                ("succeeded", int(o.succeeded)),
                ("failed", int(o.failed)),
                ("wrong", int(o.wrong)),
                ("open_loop_latency_us", load::summary(&o.latencies_us)),
                ("typical_p50_us", opt(o.typical(0.5))),
                ("typical_p90_us", opt(o.typical(0.9))),
                (
                    "window_p90_us",
                    Value::Seq(
                        o.window_quantiles(0.9)
                            .into_iter()
                            .map(Value::from)
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    let recall = match &mix {
        Mix::Embeddings(m, _) => Some(m.recall()),
        _ => None,
    };
    let late_p99 = exact_quantile(&gen.late_us, 0.99);
    let (metrics, workload_layers) = if args.trace {
        let traced: Vec<f64> = gen
            .traced
            .iter()
            .filter(|(op, _)| *op == shape.point)
            .map(|&(_, us)| us)
            .collect();
        let overhead = exact_quantile(&traced, 0.5)
            .zip(exact_quantile(&ledger.op(shape.point).latencies_us, 0.5))
            .map(|(traced, plain)| traced - plain);
        let (mut m, workload_layers) = per_layer(
            &cluster,
            &mix,
            &shape,
            &samples,
            &phases,
            (&wal_before, &wal_after),
            (&peak_before, &peak_after),
            puts_open,
            &fresh_ms,
            &lag,
            &mut tracer,
        )?;
        m.push((
            "gen.late_p99_us",
            metric(need(late_p99, "generator lateness")?, "us"),
        ));
        m.push(("host.stall_frac", metric(stall_frac, "ratio")));
        m.push((
            "trace.overhead_us",
            metric(need(overhead, "tracing overhead")?, "us"),
        ));
        m.push(("trace.span_cost_ns", metric(Tracer::span_cost_ns(), "ns")));
        let path = Path::new(trace::SPAN_DIR)
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write(&path)
            .map_err(|e| FsError::Storage(format!("write {}: {e}", path.display())))?;
        (m, obj(workload_layers))
    } else {
        let m = vec![
            (
                "setup_s",
                metric(need(exact_quantile(&setup_s, 0.5), "setup")?, "s"),
            ),
            (
                "open_cpu_per_op",
                metric(need(open_cpu_per_op, "open-loop CPU")?, "mprobe"),
            ),
            ("rss_mb", metric(rss_mb, "MB")),
        ];
        (m, Value::Null)
    };

    // What a client waits for and gets, by wall clock, and the CPU cost per
    // request at saturation: reported on every run but not result metrics,
    // because the host moves them (see NOTES.md).
    let point = ledger.ops.get(&shape.point);
    let other = ledger.ops.get(&shape.other);
    let ungated = obj([
        ("peak_rps", opt(exact_quantile(&peak.windows, 0.5))),
        ("point_p50_us", opt(point.and_then(|o| o.typical(0.5)))),
        ("point_p90_us", opt(point.and_then(|o| o.typical(0.9)))),
        ("other_p50_us", opt(other.and_then(|o| o.typical(0.5)))),
        ("other_p90_us", opt(other.and_then(|o| o.typical(0.9)))),
        ("peak_cpu_us_per_op", Value::from(peak_cpu_us)),
        (
            "open_cpu_us_per_op",
            opt(exact_quantile(&gen.cpu_us_per_op, 0.5)),
        ),
        ("open_cpu_us_per_op_pooled", Value::from(open_cpu_us_pooled)),
        ("probe_us", opt(exact_quantile(&gen.probe_us, 0.5))),
    ]);

    let report = obj([
        ("report", Value::from("fsbench")),
        ("workload", Value::from(args.workload.as_str())),
        ("seed", int(args.seed)),
        ("seconds", int(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("git_rev", Value::from(host::git_rev())),
        ("nproc", int(nproc as u64)),
        ("pinned_cpu", int(cpu as u64)),
        ("scratch_fs", Value::from(host::fs_type(Path::new(".")))),
        ("settings", settings.describe()),
        ("sizes", sizes(&args.workload)),
        ("open_loop_rps", Value::from(shape.rate)),
        ("closed_loop_depth", int(DEPTH as u64)),
        ("window_ms", Value::from(WINDOW.as_secs_f64() * 1e3)),
        ("point_op", Value::from(shape.point.name())),
        ("other_op", Value::from(shape.other.name())),
        (
            "tier_budget_bytes",
            match &mix {
                Mix::Embeddings(_, tiers) => {
                    Value::Seq(tiers.iter().map(|t| int(t.budget_bytes)).collect())
                }
                _ => Value::Null,
            },
        ),
        (
            "setup_s",
            Value::Seq(setup_s.iter().map(|&s| Value::from(s)).collect()),
        ),
        (
            "setup_phases_s",
            obj(phases.iter().map(|&(n, s)| (n, Value::from(s)))),
        ),
        ("ungated", ungated),
        ("ops", obj(ops)),
        (
            "peak_rps_windows",
            Value::Seq(peak.windows.iter().map(|&r| Value::from(r)).collect()),
        ),
        ("peak_completed", int(peak.completed)),
        ("recall_at_10", opt(recall)),
        ("workload_layers", workload_layers),
        ("fresh_ms", load::summary(&fresh_ms)),
        ("repl_lag_epochs", load::summary(&lag)),
        ("gen_late_us", load::summary(&gen.late_us)),
        ("gen_sent_behind", int(gen.sent_behind)),
        ("gen_sent", int(gen.sent)),
        (
            "probe_us_windows",
            Value::Seq(gen.probe_us.iter().map(|&c| Value::from(c)).collect()),
        ),
        (
            "open_cpu_us_windows",
            Value::Seq(gen.cpu_us_per_op.iter().map(|&c| Value::from(c)).collect()),
        ),
        ("spans", int(tracer.len() as u64)),
        ("host_stall_frac", Value::from(stall_frac)),
        ("host_steal_frac", Value::from(steal_frac)),
        ("open_loop_usage", open_usage.describe()),
        ("open_loop_counts", open_counts),
        ("closed_loop_usage", peak_usage.describe()),
        ("rss_mb", Value::from(rss_mb)),
        (
            "errors",
            Value::Seq(
                ledger
                    .errors
                    .iter()
                    .map(|e| Value::from(e.as_str()))
                    .collect(),
            ),
        ),
    ]);

    let correct = ledger.wrong() == 0;
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", int(ledger.attempted())),
        ("failed", int(ledger.failed())),
        ("metrics", obj(metrics)),
    ]);
    drop(router);
    let tiers = match mix {
        Mix::Embeddings(_, tiers) => Some(tiers),
        _ => None,
    };
    shutdown(cluster, tiers);
    Ok((report, result, correct))
}

fn leader_snapshots(cluster: &Cluster) -> Vec<MetricsSnapshot> {
    cluster
        .shards
        .iter()
        .map(|s| s.server.metrics().snapshot())
        .collect()
}

/// Follower rows that differ from their leader's (after convergence).
fn replica_divergence(cluster: &Cluster) -> u64 {
    let mut diverged = 0;
    for shard in &cluster.shards {
        let Some(replica) = &shard.replica else {
            continue;
        };
        let mut leader = shard.parts.online.export_rows();
        let mut follower = replica.follower.online().export_rows();
        leader.sort_by(|a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)));
        follower.sort_by(|a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)));
        if leader.len() != follower.len() {
            diverged += leader.len().abs_diff(follower.len()) as u64;
        }
        diverged += leader
            .iter()
            .zip(&follower)
            .filter(|(l, f)| l.0 != f.0 || l.1 != f.1 || l.2 != f.2 || l.3.value != f.3.value)
            .count() as u64;
    }
    diverged
}

/// The per-layer metrics of a traced run (see `NOTES.md` for what
/// each one measures and which end-to-end figure it should move), and the
/// layer times only one workload has, which go to the report line: every
/// time in the metrics is measured on every workload. Counts and ratios
/// of a layer a workload does not exercise report 0.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    cluster: &Cluster,
    mix: &Mix,
    shape: &Shape,
    samples: &[layers::Sample],
    phases: &[(&'static str, f64)],
    (wal_before, wal_after): (&[MetricsSnapshot], &[MetricsSnapshot]),
    (peak_before, peak_after): (&[MetricsSnapshot], &[MetricsSnapshot]),
    puts_open: u64,
    fresh_ms: &[f64],
    lag: &[f64],
    tracer: &mut Tracer,
) -> Result<(Metrics, Metrics)> {
    let mut m = Metrics::new();
    let mut only = Metrics::new();
    let (pe, pw, pr, pn) = layers::split(samples, shape.point);
    let (oe, ow, or, on) = layers::split(samples, shape.other);
    if pn == 0 || on == 0 {
        return Err(FsError::Storage(format!(
            "layer sampling collected {pn} {} and {on} {} samples",
            shape.point.name(),
            shape.other.name()
        )));
    }
    m.push(("engine.point_us", metric(pe, "us")));
    m.push(("wire.point_us", metric(pw, "us")));
    m.push(("router.point_us", metric(pr, "us")));
    m.push(("engine.other_us", metric(oe, "us")));
    m.push(("wire.other_us", metric(ow, "us")));
    m.push(("router.other_us", metric(or, "us")));

    // Server batching, shedding and the frame pool under the closed loop.
    let delta = |f: &dyn Fn(&MetricsSnapshot) -> u64| {
        leaders_sum(peak_after, f) - leaders_sum(peak_before, f)
    };
    let batches = delta(&|s| s.batches);
    let batched = delta(&|s| s.batched_requests);
    m.push((
        "server.batch_fill",
        metric(batched as f64 / batches.max(1) as f64, "requests"),
    ));
    m.push(("server.shed", metric(delta(&|s| s.shed) as f64, "count")));
    let hits = delta(&|s| s.wire.pool_hits);
    let misses = delta(&|s| s.wire.pool_misses);
    m.push((
        "wire.pool_hit_rate",
        metric(hits as f64 / (hits + misses).max(1) as f64, "ratio"),
    ));
    let snaps = leader_snapshots(cluster);
    m.push((
        "wire.embed_copies",
        metric(leaders_sum(&snaps, |s| s.wire.embed_copies) as f64, "count"),
    ));

    // Index and tier (embeddings).
    let (recall_shard, recall) = match mix {
        Mix::Embeddings(e, _) => {
            let (search_us, recall_shard) = catalog_probe(cluster, e);
            let spilled: Vec<f64> = samples
                .iter()
                .filter(|s| s.job.op == Op::Embed)
                .filter(|s| {
                    let v = embeddings::tag_version(s.job.tag);
                    v != 0 && v != embeddings::VERSIONS
                })
                .map(|s| s.engine_us)
                .collect();
            only.push(("catalog.search_us", Value::from(search_us)));
            only.push(("embed.spilled_us", opt(exact_quantile(&spilled, 0.5))));
            (recall_shard, e.recall())
        }
        _ => (0.0, 0.0),
    };
    m.push(("index.recall_shard", metric(recall_shard, "ratio")));
    m.push(("quality.recall_at_10", metric(recall, "ratio")));
    let mut tier = None::<fstore_serve::TierSnapshot>;
    for s in &snaps {
        if let Some(t) = &s.tier {
            match tier.as_mut() {
                Some(merged) => merged.merge(t),
                None => tier = Some(t.clone()),
            }
        }
    }
    if let Some(t) = &tier {
        only.push(("tier.fault_p50_us", opt(t.fault_p50_ms.map(|ms| ms * 1e3))));
    }
    let tier = tier.unwrap_or_default();
    m.push((
        "tier.hit_rate",
        metric(tier.hit_rate.unwrap_or(0.0), "ratio"),
    ));
    m.push(("tier.faults", metric(tier.faults as f64, "count")));
    m.push((
        "tier.peak_resident_bytes",
        metric(tier.peak_resident_bytes as f64, "bytes"),
    ));

    // WAL and replication (ingest).
    let fsyncs =
        leaders_sum(wal_after, |s| s.wal_fsyncs) - leaders_sum(wal_before, |s| s.wal_fsyncs);
    let wal_bytes =
        leaders_sum(wal_after, |s| s.wal_bytes) - leaders_sum(wal_before, |s| s.wal_bytes);
    let per_put = |x: u64| {
        if puts_open == 0 {
            0.0
        } else {
            x as f64 / puts_open as f64
        }
    };
    m.push(("wal.fsyncs_per_put", metric(per_put(fsyncs), "count")));
    m.push(("wal.bytes_per_put", metric(per_put(wal_bytes), "bytes")));
    let fallbacks: u64 = cluster
        .shards
        .iter()
        .filter_map(|s| s.replica.as_ref())
        .map(|r| r.follower.fallbacks())
        .sum();
    m.push(("repl.fallbacks", metric(fallbacks as f64, "count")));
    m.push((
        "repl.lag_p90_epochs",
        metric(exact_quantile(lag, 0.9).unwrap_or(0.0), "epochs"),
    ));
    let snapshot_bytes = match mix {
        Mix::Ingest(_) => {
            let (bytes, fetch_ms, decode_ms, bootstrap_ms) = snapshot_probe(cluster, tracer)?;
            only.push(("repl.fresh_p50_ms", opt(exact_quantile(fresh_ms, 0.5))));
            only.push(("repl.snapshot_fetch_ms", Value::from(fetch_ms)));
            only.push(("codec.snapshot_decode_ms", Value::from(decode_ms)));
            only.push(("repl.bootstrap_ms", Value::from(bootstrap_ms)));
            bytes
        }
        _ => 0.0,
    };
    m.push(("repl.snapshot_bytes", metric(snapshot_bytes, "bytes")));

    // Set-up: server start, data load, and everything from there to the
    // first answer (index build and demotion, follower catch-up, router
    // connect); the finer phases are in the report's `setup_phases_s`.
    let phase = |name: &str| phases.iter().find(|(n, _)| *n == name).map_or(0.0, |p| p.1);
    let ready: f64 = phases
        .iter()
        .filter(|(n, _)| *n != "start" && *n != "seed")
        .map(|p| p.1)
        .sum();
    m.push(("setup.start_s", metric(phase("start"), "s")));
    m.push(("setup.seed_s", metric(phase("seed"), "s")));
    m.push(("setup.ready_s", metric(ready, "s")));
    Ok((m, only))
}

/// `IndexCatalog::search` in process on every shard for part of the
/// query pool: median time per call, and recall against each shard's own
/// exact top-k.
fn catalog_probe(cluster: &Cluster, mix: &embeddings::Mix) -> (f64, f64) {
    const PROBES: usize = 64;
    let map = cluster.map();
    let mut times = Vec::new();
    let mut recall = 0.0;
    let mut n = 0usize;
    for (s, shard) in cluster.shards.iter().enumerate() {
        let owned: Vec<(usize, Vec<f32>)> = (0..embeddings::KEYS)
            .filter(|&i| {
                let id = map.shard_for(&embeddings::key(i));
                cluster.shards[s].id == id
            })
            .map(|i| (i, embeddings::vector(mix.seed, embeddings::VERSIONS, i)))
            .collect();
        for q in mix.queries.vectors.iter().take(PROBES) {
            let t = Instant::now();
            let outcome = shard.parts.indexes.search(
                embeddings::TABLE,
                q,
                embeddings::K,
                &fstore_index::SearchParams::default(),
            );
            times.push(t.elapsed().as_secs_f64() * 1e6);
            let truth = embeddings::exact_topk(q, &owned, embeddings::K);
            if let Ok(outcome) = outcome {
                let found = outcome
                    .hits
                    .iter()
                    .filter(|h| data::key_index(&h.key).is_some_and(|i| truth.contains(&i)))
                    .count();
                recall += found as f64 / embeddings::K as f64;
            }
            n += 1;
        }
    }
    (
        exact_quantile(&times, 0.5).unwrap_or(0.0),
        recall / n.max(1) as f64,
    )
}

/// Pull shard 0's full snapshot over the wire, decode it with the
/// replication codec, then bootstrap a fresh follower from the leader.
fn snapshot_probe(cluster: &Cluster, tracer: &mut Tracer) -> Result<(f64, f64, f64, f64)> {
    let shard = &cluster.shards[0];
    let addr = shard.server.addr();
    let mut client = FeatureClient::connect(addr)
        .map_err(|e| FsError::Storage(format!("connect {addr}: {e}")))?;
    let (fetched, fetch_us) = tracer.time("repl.snapshot_fetch", 0, 0, || client.repl_snapshot());
    let (_, payload) = fetched.map_err(|e| FsError::Storage(format!("snapshot fetch: {e}")))?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| FsError::Serde(format!("snapshot not UTF-8: {e}")))?;
    let (decoded, decode_us) = tracer.time("codec.snapshot_decode", 0, 0, || {
        fstore_durable::codec::decode::<fstore_repl::FullSnapshot>(text)
    });
    decoded?;
    let (follower, bootstrap_us) = tracer.time("repl.bootstrap", 0, 0, || {
        fstore_repl::Follower::bootstrap(addr.to_string())
    });
    let follower = follower?;
    if follower.online().len() != shard.parts.online.len() {
        return Err(FsError::Storage(format!(
            "bootstrapped follower holds {} rows, leader {}",
            follower.online().len(),
            shard.parts.online.len()
        )));
    }
    Ok((
        payload.len() as f64,
        fetch_us / 1e3,
        decode_us / 1e3,
        bootstrap_us / 1e3,
    ))
}
