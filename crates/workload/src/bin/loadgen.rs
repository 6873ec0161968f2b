//! `loadgen` — run a named workload scenario (or replay a recorded trace)
//! against the serving engine and emit a machine-readable JSON load report;
//! or serve an engine over the `svgic-net` wire protocol.
//!
//! ```text
//! loadgen --scenario flash-sale --seed 7          # generate, record, drive
//! loadgen --scenario steady-mall --nodes 4        # drive a 4-node in-process cluster
//! loadgen --replay target/loadgen/flash-sale-seed7.trace
//! loadgen serve --port 7741                       # serve one engine over TCP
//! loadgen --scenario steady-mall --connect 127.0.0.1:7741
//! loadgen --scenario steady-mall --connect 127.0.0.1:7741,127.0.0.1:7742
//! loadgen metrics --connect 127.0.0.1:7741        # scrape a live server's metrics
//! loadgen watch --connect 127.0.0.1:7741,127.0.0.1:7742   # live fleet table
//! loadgen serve --port 7741 --obs                 # serve with the flight recorder on
//! loadgen profile --connect 127.0.0.1:7741        # ledger + waterfalls + flamegraph
//! loadgen --scenario churn-heavy --trace-out target/trace.json
//! loadgen --list-scenarios                        # named scenarios
//! ```
//!
//! The whole flag surface is defined once in [`svgic_workload::cli`] — the
//! `--help` text is generated from the same table the parser runs on, so
//! they cannot drift. The JSON report goes to stdout (and `--out <path>`
//! when given); the generated trace is recorded next to it so any run can be
//! replayed bit-identically. The same `(scenario, seed)` trace produces the
//! identical configuration digest in-process, over one TCP server, and over
//! N server processes. Exit code is non-zero on any usage or IO error, so
//! CI can gate on it.

use std::process::ExitCode;

use svgic_net::{NetClient, NetServer};
use svgic_obs::{chrome_trace_json_with_counters, ObsConfig, SpanRecord, TelemetrySample, Tracer};
use svgic_workload::cli::{self, Args};
use svgic_workload::prelude::*;
use svgic_workload::report::REPORT_SCHEMA;

fn engine_config(args: &Args) -> svgic_engine::EngineConfig {
    svgic_engine::EngineConfig {
        workers: args.workers,
        // The driver (or the remote clients) own the flush clock; spontaneous
        // auto-flushes would blur the open/closed-loop distinction and make
        // served configurations depend on how requests interleave.
        auto_flush_pending: 0,
        policy: svgic_engine::ResolvePolicy {
            warm_start_lp: !args.cold_lp,
            ..svgic_engine::ResolvePolicy::default()
        },
        obs: if args.obs {
            ObsConfig::enabled()
        } else {
            ObsConfig::default()
        },
        ..svgic_engine::EngineConfig::default()
    }
}

/// `loadgen serve --port N`: front one engine with a `svgic-net` server on
/// loopback and block until a client sends shutdown. The bound address is
/// printed on stdout (relevant with `--port 0`).
fn run_serve(args: &Args) -> Result<(), String> {
    let port = args.port.expect("validated");
    let engine = svgic_engine::Engine::new(engine_config(args));
    let workers = engine.workers(); // resolved: `0` means one per core
    let server = NetServer::bind(("127.0.0.1", port), engine)
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    if !args.quiet {
        eprintln!(
            "loadgen: serving svgic-net v1 on {} ({workers} workers); stop with a shutdown frame",
            server.local_addr(),
        );
    }
    println!("{}", server.local_addr());
    server.join();
    Ok(())
}

/// `loadgen metrics --connect host:port[,…]`: scrape each live server's
/// metrics registry (one `QueryStats` frame per node, rendered by
/// `StatsSnapshot::metrics`) and print one flat JSON object per node, in
/// address order — one `"name": value` member per metric in the registry's
/// pinned order.
fn run_metrics(args: &Args) -> Result<(), String> {
    use svgic_engine::EngineTransport;
    let mut out = String::new();
    for addr in &args.connect {
        let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let metrics = client
            .stats()
            .map_err(|e| format!("query stats from {addr}: {e}"))?
            .metrics();
        // Keys are ident-safe ASCII and values finite by the registry
        // contract, so plain Display formatting yields valid JSON.
        if !out.is_empty() {
            out.push('\n');
        }
        out.push('{');
        for (i, (name, value)) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n  \"{name}\": {value}"));
        }
        out.push_str("\n}");
    }
    write_out(args, &out)?;
    println!("{out}");
    Ok(())
}

/// Formats nanoseconds for the profile report (`1.2µs`, `3.4ms`, `5.6s`).
fn human_nanos(nanos: u64) -> String {
    let nanos = nanos as f64;
    if nanos < 1_000.0 {
        format!("{nanos:.0}ns")
    } else if nanos < 1_000_000.0 {
        format!("{:.1}µs", nanos / 1_000.0)
    } else if nanos < 1_000_000_000.0 {
        format!("{:.1}ms", nanos / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos / 1_000_000_000.0)
    }
}

/// `loadgen profile --connect host:port[,…]`: fetch each node's snapshot
/// (one `QueryStats` frame per node) and print, per node: the per-phase span
/// breakdown, the queue-wait decomposition, the per-template solve ledger
/// with miss causes, the top-K-slowest request waterfalls, and a
/// collapsed-stack (flamegraph folded) export. The span sections need the server to run with
/// `loadgen serve --obs`; the ledger and queue-wait sections are always on.
fn run_profile(args: &Args) -> Result<(), String> {
    use svgic_engine::EngineTransport;
    let mut out = String::new();
    for addr in &args.connect {
        let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let stats = client
            .stats()
            .map_err(|e| format!("query stats from {addr}: {e}"))?;
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!("node {addr}\n"));

        let qw = &stats.queue_wait_latency;
        out.push_str(&format!(
            "  queue-wait: count {} mean {} p50 {} p99 {} max {}\n",
            qw.count(),
            human_nanos(qw.sum_nanos() / qw.count().max(1)),
            human_nanos(qw.quantile_nanos(0.50)),
            human_nanos(qw.quantile_nanos(0.99)),
            human_nanos(qw.max_nanos()),
        ));

        if stats.phases.is_empty() {
            out.push_str(
                "  phases: no spans recorded (serve with `loadgen serve --obs` to trace)\n",
            );
        } else {
            out.push_str("  phases (span aggregates, pipeline order):\n");
            out.push_str(&format!(
                "    {:<14} {:>8} {:>10} {:>10} {:>10}\n",
                "PHASE", "COUNT", "TOTAL", "MEAN", "MAX"
            ));
            for agg in &stats.phases {
                out.push_str(&format!(
                    "    {:<14} {:>8} {:>10} {:>10} {:>10}\n",
                    agg.phase.name(),
                    agg.count,
                    human_nanos(agg.total_nanos),
                    human_nanos(agg.total_nanos / agg.count.max(1)),
                    human_nanos(agg.max_nanos),
                ));
            }
        }

        if stats.profile.is_empty() {
            out.push_str("  ledger: empty (no solves attributed yet)\n");
        } else {
            // Rank by cold nanoseconds — the cost the profile exists to
            // attribute — with the fingerprint as a deterministic tiebreak.
            let mut ranked: Vec<_> = stats.profile.iter().collect();
            ranked.sort_by(|a, b| {
                b.cold_nanos
                    .cmp(&a.cold_nanos)
                    .then(a.template_fingerprint.cmp(&b.template_fingerprint))
            });
            out.push_str(&format!(
                "  ledger ({} templates, {} unattributed):\n",
                stats.profile.len(),
                stats.profile_dropped,
            ));
            out.push_str(&format!(
                "    {:<18} {:>7} {:>6} {:>6} {:>10} {:>10} {:>5} {:>8} {:>10}\n",
                "TEMPLATE",
                "SOLVES",
                "WARM",
                "COLD",
                "WARM(t)",
                "COLD(t)",
                "NEW",
                "EVICTED",
                "COMPONENT"
            ));
            for entry in &ranked {
                out.push_str(&format!(
                    "    0x{:016x} {:>7} {:>6} {:>6} {:>10} {:>10} {:>5} {:>8} {:>10}\n",
                    entry.template_fingerprint,
                    entry.solves(),
                    entry.warm_solves,
                    entry.cold_solves,
                    human_nanos(entry.warm_nanos),
                    human_nanos(entry.cold_nanos),
                    entry.miss_new,
                    entry.miss_evicted,
                    entry.miss_component_changed,
                ));
            }
        }

        if !stats.waterfalls.is_empty() {
            out.push_str(&format!(
                "  waterfalls (top {} slowest requests):\n",
                stats.waterfalls.len()
            ));
            for wf in &stats.waterfalls {
                out.push_str(&format!(
                    "    request {} — {}\n",
                    wf.request_id,
                    human_nanos(wf.total_nanos)
                ));
                for span in &wf.spans {
                    let shard = if span.shard == SpanRecord::NO_SHARD {
                        String::new()
                    } else {
                        format!("  [shard {}]", span.shard)
                    };
                    out.push_str(&format!(
                        "      +{:<10} {:<14} {}{}\n",
                        human_nanos(span.start_nanos),
                        span.phase.name(),
                        human_nanos(span.duration_nanos),
                        shard,
                    ));
                }
            }
        }

        if !stats.collapsed.is_empty() {
            out.push_str("  collapsed stacks (flamegraph folded format):\n");
            for line in stats.collapsed.lines() {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    write_out(args, &out)?;
    print!("{out}");
    Ok(())
}

/// One node's row in the watch table, decoded from its metrics scrape.
struct WatchRow {
    health: String,
    sessions: u64,
    requests: u64,
    rps: Option<f64>,
    queue_depth: u64,
    p99_queue_us: f64,
    p99_warm_us: f64,
    p99_cold_us: f64,
    mem_bytes: u64,
}

/// Pulls one watch row out of a metrics scrape, computing the
/// request rate from the previous poll's counter when there is one.
fn watch_row(metrics: &[(String, f64)], previous: Option<(u64, std::time::Instant)>) -> WatchRow {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, value)| value)
            .unwrap_or(0.0)
    };
    let requests = get("requests") as u64;
    let rps = previous.and_then(|(before, when)| {
        let dt = when.elapsed().as_secs_f64();
        (dt > 0.0).then(|| requests.saturating_sub(before) as f64 / dt)
    });
    let health = match get("health") as u8 {
        0 => "ok",
        1 => "degraded",
        _ => "overloaded",
    };
    WatchRow {
        health: health.to_string(),
        sessions: (get("sessions_created") as u64).saturating_sub(get("sessions_closed") as u64),
        requests,
        rps,
        queue_depth: get("queue_depth") as u64,
        p99_queue_us: get("p99_queue_wait_seconds") * 1e6,
        p99_warm_us: get("p99_warm_solve_seconds") * 1e6,
        p99_cold_us: get("p99_cold_solve_seconds") * 1e6,
        mem_bytes: get("mem_total_bytes") as u64,
    }
}

/// Human-scaled byte count for the watch table (`0 B` … `1.2 GiB`): always
/// carries a unit, even below 1 KiB.
fn human_bytes(bytes: u64) -> String {
    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * KIB;
    const GIB: u64 = 1024 * MIB;
    match bytes {
        0..KIB => format!("{bytes} B"),
        KIB..MIB => format!("{:.1} KiB", bytes as f64 / KIB as f64),
        MIB..GIB => format!("{:.1} MiB", bytes as f64 / MIB as f64),
        _ => format!("{:.1} GiB", bytes as f64 / GIB as f64),
    }
}

/// `loadgen watch --connect host:port[,…]`: poll every node's metrics on an
/// interval and redraw a fleet table — per-node request rate, live sessions,
/// queue depth, p99 solve latency by class, accounted memory, and SLO
/// health. `--once` prints a single table and exits (the CI smoke path); the
/// request-rate column needs two polls and reads `-` on the first.
fn run_watch(args: &Args) -> Result<(), String> {
    use svgic_engine::EngineTransport;
    let mut nodes = Vec::new();
    for addr in &args.connect {
        let client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        nodes.push((addr.clone(), client, None));
    }
    loop {
        let mut rows = Vec::new();
        for (addr, client, previous) in &mut nodes {
            let metrics = client
                .stats()
                .map_err(|e| format!("query stats from {addr}: {e}"))?
                .metrics();
            let row = watch_row(&metrics, *previous);
            // lint: allow(wall-clock, live watch display computes a req/s rate; nothing else reads it)
            *previous = Some((row.requests, std::time::Instant::now()));
            rows.push((addr.clone(), row));
        }
        if !args.once {
            // Clear and home, then redraw — a poor man's top(1).
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "{:<22} {:>10} {:>9} {:>7} {:>14} {:>13} {:>13} {:>10}  HEALTH",
            "NODE",
            "REQ/S",
            "SESSIONS",
            "QUEUE",
            "P99 QWAIT(µs)",
            "P99 WARM(µs)",
            "P99 COLD(µs)",
            "MEM"
        );
        for (addr, row) in &rows {
            println!(
                "{:<22} {:>10} {:>9} {:>7} {:>14.1} {:>13.1} {:>13.1} {:>10}  {}",
                addr,
                row.rps
                    .map_or_else(|| "-".to_string(), |r| format!("{r:.0}")),
                row.sessions,
                row.queue_depth,
                row.p99_queue_us,
                row.p99_warm_us,
                row.p99_cold_us,
                human_bytes(row.mem_bytes),
                row.health,
            );
        }
        if args.once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms));
    }
}

/// Writes spans plus telemetry counter tracks as Chrome trace-event JSON
/// (creating parent directories), with a pointer to the viewers that open
/// it.
fn write_trace(
    args: &Args,
    path: &str,
    spans: &[SpanRecord],
    samples: &[TelemetrySample],
) -> Result<(), String> {
    let json = chrome_trace_json_with_counters(spans, samples, 0);
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir for {path}: {e}"))?;
        }
    }
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    if !args.quiet {
        eprintln!(
            "  {} spans + {} counter samples traced to {path} (open in ui.perfetto.dev or chrome://tracing)",
            spans.len(),
            samples.len(),
        );
    }
    Ok(())
}

/// Obtains the trace: generate from a scenario (recording it unless told
/// otherwise), or load a recording.
fn obtain_trace(args: &Args) -> Result<(Trace, Option<String>), String> {
    match (&args.scenario, &args.replay) {
        (None, Some(path)) => {
            let trace = Trace::read_from_file(path).map_err(|e| e.to_string())?;
            Ok((trace, None))
        }
        (Some(name), None) => {
            let mut scenario = Scenario::by_name(name).ok_or_else(|| {
                let names: Vec<String> = Scenario::all().into_iter().map(|s| s.name).collect();
                format!("unknown scenario `{name}` (have: {})", names.join(", "))
            })?;
            if args.smoke {
                scenario = scenario.smoke();
            }
            if let Some(ticks) = args.ticks {
                scenario.ticks = ticks.max(1);
            }
            let seed = args.seed.unwrap_or(1);
            let trace = generate(&scenario, seed);
            let path = if args.no_record {
                None
            } else {
                let path = args.record.clone().unwrap_or_else(|| {
                    format!("target/loadgen/{}-seed{}.trace", scenario.name, seed)
                });
                trace
                    .write_to_file(&path)
                    .map_err(|e| format!("record {path}: {e}"))?;
                Some(path)
            };
            Ok((trace, path))
        }
        _ => unreachable!("validated"),
    }
}

/// The chaos plan a cluster run injects: generated from `--chaos <seed>`
/// over the run's node count and tick span, inactive otherwise. Replays with
/// the same seed walk the identical fault schedule.
fn chaos_plan(args: &Args, trace: &Trace, nodes: usize) -> svgic_cluster::ChaosPlan {
    match args.chaos {
        Some(seed) => svgic_cluster::ChaosPlan::generate(seed, nodes, trace.ticks),
        None => svgic_cluster::ChaosPlan::inactive(),
    }
}

fn write_out(args: &Args, json: &str) -> Result<(), String> {
    if let Some(path) = &args.out {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| format!("mkdir for {path}: {e}"))?;
            }
        }
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(())
}

fn print_single_summary(args: &Args, report: &LoadReport, recorded: &Option<String>, via: &str) {
    if args.quiet {
        return;
    }
    let o = &report.outcome;
    let all = o.latency.all();
    eprintln!(
        "loadgen: {} seed {} ({}, {} ticks{via}) — {} sessions, {} requests in {:.3}s",
        report.scenario,
        report.seed,
        o.mode.label(),
        report.ticks,
        o.sessions,
        o.requests,
        o.wall_seconds,
    );
    eprintln!(
        "  throughput {:.0} req/s | latency p50 {:.1}µs p95 {:.1}µs p99 {:.1}µs max {:.1}µs",
        o.throughput_rps(),
        all.quantile(0.50).as_secs_f64() * 1e6,
        all.quantile(0.95).as_secs_f64() * 1e6,
        all.quantile(0.99).as_secs_f64() * 1e6,
        all.max().as_secs_f64() * 1e6,
    );
    eprintln!(
        "  engine: {} solves ({:.0}% incremental, {:.0}% warm-started), cache hit rate {:.1}%, {:.0}% events coalesced",
        o.engine.solves(),
        100.0 * o.engine.incremental_fraction(),
        100.0 * o.engine.warm_start_rate(),
        100.0 * o.engine.cache_hit_rate(),
        100.0 * o.engine.coalesce_rate(),
    );
    eprintln!(
        "  shards: imbalance {:.2} (max/mean busy), {} cached factor entries",
        o.engine.shard_imbalance(),
        o.engine.total_cache_entries(),
    );
    eprintln!("  config digest 0x{:016x}", o.config_digest);
    if let Some(path) = recorded {
        eprintln!("  trace recorded to {path} (replay with --replay {path})");
    }
}

fn print_cluster_summary(
    args: &Args,
    report: &ClusterReport,
    recorded: &Option<String>,
    via: &str,
) {
    if args.quiet {
        return;
    }
    let o = &report.outcome;
    let all = o.latency.all();
    eprintln!(
        "loadgen: {} seed {} ({}, {} ticks{via}) — {} nodes, {} sessions, {} requests in {:.3}s",
        report.scenario,
        report.seed,
        o.mode.label(),
        report.ticks,
        o.nodes_initial,
        o.sessions,
        o.requests,
        o.wall_seconds,
    );
    eprintln!(
        "  wall throughput {:.0} req/s | scale-out projection {:.0} req/s \
         (busiest node {:.3}s of {:.3}s wall)",
        o.throughput_rps(),
        o.aggregate_throughput_rps(),
        o.makespan_seconds() - o.fabric_seconds,
        o.wall_seconds,
    );
    eprintln!(
        "  latency p50 {:.1}µs p95 {:.1}µs p99 {:.1}µs max {:.1}µs (merged over nodes)",
        all.quantile(0.50).as_secs_f64() * 1e6,
        all.quantile(0.95).as_secs_f64() * 1e6,
        all.quantile(0.99).as_secs_f64() * 1e6,
        all.max().as_secs_f64() * 1e6,
    );
    eprintln!(
        "  fabric: {} migrations ({} warm), {} recoveries ({} warm capital lost), \
         {} kills, {} joins, {} rebalances",
        o.cluster.migrations,
        o.cluster.warm_capital_preserved,
        o.cluster.sessions_recovered,
        o.cluster.warm_capital_lost,
        o.cluster.nodes_killed,
        o.cluster.nodes_added.saturating_sub(o.nodes_initial as u64),
        o.cluster.rebalances,
    );
    if o.cluster.replication_bytes > 0 || o.cluster.nodes_killed > 0 {
        eprintln!(
            "  failover: {} standby promotions ({} replica bytes shipped), {} warm / {} cold kills",
            o.cluster.standby_promotions,
            o.cluster.replication_bytes,
            o.cluster.failover_warm,
            o.cluster.failover_cold,
        );
    }
    if o.chaos_injected_failures > 0 || o.chaos_injected_delays > 0 {
        eprintln!(
            "  chaos: {} requests absorbed+retried, {} delayed (digest unaffected)",
            o.chaos_injected_failures, o.chaos_injected_delays,
        );
    }
    eprintln!(
        "  fleet engine: {} solves ({:.0}% incremental, {:.0}% warm-started), cache hit rate {:.1}%",
        o.merged.solves(),
        100.0 * o.merged.incremental_fraction(),
        100.0 * o.merged.warm_start_rate(),
        100.0 * o.merged.cache_hit_rate(),
    );
    eprintln!("  config digest 0x{:016x}", o.config_digest);
    if let Some(path) = recorded {
        eprintln!("  trace recorded to {path} (replay with --replay {path})");
    }
}

/// Drives the trace and emits the report, routing by `--connect`/`--nodes`:
/// remote multi-process cluster, remote single engine, in-process cluster,
/// or bare in-process engine.
fn run_drive(args: &Args) -> Result<(), String> {
    let (trace, recorded_path) = obtain_trace(args)?;

    let json = if args.connect.len() > 1 {
        // Multi-process cluster: each address is one node backend; live
        // migrations travel over the wire as export/import round trips.
        // Connect the initial fleet up front so a typo fails with a clean
        // message instead of a panic mid-run; the spawner hands those
        // connections out, then cycles through the address list for any
        // joins past the initial fleet (another connection to an existing
        // server is a valid node).
        let mut fleet = std::collections::VecDeque::new();
        for addr in &args.connect {
            fleet.push_back(NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
        }
        let addresses = args.connect.clone();
        let mut handed_out = 0usize;
        let spawner = move |_cfg: &svgic_engine::EngineConfig| {
            handed_out += 1;
            fleet.pop_front().unwrap_or_else(|| {
                NetClient::connect(&addresses[(handed_out - 1) % addresses.len()])
                    .expect("remote node reachable")
            })
        };
        let driver = ClusterDriver::new(ClusterDriverConfig {
            mode: args.mode,
            warmup_ticks: args.warmup,
            nodes: args.connect.len(),
            vnodes: args.vnodes,
            plan: NodePlan::for_trace(&trace, args.connect.len()),
            replicate: args.replicate,
            chaos: chaos_plan(args, &trace, args.connect.len()),
            ..ClusterDriverConfig::default()
        });
        let outcome = driver.run_with(&trace, spawner);
        let mut report = ClusterReport::new(&trace, outcome);
        report.trace_path = recorded_path.clone();
        let via = format!(", over {} remote nodes", args.connect.len());
        print_cluster_summary(args, &report, &recorded_path, &via);
        report.to_json()
    } else if args.connect.len() == 1 {
        // One remote engine: the single-engine driver over a NetClient. With
        // `--trace-out` the client records its wire-side spans (encode /
        // round trip / decode) — the server's in-engine spans stay remote.
        let addr = &args.connect[0];
        let mut client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let tracer = args
            .trace_out
            .as_ref()
            .map(|_| Tracer::new(ObsConfig::enabled()));
        if let Some(tracer) = &tracer {
            client = client.with_tracer(tracer.clone());
        }
        let driver = LoadDriver::new(DriverConfig {
            mode: args.mode,
            warmup_ticks: args.warmup,
            ..DriverConfig::default()
        });
        let outcome = driver.run_on(&mut client, &trace);
        let mut report = LoadReport::new(&trace, outcome);
        report.trace_path = recorded_path.clone();
        print_single_summary(args, &report, &recorded_path, ", over TCP");
        if let (Some(path), Some(tracer)) = (&args.trace_out, &tracer) {
            write_trace(
                args,
                path,
                &tracer.spans(),
                &report.outcome.engine.telemetry,
            )?;
        }
        report.to_json()
    } else if args.nodes >= 1 {
        let driver = ClusterDriver::new(ClusterDriverConfig {
            mode: args.mode,
            warmup_ticks: args.warmup,
            nodes: args.nodes,
            vnodes: args.vnodes,
            engine: engine_config(args),
            plan: NodePlan::for_trace(&trace, args.nodes),
            replicate: args.replicate,
            chaos: chaos_plan(args, &trace, args.nodes),
            ..ClusterDriverConfig::default()
        });
        let outcome = driver.run(&trace);
        let mut report = ClusterReport::new(&trace, outcome);
        report.trace_path = recorded_path.clone();
        print_cluster_summary(args, &report, &recorded_path, "");
        report.to_json()
    } else {
        let driver = LoadDriver::new(DriverConfig {
            mode: args.mode,
            warmup_ticks: args.warmup,
            engine: engine_config(args),
        });
        let mut spans: Option<Vec<SpanRecord>> = None;
        let outcome = if args.trace_out.is_some() {
            // The driver normally builds its own engine; tracing needs one
            // constructed with obs enabled so the flight recorder retains
            // spans for the dump after the run. Served configurations are
            // identical either way — obs is strictly read-side.
            let mut config = engine_config(args);
            config.obs = ObsConfig::enabled();
            let mut engine = svgic_engine::Engine::new(config);
            let outcome = driver.run_on(&mut engine, &trace);
            spans = Some(engine.spans());
            outcome
        } else {
            driver.run(&trace)
        };
        let mut report = LoadReport::new(&trace, outcome);
        report.trace_path = recorded_path.clone();
        print_single_summary(args, &report, &recorded_path, "");
        if let (Some(path), Some(spans)) = (&args.trace_out, &spans) {
            write_trace(args, path, spans, &report.outcome.engine.telemetry)?;
        }
        debug_assert!(report.to_json().contains(REPORT_SCHEMA));
        report.to_json()
    };

    write_out(args, &json)?;
    println!("{json}");
    Ok(())
}

fn run() -> Result<(), String> {
    let args = cli::parse(std::env::args().skip(1))?;
    cli::validate(&args)?;
    if args.help {
        print!("{}", cli::usage());
        return Ok(());
    }
    if args.list {
        println!("named scenarios:");
        for scenario in Scenario::all() {
            println!("  {:<14} {} ticks", scenario.name, scenario.ticks);
        }
        return Ok(());
    }
    if args.serve {
        return run_serve(&args);
    }
    if args.metrics {
        return run_metrics(&args);
    }
    if args.watch {
        return run_watch(&args);
    }
    if args.profile {
        return run_profile(&args);
    }
    run_drive(&args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sub-1 KiB values always carry an explicit `B` unit (a bare number in
    /// the MEM column would read as a corrupt cell), and every power-of-1024
    /// tier up to GiB scales.
    #[test]
    fn human_bytes_scales_every_tier_with_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(1), "1 B");
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(1023), "1023 B");
        assert_eq!(human_bytes(1024), "1.0 KiB");
        assert_eq!(human_bytes(1536), "1.5 KiB");
        assert_eq!(human_bytes(1024 * 1024), "1.0 MiB");
        assert_eq!(human_bytes(5 * 1024 * 1024 + 256 * 1024), "5.2 MiB");
        assert_eq!(human_bytes(1024 * 1024 * 1024), "1.0 GiB");
        assert_eq!(
            human_bytes(3 * 1024 * 1024 * 1024 + 512 * 1024 * 1024),
            "3.5 GiB"
        );
    }

    #[test]
    fn human_nanos_picks_the_natural_unit() {
        assert_eq!(human_nanos(0), "0ns");
        assert_eq!(human_nanos(950), "950ns");
        assert_eq!(human_nanos(1_500), "1.5µs");
        assert_eq!(human_nanos(2_500_000), "2.5ms");
        assert_eq!(human_nanos(1_250_000_000), "1.25s");
    }

    /// The queue-wait column reads straight from the scraped metric.
    #[test]
    fn watch_rows_carry_queue_wait_p99() {
        let metrics = vec![
            ("requests".to_string(), 10.0),
            ("p99_queue_wait_seconds".to_string(), 0.000_25),
            ("p99_warm_solve_seconds".to_string(), 0.000_5),
            ("mem_total_bytes".to_string(), 900.0),
        ];
        let row = watch_row(&metrics, None);
        assert!((row.p99_queue_us - 250.0).abs() < 1e-9);
        assert_eq!(human_bytes(row.mem_bytes), "900 B");
    }
}
