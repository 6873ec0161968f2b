//! The benchmark's workloads and one measured pass over a workload.
//!
//! Every workload is a closed loop driven by one client thread, against an
//! engine with two workers and auto-flush off. A pass builds everything it
//! needs from the seed (trace, templates, engine or server process, warmup),
//! then replays the measured part of the trace.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::process::{Child, ChildStdin, Command, Stdio};

use svgic_core::SvgicInstance;
use svgic_engine::prelude::*;
use svgic_net::{NetClient, NetServer};
use svgic_workload::{ArrivalProcess, Scenario, TemplateSpec, Trace};

use crate::replay::{replay, Replayed};
use crate::spans::{nanos_between, now, seconds_between, SpanLog, SpanStats};
use crate::traffic::store_trace;

/// Seed of every workload's store: its instance templates. `--seed` draws
/// only the traffic (see [`crate::traffic`]).
pub const STORE_SEED: u64 = 7;

/// Engine worker threads in every workload.
pub const WORKERS: usize = 2;

/// How the client reaches the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// An `Engine` in the benchmark's own process.
    InProcess,
    /// One TCP connection to a child process serving one engine.
    Wire,
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Trace generator settings; `ticks` includes the warmup ticks.
    pub scenario: Scenario,
    /// Leading ticks replayed as set-up, before the measured window.
    pub warmup_ticks: usize,
    pub transport: Transport,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["flash-cold", "mall-warm", "churn-wire"];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            // Bursts and catalogue rotations keep producing LP instances the
            // factor cache has not seen: the cold exact LP does the work.
            "flash-cold" => Some(Workload {
                name: "flash-cold",
                scenario: Scenario {
                    ticks: 300 + 1_200,
                    ..Scenario::flash_sale()
                },
                warmup_ticks: 300,
                transport: Transport::InProcess,
            }),
            // No catalogue or lambda churn and a warmed-up engine: every
            // template is cached, so scheduling, incremental re-rounding and
            // the request path do the work.
            "mall-warm" => Some(Workload {
                name: "mall-warm",
                scenario: Scenario {
                    ticks: 200 + 2_400,
                    arrivals: ArrivalProcess::Poisson { rate: 12.0 },
                    catalog_churn: 0.0,
                    lambda_churn: 0.0,
                    ..Scenario::steady_mall()
                },
                warmup_ticks: 200,
                transport: Transport::InProcess,
            }),
            // Small groups keep the LP cheap, so the wire and the codec are
            // a large share of every request.
            "churn-wire" => Some(Workload {
                name: "churn-wire",
                scenario: Scenario {
                    ticks: 300 + 1_200,
                    ..Scenario::churn_heavy()
                },
                warmup_ticks: 300,
                transport: Transport::Wire,
            }),
            _ => None,
        }
    }
}

/// The engine configuration of every workload (and of the wire server).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        // The client owns the flush clock: one flush per trace tick.
        auto_flush_pending: 0,
        ..EngineConfig::default()
    }
}

/// The workload's trace for `seed`.
pub fn trace(workload: &Workload, seed: u64) -> Trace {
    store_trace(&workload.scenario, STORE_SEED, seed)
}

/// Builds a trace's template instances.
pub fn instances(trace: &Trace) -> Vec<SvgicInstance> {
    trace.templates.iter().map(TemplateSpec::build).collect()
}

/// One measured pass.
#[derive(Debug)]
pub struct Pass {
    pub traced: bool,
    /// Trace generation, template builds, server spawn and connect, and
    /// warmup: everything before the measured window.
    pub setup_s: f64,
    pub generate_s: f64,
    pub replayed: Replayed,
    /// Median round trip of `describe()` after the window.
    pub ping_p50_ns: u64,
    /// `VmHWM` of the process hosting the engine at the end of the pass:
    /// the server process, or this process for in-process workloads (where
    /// it also covers the earlier passes).
    pub peak_rss_kb: u64,
    /// Share of the vCPUs' time during the pass that the hypervisor gave
    /// to other guests (`steal` in `/proc/stat`). Every timing of the pass
    /// is slowed by it; it explains runs that disagree.
    pub steal_share: f64,
    /// Spans of a traced pass (empty when untraced), their summary and
    /// their p99 duration per name.
    pub spans: SpanLog,
    pub span_summary: BTreeMap<&'static str, SpanStats>,
    pub span_p99_ns: BTreeMap<&'static str, u64>,
}

/// `describe()` round trips timed after the measured window.
const PINGS: usize = 200;

fn ping_p50<T: EngineTransport>(engine: &mut T) -> Result<u64, String> {
    let mut samples = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = now();
        engine.describe().map_err(|e| format!("describe: {e}"))?;
        samples.push(nanos_between(t0, now()));
    }
    samples.sort_unstable();
    Ok(samples[samples.len() / 2])
}

/// Runs one pass of `workload` on the traffic of `seed`.
pub fn run_pass(workload: &Workload, seed: u64, traced: bool) -> Result<Pass, String> {
    let start = now();
    let steal_start = host_steal_s().ok_or("cannot read steal time from /proc/stat")?;
    let trace = trace(workload, seed);
    let generate_s = seconds_between(start, now());
    let instances = instances(&trace);
    let mut spans = SpanLog::new(traced);
    let (replayed, ping_p50_ns, peak_rss_kb) = match workload.transport {
        Transport::InProcess => {
            let mut engine = Engine::new(engine_config());
            let replayed = replay(
                &mut engine,
                &trace,
                &instances,
                workload.warmup_ticks,
                &mut spans,
            );
            let ping = ping_p50(&mut engine)?;
            (replayed, ping, peak_rss_kb("/proc/self/status"))
        }
        Transport::Wire => {
            let server = ServerProcess::spawn()?;
            let mut client = server.connect()?;
            let replayed = replay(
                &mut client,
                &trace,
                &instances,
                workload.warmup_ticks,
                &mut spans,
            );
            let ping = ping_p50(&mut client)?;
            let rss = peak_rss_kb(&format!("/proc/{}/status", server.id()));
            server.shutdown(client)?;
            (replayed, ping, rss)
        }
    };
    let measure_start = replayed
        .measure_start
        .ok_or("the trace ended before the measured window began")?;
    let steal_s = host_steal_s().ok_or("cannot read steal time from /proc/stat")? - steal_start;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Pass {
        traced,
        setup_s: seconds_between(start, measure_start),
        generate_s,
        replayed,
        ping_p50_ns,
        peak_rss_kb: peak_rss_kb.ok_or("cannot read VmHWM from /proc")?,
        steal_share: steal_s / (seconds_between(start, now()) * cpus as f64),
        span_summary: spans.summary(),
        span_p99_ns: spans.quantiles(0.99),
        spans,
    })
}

/// Steal time of all vCPUs since boot, in seconds: the eighth field of the
/// `cpu` line of `/proc/stat`, in clock ticks of 1/100 s.
fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks as f64 / 100.0)
}

/// `VmHWM` (peak resident set, in kB) from a `/proc/<pid>/status` file.
pub fn peak_rss_kb(status_path: &str) -> Option<u64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The benchmark binary re-run as `serve`: one engine behind a `svgic-net`
/// server on an ephemeral loopback port, as `loadgen serve --port 0
/// --workers 2` runs it. Prints the bound address, then serves until its
/// standard input is closed.
///
/// The parent does not stop it with a shutdown frame: `NetServer::join`
/// can return before the connection's writer thread has sent the shutdown
/// acknowledgement, and when the process exits first the client reads a
/// closed connection instead of the acknowledgement.
pub fn serve() -> Result<(), String> {
    let server = NetServer::bind(("127.0.0.1", 0), Engine::new(engine_config()))
        .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
    println!("{}", server.local_addr());
    io::copy(&mut io::stdin().lock(), &mut io::sink()).map_err(|e| format!("read stdin: {e}"))?;
    Ok(())
}

/// A child `serve` process; killed and reaped on drop if it was not shut
/// down cleanly.
struct ServerProcess {
    child: Option<Child>,
    /// The child's standard input; closing it stops the server.
    stdin: Option<ChildStdin>,
    addr: String,
}

impl ServerProcess {
    fn spawn() -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take();
        let mut server = ServerProcess {
            child: Some(child),
            stdin,
            addr: String::new(),
        };
        BufReader::new(stdout)
            .read_line(&mut server.addr)
            .map_err(|e| format!("read server address: {e}"))?;
        server.addr = server.addr.trim().to_string();
        if server.addr.is_empty() {
            return Err("server exited before printing its address".into());
        }
        Ok(server)
    }

    fn id(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn connect(&self) -> Result<NetClient, String> {
        NetClient::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Hangs up, closes the server's standard input and waits for it to
    /// exit cleanly.
    fn shutdown(mut self, client: NetClient) -> Result<(), String> {
        drop(client);
        drop(self.stdin.take());
        let mut child = self.child.take().expect("server not yet reaped");
        let status = child.wait().map_err(|e| format!("wait for server: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
