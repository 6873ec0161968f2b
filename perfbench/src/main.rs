//! The repository benchmark: replays generated workload traces against the
//! svgic serving engine and prints end-to-end or per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flash-cold|mall-warm|churn-wire> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats passes until `--seconds` are spent. Each pass draws its
//! own traffic from `--seed`, starts from a fresh engine (or server
//! process), and measures one closed-loop replay after its warmup.
//! `--trace 0` prints the end-to-end metrics, pooled over the passes.
//! `--trace 1` alternates untraced passes with traced passes that replay the
//! same traffic, runs the layer probes, and prints the per-layer metrics; it
//! writes the spans of its first traced pass to
//! `.bench_out/spans-<workload>.tsv`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The run
//! exits 1 when a served configuration is invalid, when a timed and a traced
//! pass over the same traffic disagree on the configuration digest, or when
//! the wire workload's digest differs from an in-process replay of the same
//! trace. Usage and I/O errors exit 2 without a result.

mod metrics;
mod probe;
mod replay;
mod spans;
mod traffic;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use svgic_core::SvgicInstance;
use svgic_engine::Engine;
use svgic_workload::{Trace, TraceEvent};

use crate::metrics::Report;
use crate::replay::{replay, Frame, Tap};
use crate::spans::{now, seconds_between, SpanLog};
use crate::workload::{engine_config, run_pass, Pass, Transport, Workload};

/// Passes an untraced run makes at least, so set-up is timed several times.
const MIN_PASSES: usize = 3;
/// Ticks of the in-process replay whose frames feed the codec probe.
const CODEC_PREFIX_TICKS: usize = 200;
/// Frames the codec probe keeps at most.
const CODEC_FRAME_CAP: usize = 50_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: svgic-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workload::NAMES.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`\n{}", usage()))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
    })
}

/// The traffic seed of pass `index`: untraced passes each draw their own
/// traffic, and in a traced run each traced pass replays the traffic of
/// the untraced pass before it, so their digests must agree.
fn traffic_seed(args: &Args, index: usize) -> u64 {
    let draw = if args.trace { index / 2 } else { index };
    args.seed.wrapping_mul(1_000).wrapping_add(draw as u64)
}

/// Runs passes until the next one would overrun the time budget: at least
/// [`MIN_PASSES`] untraced ones, or in a traced run untraced and traced
/// passes in alternation, at least one of each.
fn run_passes(args: &Args) -> Result<Vec<Pass>, String> {
    let start = now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let index = passes.len();
        let traced = args.trace && index % 2 == 1;
        let mut pass = run_pass(&args.workload, traffic_seed(args, index), traced)?;
        if traced && index > 1 {
            // Only the first traced pass's spans are written out.
            pass.spans = SpanLog::new(false);
        }
        println!(
            "pass {} ({}): setup {:.3} s, window {:.3} s, {} requests, peak rss {} kB, steal {:.3}, digest {:#018x}",
            index + 1,
            if traced { "traced" } else { "untraced" },
            pass.setup_s,
            pass.replayed.wall_s,
            pass.replayed.requests,
            pass.peak_rss_kb,
            pass.steal_share,
            pass.replayed.digest,
        );
        let values: Vec<String> = metrics::pass_end_to_end(&pass)
            .iter()
            .map(|(name, value, _)| format!("{name}={value:.6}"))
            .collect();
        println!("  {}", values.join(" "));
        passes.push(pass);
        let elapsed = seconds_between(start, now());
        let per_pass = elapsed / passes.len() as f64;
        let enough = passes.len() >= if args.trace { 2 } else { MIN_PASSES };
        if enough && elapsed + per_pass > args.seconds {
            return Ok(passes);
        }
    }
}

/// The trace up to (not including) tick `ticks`.
fn prefix(trace: &Trace, ticks: usize) -> Trace {
    let end = trace
        .events
        .iter()
        .position(|event| matches!(event, TraceEvent::Tick(tick) if *tick == ticks))
        .unwrap_or(trace.events.len());
    Trace {
        scenario: trace.scenario.clone(),
        seed: trace.seed,
        ticks: ticks.min(trace.ticks),
        templates: trace.templates.clone(),
        events: trace.events[..end].to_vec(),
    }
}

/// An untimed in-process replay that keeps up to `cap` request/reply
/// frames; returns its digest and the frames.
fn tapped_replay(
    trace: &Trace,
    instances: &[SvgicInstance],
    warmup_ticks: usize,
    cap: usize,
) -> (u64, Vec<Frame>) {
    let mut engine = Engine::new(engine_config());
    let mut tap = Tap {
        inner: &mut engine,
        frames: Vec::new(),
        cap,
    };
    let replayed = replay(
        &mut tap,
        trace,
        instances,
        warmup_ticks,
        &mut SpanLog::new(false),
    );
    (replayed.digest, tap.frames)
}

fn run(args: &Args) -> Result<bool, String> {
    let mut passes = run_passes(args)?;
    let mut report = Report::new(&args.workload, &passes);
    if args.trace {
        for pair in passes.chunks(2).filter(|pair| pair.len() == 2) {
            if pair[0].replayed.digest != pair[1].replayed.digest {
                report.fail("the configuration digest differs between a timed and a traced pass");
            }
        }
    }

    // The first pass's traffic feeds the wire check and the codec probe.
    let trace = workload::trace(&args.workload, traffic_seed(args, 0));
    let instances = workload::instances(&trace);
    let warmup = args.workload.warmup_ticks;
    let mut frames = Vec::new();
    if args.workload.transport == Transport::Wire {
        let cap = if args.trace { CODEC_FRAME_CAP } else { 0 };
        let (in_process, tapped) = tapped_replay(&trace, &instances, warmup, cap);
        println!("in-process replay of pass 1: digest {in_process:#018x}");
        if in_process != passes[0].replayed.digest {
            report.fail("the wire digest differs from the in-process replay");
        }
        frames = tapped;
    } else if args.trace {
        let prefix = prefix(&trace, CODEC_PREFIX_TICKS);
        frames = tapped_replay(&prefix, &instances, 0, CODEC_FRAME_CAP).1;
    }

    if args.trace {
        let mut probes = SpanLog::new(true);
        let lp = probe::lp_probe(&instances, args.seed, &mut probes);
        let codec = probe::codec_probe(&frames, &mut probes);
        report.add_probes(&lp, &codec, &probes);
        report.print_layers();
        if let Some(first) = passes.iter_mut().find(|p| p.traced) {
            first.spans.append(probes);
            let path = PathBuf::from(format!(".bench_out/spans-{}.tsv", args.workload.name));
            first
                .spans
                .write_tsv(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!(
                "spans of the first traced pass written to {}",
                path.display()
            );
        }
    }

    let digests: Vec<String> = passes
        .iter()
        .map(|p| format!("{:#018x}", p.replayed.digest))
        .collect();
    println!(
        "digests {} seed {}: {}",
        args.workload.name,
        args.seed,
        digests.join(" ")
    );
    let correct = report.correct();
    println!("{}", report.to_json(args.trace));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return match workload::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("svgic-perfbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = parse_args(&args).and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("svgic-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
