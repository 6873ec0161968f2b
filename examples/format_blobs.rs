//! Regenerates the example blobs embedded in `docs/FORMATS.md`.
//!
//! ```text
//! cargo run --release --example format_blobs
//! ```
//!
//! Prints six sections — the `svgic-trace v1` example, a
//! `svgic-loadgen-report/v1` JSON, a `svgic-cluster-report/v1` JSON, the
//! wire-frame hex dump, the Chrome trace-event JSON and its counter-event
//! variant —
//! using the same pinned configuration
//! (`workers: 2, shards: 2`, steady-mall smoke at 2 ticks, seed 3; cluster:
//! 2 nodes with a mid-run rebalance; trace events: a fixed three-span list)
//! that `tests/format_conformance.rs` regenerates and compares against the
//! spec. After changing a format, rerun this and paste the refreshed blobs
//! into the spec; the conformance test fails until spec and emitter agree
//! again.
//!
//! Timing-valued fields (`wall_seconds`, latency quantiles, …) differ run
//! to run; the conformance test compares *key structure*, not values, so a
//! pasted snapshot stays valid.

use svgic::engine::prelude::*;
use svgic::obs::{
    chrome_trace_json, chrome_trace_json_with_counters, Phase, SpanRecord, TelemetrySample,
};
use svgic::workload::prelude::*;
use svgic::workload::DriverConfig;

/// The pinned engine shape: fixed shards so the report's `shard<i>_*`
/// metrics are machine-independent.
fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        shards: 2,
        auto_flush_pending: 0,
        ..EngineConfig::default()
    }
}

/// The pinned trace: steady-mall smoke, 2 ticks, seed 3.
fn example_trace() -> Trace {
    let mut scenario = Scenario::steady_mall().smoke();
    scenario.ticks = 2;
    generate(&scenario, 3)
}

/// The pinned span list for the Chrome trace-event example: hand-fixed
/// timestamps (a real run's vary), but real phases and the real lane
/// mapping — a `Serve` request on the engine lane, the `LpWarm` it
/// triggered on shard 1, and a `WireDecode` on a second node
/// (mirrored in `tests/format_conformance.rs`).
fn pinned_spans() -> Vec<SpanRecord> {
    vec![
        SpanRecord {
            request_id: 1,
            session: 7,
            phase: Phase::Serve,
            shard: SpanRecord::NO_SHARD,
            node: 0,
            start_nanos: 500,
            duration_nanos: 42_000,
        },
        SpanRecord {
            request_id: 0,
            session: 7,
            phase: Phase::LpWarm,
            shard: 1,
            node: 0,
            start_nanos: 1_000,
            duration_nanos: 30_500,
        },
        SpanRecord {
            request_id: 2,
            session: 9,
            phase: Phase::WireDecode,
            shard: SpanRecord::NO_SHARD,
            node: 1,
            start_nanos: 2_250,
            duration_nanos: 1_250,
        },
    ]
}

/// The pinned telemetry samples for the counter-event example: two ticks of
/// a warming engine — hand-fixed integers, but the real field set and the
/// real tick axis (mirrored in `tests/format_conformance.rs`).
fn pinned_samples() -> Vec<TelemetrySample> {
    vec![
        TelemetrySample {
            tick: 0,
            requests: 12,
            solves: 3,
            queue_depth: 4,
            warm_rate_ppm: 0,
            imbalance_ppm: 1_000_000,
            mem_session_bytes: 48_000,
            mem_pending_bytes: 640,
            mem_served_bytes: 1_280,
            mem_cache_bytes: 9_600,
            mem_total_bytes: 59_520,
        },
        TelemetrySample {
            tick: 1,
            requests: 25,
            solves: 7,
            queue_depth: 0,
            warm_rate_ppm: 571_428,
            imbalance_ppm: 1_142_857,
            mem_session_bytes: 48_000,
            mem_pending_bytes: 0,
            mem_served_bytes: 1_280,
            mem_cache_bytes: 12_800,
            mem_total_bytes: 62_080,
        },
    ]
}

/// Renders one frame as the spec's space-joined hex dump.
fn frame_hex(kind: svgic::net::FrameKind, request_id: u64, payload: Vec<u8>) -> String {
    let mut frame_bytes = Vec::new();
    svgic::net::frame::write_frame(
        &mut frame_bytes,
        &svgic::net::Frame {
            kind,
            request_id,
            payload,
        },
    )
    .expect("in-memory write");
    let hex: Vec<String> = frame_bytes.iter().map(|b| format!("{b:02x}")).collect();
    hex.join(" ")
}

fn main() {
    let trace = example_trace();

    println!("=== svgic-trace v1 (first 12 lines + trailer) ===");
    // The full smoke trace is long; the spec embeds a hand-sized excerpt
    // that still exercises every line type, so print a *complete* tiny
    // trace instead: the same header plus a canonical body.
    let tiny = Trace {
        scenario: "steady-mall".into(),
        seed: 3,
        ticks: 2,
        templates: trace.templates.clone(),
        events: vec![
            TraceEvent::Tick(0),
            TraceEvent::Open {
                key: 0,
                template: 0,
                seed: 11_646_911_677_952_911_153,
                present: vec![0, 2, 3],
            },
            TraceEvent::Join { key: 0, user: 1 },
            TraceEvent::Leave { key: 0, user: 2 },
            TraceEvent::Catalog {
                key: 0,
                items: vec![0, 1, 2, 5, 6, 7],
            },
            TraceEvent::Lambda { key: 0, value: 0.8 },
            TraceEvent::Query { key: 0 },
            TraceEvent::Tick(1),
            TraceEvent::Close { key: 0 },
        ],
    };
    print!("{}", tiny.render());

    println!("\n=== svgic-loadgen-report/v1 ===");
    let outcome = LoadDriver::new(DriverConfig {
        engine: engine_config(),
        ..DriverConfig::default()
    })
    .run(&trace);
    let report = LoadReport::new(&trace, outcome);
    print!("{}", report.to_json());

    println!("\n=== svgic-cluster-report/v1 ===");
    let outcome = ClusterDriver::new(ClusterDriverConfig {
        nodes: 2,
        engine: engine_config(),
        plan: NodePlan::mid_run_rebalance(2),
        ..ClusterDriverConfig::default()
    })
    .run(&trace);
    let report = ClusterReport::new(&trace, outcome);
    print!("{}", report.to_json());

    println!("\n=== wire frame (QueryConfiguration(session 7), request id 1) ===");
    let payload =
        svgic::engine::codec::encode_request(&EngineRequest::QueryConfiguration(SessionId(7)));
    println!("{}", frame_hex(svgic::net::FrameKind::Request, 1, payload));

    println!("\n=== chrome trace events (pinned three-span example) ===");
    println!("{}", chrome_trace_json(&pinned_spans()));

    println!("\n=== chrome counter events (pinned spans + two-sample ring) ===");
    println!(
        "{}",
        chrome_trace_json_with_counters(&pinned_spans(), &pinned_samples(), 0)
    );
}
