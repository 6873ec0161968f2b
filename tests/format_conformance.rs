//! Format conformance: the example blobs checked into `docs/FORMATS.md`
//! must parse with the real parsers and match the real emitters.
//!
//! Three contracts:
//!
//! * the `svgic-trace v1` blob parses and **re-renders byte-identically**
//!   (the trace format's canonical-text property);
//! * the two report blobs parse with the workspace's own JSON parser,
//!   carry the right schema tags, and expose **exactly** the key structure
//!   a freshly generated report exposes today — so adding, renaming or
//!   dropping a report key without updating the spec fails CI;
//! * the wire-frame hexes decode to the documented frames and re-encode to
//!   the same bytes;
//! * the Chrome trace-event and counter-event blobs re-render
//!   **byte-identically** from their pinned span list and telemetry ring
//!   and parse as the documented structure.
//!
//! Regenerate the blobs with `cargo run --release --example format_blobs`.

use std::io::Cursor;

use svgic::engine::prelude::*;
use svgic::net::frame::{read_frame, write_frame};
use svgic::net::FrameKind;
use svgic::obs::{
    chrome_trace_json, chrome_trace_json_with_counters, Phase, SpanRecord, TelemetrySample,
};
use svgic::workload::json::Json;
use svgic::workload::prelude::*;
use svgic::workload::DriverConfig;

fn spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/FORMATS.md");
    std::fs::read_to_string(path).expect("docs/FORMATS.md exists (it is part of the spec)")
}

/// Extracts the fenced code block that immediately follows
/// `<!-- conformance:<name> -->`.
fn blob(name: &str) -> String {
    let spec = spec();
    let marker = format!("<!-- conformance:{name} -->");
    let at = spec
        .find(&marker)
        .unwrap_or_else(|| panic!("spec lost its `{marker}` marker"));
    let rest = &spec[at + marker.len()..];
    let fence_start = rest.find("```").expect("marker is followed by a fence");
    let after_fence = &rest[fence_start..];
    let body_start = after_fence.find('\n').expect("fence line ends") + 1;
    let body = &after_fence[body_start..];
    let end = body.find("```").expect("fence closes");
    body[..end].to_string()
}

/// The pinned configuration the spec's report blobs were generated with
/// (mirrored in `examples/format_blobs.rs`).
fn pinned_engine() -> EngineConfig {
    EngineConfig {
        workers: 2,
        shards: 2,
        auto_flush_pending: 0,
        ..EngineConfig::default()
    }
}

fn pinned_trace() -> Trace {
    let mut scenario = Scenario::steady_mall().smoke();
    scenario.ticks = 2;
    generate(&scenario, 3)
}

/// The documented member keys of one `time_series` sample (§2.5).
/// `Json::key_paths` does not descend into arrays, so the report tests
/// assert the sample shape explicitly here.
const SAMPLE_KEYS: [&str; 11] = [
    "tick",
    "requests",
    "solves",
    "queue_depth",
    "warm_rate_ppm",
    "imbalance_ppm",
    "mem_session_bytes",
    "mem_pending_bytes",
    "mem_served_bytes",
    "mem_cache_bytes",
    "mem_total_bytes",
];

/// Asserts a report-level `time_series` value is a non-empty array whose
/// members each carry exactly the documented sample keys, with a
/// monotonically increasing tick axis.
fn assert_time_series_shape(report: &Json, context: &str) {
    let series = match report.get("time_series") {
        Some(Json::Array(samples)) => samples,
        other => panic!("{context}: time_series must be an array, got {other:?}"),
    };
    assert!(
        !series.is_empty(),
        "{context}: a 2-tick run must push telemetry samples"
    );
    let mut last_tick = None;
    for sample in series {
        for key in SAMPLE_KEYS {
            assert!(
                sample.get(key).and_then(Json::as_f64).is_some(),
                "{context}: time_series sample lost its `{key}` member"
            );
        }
        let tick = sample.get("tick").and_then(Json::as_f64).expect("tick");
        assert!(
            last_tick.is_none_or(|last| tick > last),
            "{context}: time_series ticks must be strictly increasing"
        );
        last_tick = Some(tick);
    }
}

/// The documented member keys of one `profile.templates` entry (§2.9).
/// Like `time_series`, the array members are asserted explicitly because
/// `Json::key_paths` does not descend into arrays.
const TEMPLATE_KEYS: [&str; 7] = [
    "warm_solves",
    "cold_solves",
    "warm_nanos",
    "cold_nanos",
    "miss_new",
    "miss_evicted",
    "miss_component_changed",
];

/// Asserts a report-level `profile` value carries the documented ledger
/// shape: a `dropped` counter and a non-empty `templates` array whose
/// members each carry a hex-string fingerprint plus the seven counters.
fn assert_profile_shape(report: &Json, context: &str) {
    let profile = report
        .get("profile")
        .unwrap_or_else(|| panic!("{context}: report lost its `profile` object"));
    assert!(
        profile.get("dropped").and_then(Json::as_f64).is_some(),
        "{context}: profile must carry the `dropped` counter"
    );
    let templates = match profile.get("templates") {
        Some(Json::Array(templates)) => templates,
        other => panic!("{context}: profile.templates must be an array, got {other:?}"),
    };
    assert!(
        !templates.is_empty(),
        "{context}: a solving run must attribute at least one template"
    );
    for entry in templates {
        let fingerprint = entry
            .get("template_fingerprint")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{context}: template entry lost its fingerprint string"));
        assert!(
            fingerprint.starts_with("0x") && fingerprint.len() == 18,
            "{context}: fingerprints are 0x-prefixed 16-hex-digit strings, got `{fingerprint}`"
        );
        for key in TEMPLATE_KEYS {
            assert!(
                entry.get(key).and_then(Json::as_f64).is_some(),
                "{context}: template entry lost its `{key}` member"
            );
        }
    }
}

#[test]
fn trace_blob_parses_and_rerenders_byte_identically() {
    let blob = blob("trace");
    let trace: Trace = blob.parse().expect("the spec's trace example parses");
    assert_eq!(
        trace.render(),
        blob,
        "the trace format is canonical: parse → render must reproduce the spec blob"
    );
    assert_eq!(trace.scenario, "steady-mall");
    assert_eq!(trace.session_count(), 1);
    // The templates are buildable — the blob is a *runnable* example.
    for template in &trace.templates {
        let instance = template.build();
        assert_eq!(instance.num_users(), template.users);
        assert_eq!(instance.num_items(), template.items);
    }
}

#[test]
fn loadgen_report_blob_matches_the_emitter_structurally() {
    let value = Json::parse(&blob("loadgen-report")).expect("spec blob is valid JSON");
    assert_eq!(
        value.get("schema").and_then(Json::as_str),
        Some("svgic-loadgen-report/v1")
    );

    let outcome = LoadDriver::new(DriverConfig {
        engine: pinned_engine(),
        ..DriverConfig::default()
    })
    .run(&pinned_trace());
    let fresh =
        Json::parse(&LoadReport::new(&pinned_trace(), outcome).to_json()).expect("emitter output");

    assert_eq!(
        value.key_paths(),
        fresh.key_paths(),
        "docs/FORMATS.md's loadgen-report example drifted from the emitter — \
         regenerate with `cargo run --release --example format_blobs`"
    );
    assert_time_series_shape(&value, "spec loadgen-report");
    assert_time_series_shape(&fresh, "fresh loadgen-report");
    assert_profile_shape(&value, "spec loadgen-report");
    assert_profile_shape(&fresh, "fresh loadgen-report");
}

#[test]
fn cluster_report_blob_matches_the_emitter_structurally() {
    let value = Json::parse(&blob("cluster-report")).expect("spec blob is valid JSON");
    assert_eq!(
        value.get("schema").and_then(Json::as_str),
        Some("svgic-cluster-report/v1")
    );

    let outcome = ClusterDriver::new(ClusterDriverConfig {
        nodes: 2,
        engine: pinned_engine(),
        plan: NodePlan::mid_run_rebalance(2),
        ..ClusterDriverConfig::default()
    })
    .run(&pinned_trace());
    let fresh = Json::parse(&ClusterReport::new(&pinned_trace(), outcome).to_json())
        .expect("emitter output");

    assert_eq!(
        value.key_paths(),
        fresh.key_paths(),
        "docs/FORMATS.md's cluster-report example drifted from the emitter — \
         regenerate with `cargo run --release --example format_blobs`"
    );
    // The cluster schema carries the ring per node, not at the top level —
    // tick clocks are per-node, so a merged ring would be meaningless.
    assert!(value.get("time_series").is_none());
    // The ledger, by contrast, merges cleanly (counters keyed by structural
    // fingerprint add), so the cluster report carries one merged `profile`.
    assert_profile_shape(&value, "spec cluster-report");
    assert_profile_shape(&fresh, "fresh cluster-report");
    // Each surviving node carries its own ring and health verdict (§2.7).
    let per_node = value.get("per_node").expect("per_node object");
    let node0 = per_node.get("node0").expect("node0 survives the plan");
    assert_time_series_shape(node0, "spec cluster-report per_node.node0");
    assert!(
        node0.get("health").and_then(Json::as_str).is_some(),
        "per_node entries must carry the health verdict"
    );
    assert!(
        node0.get("mem_bytes").and_then(Json::as_f64).is_some(),
        "per_node entries must carry the mem_bytes gauge"
    );
    // Both reports in the spec describe the same trace: the digest is
    // topology-invariant right there in the documentation.
    let single = Json::parse(&blob("loadgen-report")).expect("parses");
    assert_eq!(
        single.get("config_digest").and_then(Json::as_str),
        value.get("config_digest").and_then(Json::as_str),
        "the spec's two example reports must exhibit the digest invariant"
    );
}

fn frame_from_hex(hex: &str) -> (svgic::net::Frame, Vec<u8>) {
    let bytes: Vec<u8> = hex
        .split_whitespace()
        .map(|tok| u8::from_str_radix(tok, 16).expect("spec hex is valid"))
        .collect();
    let frame = read_frame(&mut Cursor::new(&bytes)).expect("spec frame decodes");
    (frame, bytes)
}

#[test]
fn frame_hex_decodes_to_the_documented_frame() {
    let (frame, bytes) = frame_from_hex(&blob("frame-hex"));
    assert_eq!(frame.kind, FrameKind::Request);
    assert_eq!(frame.request_id, 1);
    let request =
        svgic::engine::codec::decode_request(&frame.payload).expect("spec payload decodes");
    match request {
        EngineRequest::QueryConfiguration(session) => assert_eq!(session, SessionId(7)),
        other => panic!("spec frame documents QueryConfiguration(7), decodes {other:?}"),
    }
    // Canonical the whole way down: re-encoding reproduces the spec bytes.
    let mut reencoded = Vec::new();
    write_frame(&mut reencoded, &frame).expect("in-memory write");
    assert_eq!(reencoded, bytes);
}

/// The pinned span list behind the spec's trace-event example (mirrored in
/// `examples/format_blobs.rs`).
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

#[test]
fn trace_events_blob_rerenders_byte_identically_and_has_the_documented_shape() {
    let blob = blob("trace-events");
    // The emitter is deterministic over a fixed span list, so the spec blob
    // is byte-exact, not just structurally equal.
    assert_eq!(
        chrome_trace_json(&pinned_spans()),
        blob.trim_end(),
        "docs/FORMATS.md's trace-event example drifted from the emitter — \
         regenerate with `cargo run --release --example format_blobs`"
    );
    // And it is what the spec says it is: valid JSON with the documented
    // keys, lane mapping and correlation args.
    let value = Json::parse(blob.trim_end()).expect("spec blob is valid JSON");
    assert_eq!(
        value.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = match value.get("traceEvents") {
        Some(Json::Array(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert_eq!(events.len(), pinned_spans().len());
    for (event, span) in events.iter().zip(pinned_spans()) {
        assert_eq!(
            event.get("name").and_then(Json::as_str),
            Some(span.phase.name())
        );
        assert_eq!(event.get("cat").and_then(Json::as_str), Some("svgic"));
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            event.get("pid").and_then(Json::as_f64),
            Some(span.node as f64)
        );
        let lane = if span.shard == SpanRecord::NO_SHARD {
            0.0
        } else {
            span.shard as f64 + 1.0
        };
        assert_eq!(event.get("tid").and_then(Json::as_f64), Some(lane));
        assert_eq!(
            event
                .get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(Json::as_f64),
            Some(span.request_id as f64)
        );
        assert_eq!(
            event
                .get("args")
                .and_then(|a| a.get("session"))
                .and_then(Json::as_f64),
            Some(span.session as f64)
        );
    }
}

/// The pinned telemetry ring behind the spec's counter-event example
/// (mirrored in `examples/format_blobs.rs`).
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

#[test]
fn counter_events_blob_rerenders_byte_identically_and_has_the_documented_shape() {
    let blob = blob("counter-events");
    assert_eq!(
        chrome_trace_json_with_counters(&pinned_spans(), &pinned_samples(), 0),
        blob.trim_end(),
        "docs/FORMATS.md's counter-event example drifted from the emitter — \
         regenerate with `cargo run --release --example format_blobs`"
    );
    let value = Json::parse(blob.trim_end()).expect("spec blob is valid JSON");
    let events = match value.get("traceEvents") {
        Some(Json::Array(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    // Spans first, then three counter tracks per ring sample.
    let spans = pinned_spans().len();
    let samples = pinned_samples();
    assert_eq!(events.len(), spans + 3 * samples.len());
    let counters = &events[spans..];
    for (trio, sample) in counters.chunks(3).zip(&samples) {
        let tracks: [(&str, &[(&str, u64)]); 3] = [
            (
                "mem_bytes",
                &[
                    ("session", sample.mem_session_bytes),
                    ("pending", sample.mem_pending_bytes),
                    ("served", sample.mem_served_bytes),
                    ("cache", sample.mem_cache_bytes),
                ],
            ),
            (
                "load",
                &[
                    ("requests", sample.requests),
                    ("solves", sample.solves),
                    ("queue_depth", sample.queue_depth),
                ],
            ),
            (
                "rates",
                &[
                    ("warm_ppm", sample.warm_rate_ppm),
                    ("imbalance_ppm", sample.imbalance_ppm),
                ],
            ),
        ];
        for (event, (name, args)) in trio.iter().zip(tracks) {
            assert_eq!(event.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(event.get("cat").and_then(Json::as_str), Some("svgic"));
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("C"));
            // The counter axis is the deterministic tick clock: one tick
            // renders as one millisecond.
            assert_eq!(
                event.get("ts").and_then(Json::as_f64),
                Some(sample.tick as f64 * 1000.0)
            );
            assert_eq!(event.get("pid").and_then(Json::as_f64), Some(0.0));
            for (key, expected) in args {
                assert_eq!(
                    event
                        .get("args")
                        .and_then(|a| a.get(key))
                        .and_then(Json::as_f64),
                    Some(*expected as f64),
                    "counter `{name}` lost its `{key}` arg"
                );
            }
        }
    }
}
