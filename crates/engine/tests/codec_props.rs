//! Property tests for the canonical wire codec.
//!
//! The codec's contract (see `crates/engine/src/codec.rs` and
//! `docs/FORMATS.md`):
//!
//! 1. **Canonical round trip** — `encode(decode(bytes)) == bytes` for every
//!    accepted input, and `decode(encode(value))` accepts every value the
//!    engine can produce. Tested over randomized requests and responses,
//!    including full instances, session exports with warm factors, and
//!    stats snapshots.
//! 2. **Totality** — `decode` never panics and never partially succeeds:
//!    truncations, bit flips and arbitrary garbage return a `CodecError`.
//! 3. **Self-consistency under corruption** — if a corrupted payload
//!    happens to decode (e.g. a flipped bit inside a float), re-encoding
//!    reproduces the corrupted bytes exactly: the codec never "repairs"
//!    input, so a digest mismatch can always be traced to bytes.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svgic_algorithms::{LpBackend, UtilityFactors};
use svgic_core::extensions::DynamicEvent;
use svgic_core::{Configuration, SvgicInstance, SvgicInstanceBuilder};
use svgic_engine::codec::{decode_request, decode_response, encode_request, encode_response};
use svgic_engine::prelude::*;
use svgic_engine::{
    Phase, PhaseAggregate, ProfileEntry, RequestWaterfall, Served, SessionExport, SpanRecord,
    TelemetrySample, WaterfallSpan,
};
use svgic_graph::SocialGraph;

fn random_instance(rng: &mut StdRng) -> SvgicInstance {
    let n = rng.gen_range(1..6);
    let m = rng.gen_range(1..6);
    let k = rng.gen_range(1..=m);
    let lambda = rng.gen_range(0.0..1.0);
    let mut graph = SocialGraph::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen::<f64>() < 0.4 {
                let _ = graph.add_edge(u, v);
            }
        }
    }
    let edges: Vec<(usize, usize)> = graph.edges().to_vec();
    let mut builder = SvgicInstanceBuilder::new(graph, m, k, lambda);
    for u in 0..n {
        for c in 0..m {
            builder.set_preference(u, c, rng.gen_range(0.0..2.0));
        }
    }
    for (u, v) in edges {
        for c in 0..m {
            builder.set_social(u, v, c, rng.gen_range(0.0..1.0));
        }
    }
    let builder = if rng.gen::<f64>() < 0.3 {
        builder.with_item_labels((0..m).map(|c| format!("item«{c}»")).collect())
    } else {
        builder
    };
    builder.build().expect("random instance is valid")
}

/// A random event that a real engine would have accepted at submit time —
/// exports only carry validated events, and the decoder enforces that.
fn random_event(rng: &mut StdRng, n: usize, m: usize, k: usize) -> SessionEvent {
    match rng.gen_range(0..4) {
        0 => SessionEvent::Membership(DynamicEvent::Join(rng.gen_range(0..n))),
        1 => SessionEvent::Membership(DynamicEvent::Leave(rng.gen_range(0..n))),
        2 => {
            // A sorted subset of the item universe that can still fill k
            // slots (what `validate_event` normalizes to).
            let mut items: Vec<usize> = (0..m).collect();
            while items.len() > k && rng.gen::<f64>() < 0.5 {
                let drop = rng.gen_range(0..items.len());
                items.remove(drop);
            }
            SessionEvent::SetCatalog(items)
        }
        _ => SessionEvent::RetuneLambda(rng.gen_range(0.0..1.0)),
    }
}

fn random_export(rng: &mut StdRng) -> SessionExport {
    let instance = random_instance(rng);
    let n = instance.num_users();
    let m = instance.num_items();
    let k = instance.num_slots();
    let catalog: Vec<usize> = (0..m).collect();
    let present: Vec<usize> = (0..n).filter(|_| rng.gen::<f64>() < 0.8).collect();
    let pending: Vec<SessionEvent> = (0..rng.gen_range(0..4))
        .map(|_| random_event(rng, n, m, k))
        .collect();
    let served = if rng.gen::<f64>() < 0.6 && !present.is_empty() {
        let assign: Vec<usize> = (0..present.len() * k)
            .map(|_| rng.gen_range(0..m))
            .collect();
        Some(Served {
            configuration: Configuration::from_flat(present.len(), k, assign),
            present: present.clone(),
            catalog: catalog.clone(),
            utility: rng.gen_range(0.0..10.0),
            lp_bound: rng.gen_range(0.0..20.0),
            tight: rng.gen(),
        })
    } else {
        None
    };
    let last_factors = if rng.gen::<f64>() < 0.5 {
        let aggregate: Vec<f64> = (0..n * m).map(|_| rng.gen_range(0.0..1.0)).collect();
        Some(Arc::new(
            UtilityFactors::from_parts(
                n,
                m,
                k,
                aggregate,
                rng.gen_range(0.0..50.0),
                LpBackend::Structured,
            )
            .expect("dimensions match"),
        ))
    } else {
        None
    };
    let last_factor_fingerprint = last_factors.as_ref().map(|_| rng.gen());
    SessionExport {
        full: Arc::new(instance),
        catalog,
        lambda: rng.gen_range(0.0..1.0),
        present,
        pending,
        served,
        seed: rng.gen(),
        generation: rng.gen_range(0..100),
        events_since_full: rng.gen_range(0..10),
        lifetime_events: rng.gen_range(0..1000),
        last_factors,
        last_factor_fingerprint,
    }
}

fn random_request(rng: &mut StdRng) -> EngineRequest {
    match rng.gen_range(0..14) {
        0 => {
            let instance = random_instance(rng);
            let present: Vec<usize> = (0..instance.num_users())
                .filter(|_| rng.gen::<f64>() < 0.5)
                .collect();
            EngineRequest::CreateSession(Box::new(CreateSession {
                instance,
                initial_present: present,
                seed: rng.gen(),
            }))
        }
        1 => EngineRequest::SubmitEvent(SessionId(rng.gen()), random_event(rng, 8, 8, 2)),
        2 => EngineRequest::QueryConfiguration(SessionId(rng.gen())),
        3 => EngineRequest::ForceResolve(SessionId(rng.gen())),
        4 => EngineRequest::CloseSession(SessionId(rng.gen())),
        5 => EngineRequest::Flush,
        6 => EngineRequest::QueryStats,
        7 => EngineRequest::ResetStats,
        8 => EngineRequest::ExportSession(SessionId(rng.gen())),
        9 => EngineRequest::ImportSession(Box::new(random_export(rng))),
        _ => EngineRequest::Describe,
    }
}

/// Any of the thirteen span phases, uniformly.
fn random_phase(rng: &mut StdRng) -> Phase {
    Phase::from_index(rng.gen_range(0..Phase::ALL.len()) as u8).expect("index in range")
}

/// A realistic random stats snapshot: drive a tiny engine, snapshot it, then
/// overwrite the ledger, telemetry ring and span sections with arbitrary
/// values — the codec does not care that the numbers are arbitrary, only
/// that they survive the wire bit-exactly.
fn random_stats(rng: &mut StdRng) -> StatsSnapshot {
    let mut engine = Engine::new(EngineConfig {
        workers: 1,
        shards: rng.gen_range(1..3),
        auto_flush_pending: 0,
        ..EngineConfig::default()
    });
    let view = engine
        .create_session(CreateSession {
            instance: svgic_core::example::running_example(),
            initial_present: vec![],
            seed: rng.gen(),
        })
        .expect("creates");
    engine
        .submit_event(
            view.session,
            SessionEvent::Membership(DynamicEvent::Leave(0)),
        )
        .expect("submits");
    engine.flush();
    let mut snapshot = engine.stats();
    snapshot.profile = (0..rng.gen_range(0..4))
        .map(|_| ProfileEntry {
            template_fingerprint: rng.gen(),
            warm_solves: rng.gen_range(0..100),
            cold_solves: rng.gen_range(0..100),
            warm_nanos: rng.gen(),
            cold_nanos: rng.gen(),
            miss_new: rng.gen_range(0..50),
            miss_evicted: rng.gen_range(0..50),
            miss_component_changed: rng.gen_range(0..50),
        })
        .collect();
    snapshot.profile_dropped = rng.gen_range(0..10);
    snapshot.telemetry = (0..rng.gen_range(0..4))
        .map(|tick| TelemetrySample {
            tick,
            requests: rng.gen(),
            solves: rng.gen(),
            queue_depth: rng.gen_range(0..100),
            warm_rate_ppm: rng.gen_range(0..=1_000_000),
            imbalance_ppm: rng.gen_range(0..4_000_000),
            mem_session_bytes: rng.gen(),
            mem_pending_bytes: rng.gen(),
            mem_served_bytes: rng.gen(),
            mem_cache_bytes: rng.gen(),
            mem_total_bytes: rng.gen(),
        })
        .collect();
    snapshot.phases = (0..rng.gen_range(0..4))
        .map(|_| PhaseAggregate {
            phase: random_phase(rng),
            count: rng.gen_range(1..1000),
            total_nanos: rng.gen(),
            max_nanos: rng.gen(),
        })
        .collect();
    snapshot.waterfalls = (0..rng.gen_range(0..3))
        .map(|_| RequestWaterfall {
            request_id: rng.gen(),
            total_nanos: rng.gen(),
            spans: (0..rng.gen_range(0..4))
                .map(|_| WaterfallSpan {
                    phase: random_phase(rng),
                    start_nanos: rng.gen(),
                    duration_nanos: rng.gen(),
                    shard: if rng.gen::<f64>() < 0.5 {
                        SpanRecord::NO_SHARD
                    } else {
                        rng.gen_range(0..8)
                    },
                })
                .collect(),
        })
        .collect();
    snapshot.collapsed = if rng.gen::<f64>() < 0.5 {
        "Serve 100\nServe;ShardDispatch 40\n".to_string()
    } else {
        String::new()
    };
    snapshot
}

fn random_response(rng: &mut StdRng) -> Result<EngineResponse, EngineError> {
    let view = || ConfigurationView {
        session: SessionId(7),
        present: vec![0, 2, 3],
        catalog: vec![0, 1, 2, 4],
        configuration: Configuration::from_flat(3, 2, vec![0, 1, 2, 3, 0, 1]),
        utility: 1.5,
        lp_bound: 2.5,
        staleness: 1,
        generation: 4,
    };
    match rng.gen_range(0..12) {
        0 => Ok(EngineResponse::SessionCreated(view())),
        1 => Ok(EngineResponse::EventAccepted {
            session: SessionId(rng.gen()),
            pending: rng.gen_range(0..10),
        }),
        2 => Ok(EngineResponse::Configuration(view())),
        3 => Ok(EngineResponse::Resolved(view())),
        4 => Ok(EngineResponse::SessionClosed {
            session: SessionId(rng.gen()),
            lifetime_events: rng.gen_range(0..100),
        }),
        5 => Ok(EngineResponse::Flushed),
        6 => Ok(EngineResponse::Stats(Box::new(random_stats(rng)))),
        7 => Ok(EngineResponse::StatsReset),
        8 => Ok(EngineResponse::SessionExported(Box::new(random_export(
            rng,
        )))),
        9 => Ok(EngineResponse::SessionImported(SessionId(rng.gen()))),
        10 => Ok(EngineResponse::Description(EngineInfo {
            workers: rng.gen_range(1..16),
            shards: rng.gen_range(1..16),
            sessions: rng.gen_range(0..100),
            pending_events: rng.gen_range(0..100),
        })),
        _ => Err(EngineError::InvalidEvent("synthetic".into())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Canonical request round trip: decode then re-encode is the identity
    /// on bytes.
    #[test]
    fn request_roundtrip_is_canonical(seed in 0u64..1u64 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = random_request(&mut rng);
        let bytes = encode_request(&request);
        let decoded = decode_request(&bytes);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        prop_assert_eq!(encode_request(&decoded.unwrap()), bytes);
    }

    /// Canonical response round trip, including stats snapshots and
    /// warm-capital-carrying exports.
    #[test]
    fn response_roundtrip_is_canonical(seed in 0u64..1u64 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let response = random_response(&mut rng);
        let bytes = encode_response(&response);
        let decoded = decode_response(&bytes);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        prop_assert_eq!(encode_response(&decoded.unwrap()), bytes);
    }

    /// Every strict prefix of a valid encoding is rejected — a connection
    /// dying mid-payload can never yield a half-request.
    #[test]
    fn truncated_requests_are_rejected(seed in 0u64..1u64 << 48, frac in 0.0f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = encode_request(&random_request(&mut rng));
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(decode_request(&bytes[..cut]).is_err());
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(seed in 0u64..1u64 << 48, len in 0usize..512) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// The stats payload with its ledger, ring and span sections filled:
    /// round trip is canonical, and corrupting any single byte of the
    /// encoding either fails to decode (e.g. an out-of-range phase index) or
    /// re-encodes to exactly the corrupted bytes — garbage never decodes to
    /// a "repaired" profile.
    #[test]
    fn profile_roundtrip_is_canonical_and_rejects_garbage(
        seed in 0u64..1u64 << 48,
        corrupt in 0usize..1 << 20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let response = Ok(EngineResponse::Stats(Box::new(random_stats(&mut rng))));
        let bytes = encode_response(&response);
        let decoded = decode_response(&bytes);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        prop_assert_eq!(encode_response(&decoded.unwrap()), bytes);

        let mut corrupted = bytes.clone();
        let at = corrupt % corrupted.len();
        corrupted[at] = corrupted[at].wrapping_add(1 + (corrupt >> 8) as u8 % 255);
        if let Ok(redecoded) = decode_response(&corrupted) {
            prop_assert_eq!(encode_response(&redecoded), corrupted);
        }
    }

    /// A single flipped bit either fails to decode or decodes to a value
    /// that re-encodes to exactly the flipped bytes — corruption is never
    /// silently repaired.
    #[test]
    fn bit_flips_are_detected_or_faithful(seed in 0u64..1u64 << 48, flip in 0usize..1 << 20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = encode_request(&random_request(&mut rng));
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(decoded) = decode_request(&bytes) {
            prop_assert_eq!(encode_request(&decoded), bytes);
        }
    }
}
