//! Pins the `mem_*` gauges to reality: the engine's arithmetic capacity
//! accounting (`crates/engine/src/mem.rs`, computed from dimensions in O(1))
//! must land within ±15% of a deep size computed *independently* here — by
//! walking real data structures with `size_of`-based sums and this file's
//! own overhead constants, sharing none of the engine's formulas.
//!
//! The walk uses [`svgic::engine::SessionExport`]: exporting a session hands
//! the test the actual structures the engine was holding (full instance,
//! index vectors, pending queue, served solution, warm LP factors), so every
//! byte the gauges claimed can be re-derived from the objects themselves
//! rather than from a second copy of the engine's size formulas.

use std::mem::size_of;

use rand::rngs::StdRng;
use rand::SeedableRng;
use svgic::core::extensions::DynamicEvent;
use svgic::core::SvgicInstance;
use svgic::datasets::{DatasetProfile, InstanceSpec};
use svgic::engine::prelude::*;
use svgic::engine::{CreateSession, EngineRequest, SessionExport};

/// This file's own idea of a `Vec<T>` holding `len` elements: three words of
/// header plus the payload (capacity == len for accounting purposes).
fn deep_vec<T>(len: usize) -> u64 {
    24 + (len * size_of::<T>()) as u64
}

/// Deep size of one instance, walked from the real object: both utility
/// matrices element-by-element via the public dimensions, the graph's edge
/// list and both adjacency lists at their actual lengths, a hash-map entry
/// estimate for the edge lookup, the friend-pair index, and labels.
fn deep_instance(instance: &SvgicInstance) -> u64 {
    let n = instance.num_users();
    let m = instance.num_items() as u64;
    let graph = instance.graph();
    let e = graph.num_edges() as u64;
    // pref is n × m, tau is |E| × m, both f64.
    let mut bytes = (n as u64 * m + e * m) * size_of::<f64>() as u64;
    bytes += deep_vec::<(usize, usize)>(graph.edges().len());
    for user in 0..n {
        bytes += deep_vec::<(usize, usize)>(graph.out_neighbors(user).len());
        bytes += deep_vec::<(usize, usize)>(graph.in_neighbors(user).len());
    }
    // Edge lookup: HashMap<(usize, usize), usize> — 24 payload bytes per
    // entry plus a conservative two words of table overhead.
    bytes += e * (24 + 16);
    for pair in instance.friend_pairs() {
        bytes += 2 * size_of::<usize>() as u64 + deep_vec::<usize>(pair.edges.len());
    }
    if let Some(labels) = instance.item_labels() {
        for label in labels {
            bytes += deep_vec::<u8>(label.len());
        }
    }
    bytes
}

/// Deep size of a pending-event queue: the enum rows at their real inline
/// size plus whatever catalogue payloads the queued events actually carry.
fn deep_pending(events: &[SessionEvent]) -> u64 {
    let mut bytes = deep_vec::<SessionEvent>(events.len());
    for event in events {
        if let SessionEvent::SetCatalog(items) = event {
            bytes += deep_vec::<usize>(items.len());
        }
    }
    bytes
}

/// Splits one export into the gauge categories, walking each held object.
fn deep_export(export: &SessionExport) -> (u64, u64, u64) {
    let mut session = deep_instance(&export.full)
        + deep_vec::<usize>(export.catalog.len())
        + deep_vec::<usize>(export.present.len());
    if let Some(factors) = &export.last_factors {
        session += (factors.num_users() * factors.num_items() * size_of::<f64>()) as u64;
    }
    let served = export
        .served
        .as_ref()
        .map(|served| {
            deep_vec::<usize>(served.configuration.num_users() * served.configuration.num_slots())
                + deep_vec::<usize>(served.present.len())
                + deep_vec::<usize>(served.catalog.len())
        })
        .unwrap_or(0);
    (session, deep_pending(&export.pending), served)
}

/// `gauge` within ±15% of the independently walked `deep` size.
fn within_15pct(gauge: u64, deep: u64) -> bool {
    gauge.abs_diff(deep) as f64 <= 0.15 * deep as f64
}

fn small_instance() -> SvgicInstance {
    let spec = InstanceSpec::small(DatasetProfile::TimikLike);
    let mut rng = StdRng::seed_from_u64(42);
    spec.build(&mut rng)
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        shards: 2,
        auto_flush_pending: 0,
        telemetry_capacity: 64,
        ..EngineConfig::default()
    })
}

#[test]
fn mem_gauges_track_independent_deep_size() {
    let instance = small_instance();
    let n = instance.num_users();
    let m = instance.num_items();
    let mut engine = engine();

    // Three sessions (creation solves each once, leaving served views and
    // warm factors behind), then five queued-but-unapplied events so every
    // gauge category is non-trivial at snapshot time.
    let presents = [
        vec![0usize, 1, 2],
        vec![3usize, 4, 5, 6],
        (0..n).collect::<Vec<_>>(),
    ];
    let mut ids = Vec::new();
    for (i, present) in presents.iter().enumerate() {
        let view = engine
            .create_session(CreateSession {
                instance: instance.clone(),
                initial_present: present.clone(),
                seed: 7 + i as u64,
            })
            .expect("session opens");
        ids.push(view.session);
    }
    engine
        .submit_event(ids[0], SessionEvent::Membership(DynamicEvent::Join(7)))
        .expect("join queues");
    engine
        .submit_event(ids[1], SessionEvent::Membership(DynamicEvent::Leave(3)))
        .expect("leave queues");
    engine
        .submit_event(ids[0], SessionEvent::SetCatalog((0..m).collect()))
        .expect("catalogue queues");
    engine
        .submit_event(ids[2], SessionEvent::SetCatalog((0..17).collect()))
        .expect("catalogue queues");
    engine
        .submit_event(ids[2], SessionEvent::RetuneLambda(0.25))
        .expect("retune queues");

    let stats = engine.stats();

    // Exporting hands over exactly what the engine held (pending events
    // included — nothing was flushed since they queued), so the walk below
    // audits the very state the snapshot above priced.
    let exports: Vec<SessionExport> = ids
        .iter()
        .map(|&id| engine.export_session(id).expect("session exports"))
        .collect();

    let (mut deep_session, mut deep_queue, mut deep_served) = (0u64, 0u64, 0u64);
    for export in &exports {
        let (session, pending, served) = deep_export(export);
        deep_session += session;
        deep_queue += pending;
        deep_served += served;
    }
    assert!(
        exports.iter().any(|export| export.has_warm_capital()),
        "at least one creation solve left warm factors"
    );
    assert!(exports.iter().all(|export| export.served.is_some()));

    assert!(
        within_15pct(stats.mem_session_bytes, deep_session),
        "mem_session_bytes {} vs deep {}",
        stats.mem_session_bytes,
        deep_session
    );
    assert!(
        within_15pct(stats.mem_pending_bytes, deep_queue),
        "mem_pending_bytes {} vs deep {}",
        stats.mem_pending_bytes,
        deep_queue
    );
    assert!(
        within_15pct(stats.mem_served_bytes, deep_served),
        "mem_served_bytes {} vs deep {}",
        stats.mem_served_bytes,
        deep_served
    );
    // The shard caches hold LP factors keyed by fingerprint; their exact
    // population depends on which solves took the LP path, but the gauge is
    // bounded by full-population factors per entry and the total is the sum
    // of its parts.
    assert!(
        stats.mem_cache_bytes() > 0,
        "creation solves warmed a cache"
    );
    assert!(
        stats.mem_cache_bytes() <= stats.total_cache_entries() * (n * m * size_of::<f64>()) as u64
    );
    assert_eq!(
        stats.mem_total_bytes(),
        stats.mem_session_bytes
            + stats.mem_pending_bytes
            + stats.mem_served_bytes
            + stats.mem_cache_bytes()
    );

    // With every session exported away, the very next snapshot prices the
    // now-empty store at zero — the gauges are recomputed, not decayed.
    let drained = engine.stats();
    assert_eq!(drained.mem_session_bytes, 0);
    assert_eq!(drained.mem_pending_bytes, 0);
    assert_eq!(drained.mem_served_bytes, 0);
}

#[test]
fn cache_gauge_matches_the_factors_it_holds() {
    // One full-population session: its creation solve takes the LP path and
    // inserts exactly one factors object into one shard cache, so the cache
    // gauge must price that one object — walked here from the export's
    // carried copy (factors are shared, the cache holds the same shape).
    let instance = small_instance();
    let n = instance.num_users();
    let mut engine = engine();
    let view = engine
        .create_session(CreateSession {
            instance: instance.clone(),
            initial_present: (0..n).collect(),
            seed: 5,
        })
        .expect("session opens");

    // The flush tick also samples the telemetry ring; the sample must carry
    // the same byte gauges the stats snapshot reports — one accounting, read
    // per tick and on demand.
    engine
        .handle(EngineRequest::Flush)
        .expect("flush ticks the sampler");
    let stats = engine.stats();
    let sample = stats.telemetry.last().expect("the flush pushed a sample");
    assert_eq!(sample.tick, 0);
    assert_eq!(sample.mem_session_bytes, stats.mem_session_bytes);
    assert_eq!(sample.mem_pending_bytes, stats.mem_pending_bytes);
    assert_eq!(sample.mem_served_bytes, stats.mem_served_bytes);
    assert_eq!(sample.mem_cache_bytes, stats.mem_cache_bytes());
    assert_eq!(sample.mem_total_bytes, stats.mem_total_bytes());

    let export = engine
        .export_session(view.session)
        .expect("session exports");
    let factors = export.last_factors.as_ref().expect("LP solve left factors");
    let deep = (factors.num_users() * factors.num_items() * size_of::<f64>()) as u64;
    assert!(
        within_15pct(stats.mem_cache_bytes(), deep),
        "mem_cache_bytes {} vs walked factors {}",
        stats.mem_cache_bytes(),
        deep
    );
}

#[test]
fn cache_gauge_covers_every_cached_component() {
    // Two friend pairs and a loner: the creation solve splits the group into
    // three social-graph components, caching each component's factors and
    // the assembled whole in the shard's one factor cache. The gauge must
    // price all four entries, each walked here from its dimensions.
    use svgic::core::SvgicInstanceBuilder;
    use svgic::graph::SocialGraph;
    let (n, m) = (5usize, 32usize);
    let graph = SocialGraph::from_edges(n, [(0, 1), (1, 0), (2, 3), (3, 2)]);
    let mut builder = SvgicInstanceBuilder::new(graph, m, 2, 0.5);
    builder.fill_preferences(|u, c| 0.1 + 0.07 * ((u * 4 + c) % 9) as f64);
    builder.fill_social(|u, v, c| 0.05 + 0.03 * ((u + 2 * v + c) % 5) as f64);
    let instance = builder.build().expect("valid instance");
    let components = instance.graph().connected_components();
    assert_eq!(components.len(), 3);

    let mut engine = engine();
    engine
        .create_session(CreateSession {
            instance,
            initial_present: Vec::new(),
            seed: 9,
        })
        .expect("session opens");
    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 1, "one LP solve: {stats}");
    assert_eq!(
        stats.total_cache_entries(),
        1 + components.len() as u64,
        "the whole instance plus every component: {stats}"
    );
    let matrix = |users: usize| (users * m * size_of::<f64>()) as u64;
    let deep = matrix(n)
        + components
            .iter()
            .map(|component| matrix(component.len()))
            .sum::<u64>();
    assert!(
        within_15pct(stats.mem_cache_bytes(), deep),
        "mem_cache_bytes {} vs walked factors {}",
        stats.mem_cache_bytes(),
        deep
    );
}
