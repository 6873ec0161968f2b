//! End-to-end tests of the multi-node serving fabric: topology-independent
//! digests, warm-capital-preserving live migration, and crash recovery under
//! the `node-churn` scenario.

use svgic::cluster::prelude::*;
use svgic::engine::prelude::*;
use svgic::engine::CreateSession;
use svgic::workload::prelude::*;
use svgic_core::extensions::DynamicEvent;

fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        // Pin the shard count so per-shard counters are machine-independent.
        shards: 2,
        auto_flush_pending: 0,
        ..EngineConfig::default()
    }
}

/// **Acceptance: digest determinism across topology.** The same trace served
/// on 1 node and on 4 nodes — with a live mid-run migration and a load-aware
/// rebalance on the 4-node run — yields identical FNV-1a configuration
/// digests, and both match the bare single-engine driver.
#[test]
fn digest_identical_on_1_and_4_nodes_with_midrun_migration() {
    let mut scenario = Scenario::steady_mall().smoke();
    scenario.ticks = 5;
    let trace = generate(&scenario, 41);

    let bare = LoadDriver::new(DriverConfig {
        engine: engine_config(),
        ..DriverConfig::default()
    })
    .run(&trace);

    let clustered = |nodes: usize| {
        ClusterDriver::new(ClusterDriverConfig {
            nodes,
            engine: engine_config(),
            plan: NodePlan::for_trace(&trace, nodes),
            ..ClusterDriverConfig::default()
        })
        .run(&trace)
    };
    let one = clustered(1);
    let four = clustered(4);

    assert_eq!(
        one.config_digest, bare.config_digest,
        "1-node cluster must serve byte-identically to a bare engine"
    );
    assert_eq!(
        one.config_digest, four.config_digest,
        "digests must be independent of node count"
    );
    assert!(
        four.cluster.migrations > 0,
        "the 4-node run must include a mid-run live migration: {:?}",
        four.cluster
    );
    assert_eq!(
        four.cluster.warm_capital_preserved, four.cluster.migrations,
        "every migrated (solved) session travels warm"
    );
    assert_eq!(one.requests, four.requests);
    assert_eq!(one.sessions, four.sessions);
    // The fleet solves exactly as much as the single engine: partitioning
    // never duplicates or drops work.
    assert_eq!(one.merged.solves(), four.merged.solves());
}

/// **Acceptance: migration preserves warm capital.** Sessions built from the
/// `node-churn` scenario's templates are stacked on one node; a forced
/// load-aware rebalance migrates part of them. After the rebalance, the
/// receiving node serves the migrated session's next re-solve *warm* — its
/// `warm_start_rate` is > 0 without having ever computed those factors
/// itself (import seeds the carried factors into its factor cache).
#[test]
fn forced_rebalance_migrates_warm_into_the_receiving_node() {
    let scenario = Scenario::node_churn().smoke();
    let trace = generate(&scenario, 7);
    let instance = trace.templates[0].build();

    let mut cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        vnodes: 64,
        engine: engine_config(),
        ..ClusterConfig::default()
    });
    for key in 0..6u64 {
        let (_, view) = cluster
            .open_session(
                key,
                CreateSession {
                    instance: instance.clone(),
                    initial_present: Vec::new(),
                    seed: 0xC0FFEE ^ key,
                },
            )
            .expect("opens");
        assert!(view.configuration.is_valid(view.catalog.len()));
    }
    // Stack everything on one node, then force the load-aware rebalance.
    let donor = cluster.node_ids()[0];
    for key in 0..6u64 {
        let _ = cluster.migrate_session(key, donor).expect("live session");
    }
    cluster.reset_stats();
    let moves = cluster.rebalance(&QueueDepthPolicy { tolerance: 1 });
    assert!(!moves.is_empty(), "stacked fleet must rebalance");
    let migrated = moves[0];
    let receiver = migrated.to;
    assert_ne!(receiver, donor);
    assert_eq!(cluster.placement_of(migrated.key), Some(receiver));

    // Wipe counters so the receiving node's next numbers are purely
    // post-migration, then drive one incremental re-solve of the migrated
    // session.
    cluster.reset_stats();
    cluster
        .submit_event(
            migrated.key,
            SessionEvent::Membership(DynamicEvent::Leave(0)),
        )
        .expect("submits");
    cluster.flush_node(receiver).expect("flushes");
    let stats = cluster.node_stats(receiver).expect("alive");
    assert!(
        stats.solves() >= 1,
        "the migrated session re-solved: {stats}"
    );
    assert!(
        stats.warm_start_rate() > 0.0,
        "receiving node must serve migrated sessions warm: {stats}"
    );
    assert!(
        stats.cache_hits >= 1,
        "warm capital arrives via the seeded factor cache: {stats}"
    );
    assert_eq!(
        stats.cache_misses, 0,
        "no LP may be recomputed for a warm migrated session: {stats}"
    );
}

/// The `node-churn` scenario end to end: a kill, a join and two rebalances
/// mid-run. Deterministic run-to-run, every session survives (recovered
/// cold), and the fabric accounting adds up.
#[test]
fn node_churn_scenario_is_deterministic_and_loses_only_warm_capital() {
    let mut scenario = Scenario::node_churn().smoke();
    scenario.ticks = 6;
    let trace = generate(&scenario, 23);
    let run = || {
        ClusterDriver::new(ClusterDriverConfig {
            nodes: 3,
            engine: engine_config(),
            plan: NodePlan::for_trace(&trace, 3),
            ..ClusterDriverConfig::default()
        })
        .run(&trace)
    };
    let a = run();
    let b = run();
    assert_eq!(a.config_digest, b.config_digest, "node churn must replay");
    assert_eq!(a.cluster, b.cluster, "fabric accounting must replay");
    assert_eq!(a.cluster.nodes_killed, 1);
    assert!(a.cluster.sessions_recovered > 0, "{:?}", a.cluster);
    assert_eq!(
        a.cluster.warm_capital_lost, a.cluster.sessions_recovered,
        "a kill costs exactly the recovered sessions' warm capital"
    );
    assert!(a.cluster.migrations > 0);
    assert_eq!(a.cluster.warm_capital_preserved, a.cluster.migrations);
    // All opened sessions were served to completion (trace closes them all).
    assert_eq!(a.sessions as usize, trace.session_count());
    assert!(a.quality.samples > 0);
    assert!(a.quality.mean_utility() > 0.0);
}
