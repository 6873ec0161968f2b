//! Cluster-level counters and aggregated snapshots.

use svgic_engine::{Health, StatsSnapshot};

use crate::ring::NodeId;

/// Fabric-level counters (single-threaded plain integers — the cluster
/// router runs on one thread; parallelism lives inside the node engines).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Nodes added over the cluster's lifetime (including the initial
    /// set). A topology fact, not a traffic counter: survives
    /// `Cluster::reset_stats`.
    pub nodes_added: u64,
    /// Nodes killed (crash-style: their engine state is dropped). Survives
    /// `Cluster::reset_stats` like `nodes_added`.
    pub nodes_killed: u64,
    /// Live migrations executed (export → import).
    pub migrations: u64,
    /// Migrations whose export carried reusable LP factors — warm capital
    /// that arrived intact on the receiving node.
    pub warm_capital_preserved: u64,
    /// Sessions whose warm capital was destroyed by a node kill (they had
    /// been solved at least once, and were rebuilt cold).
    pub warm_capital_lost: u64,
    /// Sessions rebuilt from router shadow state after a node kill.
    pub sessions_recovered: u64,
    /// Rebalance passes executed (even when the policy planned no moves).
    pub rebalances: u64,
    /// Sessions placed off their ring home by bounded-load placement (the
    /// home node was over capacity and the key spilled clockwise).
    pub spill_placements: u64,
    /// Canonical payload bytes shipped to standby replicas (each replica
    /// shipment accounts its export's wire size, whether the transport is
    /// in-process or TCP).
    pub replication_bytes: u64,
    /// Standby replicas promoted to live sessions by `Cluster::kill_node` —
    /// warm failovers at session granularity.
    pub standby_promotions: u64,
    /// Kills that lost *zero* warm capital: every lost session was promoted
    /// from a current standby (or the victim hosted none). Paired with
    /// `nodes_killed` — a topology fact that survives `reset_stats`;
    /// `failover_warm + failover_cold == nodes_killed` always holds.
    pub failover_warm: u64,
    /// Kills where at least one session had to be rebuilt cold from shadow
    /// state (no replica, or a stale one). Survives `reset_stats` like
    /// `failover_warm`.
    pub failover_cold: u64,
}

/// One node's contribution to a cluster snapshot.
#[derive(Clone, Debug)]
pub struct NodeSnapshot {
    /// The node.
    pub node: NodeId,
    /// Live sessions currently placed on the node.
    pub sessions: u64,
    /// Pending events queued on the node right now.
    pub queue_depth: u64,
    /// The node engine's full snapshot, its per-tick time series
    /// (`engine.telemetry`) included.
    pub engine: StatsSnapshot,
}

impl NodeSnapshot {
    /// The node's derived health (SLO burn + memory budget, default
    /// policy).
    pub fn health(&self) -> Health {
        self.engine.health()
    }

    /// Total accounted bytes on the node right now.
    pub fn mem_bytes(&self) -> u64 {
        self.engine.mem_total_bytes()
    }
}

/// A point-in-time view of the whole fabric: per-node snapshots plus the
/// merged fleet totals (via [`StatsSnapshot::merge`]) and the fabric
/// counters.
#[derive(Clone, Debug)]
pub struct ClusterSnapshot {
    /// Per-node snapshots, ascending by node id (alive nodes only).
    pub nodes: Vec<NodeSnapshot>,
    /// Every node's engine counters merged into one fleet snapshot.
    pub merged: StatsSnapshot,
    /// Fabric counters.
    pub stats: ClusterStats,
}

impl ClusterSnapshot {
    /// Live sessions across the fleet.
    pub fn total_sessions(&self) -> u64 {
        self.nodes.iter().map(|n| n.sessions).sum()
    }
}
