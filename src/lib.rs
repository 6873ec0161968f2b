//! # svgic — Social-aware VR Group-Item Configuration
//!
//! A from-scratch Rust reproduction of *"Optimizing Item and Subgroup
//! Configurations for Social-Aware VR Shopping"* (Ko et al., VLDB 2020).
//!
//! The umbrella crate re-exports every sub-crate of the workspace under one
//! coherent namespace so downstream users can depend on a single crate:
//!
//! * [`graph`] — directed social-graph substrate, generators, community
//!   detection, clustering, sampling;
//! * [`lp`] — LP/MILP solvers (bounded-variable two-phase simplex, branch &
//!   bound, structured block-coordinate ascent for the condensed relaxation);
//! * [`core`] — the SVGIC / SVGIC-ST problem model: instances,
//!   SAVG k-Configurations, utilities, IP/LP model builders, hardness
//!   reductions, the paper's running example;
//! * [`algorithms`] — AVG, AVG-D, independent rounding, exact solvers, and the
//!   §5 practical extensions (commodity values, slot significance,
//!   multi-view display, subgroup-change smoothing, dynamic users, SEO);
//! * [`baselines`] — PER, FMG, SDP, GRF, the two-way subgroup splits and the
//!   "-P" pre-partitioning wrapper for SVGIC-ST;
//! * [`datasets`] — synthetic Timik/Yelp/Epinions-like substrates, the
//!   PIERT/AGREE/GREE-like utility simulators and the simulated user study;
//! * [`metrics`] — every evaluation metric of §6;
//! * [`experiments`] — the per-figure experiment harness;
//! * [`engine`] — the online multi-session serving subsystem: session store,
//!   typed request/response API, batched event scheduling, a parallel worker
//!   pool, an LRU cache of LP utility factors, and an incremental-vs-full
//!   re-solve policy;
//! * [`cluster`] — the multi-node serving fabric above the engine:
//!   consistent-hash routing with virtual nodes, live session migration
//!   (warm LP factors travel with the session), crash recovery from router
//!   shadow state, and pluggable rebalancing policies (ring-authority and
//!   load-aware);
//! * [`obs`] — the observability layer threaded through engine, cluster and
//!   wire: a span-based tracer with a static phase enum and a fixed-capacity
//!   lock-sharded flight recorder (off by default, near-zero when disabled),
//!   the log-bucketed latency histograms, the metrics registry behind
//!   `StatsSnapshot::metrics()` and the Chrome trace-event JSON export
//!   (`loadgen --trace-out`);
//! * [`net`] — the wire protocol: length-prefixed binary framing over TCP,
//!   a blocking server fronting one engine, and a client implementing the
//!   same driver-facing `EngineTransport` trait as the in-process engine —
//!   the layer that turns the cluster into a real multi-process system
//!   (`loadgen serve` / `--connect`) with transport-invariant digests;
//! * [`workload`] — scenario-driven workload simulation for the engine and
//!   the cluster: named traffic scenarios (steady mall, diurnal cycle, flash
//!   sale, churn-heavy, megagroup, node-churn), a deterministic
//!   record/replay trace format, open/closed-loop load drivers (single
//!   engine, `--nodes N` cluster, or remote TCP servers) with HDR-style
//!   latency histograms, and the `loadgen` CLI emitting machine-readable
//!   JSON load reports.
//!
//! Architecture book: `docs/ARCHITECTURE.md`. Stable formats (trace, report
//! JSON, wire protocol): `docs/FORMATS.md`.
//!
//! ## Quickstart
//!
//! ```rust
//! use svgic::prelude::*;
//!
//! // The paper's running example: 4 shoppers, 5 items, 3 display slots.
//! let instance = svgic::core::example::running_example();
//!
//! // Solve with the deterministic 4-approximation AVG-D.
//! let solution = solve_avg_d(&instance, &AvgDConfig::default());
//! assert!(solution.configuration.is_valid(instance.num_items()));
//!
//! // The SVGIC objective (Definition 3) of the returned configuration.
//! let utility = total_utility(&instance, &solution.configuration);
//! assert!(utility > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use svgic_algorithms as algorithms;
pub use svgic_baselines as baselines;
pub use svgic_cluster as cluster;
pub use svgic_core as core;
pub use svgic_datasets as datasets;
pub use svgic_engine as engine;
pub use svgic_experiments as experiments;
pub use svgic_graph as graph;
pub use svgic_lp as lp;
pub use svgic_metrics as metrics;
pub use svgic_net as net;
pub use svgic_obs as obs;
pub use svgic_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use svgic_algorithms::avg::{solve_avg, solve_avg_st, AvgConfig, SamplingScheme};
    pub use svgic_algorithms::avg_d::{solve_avg_d, solve_avg_d_st, AvgDConfig};
    pub use svgic_algorithms::exact::{solve_exact, ExactConfig, ExactStrategy};
    pub use svgic_algorithms::factors::{solve_relaxation_with, LpBackend};
    pub use svgic_baselines::{
        solve_fmg, solve_grf, solve_per, solve_sdp, GrfConfig, Method, SdpConfig,
    };
    pub use svgic_cluster::{
        Cluster, ClusterConfig, NodeId, QueueDepthPolicy, RebalancePolicy, RingPolicy,
    };
    pub use svgic_core::utility::{
        total_utility, total_utility_st, unweighted_total_utility, utility_split,
    };
    pub use svgic_core::{Configuration, StParams, SvgicInstance, SvgicInstanceBuilder};
    pub use svgic_datasets::{DatasetProfile, InstanceSpec, UtilityModel, UtilityModelKind};
    pub use svgic_engine::{
        CreateSession, Engine, EngineConfig, EngineRequest, EngineResponse, SessionEvent, SessionId,
    };
    pub use svgic_graph::SocialGraph;
    pub use svgic_metrics::{regret_ratios, subgroup_metrics};
    pub use svgic_workload::{
        generate, DriveMode, DriverConfig, LoadDriver, LoadOutcome, LoadReport, Scenario, Trace,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_compile_and_run() {
        let instance = crate::core::example::running_example();
        let per = solve_per(&instance);
        let fmg = solve_fmg(&instance);
        assert!(total_utility(&instance, &per) > 0.0);
        assert!(total_utility(&instance, &fmg) > 0.0);
        let avg = solve_avg(&instance, &AvgConfig::default());
        assert!(avg.configuration.is_valid(instance.num_items()));
    }
}
