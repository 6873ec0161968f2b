//! Warm vs. cold LP re-solves on the `churn-heavy` scenario.
//!
//! Drives the same churn-heavy trace through two engines that differ only in
//! the warm-start policy: the default (re-solves reuse previously computed
//! whole-instance and per-component factors from each shard's fingerprint
//! cache) and the cold baseline (`warm_start_lp: false` — every
//! re-solve recomputes its LP from scratch). Warm starting is a pure
//! optimization, so the run **asserts byte-identical served-configuration
//! digests** before timing anything; the economics table then shows how much
//! LP work the warm path avoids. Three gates: digest equality and
//! strictly-fewer-LP-computations are deterministic counters (the shard
//! count is pinned), while the ≥2x mean re-solve latency bar is wall-clock —
//! acceptable in CI because the observed margin is orders of magnitude
//! (warm re-solves skip the LP entirely).
//!
//! `SVGIC_BENCH_SMOKE=1` (set in CI) shrinks the scenario to smoke size.

use criterion::{criterion_group, criterion_main, Criterion};
use svgic_bench::bench_scale;
use svgic_engine::{EngineConfig, ResolvePolicy};
use svgic_experiments::ExperimentScale;
use svgic_workload::prelude::*;

const SEED: u64 = 0xC0_1DCAFE;

fn scenario() -> Scenario {
    let scenario = Scenario::churn_heavy();
    match bench_scale() {
        ExperimentScale::Smoke => {
            // Smoke shrinks the group/catalogue sizes; keep enough ticks that
            // sessions actually live through churn and re-solve.
            let mut scenario = scenario.smoke();
            scenario.ticks = 10;
            scenario
        }
        _ => scenario,
    }
}

fn driver(warm: bool) -> LoadDriver {
    LoadDriver::new(DriverConfig {
        engine: EngineConfig {
            // Pin the shard count so the cache-reuse counters are identical
            // on every machine regardless of core count.
            shards: 4,
            auto_flush_pending: 0,
            policy: ResolvePolicy {
                warm_start_lp: warm,
                ..ResolvePolicy::default()
            },
            ..EngineConfig::default()
        },
        ..DriverConfig::default()
    })
}

fn churn_warm(c: &mut Criterion) {
    let trace = generate(&scenario(), SEED);

    let warm = driver(true).run(&trace);
    let cold = driver(false).run(&trace);

    // The hard contract: warm starting never changes what is served.
    assert_eq!(
        warm.config_digest, cold.config_digest,
        "warm-started serving must be byte-identical to cold"
    );

    let ws = &warm.engine;
    let cs = &cold.engine;
    println!(
        "{:<6} {:>7} {:>9} {:>10} {:>10} {:>12} {:>14} {:>14}",
        "run", "solves", "lp-comps", "warm-rate", "cache-hits", "lp-time", "mean-warm", "mean-cold"
    );
    for (label, stats) in [("warm", ws), ("cold", cs)] {
        println!(
            "{:<6} {:>7} {:>9} {:>9.1}% {:>10} {:>12.3?} {:>14.3?} {:>14.3?}",
            label,
            stats.solves(),
            stats.cache_misses,
            100.0 * stats.warm_start_rate(),
            stats.cache_hits,
            stats.lp_time,
            stats.mean_warm_solve_time(),
            stats.mean_cold_solve_time(),
        );
    }
    let latency_ratio = cs.mean_cold_solve_time().as_secs_f64()
        / ws.mean_warm_solve_time().as_secs_f64().max(1e-12);
    println!(
        "churn-heavy: warm re-solves {:.0}x faster than cold ({:.3?} vs {:.3?}), \
         {} vs {} LP computations, warm_start_rate {:.1}%, digest 0x{:016x} identical",
        latency_ratio,
        ws.mean_warm_solve_time(),
        cs.mean_cold_solve_time(),
        ws.cache_misses,
        cs.cache_misses,
        100.0 * ws.warm_start_rate(),
        warm.config_digest
    );
    assert!(
        ws.warm_start_rate() > 0.0,
        "churn-heavy must exercise warm starts"
    );
    assert_eq!(
        cs.warm_start_rate(),
        0.0,
        "the cold baseline must not warm-start"
    );
    // Both runs solve the same sessions the same way — the difference is pure
    // reuse, so the warm run must strictly skip LP computations (counters are
    // deterministic: the shard count is pinned).
    assert_eq!(ws.solves(), cs.solves());
    assert!(
        ws.cache_misses < cs.cache_misses,
        "warm must compute fewer LPs ({} vs {})",
        ws.cache_misses,
        cs.cache_misses
    );
    assert_eq!(cs.cache_misses, cs.solves(), "cold recomputes per re-solve");
    // The acceptance bar: a warm-started re-solve is at least 2x faster than
    // a cold one (in practice the gap is orders of magnitude — reused factors
    // skip the LP entirely and go straight to rounding).
    assert!(
        latency_ratio >= 2.0,
        "expected warm re-solves >=2x faster, got {latency_ratio:.2}x"
    );

    let mut group = c.benchmark_group("churn_warm");
    group.sample_size(10);
    group.bench_function("warm", |b| {
        let driver = driver(true);
        b.iter(|| driver.run(&trace).config_digest)
    });
    group.bench_function("cold", |b| {
        let driver = driver(false);
        b.iter(|| driver.run(&trace).config_digest)
    });
    group.finish();
}

criterion_group!(benches, churn_warm);
criterion_main!(benches);
