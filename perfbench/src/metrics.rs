//! Turns passes and probes into the named metrics the benchmark prints.
//!
//! Every value is the median over passes of a per-pass value; each pass
//! replays its own traffic. Latency percentiles are nearest-rank over the
//! exact samples of one pass. End-to-end metrics come from untraced passes.

use std::collections::BTreeMap;

use svgic_engine::StatsSnapshot;

use crate::probe::{CodecProbe, LpProbe};
use crate::replay::Replayed;
use crate::spans::{SpanLog, SpanStats};
use crate::workload::{Pass, Transport, Workload};

/// Nearest-rank quantile of sorted samples (`0` when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of per-pass values (`0` when there are none).
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// One pass's end-to-end values, in `BENCHMARK.json` order; the run reports
/// the median of each over its untraced passes (`peak_rss_mb` follows).
pub fn pass_end_to_end(pass: &Pass) -> [(&'static str, f64, &'static str); 7] {
    let r = &pass.replayed;
    let refresh_mean_ns = ratio(
        r.refresh_ns.iter().sum::<u64>() as f64,
        r.refresh_ns.len() as f64,
    );
    [
        ("throughput_rps", ratio(r.requests as f64, r.wall_s), "1/s"),
        ("refresh_mean_ms", refresh_mean_ns / 1e6, "ms"),
        ("open_p50_ms", ms(quantile(&r.open_ns, 0.50)), "ms"),
        ("query_p50_us", us(quantile(&r.query_ns, 0.50)), "us"),
        (
            "utility_mean",
            ratio(r.utility_sum, r.served as f64),
            "utility",
        ),
        (
            "success_ratio",
            1.0 - ratio(r.failed as f64, r.attempted as f64),
            "ratio",
        ),
        ("setup_s", pass.setup_s, "s"),
    ]
}

/// The engine operations whose calls the traced passes time.
const ENGINE_OPS: [&str; 5] = ["create", "submit", "query", "flush", "close"];

/// Metrics of one run, plus the correctness verdict.
pub struct Report {
    end_to_end: Vec<(&'static str, f64, &'static str)>,
    per_layer: Vec<(String, f64, &'static str)>,
    layers: BTreeMap<&'static str, SpanStats>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn new(workload: &Workload, passes: &[Pass]) -> Report {
        let all = |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f).collect());
        let untraced =
            |f: &dyn Fn(&Pass) -> f64| median(passes.iter().filter(|p| !p.traced).map(f).collect());
        let traced =
            |f: &dyn Fn(&Pass) -> f64| median(passes.iter().filter(|p| p.traced).map(f).collect());
        let stat = |f: &dyn Fn(&StatsSnapshot) -> f64| {
            median(
                passes
                    .iter()
                    .filter_map(|p| p.replayed.stats.as_ref())
                    .map(f)
                    .collect(),
            )
        };
        // Every wire pass starts a fresh server; in-process passes share
        // this process, whose peak after the first pass is the clean one.
        let peak_rss_kb = match workload.transport {
            Transport::InProcess => passes[0].peak_rss_kb as f64,
            Transport::Wire => untraced(&|p| p.peak_rss_kb as f64),
        };
        let mut end_to_end: Vec<(&'static str, f64, &'static str)> = pass_end_to_end(&passes[0])
            .iter()
            .enumerate()
            .map(|(i, &(name, _, unit))| (name, untraced(&|p| pass_end_to_end(p)[i].1), unit))
            .collect();
        end_to_end.push(("peak_rss_mb", peak_rss_kb / 1024.0, "MB"));
        let fewest = |f: &dyn Fn(&Replayed) -> usize| {
            passes.iter().map(|p| f(&p.replayed)).min().unwrap_or(0)
        };
        println!(
            "samples in the smallest pass: {} refresh waits, {} opens, {} queries",
            fewest(&|r| r.refresh_ns.len()),
            fewest(&|r| r.open_ns.len()),
            fewest(&|r| r.query_ns.len()),
        );

        let mut layers: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for pass in passes.iter().filter(|p| p.traced) {
            for (name, stats) in &pass.span_summary {
                layers.entry(name).or_default().add(stats);
            }
        }
        let span = |p: &Pass, op: &str| {
            p.span_summary
                .get(format!("engine.{op}").as_str())
                .copied()
                .unwrap_or_default()
        };

        let mut per_layer: Vec<(String, f64, &'static str)> = vec![
            ("lp.busy_s".into(), stat(&|s| s.lp_time.as_secs_f64()), "s"),
            (
                "lp.busy_share".into(),
                untraced(&|p| {
                    let lp = p
                        .replayed
                        .stats
                        .as_ref()
                        .map_or(0.0, |s| s.lp_time.as_secs_f64());
                    ratio(lp, p.replayed.wall_s)
                }),
                "ratio",
            ),
            (
                "lp.cold_solve_p99_ms".into(),
                stat(&|s| ms(s.cold_solve_latency.quantile_nanos(0.99))),
                "ms",
            ),
            (
                "engine.solves_cold".into(),
                stat(&|s| s.solves_cold as f64),
                "count",
            ),
            (
                "engine.cache.hit_ratio".into(),
                stat(&StatsSnapshot::cache_hit_rate),
                "ratio",
            ),
            (
                "engine.warm.start_ratio".into(),
                stat(&StatsSnapshot::warm_start_rate),
                "ratio",
            ),
            (
                "engine.warm.component_reuse_ratio".into(),
                stat(&StatsSnapshot::component_reuse_rate),
                "ratio",
            ),
            (
                "algorithms.round_busy_s".into(),
                stat(&|s| s.round_time.as_secs_f64()),
                "s",
            ),
            (
                "algorithms.round_p99_us".into(),
                stat(&|s| us(s.round_latency.quantile_nanos(0.99))),
                "us",
            ),
            (
                "algorithms.bound_ratio".into(),
                all(&|p| ratio(p.replayed.utility_sum, p.replayed.bound_sum)),
                "ratio",
            ),
            (
                "engine.scheduler.coalesce_ratio".into(),
                stat(&StatsSnapshot::coalesce_rate),
                "ratio",
            ),
            (
                "engine.policy.incremental_ratio".into(),
                stat(&StatsSnapshot::incremental_fraction),
                "ratio",
            ),
            (
                "engine.pool.queue_wait_p50_us".into(),
                stat(&|s| us(s.queue_wait_latency.quantile_nanos(0.50))),
                "us",
            ),
            (
                "engine.pool.queue_wait_p99_us".into(),
                stat(&|s| us(s.queue_wait_latency.quantile_nanos(0.99))),
                "us",
            ),
            (
                "engine.shard.busy_max_share".into(),
                stat(&|s| {
                    let busy: Vec<f64> = s
                        .shards
                        .iter()
                        .map(|sh| sh.busy_time.as_secs_f64())
                        .collect();
                    ratio(busy.iter().copied().fold(0.0, f64::max), busy.iter().sum())
                }),
                "ratio",
            ),
            (
                "engine.mem_total_bytes".into(),
                all(&|p| p.replayed.mid_mem_bytes as f64),
                "bytes",
            ),
        ];
        for op in ENGINE_OPS {
            per_layer.push((
                format!("engine.{op}.p99_us"),
                traced(&|p| {
                    let name = format!("engine.{op}");
                    us(p.span_p99_ns.get(name.as_str()).copied().unwrap_or(0))
                }),
                "us",
            ));
            per_layer.push((
                format!("engine.{op}.busy_s"),
                traced(&|p| span(p, op).total_ns as f64 / 1e9),
                "s",
            ));
            per_layer.push((
                format!("engine.{op}.count"),
                traced(&|p| span(p, op).count as f64),
                "count",
            ));
        }
        per_layer.push((
            "client.non_solve_share".into(),
            traced(&|p| {
                let calls: u64 = ENGINE_OPS.iter().map(|op| span(p, op).total_ns).sum();
                let solve = p
                    .replayed
                    .stats
                    .as_ref()
                    .map_or(0.0, |s| (s.lp_time + s.round_time).as_secs_f64());
                ratio(calls as f64 / 1e9 - solve, p.replayed.wall_s)
            }),
            "ratio",
        ));
        per_layer.push((
            "client.refresh_p99_ms".into(),
            untraced(&|p| ms(quantile(&p.replayed.refresh_ns, 0.99))),
            "ms",
        ));
        per_layer.push(("net.ping_p50_us".into(), all(&|p| us(p.ping_p50_ns)), "us"));
        per_layer.push(("host.steal_share".into(), all(&|p| p.steal_share), "ratio"));
        per_layer.push(("workload.generate_s".into(), all(&|p| p.generate_s), "s"));
        per_layer.push((
            "trace.overhead_s".into(),
            traced(&|p| p.replayed.wall_s) - untraced(&|p| p.replayed.wall_s),
            "s",
        ));

        let mut failures = Vec::new();
        let invalid: u64 = passes.iter().map(|p| p.replayed.invalid).sum();
        if invalid > 0 {
            failures.push(format!("{invalid} served configurations failed is_valid"));
        }
        Report {
            end_to_end,
            per_layer,
            layers,
            attempted: passes.iter().map(|p| p.replayed.attempted).sum(),
            failed: passes.iter().map(|p| p.replayed.failed).sum(),
            failures,
        }
    }

    pub fn fail(&mut self, reason: &str) {
        self.failures.push(reason.to_string());
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn add_probes(&mut self, lp: &LpProbe, codec: &CodecProbe, log: &SpanLog) {
        if lp.invalid > 0 {
            self.fail("a probe rounding produced an invalid configuration");
        }
        if codec.mismatched > 0 {
            self.fail("a frame did not survive a codec round trip");
        }
        let per_instance = |total: f64| ratio(total, lp.instances as f64);
        let per_frame = |total: f64| ratio(total, codec.frames as f64);
        let probes: [(&str, f64, &'static str); 9] = [
            (
                "lp.probe.solve_ms",
                per_instance(lp.solve_ns as f64 / 1e6),
                "ms",
            ),
            ("lp.probe.rows", per_instance(lp.rows as f64), "count"),
            ("lp.probe.cols", per_instance(lp.cols as f64), "count"),
            (
                "lp.probe.exact_share",
                per_instance(lp.exact as f64),
                "ratio",
            ),
            (
                "algorithms.probe.round_us",
                per_instance(lp.round_ns as f64 / 1e3),
                "us",
            ),
            (
                "codec.request_bytes",
                per_frame(codec.request_bytes as f64),
                "bytes",
            ),
            (
                "codec.response_bytes",
                per_frame(codec.response_bytes as f64),
                "bytes",
            ),
            ("codec.encode_ns", per_frame(codec.encode_ns as f64), "ns"),
            ("codec.decode_ns", per_frame(codec.decode_ns as f64), "ns"),
        ];
        self.per_layer.extend(
            probes
                .into_iter()
                .map(|(name, value, unit)| (name.to_string(), value, unit)),
        );
        for (name, stats) in log.summary() {
            self.layers.entry(name).or_default().add(&stats);
        }
    }

    /// Prints each span name's count, total and self time, then each layer's
    /// (the name up to its first `.`), summed over the traced passes.
    pub fn print_layers(&self) {
        println!(
            "{:<28} {:>10} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, stats) in &self.layers {
            println!(
                "{name:<28} {:>10} {:>12.6} {:>12.6}",
                stats.count,
                stats.total_ns as f64 / 1e9,
                stats.self_ns as f64 / 1e9
            );
        }
        let mut by_layer: BTreeMap<&str, SpanStats> = BTreeMap::new();
        for (name, stats) in &self.layers {
            let layer = name.split('.').next().unwrap_or(name);
            by_layer.entry(layer).or_default().add(stats);
        }
        println!("{:<28} {:>10} {:>12}", "layer", "count", "self_s");
        for (layer, stats) in by_layer {
            println!(
                "{layer:<28} {:>10} {:>12.6}",
                stats.count,
                stats.self_ns as f64 / 1e9
            );
        }
    }

    /// The result line: end-to-end metrics untraced, per-layer metrics
    /// traced.
    pub fn to_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            self.per_layer
                .iter()
                .map(|(name, value, unit)| json_metric(name, *value, unit))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|(name, value, unit)| json_metric(name, *value, unit))
                .collect()
        };
        for failure in &self.failures {
            eprintln!("svgic-perfbench: incorrect: {failure}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&samples, 0.5), 500);
        assert_eq!(quantile(&samples, 0.99), 990);
        assert_eq!(quantile(&[], 0.99), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }
}
