//! The benchmark's trace generator: a fixed store, seeded traffic.
//!
//! `svgic_workload::generate` draws a scenario's instance templates and its
//! traffic from one seed. Template sizes are heavy-tailed and the most
//! popular template takes about half the sessions, so the cost of a trace
//! moves by up to 7x from one seed to the next. That is far wider than any
//! regression bound, so the benchmark splits the two: the templates (the
//! store's shopper groups and catalogue) come from the workload's fixed
//! store seed, and `--seed` draws only the traffic.
//!
//! The traffic processes are the ones `generate` runs, in the same order:
//! arrivals, then per live session churn, catalogue rotation, lambda
//! re-tune and query, then departures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svgic_workload::distributions::{lognormal_ticks, poisson, ZipfSampler};
use svgic_workload::{generate, Scenario, TemplateSpec, Trace, TraceEvent};

struct Live {
    key: u64,
    template: usize,
    users: usize,
    remaining_ticks: usize,
}

/// The trace of `scenario` on the templates of `store_seed`, with the
/// traffic of `seed`.
pub fn store_trace(scenario: &Scenario, store_seed: u64, seed: u64) -> Trace {
    let templates = generate(
        &Scenario {
            ticks: 0,
            ..scenario.clone()
        },
        store_seed,
    )
    .templates;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7EAF_F1C0_5EED_0001);
    let template_pick = ZipfSampler::new(templates.len(), scenario.template_zipf);
    let item_pick = ZipfSampler::new(scenario.items, scenario.item_zipf);
    let mut arrivals = scenario.arrivals.sampler();
    let mut events = Vec::new();
    let mut live: Vec<Live> = Vec::new();
    let mut next_key = 0u64;

    for tick in 0..scenario.ticks {
        events.push(TraceEvent::Tick(tick));
        for _ in 0..arrivals.arrivals_at(tick, &mut rng) {
            let template = template_pick.sample(&mut rng);
            let users = templates[template].users;
            let mut present: Vec<usize> = (0..users)
                .filter(|_| rng.gen::<f64>() < scenario.initial_presence)
                .collect();
            if present.is_empty() {
                present.push(rng.gen_range(0..users));
            }
            let remaining_ticks = lognormal_ticks(
                scenario.duration.mu,
                scenario.duration.sigma,
                scenario.duration.cap,
                &mut rng,
            );
            events.push(TraceEvent::Open {
                key: next_key,
                template,
                seed: rng.gen::<u64>(),
                present,
            });
            live.push(Live {
                key: next_key,
                template,
                users,
                remaining_ticks,
            });
            next_key += 1;
        }

        for session in &live {
            let key = session.key;
            for _ in 0..poisson(scenario.churn_rate, &mut rng) {
                let user = rng.gen_range(0..session.users);
                events.push(if rng.gen::<f64>() < 0.5 {
                    TraceEvent::Join { key, user }
                } else {
                    TraceEvent::Leave { key, user }
                });
            }
            if rng.gen::<f64>() < scenario.catalog_churn {
                let items = rotate_catalog(&templates[session.template], &item_pick, &mut rng);
                events.push(TraceEvent::Catalog { key, items });
            }
            if rng.gen::<f64>() < scenario.lambda_churn {
                let value = rng.gen_range(0.15..0.95);
                events.push(TraceEvent::Lambda { key, value });
            }
            if rng.gen::<f64>() < scenario.query_rate {
                events.push(TraceEvent::Query { key });
            }
        }

        live.retain_mut(|session| {
            session.remaining_ticks -= 1;
            if session.remaining_ticks == 0 {
                events.push(TraceEvent::Close { key: session.key });
            }
            session.remaining_ticks > 0
        });
    }
    events.extend(
        live.iter()
            .map(|session| TraceEvent::Close { key: session.key }),
    );

    Trace {
        scenario: scenario.name.clone(),
        seed,
        ticks: scenario.ticks,
        templates,
        events,
    }
}

/// A popularity-weighted catalogue of at least `slots` items, sorted.
fn rotate_catalog(
    template: &TemplateSpec,
    item_pick: &ZipfSampler,
    rng: &mut StdRng,
) -> Vec<usize> {
    let m = template.items;
    let target = rng.gen_range(template.slots.max(m / 2)..=m);
    let mut chosen = vec![false; m];
    let mut count = 0;
    for _ in 0..50 * m {
        if count == target {
            break;
        }
        let item = item_pick.sample(rng);
        if !chosen[item] {
            chosen[item] = true;
            count += 1;
        }
    }
    // A very skewed Zipf can exhaust the draws: pad with the lowest indices.
    for slot in chosen.iter_mut().filter(|slot| !**slot) {
        if count == target {
            break;
        }
        *slot = true;
        count += 1;
    }
    (0..m).filter(|&item| chosen[item]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_is_fixed_and_traffic_follows_the_seed() {
        let scenario = Scenario {
            ticks: 30,
            ..Scenario::flash_sale()
        };
        let a = store_trace(&scenario, 7, 1);
        let b = store_trace(&scenario, 7, 2);
        assert_eq!(a, store_trace(&scenario, 7, 1));
        assert_eq!(a.templates, b.templates);
        assert_ne!(a.events, b.events);
        assert_eq!(a.session_count(), count_closes(&a));
    }

    fn count_closes(trace: &Trace) -> usize {
        trace
            .events
            .iter()
            .filter(|event| matches!(event, TraceEvent::Close { .. }))
            .count()
    }
}
