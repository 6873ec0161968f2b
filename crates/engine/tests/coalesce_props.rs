//! Property tests for the scheduler's batch coalescer.
//!
//! The coalescer's contract: a session's pending queue folds to the *net*
//! state change. For membership that means each user's final present/absent
//! state is decided solely by their **last** event — interleaved
//! Join/Leave/Join chatter from other users must not matter, and everything
//! beyond the net effect must be reported as coalesced away.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svgic_core::extensions::DynamicEvent;
use svgic_engine::fingerprint::Fnv;
use svgic_engine::prelude::*;
use svgic_engine::scheduler::coalesce;
use svgic_engine::SessionEvent;

const USERS: usize = 8;

/// Builds a random membership-event stream over `USERS` users.
fn random_stream(len: usize, seed: u64) -> Vec<SessionEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let user = rng.gen_range(0..USERS);
            if rng.gen::<f64>() < 0.5 {
                SessionEvent::Membership(DynamicEvent::Join(user))
            } else {
                SessionEvent::Membership(DynamicEvent::Leave(user))
            }
        })
        .collect()
}

fn start_set(mask: u32) -> Vec<usize> {
    (0..USERS).filter(|u| mask & (1 << u) != 0).collect()
}

/// The reference semantics: apply events one by one.
fn naive_fold(start: &[usize], events: &[SessionEvent]) -> BTreeSet<usize> {
    let mut present: BTreeSet<usize> = start.iter().copied().collect();
    for event in events {
        match event {
            SessionEvent::Membership(DynamicEvent::Join(user)) => {
                present.insert(*user);
            }
            SessionEvent::Membership(DynamicEvent::Leave(user)) => {
                present.remove(user);
            }
            _ => unreachable!("membership-only streams"),
        }
    }
    present
}

/// Keeps only each user's final event, preserving relative order.
fn last_event_per_user(events: &[SessionEvent]) -> Vec<SessionEvent> {
    let mut kept: Vec<SessionEvent> = Vec::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    for event in events.iter().rev() {
        let SessionEvent::Membership(DynamicEvent::Join(user) | DynamicEvent::Leave(user)) = event
        else {
            unreachable!("membership-only streams");
        };
        if seen.insert(*user) {
            kept.push(event.clone());
        }
    }
    kept.reverse();
    kept
}

/// One step of the warm-vs-cold serving comparison.
#[derive(Clone, Debug)]
enum ServeStep {
    Event(SessionEvent),
    Flush,
    ForceResolve,
}

/// Builds a random serving script over the running example's universe
/// (4 users, 5 items, k = 3): membership churn, catalogue rotations, λ
/// re-tunes, flushes and forced re-solves.
fn random_script(len: usize, seed: u64) -> Vec<ServeStep> {
    let mut rng = StdRng::seed_from_u64(seed);
    let catalogs: [&[usize]; 4] = [&[0, 1, 2], &[0, 1, 2, 3], &[1, 2, 3, 4], &[0, 1, 2, 3, 4]];
    (0..len)
        .map(|_| {
            let roll = rng.gen::<f64>();
            if roll < 0.55 {
                let user = rng.gen_range(0..4);
                if rng.gen::<f64>() < 0.5 {
                    ServeStep::Event(SessionEvent::Membership(DynamicEvent::Join(user)))
                } else {
                    ServeStep::Event(SessionEvent::Membership(DynamicEvent::Leave(user)))
                }
            } else if roll < 0.65 {
                let catalog = catalogs[rng.gen_range(0..catalogs.len())];
                ServeStep::Event(SessionEvent::SetCatalog(catalog.to_vec()))
            } else if roll < 0.72 {
                ServeStep::Event(SessionEvent::RetuneLambda(
                    (rng.gen_range(2..10usize) as f64) / 10.0,
                ))
            } else if roll < 0.92 {
                ServeStep::Flush
            } else {
                ServeStep::ForceResolve
            }
        })
        .collect()
}

/// Drives the script through a fresh engine and digests every served
/// configuration the way the load driver does.
fn serve_digest(script: &[ServeStep], warm: bool) -> u64 {
    let mut engine = Engine::new(EngineConfig {
        workers: 2,
        auto_flush_pending: 0,
        cache_capacity: if warm { 64 } else { 0 },
        policy: ResolvePolicy {
            warm_start_lp: warm,
            ..ResolvePolicy::default()
        },
        ..EngineConfig::default()
    });
    let view = engine
        .create_session(CreateSession {
            instance: svgic_core::example::running_example(),
            initial_present: Vec::new(),
            seed: 0xD16E57,
        })
        .expect("session created");
    let id = view.session;
    let mut digest = Fnv::new();
    let fold = |view: &ConfigurationView, digest: &mut Fnv| {
        digest.write_u64(view.generation);
        digest.write_u64(view.present.len() as u64);
        for &user in &view.present {
            digest.write_u64(user as u64);
        }
        for &item in &view.catalog {
            digest.write_u64(item as u64);
        }
        for user in 0..view.configuration.num_users() {
            for &item in view.configuration.items_of(user) {
                digest.write_u64(item as u64);
            }
        }
        digest.write_f64(view.utility);
        digest.write_f64(view.lp_bound);
    };
    fold(&view, &mut digest);
    for step in script {
        match step {
            ServeStep::Event(event) => {
                // Invalid events (none by construction) would differ from the
                // cold run identically, so just unwrap.
                engine.submit_event(id, event.clone()).expect("valid event");
            }
            ServeStep::Flush => {
                engine.flush();
                let view = engine.query_configuration(id).expect("live session");
                fold(&view, &mut digest);
            }
            ServeStep::ForceResolve => {
                let view = engine.force_resolve(id).expect("live session");
                fold(&view, &mut digest);
            }
        }
    }
    engine.flush();
    let view = engine.query_configuration(id).expect("live session");
    fold(&view, &mut digest);
    digest.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The engine's warm-start path must be a **pure optimization**: over
    /// arbitrary event streams, serving with component-level warm starts
    /// produces exactly the configurations (and utilities, and bounds) that
    /// cold serving produces — the FNV-1a digests must collide bit-for-bit.
    #[test]
    fn warm_and_cold_serving_digests_are_identical(
        script_len in 8usize..40,
        seed in 0u64..100_000,
    ) {
        let script = random_script(script_len, seed);
        let warm = serve_digest(&script, true);
        let cold = serve_digest(&script, false);
        prop_assert_eq!(warm, cold);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coalescing equals the naive event-by-event fold, and the accounting
    /// (raw, coalesced-away, dirty) is consistent with the net change.
    #[test]
    fn membership_coalesces_to_net_state(
        start_mask in 0u32..256,
        stream_len in 0usize..24,
        seed in 0u64..10_000,
    ) {
        let start = start_set(start_mask);
        let events = random_stream(stream_len, seed);
        let catalog: Vec<usize> = (0..4).collect();
        let batch = coalesce(&start, &catalog, 0.5, &events);

        let expected = naive_fold(&start, &events);
        prop_assert_eq!(&batch.present, &expected.iter().copied().collect::<Vec<_>>());

        let start_as_set: BTreeSet<usize> = start.iter().copied().collect();
        let net = expected.symmetric_difference(&start_as_set).count();
        prop_assert_eq!(batch.dirty, net > 0);
        prop_assert_eq!(batch.raw_events, events.len());
        prop_assert_eq!(batch.coalesced_away, events.len() - net.min(events.len()));
        prop_assert!(!batch.reshaped, "membership events never reshape the base");
        prop_assert!(batch.catalog.is_none());
        prop_assert!(batch.lambda.is_none());
    }

    /// Only each user's *last* event matters: dropping every superseded event
    /// (in any interleaving) yields the same net batch.
    #[test]
    fn submission_order_of_superseded_events_is_irrelevant(
        start_mask in 0u32..256,
        stream_len in 1usize..24,
        seed in 0u64..10_000,
        shuffle_seed in 0u64..10_000,
    ) {
        let start = start_set(start_mask);
        let events = random_stream(stream_len, seed);
        let catalog: Vec<usize> = (0..4).collect();
        let full = coalesce(&start, &catalog, 0.5, &events);

        // Variant A: only the last event per user, original relative order.
        let lasts = last_event_per_user(&events);
        let reduced = coalesce(&start, &catalog, 0.5, &lasts);
        prop_assert_eq!(&full.present, &reduced.present);
        prop_assert_eq!(full.dirty, reduced.dirty);

        // Variant B: those last events in a random different order — final
        // per-user state involves one event each, so order cannot matter.
        let mut shuffled = lasts.clone();
        use rand::seq::SliceRandom;
        shuffled.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let reordered = coalesce(&start, &catalog, 0.5, &shuffled);
        prop_assert_eq!(&full.present, &reordered.present);
        prop_assert_eq!(full.dirty, reordered.dirty);
    }

    /// A Join→Leave→Join sandwich for one user nets to a plain join, no
    /// matter how much other-user chatter is interleaved between the three.
    #[test]
    fn join_leave_join_sandwich_nets_to_join(
        filler_len in 0usize..12,
        seed in 0u64..10_000,
    ) {
        // User 9 is outside the filler's 0..8 range, so filler never touches
        // them.
        let target = 9usize;
        let filler = random_stream(filler_len, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut events = vec![SessionEvent::Membership(DynamicEvent::Join(target))];
        let insert_random = |events: &mut Vec<SessionEvent>, rng: &mut StdRng| {
            for filler_event in &filler {
                if rng.gen::<f64>() < 0.5 {
                    events.push(filler_event.clone());
                }
            }
        };
        insert_random(&mut events, &mut rng);
        events.push(SessionEvent::Membership(DynamicEvent::Leave(target)));
        insert_random(&mut events, &mut rng);
        events.push(SessionEvent::Membership(DynamicEvent::Join(target)));

        let batch = coalesce(&[], &[0, 1, 2, 3], 0.5, &events);
        prop_assert!(batch.present.contains(&target), "net effect must be a join");
        prop_assert!(batch.dirty);
    }
}
