//! Component-wise, warm-startable LP factor solving through one
//! fingerprint-keyed factor cache.
//!
//! The LP relaxation of an SVGIC instance separates exactly across the
//! connected components of its social graph: no coupling term crosses a
//! component boundary, so the factors of each component can be solved
//! independently and concatenated. That makes component solutions perfect
//! warm-start currency for the dynamic scenario — a Join/Leave only changes
//! the components the churning shopper touches, and every other component's
//! sub-instance is *bit-identical* to one solved before.
//!
//! [`solve_factors_warm`] exploits this with a single cache keyed by
//! instance fingerprint: it looks the whole instance up first, and on a miss
//! splits it into components, reuses cached component factors on
//! fingerprint match, solves only the rest and caches the assembled whole.
//! A connected instance *is* its only component, so whole instances and
//! components share one key space, and a population first solved as a
//! fragment of a larger group is later served whole. Because a reused
//! solution is the verbatim output of the same deterministic solver on the
//! same subproblem, the warm path is a **pure optimization**: factors (and
//! therefore served configurations) are byte-identical with and without the
//! cache. This is the property the engine's warm/cold digest-equality tests
//! and the `churn-heavy` bench pin down.

use std::sync::Arc;

use svgic_algorithms::factors::{solve_relaxation, RelaxationOptions};
use svgic_algorithms::UtilityFactors;
use svgic_core::{SvgicInstance, UserIdx};

use crate::cache::FactorCache;
use crate::fingerprint::instance_fingerprint;

/// What a factor resolution did.
#[derive(Clone, Debug)]
pub struct WarmOutcome {
    /// The factors over the whole instance.
    pub factors: Arc<UtilityFactors>,
    /// Whether the whole instance was served from the cache (no component
    /// was looked up or solved).
    pub cache_hit: bool,
    /// Number of social-graph components the instance splits into (`0` on
    /// a cache hit, which never splits it).
    pub components: usize,
    /// Components whose factors were reused from the cache.
    pub reused: usize,
}

impl WarmOutcome {
    /// Components that had to be solved from scratch.
    pub fn solved(&self) -> usize {
        self.components - self.reused
    }

    /// Whether any component was warm-reused.
    pub fn warm(&self) -> bool {
        self.reused > 0
    }
}

/// Connected components of the instance's social graph, as sorted user-index
/// lists ordered by smallest member — a deterministic partition of
/// `0..num_users()` (isolated shoppers are singleton components). Delegates
/// to [`svgic_graph::SocialGraph::connected_components`], which guarantees
/// exactly this ordering.
pub fn social_components(instance: &SvgicInstance) -> Vec<Vec<UserIdx>> {
    instance.graph().connected_components()
}

/// How a component cache participates in a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Look cached components up and insert the newly solved ones (the warm
    /// path).
    Reuse,
    /// Skip lookups but insert the fresh solutions (a forced cold solve that
    /// still refreshes the cache).
    Refresh,
}

/// Resolves the instance's LP factors: whole-instance lookup first, then
/// component by component.
///
/// `fingerprint` must be [`instance_fingerprint`] of `instance`; the caller
/// has it already, so the instance is not hashed twice. With
/// `cache: Some((.., CacheMode::Reuse))`, the whole instance and then each
/// missing component's sub-instance are looked up, and everything solved is
/// inserted back (the warm path); `CacheMode::Refresh` skips lookups but
/// still inserts; `None` neither reads nor writes any cache (the cold path).
/// All paths produce **identical factors** — the cache only skips
/// recomputation of subproblems it has seen verbatim.
pub fn solve_factors_warm(
    instance: &Arc<SvgicInstance>,
    fingerprint: u64,
    options: &RelaxationOptions,
    mut cache: Option<(&mut FactorCache, CacheMode)>,
) -> WarmOutcome {
    if let Some(factors) = lookup(&mut cache, fingerprint) {
        return WarmOutcome {
            factors,
            cache_hit: true,
            components: 0,
            reused: 0,
        };
    }

    let components = social_components(instance);
    let mut reused = 0usize;
    let factors = if components.len() == 1 {
        // The common connected case: the only component *is* the instance,
        // whose lookup just missed — solve it directly and keep the Arc
        // as-is instead of copying the matrix through `from_aggregate`.
        Arc::new(solve_relaxation(instance, options))
    } else {
        let m = instance.num_items();
        let mut aggregate = vec![0.0f64; instance.num_users() * m];
        let mut scaled_objective = 0.0f64;
        for component in &components {
            let sub = Arc::new(instance.restrict_users(component));
            let sub_fingerprint = instance_fingerprint(&sub);
            let factors = match lookup(&mut cache, sub_fingerprint) {
                Some(cached) => {
                    reused += 1;
                    cached
                }
                None => {
                    let solved = Arc::new(solve_relaxation(&sub, options));
                    if let Some((cache, _)) = cache.as_mut() {
                        cache.insert(sub_fingerprint, Arc::clone(&solved));
                    }
                    solved
                }
            };
            scaled_objective += factors.scaled_objective;
            for (row, &user) in component.iter().enumerate() {
                for item in 0..m {
                    aggregate[user * m + item] = factors.aggregate(row, item);
                }
            }
        }
        Arc::new(UtilityFactors::from_aggregate(
            instance,
            aggregate,
            scaled_objective,
            options.backend,
        ))
    };
    if let Some((cache, _)) = cache.as_mut() {
        cache.insert(fingerprint, Arc::clone(&factors));
    }
    WarmOutcome {
        factors,
        cache_hit: false,
        components: components.len(),
        reused,
    }
}

/// Looks `fingerprint` up when the cache is read (`CacheMode::Reuse`).
fn lookup(
    cache: &mut Option<(&mut FactorCache, CacheMode)>,
    fingerprint: u64,
) -> Option<Arc<UtilityFactors>> {
    match cache {
        Some((cache, CacheMode::Reuse)) => cache.get(fingerprint),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svgic_core::example::running_example;

    #[test]
    fn components_partition_the_population() {
        let instance = running_example();
        let components = social_components(&instance);
        let mut seen: Vec<UserIdx> = components.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..instance.num_users()).collect::<Vec<_>>());
        for component in &components {
            assert!(component.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn restricted_population_fragments_into_components() {
        // The running example's social graph is connected; dropping the right
        // shopper must split the rest (or at least never lose anyone).
        let instance = running_example();
        for drop in 0..instance.num_users() {
            let keep: Vec<UserIdx> = (0..instance.num_users()).filter(|&u| u != drop).collect();
            let restricted = instance.restrict_users(&keep);
            let components = social_components(&restricted);
            let total: usize = components.iter().map(Vec::len).sum();
            assert_eq!(total, keep.len());
        }
    }

    /// Solves `instance` under its own fingerprint.
    fn solve(
        instance: &Arc<SvgicInstance>,
        cache: Option<(&mut FactorCache, CacheMode)>,
    ) -> WarmOutcome {
        let options = RelaxationOptions::default();
        solve_factors_warm(instance, instance_fingerprint(instance), &options, cache)
    }

    #[test]
    fn warm_and_cold_factors_are_identical() {
        let instance = Arc::new(running_example().restrict_users(&[0, 1, 3]));
        let cold = solve(&instance, None);
        let mut cache = FactorCache::new(16);
        let first = solve(&instance, Some((&mut cache, CacheMode::Reuse)));
        let second = solve(&instance, Some((&mut cache, CacheMode::Reuse)));
        assert!(!first.cache_hit);
        assert_eq!(first.reused, 0);
        assert!(
            second.cache_hit,
            "the whole instance is served from the cache"
        );
        for u in 0..instance.num_users() {
            for c in 0..instance.num_items() {
                assert_eq!(cold.factors.aggregate(u, c), first.factors.aggregate(u, c));
                assert_eq!(cold.factors.aggregate(u, c), second.factors.aggregate(u, c));
            }
        }
        assert_eq!(
            cold.factors.scaled_objective,
            second.factors.scaled_objective
        );
    }

    #[test]
    fn components_and_whole_instances_share_one_cache() {
        // Two friend pairs: the whole instance splits into two components,
        // and each is cached under the fingerprint it has as an instance of
        // its own.
        use svgic_core::instance::SvgicInstanceBuilder;
        use svgic_graph::SocialGraph;
        let graph = SocialGraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        let mut builder = SvgicInstanceBuilder::new(graph, 4, 2, 0.5);
        builder.fill_preferences(|u, c| 0.1 + 0.07 * ((u * 4 + c) % 9) as f64);
        builder.fill_social(|u, v, c| 0.05 + 0.03 * ((u + 2 * v + c) % 5) as f64);
        let whole = Arc::new(builder.build().expect("valid instance"));
        let pair = Arc::new(whole.restrict_users(&[2, 3]));

        let mut cache = FactorCache::new(16);
        let first = solve(&whole, Some((&mut cache, CacheMode::Refresh)));
        assert_eq!((first.components, first.reused), (2, 0));
        assert_eq!(cache.len(), 3, "two components plus the assembled whole");
        // Refresh never reads: the same instance is solved again.
        let refreshed = solve(&whole, Some((&mut cache, CacheMode::Refresh)));
        assert!(!refreshed.cache_hit);
        // A population equal to one of the components is a whole hit.
        let hit = solve(&pair, Some((&mut cache, CacheMode::Reuse)));
        assert!(hit.cache_hit);
        let cold = solve(&pair, None);
        assert_eq!(hit.factors.scaled_objective, cold.factors.scaled_objective);
        // A superset population reuses both components.
        let mut fresh = FactorCache::new(16);
        solve(&pair, Some((&mut fresh, CacheMode::Reuse)));
        let superset = solve(&whole, Some((&mut fresh, CacheMode::Reuse)));
        assert_eq!((superset.components, superset.reused), (2, 1));
    }

    #[test]
    fn component_fingerprints_are_stable_across_supersets() {
        // The same component reached through different population restrictions
        // must fingerprint identically — that is what makes component reuse
        // fire across membership churn.
        let base = running_example();
        let a = base.restrict_users(&[0, 1, 2]);
        let b = base
            .restrict_users(&[0, 1, 2, 3])
            .restrict_users(&[0, 1, 2]);
        assert_eq!(instance_fingerprint(&a), instance_fingerprint(&b));
    }

    #[test]
    fn objective_sums_to_the_whole_instance_bound() {
        // Factors solved component-wise carry the summed scaled objective,
        // which must equal the whole-instance LP bound (the LP separates).
        let base = running_example();
        // Drop a user to (possibly) fragment the graph; either way the
        // whole-instance exact solve and the component-wise solve agree.
        let instance = Arc::new(base.restrict_users(&[0, 2, 3]));
        let options = RelaxationOptions {
            backend: svgic_algorithms::LpBackend::ExactSimplex,
            ..RelaxationOptions::default()
        };
        let componentwise =
            solve_factors_warm(&instance, instance_fingerprint(&instance), &options, None);
        let whole = solve_relaxation(&instance, &options);
        assert!(
            (componentwise.factors.scaled_objective - whole.scaled_objective).abs() < 1e-6,
            "componentwise {} vs whole {}",
            componentwise.factors.scaled_objective,
            whole.scaled_objective
        );
    }
}
