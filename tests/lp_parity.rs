//! Objective parity of the exact simplex on LP_SIMP relaxations.
//!
//! The objectives below were recorded with the earlier tableau simplex, which
//! kept every `x ≤ 1` bound as a row. Any change to the exact solver must
//! reproduce them to 1e-9 relative, with solutions feasible to 1e-7.

use rand::rngs::StdRng;
use rand::SeedableRng;
use svgic::core::ip_model::build_lp_simp;
use svgic::datasets::{DatasetProfile, InstanceSpec};
use svgic::lp::{solve_lp, SimplexOptions};

/// LP_SIMP objectives in the order of [`instances`].
const PINNED: [f64; 24] = [
    13.054491777747813,
    32.497165994337095,
    46.30724168502061,
    81.08881301232843,
    20.598268080015377,
    48.23244605515743,
    11.674908114010206,
    29.448214468487933,
    11.553086558189488,
    35.63852290467154,
    29.60541792436176,
    88.52066677481932,
    18.877598727777734,
    48.948333126941144,
    7.22790985901203,
    13.41964675935909,
    13.57268132961147,
    28.99568117953173,
    34.05989787359894,
    72.95279331805646,
    20.619527538840135,
    48.266748746979935,
    10.683641070196126,
    22.824378671883828,
];

/// Every profile and λ ∈ {0, 0.3, 0.5, 0.8}, each at two sizes, drawn from a
/// population of 120 with seeds 1, 2, … in iteration order.
fn instances() -> Vec<InstanceSpec> {
    let mut specs = Vec::new();
    for profile in DatasetProfile::all() {
        for lambda in [0.0, 0.3, 0.5, 0.8] {
            for (num_users, num_items, num_slots) in [(6, 10, 3), (10, 14, 4)] {
                specs.push(InstanceSpec {
                    profile,
                    population: 120,
                    num_users,
                    num_items,
                    num_slots,
                    lambda,
                    model: None,
                });
            }
        }
    }
    specs
}

#[test]
fn lp_simp_objectives_match_the_pinned_values() {
    let specs = instances();
    assert_eq!(specs.len(), PINNED.len());
    for ((spec, pinned), seed) in specs.iter().zip(PINNED).zip(1u64..) {
        let instance = spec.build(&mut StdRng::seed_from_u64(seed));
        let model = build_lp_simp(&instance);
        let sol = solve_lp(&model.lp, &SimplexOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let relative = (sol.objective - pinned).abs() / pinned.abs();
        assert!(
            relative <= 1e-9,
            "seed {seed} ({:?}, λ = {}): objective {:?}, pinned {pinned:?}",
            spec.profile,
            spec.lambda,
            sol.objective
        );
        assert!(
            model.lp.is_feasible(&sol.values, 1e-7),
            "seed {seed}: infeasible solution"
        );
        assert_eq!(sol.work.rows, model.lp.num_constraints(), "seed {seed}");
    }
}
