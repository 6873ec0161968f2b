//! Integer-program and LP-relaxation builders (§3.3 and §4.4 of the paper).
//!
//! Three model forms are produced from an [`SvgicInstance`]:
//!
//! * **full per-slot model** — binary `x_{u,s}^c` ("user `u` sees item `c` at
//!   slot `s`") and `y_{p,s}^c` ("friend pair `p` is co-displayed `c` at slot
//!   `s`"), with constraints (1)–(6) of the paper; this is the exact IP (when
//!   built with binaries) and LP_SVGIC (when relaxed).  The SVGIC-ST variant
//!   adds the pair-level `z_p^c` variables, the teleportation-discounted
//!   objective split of constraints (8)–(9), and the subgroup size cap.
//! * **condensed LP_SIMP** — continuous `x_u^c` / `y_p^c` with
//!   `Σ_c x_u^c = k`; Observation 2 of the paper shows its optimum equals
//!   LP_SVGIC's and that `x*_{u,s}^c = x*_u^c / k` recovers a per-slot optimum.
//! * **min-coupling form** — the same LP_SIMP but with the `y` variables
//!   eliminated (`y* = min(x_u, x_v)`), consumed by the scalable
//!   block-coordinate solver in `svgic-lp`.
//!
//! Objectives are always expressed in the *scaled* form used by the AVG
//! analysis (§4.4): preference coefficients are `p'(u,c) = (1−λ)/λ · p(u,c)`
//! and social coefficients are the raw `τ`, i.e. the model maximises
//! `total SAVG utility / λ`.  Helpers convert back to the true objective.

use crate::config::Configuration;
use crate::instance::SvgicInstance;
use crate::st::StParams;
use crate::{ItemIdx, SlotIdx, UserIdx};
use svgic_lp::{ConstraintSense, LinearProgram, MinCouplingProblem, Solution, VarId};

/// Index bookkeeping for the full per-slot model.
#[derive(Clone, Debug)]
pub struct FullModel {
    /// The underlying (integer or relaxed) program.
    pub lp: LinearProgram,
    n: usize,
    m: usize,
    k: usize,
    /// `x[u][s][c]` flattened as `((u * k) + s) * m + c`.
    x: Vec<VarId>,
    /// `y[p][s][c]` flattened as `((p * k) + s) * m + c`.
    y: Vec<VarId>,
    /// Optional pair-level `z[p][c]` (SVGIC-ST only).
    z: Option<Vec<VarId>>,
    lambda: f64,
}

impl FullModel {
    /// Variable id of `x_{u,s}^c`.
    pub fn x_var(&self, u: UserIdx, s: SlotIdx, c: ItemIdx) -> VarId {
        self.x[(u * self.k + s) * self.m + c]
    }

    /// Variable id of `y_{p,s}^c` for friend-pair index `p`.
    pub fn y_var(&self, p: usize, s: SlotIdx, c: ItemIdx) -> VarId {
        self.y[(p * self.k + s) * self.m + c]
    }

    /// Variable id of `z_p^c` (only present in ST models).
    pub fn z_var(&self, p: usize, c: ItemIdx) -> Option<VarId> {
        self.z.as_ref().map(|z| z[p * self.m + c])
    }

    /// Converts a solver solution into an SAVG k-Configuration by picking, for
    /// every display unit, the item with the largest `x` value (ties toward
    /// smaller item index), repairing any no-duplication conflicts greedily.
    pub fn extract_configuration(&self, sol: &Solution) -> Configuration {
        let mut rows: Vec<Vec<ItemIdx>> = Vec::with_capacity(self.n);
        for u in 0..self.n {
            let mut used = vec![false; self.m];
            let mut row = Vec::with_capacity(self.k);
            for s in 0..self.k {
                let mut best: Option<(f64, ItemIdx)> = None;
                for (c, _) in used.iter().enumerate().filter(|(_, &taken)| !taken) {
                    let v = sol.value(self.x_var(u, s, c));
                    if best.is_none_or(|(bv, _)| v > bv + 1e-12) {
                        best = Some((v, c));
                    }
                }
                let (_, c) = best.expect("at least one unused item per slot (k <= m)");
                used[c] = true;
                row.push(c);
            }
            rows.push(row);
        }
        Configuration::from_rows(&rows)
    }

    /// Converts a scaled model objective into the true SAVG utility
    /// (`× λ`; for `λ = 0` the model is built unscaled so this is the identity).
    pub fn unscale_objective(&self, scaled: f64) -> f64 {
        if self.lambda > 0.0 {
            scaled * self.lambda
        } else {
            scaled
        }
    }
}

fn pref_coefficient(instance: &SvgicInstance, u: UserIdx, c: ItemIdx) -> f64 {
    if instance.lambda() > 0.0 {
        instance.scaled_preference(u, c)
    } else {
        instance.preference(u, c)
    }
}

/// Builds the full per-slot SVGIC model (constraints (1)–(6)).
///
/// With `integer = true` the `x` variables are binary and the model is the
/// exact IP; with `integer = false` it is the LP_SVGIC relaxation.  The `y`
/// variables are always continuous — they are auxiliary and take extreme
/// values automatically once `x` is integral.
pub fn build_full_model(instance: &SvgicInstance, integer: bool) -> FullModel {
    build_full_model_impl(instance, integer, None)
}

/// Builds the full SVGIC-ST model: teleportation-discounted objective with the
/// pair-level `z` variables (constraints (8)–(9)) and the subgroup size cap
/// `Σ_u x_{u,s}^c ≤ M` for every `(c, s)`.
pub fn build_full_model_st(instance: &SvgicInstance, st: &StParams, integer: bool) -> FullModel {
    build_full_model_impl(instance, integer, Some(*st))
}

fn build_full_model_impl(
    instance: &SvgicInstance,
    integer: bool,
    st: Option<StParams>,
) -> FullModel {
    let n = instance.num_users();
    let m = instance.num_items();
    let k = instance.num_slots();
    let pairs = instance.friend_pairs();
    let lambda = instance.lambda();
    let mut lp = LinearProgram::new();

    // x_{u,s}^c with the preference part of the objective.
    let mut x = Vec::with_capacity(n * k * m);
    for u in 0..n {
        for _s in 0..k {
            for c in 0..m {
                let obj = pref_coefficient(instance, u, c);
                let id = if integer {
                    lp.add_binary_var(obj, None)
                } else {
                    lp.add_unit_var(obj, None)
                };
                x.push(id);
            }
        }
    }
    let x_at = |u: usize, s: usize, c: usize| x[(u * k + s) * m + c];

    // y_{p,s}^c with the (direct) social part of the objective.
    let direct_weight = |p: usize, c: usize| -> f64 {
        let w = instance.pair_weight(p, c);
        match st {
            Some(st) if lambda > 0.0 => (1.0 - st.d_tel) * w,
            Some(_) => 0.0,
            None => w,
        }
    };
    let mut y = Vec::with_capacity(pairs.len() * k * m);
    for p in 0..pairs.len() {
        for _s in 0..k {
            for c in 0..m {
                let obj = if lambda > 0.0 {
                    direct_weight(p, c)
                } else {
                    0.0
                };
                y.push(lp.add_unit_var(obj, None));
            }
        }
    }
    let y_at = |p: usize, s: usize, c: usize| y[(p * k + s) * m + c];

    // z_p^c for SVGIC-ST (direct or indirect co-display).
    let z = st.map(|st| {
        let mut z = Vec::with_capacity(pairs.len() * m);
        for p in 0..pairs.len() {
            for c in 0..m {
                let obj = if lambda > 0.0 {
                    st.d_tel * instance.pair_weight(p, c)
                } else {
                    0.0
                };
                z.push(lp.add_unit_var(obj, None));
            }
        }
        z
    });

    // (1) no-duplication: Σ_s x_{u,s}^c ≤ 1.
    for u in 0..n {
        for c in 0..m {
            let terms = (0..k).map(|s| (x_at(u, s, c), 1.0)).collect();
            lp.add_constraint(terms, ConstraintSense::LessEq, 1.0, None);
        }
    }
    // (2) exactly one item per display unit: Σ_c x_{u,s}^c = 1.
    for u in 0..n {
        for s in 0..k {
            let terms = (0..m).map(|c| (x_at(u, s, c), 1.0)).collect();
            lp.add_constraint(terms, ConstraintSense::Equal, 1.0, None);
        }
    }
    // (5)/(6) co-display linking: y_{p,s}^c ≤ x_{u,s}^c and ≤ x_{v,s}^c.
    for (p, pair) in pairs.iter().enumerate() {
        for s in 0..k {
            for c in 0..m {
                lp.add_constraint(
                    vec![(y_at(p, s, c), 1.0), (x_at(pair.u, s, c), -1.0)],
                    ConstraintSense::LessEq,
                    0.0,
                    None,
                );
                lp.add_constraint(
                    vec![(y_at(p, s, c), 1.0), (x_at(pair.v, s, c), -1.0)],
                    ConstraintSense::LessEq,
                    0.0,
                    None,
                );
            }
        }
    }
    // (8)/(9) indirect co-display linking and the subgroup size cap (ST only).
    if let (Some(z_vars), Some(st)) = (&z, st) {
        for (p, pair) in pairs.iter().enumerate() {
            for c in 0..m {
                let zv = z_vars[p * m + c];
                // z ≤ Σ_s x_{u,s}^c  and  z ≤ Σ_s x_{v,s}^c.
                let mut terms_u: Vec<(VarId, f64)> = vec![(zv, 1.0)];
                let mut terms_v: Vec<(VarId, f64)> = vec![(zv, 1.0)];
                for s in 0..k {
                    terms_u.push((x_at(pair.u, s, c), -1.0));
                    terms_v.push((x_at(pair.v, s, c), -1.0));
                }
                lp.add_constraint(terms_u, ConstraintSense::LessEq, 0.0, None);
                lp.add_constraint(terms_v, ConstraintSense::LessEq, 0.0, None);
            }
        }
        if st.max_subgroup < n {
            for s in 0..k {
                for c in 0..m {
                    let terms = (0..n).map(|u| (x_at(u, s, c), 1.0)).collect();
                    lp.add_constraint(terms, ConstraintSense::LessEq, st.max_subgroup as f64, None);
                }
            }
        }
    }

    FullModel {
        lp,
        n,
        m,
        k,
        x,
        y,
        z,
        lambda,
    }
}

/// Index bookkeeping for the condensed LP_SIMP model.
#[derive(Clone, Debug)]
pub struct SimpModel {
    /// The relaxed linear program.
    pub lp: LinearProgram,
    n: usize,
    m: usize,
    /// `x[u][c]` flattened.
    x: Vec<VarId>,
    lambda: f64,
    k: usize,
}

impl SimpModel {
    /// Variable id of `x_u^c`.
    pub fn x_var(&self, u: UserIdx, c: ItemIdx) -> VarId {
        self.x[u * self.m + c]
    }

    /// Extracts the dense `n × m` aggregate utility-factor matrix `x*_u^c`.
    pub fn extract_factors(&self, sol: &Solution) -> Vec<f64> {
        let mut out = vec![0.0; self.n * self.m];
        for u in 0..self.n {
            for c in 0..self.m {
                out[u * self.m + c] = sol.value(self.x_var(u, c)).clamp(0.0, 1.0);
            }
        }
        out
    }

    /// Converts a scaled model objective into the true SAVG utility.
    pub fn unscale_objective(&self, scaled: f64) -> f64 {
        if self.lambda > 0.0 {
            scaled * self.lambda
        } else {
            scaled
        }
    }

    /// Number of slots of the originating instance (Observation 2 divides the
    /// aggregate factors by this to obtain per-slot factors).
    pub fn num_slots(&self) -> usize {
        self.k
    }
}

/// Builds the condensed LP_SIMP relaxation of §4.4 (continuous `x_u^c`,
/// `y_p^c`, per-user budget `Σ_c x_u^c = k`).
pub fn build_lp_simp(instance: &SvgicInstance) -> SimpModel {
    let n = instance.num_users();
    let m = instance.num_items();
    let k = instance.num_slots();
    let pairs = instance.friend_pairs();
    let lambda = instance.lambda();
    let mut lp = LinearProgram::new();

    let mut x = Vec::with_capacity(n * m);
    for u in 0..n {
        for c in 0..m {
            x.push(lp.add_unit_var(pref_coefficient(instance, u, c), None));
        }
    }
    let x_at = |u: usize, c: usize| x[u * m + c];
    for u in 0..n {
        let terms = (0..m).map(|c| (x_at(u, c), 1.0)).collect();
        lp.add_constraint(terms, ConstraintSense::Equal, k as f64, None);
    }
    for (p, pair) in pairs.iter().enumerate() {
        for c in 0..m {
            let w = if lambda > 0.0 {
                instance.pair_weight(p, c)
            } else {
                0.0
            };
            if w <= 0.0 {
                continue;
            }
            let y = lp.add_unit_var(w, None);
            lp.add_constraint(
                vec![(y, 1.0), (x_at(pair.u, c), -1.0)],
                ConstraintSense::LessEq,
                0.0,
                None,
            );
            lp.add_constraint(
                vec![(y, 1.0), (x_at(pair.v, c), -1.0)],
                ConstraintSense::LessEq,
                0.0,
                None,
            );
        }
    }

    SimpModel {
        lp,
        n,
        m,
        x,
        lambda,
        k,
    }
}

/// Builds the min-coupling form of LP_SIMP for the scalable block-coordinate
/// solver: variable `u·m + c` lives in group `u` with budget `k`, linear
/// coefficient `p'(u,c)`, and every friend pair contributes the coupling
/// `w_e^c · min(x_u^c, x_v^c)`.
pub fn build_min_coupling(instance: &SvgicInstance) -> MinCouplingProblem {
    let n = instance.num_users();
    let m = instance.num_items();
    let k = instance.num_slots() as f64;
    let lambda = instance.lambda();
    let mut problem = MinCouplingProblem::new(vec![k; n]);
    for u in 0..n {
        for c in 0..m {
            problem.add_variable(u, pref_coefficient(instance, u, c));
        }
    }
    if lambda > 0.0 {
        for (p, pair) in instance.friend_pairs().iter().enumerate() {
            for c in 0..m {
                let w = instance.pair_weight(p, c);
                if w > 0.0 {
                    problem.add_coupling(pair.u * m + c, pair.v * m + c, w);
                }
            }
        }
    }
    problem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::{paper_configurations, running_example};
    use crate::utility::{total_utility, unweighted_total_utility};
    use svgic_lp::{solve_lp, BranchBoundConfig, SimplexOptions};

    #[test]
    fn lp_simp_matches_lp_svgic_optimum() {
        // Observation 2: OPT_SIMP = OPT_SVGIC on the relaxations.
        let inst = running_example()
            .restrict_items(&[0, 1, 4])
            .with_slots(2)
            .unwrap();
        let full = build_full_model(&inst, false);
        let simp = build_lp_simp(&inst);
        let opts = SimplexOptions::default();
        let full_obj = solve_lp(&full.lp, &opts).unwrap().objective;
        let simp_obj = solve_lp(&simp.lp, &opts).unwrap().objective;
        assert!(
            (full_obj - simp_obj).abs() < 1e-5,
            "LP_SVGIC {full_obj} vs LP_SIMP {simp_obj}"
        );
    }

    #[test]
    fn lp_relaxation_upper_bounds_every_feasible_configuration() {
        let inst = running_example();
        let simp = build_lp_simp(&inst);
        let lp_obj = simp.unscale_objective(
            solve_lp(&simp.lp, &SimplexOptions::default())
                .unwrap()
                .objective,
        );
        let cfgs = paper_configurations();
        for cfg in [&cfgs.optimal, &cfgs.avg, &cfgs.avg_d, &cfgs.group] {
            assert!(lp_obj + 1e-6 >= total_utility(&inst, cfg));
        }
    }

    #[test]
    fn exact_ip_recovers_the_paper_optimum() {
        // Full binary model on the running example; the optimum utility is
        // 10.35 in the unweighted convention (5.175 weighted at λ = ½).
        let inst = running_example();
        let model = build_full_model(&inst, true);
        let res = svgic_lp::branch_bound::solve_milp(
            &model.lp,
            &BranchBoundConfig {
                max_nodes: 20_000,
                ..Default::default()
            },
        );
        let sol = res.solution.expect("feasible IP");
        let cfg = model.extract_configuration(&sol);
        assert!(cfg.is_valid(inst.num_items()));
        let utility = unweighted_total_utility(&inst, &cfg);
        assert!(
            (utility - 10.35).abs() < 1e-6,
            "IP utility {utility} differs from the paper optimum 10.35"
        );
    }

    #[test]
    fn extract_configuration_respects_no_duplication() {
        let inst = running_example();
        let simp_factors_model = build_full_model(&inst, false);
        let sol = solve_lp(&simp_factors_model.lp, &SimplexOptions::default()).unwrap();
        let cfg = simp_factors_model.extract_configuration(&sol);
        assert!(cfg.is_valid(inst.num_items()));
    }

    #[test]
    fn lp_simp_standard_form_has_no_bound_rows() {
        // Every LP_SIMP variable lives in [0, 1]; those bounds stay on the
        // columns, so the simplex works on one row per constraint.
        let inst = running_example();
        let simp = build_lp_simp(&inst);
        let sol = solve_lp(&simp.lp, &SimplexOptions::default()).unwrap();
        assert!(simp
            .lp
            .variables()
            .iter()
            .all(|v| v.lower == 0.0 && v.upper == 1.0));
        assert_eq!(sol.work.rows, simp.lp.num_constraints());
        // One slack (`y ≤ x` rows) or artificial (budget rows) per row.
        assert_eq!(
            sol.work.cols,
            simp.lp.num_variables() + simp.lp.num_constraints()
        );
        assert!(sol.work.phase1_pivots + sol.work.phase2_pivots > 0);
    }

    #[test]
    fn min_coupling_objective_matches_lp_simp() {
        let inst = running_example();
        let simp = build_lp_simp(&inst);
        let coupling = build_min_coupling(&inst);
        let exact = solve_lp(&simp.lp, &SimplexOptions::default()).unwrap();
        // Evaluate the exact LP's x in the min-coupling objective: identical by
        // construction (y* = min).
        let factors = simp.extract_factors(&exact);
        let coupling_obj = coupling.objective(&factors);
        assert!((coupling_obj - exact.objective).abs() < 1e-6);
    }

    #[test]
    fn st_model_adds_size_cap() {
        let inst = running_example();
        let st = StParams::new(0.5, 2);
        let model = build_full_model_st(&inst, &st, true);
        let res = svgic_lp::branch_bound::solve_milp(
            &model.lp,
            &BranchBoundConfig {
                max_nodes: 40_000,
                ..Default::default()
            },
        );
        let sol = res.solution.expect("feasible ST IP");
        let cfg = model.extract_configuration(&sol);
        assert!(cfg.is_valid(inst.num_items()));
        assert!(st.is_feasible(&cfg), "size cap violated: {:?}", cfg);
        // Capping subgroups at 2 cannot beat the unconstrained optimum.
        assert!(unweighted_total_utility(&inst, &cfg) <= 10.35 + 1e-6);
    }

    #[test]
    fn zero_lambda_model_maximises_pure_preference() {
        let inst = running_example().with_lambda(0.0).unwrap();
        let model = build_full_model(&inst, true);
        let res = svgic_lp::branch_bound::solve_milp(&model.lp, &BranchBoundConfig::default());
        let cfg = model.extract_configuration(&res.solution.expect("feasible"));
        // With λ = 0 the optimum is each user's top-3 items: total preference
        // = 2.65 + 1.9 + 1.45 + 2.25 = 8.25 (Table 9's personalized value).
        let pref = crate::utility::raw_preference_sum(&inst, &cfg);
        assert!((pref - 8.25).abs() < 1e-6, "pure-preference optimum {pref}");
    }
}
