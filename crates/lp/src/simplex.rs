//! Bounded-variable two-phase primal simplex on a dense tableau.
//!
//! The solver works on the generic [`LinearProgram`] model: arbitrary variable
//! bounds, `≤` / `≥` / `=` constraints, maximisation objective.  Internally it
//! converts the program to standard form — variables shifted to a zero lower
//! bound, one row per constraint with slack / surplus / artificial columns —
//! and runs a two-phase tableau simplex.
//!
//! * **Bounds are not rows.**  A finite upper bound `u` stays on its column.
//!   The ratio test takes the smallest of three limits: a basic variable falls
//!   to zero, a basic variable rises to its upper bound (its row is
//!   complemented, then pivoted), or the entering variable reaches its own
//!   bound (a *flip*: no pivot).  A nonbasic variable at its upper bound is
//!   held complemented (`x = u − x′`), so every nonbasic column of the
//!   tableau sits at zero.
//! * **Reduced costs are maintained.**  The reduced-cost row is computed once
//!   per phase and updated in `O(cols)` from the normalised pivot row after
//!   every pivot; elimination only touches the pivot row's nonzero entries.
//! * **Pricing** takes the largest reduced cost, with a Bland's-rule fallback
//!   to prevent cycling once half the pivot budget is spent.  Bound flips
//!   count against that budget.
//!
//! The implementation targets correctness and predictability at the scale
//! where the paper itself uses exact LPs (small evaluation instances and the
//! root relaxations of the IP baseline); the large-scale relaxations are
//! handled by [`crate::structured`].

use crate::model::{ConstraintSense, LinearProgram, Solution, SolveWork};

/// Options controlling the simplex run.
#[derive(Clone, Debug)]
pub struct SimplexOptions {
    /// Maximum number of pivots (bound flips included) across both phases.
    pub max_pivots: usize,
    /// Numerical tolerance for optimality / feasibility tests.
    pub tolerance: f64,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_pivots: 200_000,
            tolerance: 1e-8,
        }
    }
}

/// Errors reported by the simplex solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexError {
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// The pivot budget was exhausted before reaching optimality.
    IterationLimit,
    /// The model contains a variable with an infinite lower bound, which the
    /// standard-form conversion does not support.
    UnsupportedLowerBound,
    /// Every remaining improving pivot would land on a (near-)zero element;
    /// proceeding would corrupt the tableau, so the solve is aborted instead.
    Numerical,
}

impl std::fmt::Display for SimplexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimplexError::Infeasible => write!(f, "linear program is infeasible"),
            SimplexError::Unbounded => write!(f, "linear program is unbounded"),
            SimplexError::IterationLimit => write!(f, "simplex pivot limit exhausted"),
            SimplexError::UnsupportedLowerBound => {
                write!(f, "variables must have finite lower bounds")
            }
            SimplexError::Numerical => {
                write!(
                    f,
                    "simplex aborted: every improving pivot is numerically unstable"
                )
            }
        }
    }
}

impl std::error::Error for SimplexError {}

/// Solves `lp` (treating every variable as continuous) and returns the optimal
/// solution.
///
/// Integer variables are *not* enforced here; use [`crate::branch_bound`] for
/// MILPs.
pub fn solve_lp(lp: &LinearProgram, options: &SimplexOptions) -> Result<Solution, SimplexError> {
    Tableau::build(lp, options)?.solve(lp)
}

/// What the ratio test decided for an entering column.
enum Step {
    /// The entering variable reaches its own upper bound first.
    Flip,
    /// Pivot on this row; `at_upper` when its basic variable leaves at its
    /// upper bound rather than at zero.
    Pivot { row: usize, at_upper: bool },
    /// Nothing limits the entering variable.
    Unbounded,
}

/// Internal standard-form tableau.
struct Tableau {
    /// Row-major matrix of size `rows × (cols + 1)`; the last column is the RHS,
    /// the value of the row's basic variable.
    a: Vec<f64>,
    rows: usize,
    cols: usize,
    /// `basis[r]` is the column currently basic in row `r`.
    basis: Vec<usize>,
    /// `is_basic[j]` mirrors `basis`; kept in step by [`Tableau::pivot`].
    is_basic: Vec<bool>,
    /// Upper bound of each column after the shift; infinite for slack,
    /// surplus and artificial columns and for variables without one.
    upper: Vec<f64>,
    /// `flipped[j]`: column `j` holds the complement `upper[j] − x_j`.
    flipped: Vec<bool>,
    /// Phase-2 objective coefficients per column (minimisation form).
    cost: Vec<f64>,
    /// Reduced costs of the running phase, in each column's orientation.
    reduced: Vec<f64>,
    /// Nonzero `(column, value)` entries of the last normalised pivot row;
    /// kept across pivots so a pivot does not reallocate it.
    pivot_row: Vec<(usize, f64)>,
    /// Columns corresponding to the original (shifted) structural variables.
    structural: usize,
    /// Shift applied to each original variable (its lower bound).
    shift: Vec<f64>,
    options: SimplexOptions,
    artificial_start: usize,
    /// Pivots so far, bound flips included.
    pivots: usize,
    /// Bound flips so far.
    flips: usize,
}

impl Tableau {
    fn build(lp: &LinearProgram, options: &SimplexOptions) -> Result<Self, SimplexError> {
        let nvars = lp.num_variables();
        let mut shift = vec![0.0; nvars];
        for (i, v) in lp.variables().iter().enumerate() {
            if !v.lower.is_finite() {
                return Err(SimplexError::UnsupportedLowerBound);
            }
            shift[i] = v.lower;
        }

        // One row per user constraint: (coefficients over structural vars,
        // sense, rhs). Variable bounds stay on the columns.
        struct Row {
            coeffs: Vec<(usize, f64)>,
            sense: ConstraintSense,
            rhs: f64,
        }
        let mut raw_rows: Vec<Row> = Vec::new();
        for c in lp.constraints() {
            // Merge duplicate terms. BTreeMap, not HashMap: the shift sum
            // below adds floats in iteration order, and float addition is not
            // associative — hash order would make the tableau (and the
            // configuration digest downstream) vary run to run.
            let mut merged: std::collections::BTreeMap<usize, f64> =
                std::collections::BTreeMap::new();
            for &(v, a) in &c.terms {
                *merged.entry(v).or_insert(0.0) += a;
            }
            // Shift: Σ a_i (x_i' + l_i) sense b  =>  Σ a_i x_i' sense b - Σ a_i l_i
            let shift_amount: f64 = merged.iter().map(|(&v, &a)| a * shift[v]).sum();
            raw_rows.push(Row {
                coeffs: merged.into_iter().collect(),
                sense: c.sense,
                rhs: c.rhs - shift_amount,
            });
        }

        // Normalise RHS to be non-negative.
        for row in &mut raw_rows {
            if row.rhs < 0.0 {
                for (_, a) in &mut row.coeffs {
                    *a = -*a;
                }
                row.rhs = -row.rhs;
                row.sense = match row.sense {
                    ConstraintSense::LessEq => ConstraintSense::GreaterEq,
                    ConstraintSense::GreaterEq => ConstraintSense::LessEq,
                    ConstraintSense::Equal => ConstraintSense::Equal,
                };
            }
        }

        let rows = raw_rows.len();
        // Count auxiliary columns.
        let mut num_slack = 0usize;
        let mut num_artificial = 0usize;
        for row in &raw_rows {
            match row.sense {
                ConstraintSense::LessEq => num_slack += 1,
                ConstraintSense::GreaterEq => {
                    num_slack += 1;
                    num_artificial += 1;
                }
                ConstraintSense::Equal => num_artificial += 1,
            }
        }
        let structural = nvars;
        let cols = structural + num_slack + num_artificial;
        let artificial_start = structural + num_slack;

        let mut a = vec![0.0; rows * (cols + 1)];
        let mut basis = vec![usize::MAX; rows];
        let mut slack_idx = structural;
        let mut art_idx = artificial_start;
        for (r, row) in raw_rows.iter().enumerate() {
            for &(v, coef) in &row.coeffs {
                a[r * (cols + 1) + v] += coef;
            }
            a[r * (cols + 1) + cols] = row.rhs;
            match row.sense {
                ConstraintSense::LessEq => {
                    a[r * (cols + 1) + slack_idx] = 1.0;
                    basis[r] = slack_idx;
                    slack_idx += 1;
                }
                ConstraintSense::GreaterEq => {
                    a[r * (cols + 1) + slack_idx] = -1.0;
                    slack_idx += 1;
                    a[r * (cols + 1) + art_idx] = 1.0;
                    basis[r] = art_idx;
                    art_idx += 1;
                }
                ConstraintSense::Equal => {
                    a[r * (cols + 1) + art_idx] = 1.0;
                    basis[r] = art_idx;
                    art_idx += 1;
                }
            }
        }
        let mut is_basic = vec![false; cols];
        for &b in &basis {
            is_basic[b] = true;
        }

        // Phase-2 cost: minimise -objective over shifted variables.
        let mut cost = vec![0.0; cols];
        let mut upper = vec![f64::INFINITY; cols];
        for (i, v) in lp.variables().iter().enumerate() {
            cost[i] = -v.objective;
            upper[i] = v.upper - v.lower;
        }

        Ok(Self {
            a,
            rows,
            cols,
            basis,
            is_basic,
            upper,
            flipped: vec![false; cols],
            cost,
            reduced: vec![0.0; cols],
            pivot_row: Vec::new(),
            structural,
            shift,
            options: options.clone(),
            artificial_start,
            pivots: 0,
            flips: 0,
        })
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * (self.cols + 1) + c]
    }

    fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.cols)
    }

    /// Smallest pivot element magnitude the tableau update tolerates. Scaled
    /// off the configured tolerance but never below an absolute floor:
    /// dividing a row by anything smaller amplifies its rounding noise past
    /// any later feasibility/optimality test.
    fn min_pivot(&self) -> f64 {
        self.options.tolerance.max(1e-11)
    }

    /// Whether `(pr, pc)` is safe to pivot on. A pivot element that is not
    /// finite or too small to divide by is the guard that keeps an
    /// ill-conditioned instance from silently corrupting the tableau; callers
    /// fall back to another column or report [`SimplexError::Numerical`].
    fn pivot_is_stable(&self, pr: usize, pc: usize) -> bool {
        let pivot_val = self.at(pr, pc);
        pivot_val.is_finite() && pivot_val.abs() > self.min_pivot()
    }

    /// Phase cost of column `j` in its current orientation. Phase 1 minimises
    /// the sum of the artificials, phase 2 the negated objective.
    fn phase_cost(&self, phase1: bool, j: usize) -> f64 {
        let c = match phase1 {
            true if j >= self.artificial_start => 1.0,
            true => 0.0,
            false => self.cost[j],
        };
        if self.flipped[j] {
            -c
        } else {
            c
        }
    }

    /// Sets `reduced` to `c_j − Σ_r c_{basis[r]} · a[r][j]` for the phase's costs.
    fn price_from_scratch(&mut self, phase1: bool) {
        let width = self.cols + 1;
        for j in 0..self.cols {
            self.reduced[j] = self.phase_cost(phase1, j);
        }
        for r in 0..self.rows {
            let cb = self.phase_cost(phase1, self.basis[r]);
            if cb != 0.0 {
                let row = &self.a[r * width..r * width + self.cols];
                for (d, &v) in self.reduced.iter_mut().zip(row) {
                    *d -= cb * v;
                }
            }
        }
        for &b in &self.basis {
            self.reduced[b] = 0.0;
        }
    }

    /// Pivots column `pc` into the basis at row `pr`, updating the reduced
    /// costs from the normalised pivot row. The caller has checked
    /// [`Tableau::pivot_is_stable`].
    fn pivot(&mut self, pr: usize, pc: usize) {
        let width = self.cols + 1;
        let pivot_val = self.at(pr, pc);
        let mut nonzeros = std::mem::take(&mut self.pivot_row);
        nonzeros.clear();
        for (c, v) in self.a[pr * width..(pr + 1) * width].iter_mut().enumerate() {
            if *v != 0.0 {
                *v /= pivot_val;
                nonzeros.push((c, *v));
            }
        }
        for r in 0..self.rows {
            if r == pr {
                continue;
            }
            let row = &mut self.a[r * width..(r + 1) * width];
            let factor = row[pc];
            if factor == 0.0 {
                continue;
            }
            for &(c, v) in &nonzeros {
                row[c] -= factor * v;
            }
        }
        let d = self.reduced[pc];
        if d != 0.0 {
            for &(c, v) in &nonzeros {
                if c < self.cols {
                    self.reduced[c] -= d * v;
                }
            }
        }
        self.pivot_row = nonzeros;
        self.is_basic[self.basis[pr]] = false;
        self.is_basic[pc] = true;
        self.basis[pr] = pc;
        self.pivots += 1;
    }

    /// Moves nonbasic column `j` from zero to its upper bound and complements
    /// it, so it sits at zero again.
    fn flip(&mut self, j: usize) {
        let cols = self.cols;
        let u = self.upper[j];
        for row in self.a.chunks_exact_mut(cols + 1) {
            let coef = row[j];
            if coef != 0.0 {
                row[cols] -= coef * u;
                row[j] = -coef;
            }
        }
        self.reduced[j] = -self.reduced[j];
        self.flipped[j] = !self.flipped[j];
        self.pivots += 1;
        self.flips += 1;
    }

    /// Complements the basic variable of row `r` (`x_B = u_B − x′_B`), so a
    /// pivot on that row leaves it at its upper bound. Reduced costs do not
    /// change: every product `c_B · a[r][j]` keeps its sign.
    fn complement_row(&mut self, r: usize) {
        let width = self.cols + 1;
        let b = self.basis[r];
        let u = self.upper[b];
        let row = &mut self.a[r * width..(r + 1) * width];
        for (c, v) in row[..self.cols].iter_mut().enumerate() {
            if c != b {
                *v = -*v;
            }
        }
        row[self.cols] = u - row[self.cols];
        self.flipped[b] = !self.flipped[b];
    }

    /// Bounded-variable ratio test for entering column `pc`. Ties between rows
    /// go to the lower basic column; a row also wins a tie with the entering
    /// variable's own bound.
    fn ratio_test(&self, pc: usize) -> Step {
        let tol = self.options.tolerance;
        let mut leaving: Option<(usize, bool)> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..self.rows {
            let coef = self.at(r, pc);
            let ratio = if coef > tol {
                self.rhs(r) / coef
            } else if coef < -tol && self.upper[self.basis[r]].is_finite() {
                (self.upper[self.basis[r]] - self.rhs(r)) / -coef
            } else {
                continue;
            };
            if ratio < best_ratio - tol
                || (ratio < best_ratio + tol
                    && leaving.is_none_or(|(lr, _)| self.basis[r] < self.basis[lr]))
            {
                best_ratio = ratio;
                leaving = Some((r, coef < 0.0));
            }
        }
        if self.upper[pc] < best_ratio - tol {
            return Step::Flip;
        }
        match leaving {
            Some((row, at_upper)) => Step::Pivot { row, at_upper },
            None => Step::Unbounded,
        }
    }

    /// Runs the simplex method on the phase's costs, starting from the current
    /// basic feasible solution. Phase 2 forbids artificials from entering.
    fn run_phase(&mut self, phase1: bool) -> Result<(), SimplexError> {
        let tol = self.options.tolerance;
        self.price_from_scratch(phase1);
        let col_limit = if phase1 {
            self.cols
        } else {
            self.artificial_start
        };
        // Columns rejected this iteration because their only improving pivot
        // element was numerically unusable; cleared after every successful
        // pivot or flip (the tableau, and hence the elements, change).
        let mut rejected = vec![false; self.cols];
        loop {
            if self.pivots >= self.options.max_pivots {
                return Err(SimplexError::IterationLimit);
            }
            let mut entering: Option<usize> = None;
            let mut best_reduced = -tol;
            let mut any_rejected_improving = false;
            let use_bland = self.pivots > self.options.max_pivots / 2;
            for (j, &reduced) in self.reduced[..col_limit].iter().enumerate() {
                if self.is_basic[j] {
                    continue;
                }
                if reduced < -tol {
                    if rejected[j] {
                        any_rejected_improving = true;
                        continue;
                    }
                    if use_bland {
                        entering = Some(j);
                        break;
                    }
                    if reduced < best_reduced {
                        best_reduced = reduced;
                        entering = Some(j);
                    }
                }
            }
            let Some(pc) = entering else {
                if any_rejected_improving {
                    // Improvement is still possible in exact arithmetic, but
                    // every improving column pivots on a (near-)zero element.
                    return Err(SimplexError::Numerical);
                }
                return Ok(()); // optimal for this phase
            };
            match self.ratio_test(pc) {
                Step::Unbounded => return Err(SimplexError::Unbounded),
                Step::Flip => self.flip(pc),
                Step::Pivot { row, at_upper } => {
                    if !self.pivot_is_stable(row, pc) {
                        // Near-zero pivot element: reject the column and retry
                        // with the remaining candidates (Bland-style fallback)
                        // rather than dividing the row by numerical noise.
                        rejected[pc] = true;
                        continue;
                    }
                    if at_upper {
                        self.complement_row(row);
                    }
                    self.pivot(row, pc);
                }
            }
            rejected.fill(false);
        }
    }

    fn solve(mut self, lp: &LinearProgram) -> Result<Solution, SimplexError> {
        let tol = self.options.tolerance;

        // Phase 1: drive artificials to zero (only needed if any exist).
        if self.artificial_start < self.cols {
            self.run_phase(true)?;
            // Compute phase-1 objective = sum of artificial values.
            let mut infeasibility = 0.0;
            for r in 0..self.rows {
                if self.basis[r] >= self.artificial_start {
                    infeasibility += self.rhs(r);
                }
            }
            if infeasibility > 1e-6 {
                return Err(SimplexError::Infeasible);
            }
            // Drive remaining artificial basics out of the basis when possible.
            for r in 0..self.rows {
                if self.basis[r] >= self.artificial_start {
                    // Find a non-artificial column with a non-zero coefficient.
                    let replacement = (0..self.artificial_start)
                        .find(|&j| !self.is_basic[j] && self.at(r, j).abs() > tol);
                    if let Some(j) = replacement {
                        if self.pivot_is_stable(r, j) {
                            self.pivot(r, j);
                        }
                    }
                    // If no replacement exists (or its pivot element is too
                    // small to divide by) the row is redundant; the artificial
                    // stays basic at value ~0, which is harmless.
                }
            }
        }
        let phase1_pivots = self.pivots;

        // Phase 2: optimise the real objective without artificials entering.
        self.run_phase(false)?;

        // Extract solution: basic columns read their row, nonbasic ones sit at
        // zero, and complemented columns are mapped back through `u − x′`.
        let mut shifted = vec![0.0; self.structural];
        for r in 0..self.rows {
            let b = self.basis[r];
            if b < self.structural {
                shifted[b] = self.rhs(r);
            }
        }
        let values: Vec<f64> = shifted
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let x = if self.flipped[i] {
                    self.upper[i] - x
                } else {
                    x
                };
                x + self.shift[i]
            })
            .collect();
        let objective = lp.objective_value(&values);
        let work = SolveWork {
            rows: self.rows,
            cols: self.cols,
            phase1_pivots,
            phase2_pivots: self.pivots - phase1_pivots,
            bound_flips: self.flips,
        };
        Ok(Solution {
            values,
            objective,
            work,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintSense, LinearProgram, VarKind};

    fn solve(lp: &LinearProgram) -> Solution {
        solve_lp(lp, &SimplexOptions::default()).expect("solvable")
    }

    #[test]
    fn simple_two_variable_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic example, opt 36 at (2,6))
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(3.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        let y = lp.add_variable(5.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::LessEq, 4.0, None);
        lp.add_constraint(vec![(y, 2.0)], ConstraintSense::LessEq, 12.0, None);
        lp.add_constraint(
            vec![(x, 3.0), (y, 2.0)],
            ConstraintSense::LessEq,
            18.0,
            None,
        );
        let sol = solve(&lp);
        assert!((sol.objective - 36.0).abs() < 1e-6);
        assert!((sol.values[x] - 2.0).abs() < 1e-6);
        assert!((sol.values[y] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_geq_constraints() {
        // max x + y s.t. x + y = 5, x >= 2, y >= 1  => objective 5.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        let y = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintSense::Equal, 5.0, None);
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::GreaterEq, 2.0, None);
        lp.add_constraint(vec![(y, 1.0)], ConstraintSense::GreaterEq, 1.0, None);
        let sol = solve(&lp);
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn variable_bounds_are_respected() {
        // max 2x + y with x in [0, 1], y in [0.5, 2], x + y <= 2 => x=1, y=1, obj 3.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(2.0, 0.0, 1.0, VarKind::Continuous, None);
        let y = lp.add_variable(1.0, 0.5, 2.0, VarKind::Continuous, None);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintSense::LessEq, 2.0, None);
        let sol = solve(&lp);
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert!((sol.values[x] - 1.0).abs() < 1e-6);
        assert!((sol.values[y] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nonzero_lower_bounds_shift_correctly() {
        // min-like test via maximisation of a negative coefficient:
        // max -x with x in [3, 10] => x = 3, objective -3.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-1.0, 3.0, 10.0, VarKind::Continuous, None);
        let sol = solve(&lp);
        assert!((sol.objective + 3.0).abs() < 1e-6);
        assert!((sol.values[x] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, 1.0, VarKind::Continuous, None);
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::GreaterEq, 2.0, None);
        let err = solve_lp(&lp, &SimplexOptions::default()).unwrap_err();
        assert_eq!(err, SimplexError::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        let y = lp.add_variable(0.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(
            vec![(x, 1.0), (y, -1.0)],
            ConstraintSense::LessEq,
            1.0,
            None,
        );
        let err = solve_lp(&lp, &SimplexOptions::default()).unwrap_err();
        assert_eq!(err, SimplexError::Unbounded);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Several redundant constraints through the same vertex.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        let y = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        for _ in 0..4 {
            lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintSense::LessEq, 1.0, None);
        }
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::LessEq, 1.0, None);
        lp.add_constraint(vec![(y, 1.0)], ConstraintSense::LessEq, 1.0, None);
        let sol = solve(&lp);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        // max x s.t. 0.5x + 0.5x <= 3  => x = 3.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(vec![(x, 0.5), (x, 0.5)], ConstraintSense::LessEq, 3.0, None);
        let sol = solve(&lp);
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn near_zero_pivot_is_rejected_not_executed() {
        // `y` is profitable and its *only* constraint row carries a 1e-13
        // coefficient. With a tolerance below that coefficient the ratio test
        // accepts the row, and the pre-guard solver pivoted on it — dividing
        // the row by 1e-13 and blowing the tableau up (the old debug_assert
        // only caught this in debug builds). The runtime guard must reject
        // the column and, since no stable improving pivot remains, abort with
        // the numerical-error variant instead of "solving".
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, 1.0, VarKind::Continuous, None);
        let y = lp.add_variable(1e6, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(vec![(y, 1e-13)], ConstraintSense::LessEq, 1.0, None);
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::LessEq, 1.0, None);
        let options = SimplexOptions {
            tolerance: 1e-15,
            ..SimplexOptions::default()
        };
        let err = solve_lp(&lp, &options).unwrap_err();
        assert_eq!(err, SimplexError::Numerical);
    }

    #[test]
    fn ill_conditioned_but_stable_instance_still_solves() {
        // Coefficients spanning ten orders of magnitude, solved with a much
        // smaller tolerance than the default: every pivot element is still
        // above the guard's floor, so the solve must succeed and stay exact.
        // max 2a + b  s.t.  1e-3·a + 1e-7·b ≤ 1e-3,  a,b ∈ [0, 1]  →  a = 1
        // forces 1e-7·b ≤ 0 at the vertex... keep slack: rhs 2e-3 → a = 1,
        // b = min(1, 1e4·1e-3) = 1.
        let mut lp = LinearProgram::new();
        let a = lp.add_variable(2.0, 0.0, 1.0, VarKind::Continuous, None);
        let b = lp.add_variable(1.0, 0.0, 1.0, VarKind::Continuous, None);
        lp.add_constraint(
            vec![(a, 1e-3), (b, 1e-7)],
            ConstraintSense::LessEq,
            2e-3,
            None,
        );
        let options = SimplexOptions {
            tolerance: 1e-12,
            ..SimplexOptions::default()
        };
        let sol = solve_lp(&lp, &options).expect("stable instance solves");
        assert!((sol.objective - 3.0).abs() < 1e-6, "got {}", sol.objective);
        assert!(lp.is_feasible(&sol.values, 1e-9));
    }

    #[test]
    fn entering_variable_flips_to_its_own_bound() {
        // max x + y, x, y ∈ [0, 1], x + y ≤ 5: the row never binds, so each
        // variable enters and reaches its own bound first — two flips, no
        // basis change, and the bounds add no rows.
        let mut lp = LinearProgram::new();
        let x = lp.add_unit_var(1.0, None);
        let y = lp.add_unit_var(1.0, None);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintSense::LessEq, 5.0, None);
        let sol = solve(&lp);
        assert_eq!(sol.values, vec![1.0, 1.0]);
        assert_eq!(sol.work.rows, 1);
        assert_eq!(sol.work.cols, 3);
        assert_eq!(sol.work.bound_flips, 2);
        assert_eq!(sol.work.phase2_pivots, 2);
    }

    #[test]
    fn basic_variable_leaves_at_its_upper_bound() {
        // max 2y + x  s.t.  y − x ≤ 1,  x + y ≤ 10,  y ∈ [0, 3],  x ≥ 0.
        // y enters first and becomes basic at 1 in the first row; when x
        // enters, that row's coefficient is −1, so y rises with x and leaves
        // the basis at its upper bound 3 (the row is complemented, then
        // pivoted). The optimum is y = 3, x = 7.
        let mut lp = LinearProgram::new();
        let y = lp.add_variable(2.0, 0.0, 3.0, VarKind::Continuous, None);
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(
            vec![(y, 1.0), (x, -1.0)],
            ConstraintSense::LessEq,
            1.0,
            None,
        );
        lp.add_constraint(
            vec![(x, 1.0), (y, 1.0)],
            ConstraintSense::LessEq,
            10.0,
            None,
        );
        let sol = solve(&lp);
        assert!((sol.objective - 13.0).abs() < 1e-9, "got {}", sol.objective);
        assert!((sol.values[y] - 3.0).abs() < 1e-9);
        assert!((sol.values[x] - 7.0).abs() < 1e-9);
        assert!(lp.is_feasible(&sol.values, 1e-9));
        assert_eq!(sol.work.bound_flips, 0);
    }

    #[test]
    fn fixed_variables_stay_at_their_value() {
        // x is fixed at 2 (profitable, so it tries to enter and flips over a
        // zero-width bound), z is fixed at 1 inside an equality row.
        // max x + y + z  s.t.  x + y ≤ 4,  y + z = 3,  y ∈ [0, 5].
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 2.0, 2.0, VarKind::Continuous, None);
        let y = lp.add_variable(1.0, 0.0, 5.0, VarKind::Continuous, None);
        let z = lp.add_variable(1.0, 1.0, 1.0, VarKind::Continuous, None);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintSense::LessEq, 4.0, None);
        lp.add_constraint(vec![(y, 1.0), (z, 1.0)], ConstraintSense::Equal, 3.0, None);
        let sol = solve(&lp);
        assert_eq!(sol.values[x], 2.0);
        assert_eq!(sol.values[z], 1.0);
        assert!((sol.values[y] - 2.0).abs() < 1e-9);
        assert!((sol.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_bounds_with_nonzero_lower_bounds() {
        // max 3a + 2b − c  s.t.  a + b ≤ 6,  b − c ≤ 1,  a + c ≥ 2,
        // a ∈ [1, 4], b ∈ [−2, ∞), c ∈ [0.5, 3]. a goes to its bound 4, then
        // b to 2 (a + b ≤ 6), which needs c ≥ 1: objective 12 + 4 − 1 = 15.
        let mut lp = LinearProgram::new();
        let a = lp.add_variable(3.0, 1.0, 4.0, VarKind::Continuous, None);
        let b = lp.add_variable(2.0, -2.0, f64::INFINITY, VarKind::Continuous, None);
        let c = lp.add_variable(-1.0, 0.5, 3.0, VarKind::Continuous, None);
        lp.add_constraint(vec![(a, 1.0), (b, 1.0)], ConstraintSense::LessEq, 6.0, None);
        lp.add_constraint(
            vec![(b, 1.0), (c, -1.0)],
            ConstraintSense::LessEq,
            1.0,
            None,
        );
        lp.add_constraint(
            vec![(a, 1.0), (c, 1.0)],
            ConstraintSense::GreaterEq,
            2.0,
            None,
        );
        let sol = solve(&lp);
        assert!((sol.objective - 15.0).abs() < 1e-9, "got {}", sol.objective);
        for (var, want) in [(a, 4.0), (b, 2.0), (c, 1.0)] {
            assert!((sol.values[var] - want).abs() < 1e-9, "{:?}", sol.values);
        }
        assert_eq!(sol.work.rows, 3, "bounds must not become rows");
    }

    #[test]
    fn bounds_as_columns_match_bounds_as_rows() {
        // Random LPs with mixed finite/infinite upper bounds and nonzero lower
        // bounds, solved once as given and once with every finite upper bound
        // written out as an explicit `x ≤ u` row on an unbounded variable.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        for case in 0..60 {
            let nvars = rng.gen_range(2..8usize);
            let mut bounded = LinearProgram::new();
            let mut rows = LinearProgram::new();
            let mut uppers = Vec::new();
            for _ in 0..nvars {
                let objective = rng.gen_range(-2.0..3.0);
                let lower = if rng.gen_bool(0.5) {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0)
                };
                let upper = if rng.gen_bool(0.7) {
                    lower + rng.gen_range(0.0..3.0)
                } else {
                    f64::INFINITY
                };
                bounded.add_variable(objective, lower, upper, VarKind::Continuous, None);
                rows.add_variable(objective, lower, f64::INFINITY, VarKind::Continuous, None);
                uppers.push(upper);
            }
            // A box keeps every instance bounded; it is a real row in both.
            let all: Vec<_> = (0..nvars).map(|v| (v, 1.0)).collect();
            for lp in [&mut bounded, &mut rows] {
                lp.add_constraint(all.clone(), ConstraintSense::LessEq, 8.0, None);
            }
            for _ in 0..rng.gen_range(1..5usize) {
                let mut terms = Vec::new();
                for v in 0..nvars {
                    if rng.gen_bool(0.6) {
                        terms.push((v, rng.gen_range(-2.0..2.0)));
                    }
                }
                let rhs = rng.gen_range(-1.0..4.0);
                for lp in [&mut bounded, &mut rows] {
                    lp.add_constraint(terms.clone(), ConstraintSense::LessEq, rhs, None);
                }
            }
            for (v, &u) in uppers.iter().enumerate() {
                if u.is_finite() {
                    rows.add_constraint(vec![(v, 1.0)], ConstraintSense::LessEq, u, None);
                }
            }
            match (
                solve_lp(&bounded, &SimplexOptions::default()),
                solve_lp(&rows, &SimplexOptions::default()),
            ) {
                (Ok(got), Ok(want)) => {
                    assert!(
                        (got.objective - want.objective).abs()
                            <= 1e-7 * want.objective.abs().max(1.0),
                        "case {case}: {} vs {}",
                        got.objective,
                        want.objective
                    );
                    assert!(bounded.is_feasible(&got.values, 1e-7), "case {case}");
                    assert_eq!(got.work.rows, bounded.num_constraints());
                }
                (got, want) => assert_eq!(
                    got.map(|s| s.objective).unwrap_err(),
                    want.map(|s| s.objective).unwrap_err(),
                    "case {case}"
                ),
            }
        }
    }

    #[test]
    fn near_zero_pivot_is_rejected_even_below_a_finite_bound() {
        // As above, but `y` has a finite upper bound far beyond its row's
        // limit: the ratio test picks the row (not a flip), so the guard must
        // still reject it.
        let mut lp = LinearProgram::new();
        let y = lp.add_variable(1e6, 0.0, 1e15, VarKind::Continuous, None);
        lp.add_constraint(vec![(y, 1e-13)], ConstraintSense::LessEq, 1.0, None);
        let options = SimplexOptions {
            tolerance: 1e-15,
            ..SimplexOptions::default()
        };
        assert_eq!(
            solve_lp(&lp, &options).unwrap_err(),
            SimplexError::Numerical
        );
    }

    #[test]
    fn near_zero_pivot_is_rejected_before_an_upper_bound_exit() {
        // max 10y + x  s.t.  y − 1e-13·x ≤ 1,  y ∈ [0, 3],  x ≥ 0.  y enters
        // and becomes basic at 1; x then only moves y towards its upper bound,
        // through a 1e-13 pivot element. The guard must reject that pivot
        // (before the row is complemented) and, with no other improving
        // column, report the numerical abort.
        let mut lp = LinearProgram::new();
        let y = lp.add_variable(10.0, 0.0, 3.0, VarKind::Continuous, None);
        let x = lp.add_variable(1.0, 0.0, f64::INFINITY, VarKind::Continuous, None);
        lp.add_constraint(
            vec![(y, 1.0), (x, -1e-13)],
            ConstraintSense::LessEq,
            1.0,
            None,
        );
        let options = SimplexOptions {
            tolerance: 1e-15,
            ..SimplexOptions::default()
        };
        assert_eq!(
            solve_lp(&lp, &options).unwrap_err(),
            SimplexError::Numerical
        );
    }

    #[test]
    fn bound_flips_count_against_the_pivot_budget() {
        // Three flips are needed; a budget of two stops the solve.
        let mut lp = LinearProgram::new();
        for _ in 0..3 {
            lp.add_unit_var(1.0, None);
        }
        lp.add_constraint(
            vec![(0, 1.0), (1, 1.0), (2, 1.0)],
            ConstraintSense::LessEq,
            5.0,
            None,
        );
        let options = SimplexOptions {
            max_pivots: 2,
            ..SimplexOptions::default()
        };
        assert_eq!(
            solve_lp(&lp, &options).unwrap_err(),
            SimplexError::IterationLimit
        );
        let sol = solve(&lp);
        assert_eq!((sol.work.phase2_pivots, sol.work.bound_flips), (3, 3));
    }

    #[test]
    fn fractional_assignment_structure() {
        // A tiny LP with the structure of LP_SIMP: two users, two items, k = 1,
        // a single friend pair with symmetric social utility.  The optimum
        // co-displays the shared item when the social utility dominates.
        // Variables: x_a1, x_a2, x_b1, x_b2, y_1, y_2.
        let mut lp = LinearProgram::new();
        let xa1 = lp.add_unit_var(0.3, None);
        let xa2 = lp.add_unit_var(0.0, None);
        let xb1 = lp.add_unit_var(0.0, None);
        let xb2 = lp.add_unit_var(0.3, None);
        let y1 = lp.add_unit_var(1.0, None);
        let y2 = lp.add_unit_var(1.0, None);
        lp.add_constraint(
            vec![(xa1, 1.0), (xa2, 1.0)],
            ConstraintSense::Equal,
            1.0,
            None,
        );
        lp.add_constraint(
            vec![(xb1, 1.0), (xb2, 1.0)],
            ConstraintSense::Equal,
            1.0,
            None,
        );
        lp.add_constraint(
            vec![(y1, 1.0), (xa1, -1.0)],
            ConstraintSense::LessEq,
            0.0,
            None,
        );
        lp.add_constraint(
            vec![(y1, 1.0), (xb1, -1.0)],
            ConstraintSense::LessEq,
            0.0,
            None,
        );
        lp.add_constraint(
            vec![(y2, 1.0), (xa2, -1.0)],
            ConstraintSense::LessEq,
            0.0,
            None,
        );
        lp.add_constraint(
            vec![(y2, 1.0), (xb2, -1.0)],
            ConstraintSense::LessEq,
            0.0,
            None,
        );
        let sol = solve(&lp);
        // Best: both users take the same item (either one); objective = 1.0 + 0.3.
        assert!((sol.objective - 1.3).abs() < 1e-6);
    }
}
