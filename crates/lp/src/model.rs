//! A small LP/MILP modelling layer.
//!
//! The core crate builds the paper's IP model (constraints (1)–(10)) and its
//! LP relaxations (LP_SVGIC, LP_SIMP) on top of this layer; the [`crate::simplex`]
//! and [`crate::branch_bound`] modules consume it.

/// Identifier of a variable inside a [`LinearProgram`].
pub type VarId = usize;

/// Continuous or integer variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// Continuous variable within its bounds.
    Continuous,
    /// Integer variable within its bounds (the SVGIC IP only needs binaries,
    /// i.e. integer variables with bounds `[0, 1]`).
    Integer,
}

/// Sense of a linear constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConstraintSense {
    /// `Σ a_i x_i ≤ b`
    LessEq,
    /// `Σ a_i x_i ≥ b`
    GreaterEq,
    /// `Σ a_i x_i = b`
    Equal,
}

/// A sparse linear constraint.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Sparse coefficients `(variable, coefficient)`; duplicate variables are
    /// summed when the constraint is consumed by a solver.
    pub terms: Vec<(VarId, f64)>,
    /// Constraint sense.
    pub sense: ConstraintSense,
    /// Right-hand side.
    pub rhs: f64,
    /// Optional human-readable name (useful for debugging model builders).
    pub name: Option<String>,
}

/// Description of a single variable.
#[derive(Clone, Debug)]
pub struct Variable {
    /// Objective coefficient (the objective is always *maximised*).
    pub objective: f64,
    /// Lower bound.
    pub lower: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub upper: f64,
    /// Continuous or integer.
    pub kind: VarKind,
    /// Optional name.
    pub name: Option<String>,
}

/// A linear (or mixed-integer) program with a maximisation objective.
#[derive(Clone, Debug, Default)]
pub struct LinearProgram {
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable and returns its id.
    pub fn add_variable(
        &mut self,
        objective: f64,
        lower: f64,
        upper: f64,
        kind: VarKind,
        name: Option<String>,
    ) -> VarId {
        assert!(
            lower <= upper,
            "variable lower bound {lower} exceeds upper bound {upper}"
        );
        self.variables.push(Variable {
            objective,
            lower,
            upper,
            kind,
            name,
        });
        self.variables.len() - 1
    }

    /// Convenience: adds a continuous variable with bounds `[0, 1]`.
    pub fn add_unit_var(&mut self, objective: f64, name: Option<String>) -> VarId {
        self.add_variable(objective, 0.0, 1.0, VarKind::Continuous, name)
    }

    /// Convenience: adds a binary (integer, `[0, 1]`) variable.
    pub fn add_binary_var(&mut self, objective: f64, name: Option<String>) -> VarId {
        self.add_variable(objective, 0.0, 1.0, VarKind::Integer, name)
    }

    /// Adds a constraint.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(VarId, f64)>,
        sense: ConstraintSense,
        rhs: f64,
        name: Option<String>,
    ) {
        for &(v, _) in &terms {
            assert!(
                v < self.variables.len(),
                "constraint references unknown variable {v}"
            );
        }
        self.constraints.push(Constraint {
            terms,
            sense,
            rhs,
            name,
        });
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable metadata.
    pub fn variable(&self, id: VarId) -> &Variable {
        &self.variables[id]
    }

    /// All variables.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// All constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Mutable access to a variable's bounds (used by branch & bound to fix
    /// branching variables).
    pub fn set_bounds(&mut self, id: VarId, lower: f64, upper: f64) {
        assert!(lower <= upper, "invalid bounds [{lower}, {upper}]");
        self.variables[id].lower = lower;
        self.variables[id].upper = upper;
    }

    /// Returns a copy of this program with every integer variable relaxed to a
    /// continuous one (the LP relaxation).
    pub fn relaxed(&self) -> LinearProgram {
        let mut lp = self.clone();
        for v in &mut lp.variables {
            v.kind = VarKind::Continuous;
        }
        lp
    }

    /// Ids of all integer variables.
    pub fn integer_variables(&self) -> Vec<VarId> {
        self.variables
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Integer)
            .map(|(i, _)| i)
            .collect()
    }

    /// Evaluates the objective for a full assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.variables.len());
        self.variables
            .iter()
            .zip(values)
            .map(|(v, &x)| v.objective * x)
            .sum()
    }

    /// Checks feasibility of an assignment within tolerance `tol`
    /// (bounds, constraints and integrality of integer variables).
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.variables.len() {
            return false;
        }
        for (v, &x) in self.variables.iter().zip(values) {
            if x < v.lower - tol || x > v.upper + tol {
                return false;
            }
            if v.kind == VarKind::Integer && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(i, a)| a * values[i]).sum();
            let ok = match c.sense {
                ConstraintSense::LessEq => lhs <= c.rhs + tol,
                ConstraintSense::GreaterEq => lhs >= c.rhs - tol,
                ConstraintSense::Equal => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Solution of a linear program.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Value of each variable, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Objective value (maximisation).
    pub objective: f64,
    /// Simplex work spent reaching this solution.
    pub work: SolveWork,
}

impl Solution {
    /// Value of variable `id`.
    pub fn value(&self, id: VarId) -> f64 {
        self.values[id]
    }
}

/// Work counters of a simplex solve, in standard-form terms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveWork {
    /// Rows of the standard form: one per constraint (bounds are not rows).
    pub rows: usize,
    /// Columns of the standard form: structural, slack/surplus and artificial.
    pub cols: usize,
    /// Phase-1 pivots, bound flips and artificial drive-out pivots included.
    pub phase1_pivots: usize,
    /// Phase-2 pivots, bound flips included.
    pub phase2_pivots: usize,
    /// Pivots (either phase) that were bound flips: the entering variable
    /// reached its own upper bound and no row changed basis.
    pub bound_flips: usize,
}

impl SolveWork {
    /// Adds the pivots of another solve; `rows`/`cols` keep the larger form.
    pub fn absorb(&mut self, other: &SolveWork) {
        self.rows = self.rows.max(other.rows);
        self.cols = self.cols.max(other.cols);
        self.phase1_pivots += other.phase1_pivots;
        self.phase2_pivots += other.phase2_pivots;
        self.bound_flips += other.bound_flips;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_lp() -> LinearProgram {
        // max x + 2y s.t. x + y <= 4, y <= 3, x,y in [0, 10]
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 0.0, 10.0, VarKind::Continuous, Some("x".into()));
        let y = lp.add_variable(2.0, 0.0, 10.0, VarKind::Continuous, Some("y".into()));
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintSense::LessEq, 4.0, None);
        lp.add_constraint(vec![(y, 1.0)], ConstraintSense::LessEq, 3.0, None);
        lp
    }

    #[test]
    fn builder_bookkeeping() {
        let lp = toy_lp();
        assert_eq!(lp.num_variables(), 2);
        assert_eq!(lp.num_constraints(), 2);
        assert_eq!(lp.variable(1).objective, 2.0);
        assert!(lp.integer_variables().is_empty());
    }

    #[test]
    fn objective_and_feasibility() {
        let lp = toy_lp();
        assert_eq!(lp.objective_value(&[1.0, 3.0]), 7.0);
        assert!(lp.is_feasible(&[1.0, 3.0], 1e-9));
        assert!(!lp.is_feasible(&[2.0, 3.0], 1e-9)); // violates x + y <= 4
        assert!(!lp.is_feasible(&[-1.0, 0.0], 1e-9)); // violates lower bound
    }

    #[test]
    fn relaxation_clears_integrality() {
        let mut lp = toy_lp();
        let z = lp.add_binary_var(5.0, None);
        assert_eq!(lp.integer_variables(), vec![z]);
        assert!(!lp.is_feasible(&[0.0, 0.0, 0.5], 1e-9));
        let relaxed = lp.relaxed();
        assert!(relaxed.integer_variables().is_empty());
        assert!(relaxed.is_feasible(&[0.0, 0.0, 0.5], 1e-9));
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn constraint_with_unknown_variable_panics() {
        let mut lp = LinearProgram::new();
        lp.add_constraint(vec![(3, 1.0)], ConstraintSense::Equal, 1.0, None);
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn invalid_bounds_panic() {
        let mut lp = LinearProgram::new();
        lp.add_variable(0.0, 2.0, 1.0, VarKind::Continuous, None);
    }
}
