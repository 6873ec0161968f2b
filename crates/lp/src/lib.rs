//! # svgic-lp
//!
//! Linear-programming and mixed-integer-programming substrate for the SVGIC
//! reproduction.
//!
//! The paper solves its LP relaxations with commercial solvers (Gurobi /
//! CPLEX).  Those are not available in this environment, so this crate
//! implements from scratch everything the AVG / AVG-D algorithms and the exact
//! IP baseline need:
//!
//! * [`model::LinearProgram`] — a small modelling layer: bounded continuous or
//!   integer variables, sparse linear constraints, maximisation objective.
//! * [`simplex`] — a bounded-variable two-phase primal simplex on a dense
//!   tableau (bounds stay off the rows, reduced costs are maintained through
//!   pivots) solving the LP relaxation exactly (used for small and medium
//!   instances, and inside branch & bound).
//! * [`branch_bound`] — a branch-and-bound MILP solver on top of the simplex,
//!   with pluggable node-selection strategies (used as the "IP" baseline and
//!   for the time-boxed MIP-strategy comparison of Fig. 9(a)).
//! * [`structured`] — a special-purpose solver for the condensed LP_SIMP
//!   relaxation of §4.4: a block-coordinate ascent over capped per-user
//!   simplices exploiting the fact that at optimum `y*_e^c = min(x*_u^c,
//!   x*_v^c)`.  This is the "β-approximate LP" path covered by Corollary 4.2
//!   of the paper and is what makes the large-scale experiments feasible
//!   without a commercial solver.
//!
//! ## Example: the structured solver on a tiny min-coupling problem
//!
//! ```rust
//! use svgic_lp::{solve_min_coupling, CoordinateAscentOptions, MinCouplingProblem};
//!
//! // Two groups with unit budgets, four variables, one cross-group coupling.
//! let mut problem = MinCouplingProblem::new(vec![1.0, 1.0]);
//! let a = problem.add_variable(0, 2.0);
//! let b = problem.add_variable(0, 1.0);
//! let c = problem.add_variable(1, 1.5);
//! let d = problem.add_variable(1, 0.5);
//! assert_eq!((a, b, c, d), (0, 1, 2, 3));
//! problem.add_coupling(a, c, 1.0);
//!
//! // Both groups pick their coupled variable: 2.0 + 1.5 + 1.0.
//! let solution = solve_min_coupling(&problem, &CoordinateAscentOptions::default());
//! assert!(problem.is_feasible(&solution.values, 1e-9));
//! assert!((solution.objective - 4.5).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch_bound;
pub mod model;
pub mod simplex;
pub mod structured;

pub use branch_bound::{BranchBoundConfig, MilpResult, MilpStatus, NodeSelection};
pub use model::{Constraint, ConstraintSense, LinearProgram, Solution, SolveWork, VarId, VarKind};
pub use simplex::{solve_lp, SimplexError, SimplexOptions};
pub use structured::{
    solve_min_coupling, CoordinateAscentOptions, CouplingTerm, MinCouplingProblem,
    StructuredSolution,
};
