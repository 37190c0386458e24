//! # sbc-flow
//!
//! Min-cost-flow substrate for capacitated assignment.
//!
//! In capacitated k-clustering, *even once the centers are fixed*,
//! assigning points to centers is non-trivial (paper §3.3): the optimal
//! **fractional** assignment under capacity `t` is a transportation
//! problem solvable by min-cost flow, and the paper's §3.3 procedure
//! rounds it to an integral assignment with at most `k − 1` weight-split
//! points via cycle canceling on the bipartite support graph.
//!
//! * [`mcmf`] — a general min-cost max-flow solver (successive shortest
//!   paths with Johnson potentials; on transportation instances each
//!   augmentation saturates a source or sink arc or empties a point's
//!   share at a center), and the reference the transport solver is
//!   tested against;
//! * [`transport`] — the points×centers transportation problem, solved by
//!   successive shortest paths on the k-center exchange graph (a Dijkstra
//!   pass over k nodes per augmentation), producing a
//!   [`FractionalAssignment`];
//! * [`rounding`] — §3.3 cycle canceling → [`IntegralAssignment`];
//! * [`brute`] — exact integral capacitated assignment by exhaustive
//!   search, for cross-validation on tiny instances;
//! * [`dual`] — an independent LP-duality optimality certifier
//!   (exchange-graph negative-cycle/-path detection) used to certify the
//!   solver's outputs without trusting the solver.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod brute;
pub mod dual;
pub mod mcmf;
pub mod rounding;
pub mod transport;

pub use mcmf::MinCostFlow;
pub use rounding::IntegralAssignment;
pub use transport::{optimal_fractional_assignment, FractionalAssignment};
