//! Vertex-cover algorithms for the coreset reproduction.
//!
//! The vertex-cover coreset of the paper (Theorem 2) outputs a *fixed* vertex
//! set plus a sparse residual subgraph; the coordinator covers the residual
//! union with any 2-approximation. This crate supplies:
//!
//! * [`VertexCover`] — a validated vertex set with coverage checks.
//! * [`approx`] — the matching-based 2-approximation and the greedy
//!   max-degree `O(log n)`-approximation.
//! * [`peeling`] — the Parnas–Ron iterative peeling process the coreset is
//!   built from.
//! * [`exact`] — exact minimum vertex cover: branch-and-bound for small
//!   general graphs and König's theorem (via Hopcroft–Karp) for bipartite
//!   graphs, used as ground truth in the experiments.
//! * [`engine`] / [`workspace`] — the reusable [`VcEngine`] every free
//!   function above runs on: vertex compaction, epoch-stamped scratch and
//!   the peeling core, whose rounds run only on the vertices that can reach
//!   a threshold (experiment E14, `exp_vc_hotpath`), mirroring
//!   `matching::MatchingEngine` on the matching side.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod approx;
pub mod cover;
pub mod engine;
pub mod exact;
pub mod lp;
pub mod peeling;
pub mod workspace;

pub use approx::{greedy_degree_cover, two_approx_cover, two_approx_cover_concat};
pub use cover::VertexCover;
pub use engine::VcEngine;
pub use exact::{exact_cover_branch_and_bound, koenig_cover};
pub use lp::{lp_vertex_cover, HalfIntegralSolution};
pub use peeling::{parnas_ron_peeling, PeelingOutcome};
pub use workspace::VcWorkspace;
