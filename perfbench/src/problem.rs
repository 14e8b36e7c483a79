//! The two protocol problems, seen through the layers' public functions.
//!
//! The traced replays are written once, generic over [`Problem`], and
//! instantiated for matching (`MaximumMatchingCoreset`, maximum matching of
//! the composed union) and vertex cover (`PeelingVcCoreset`, composed
//! 2-approximation) — the builders every workload runs.

use coresets::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use coresets::vc_coreset::{PeelingVcCoreset, VcCoresetBuilder, VcCoresetOutput};
use coresets::{
    compose_vertex_cover_refs, merge_matching_coresets, merge_vc_coresets,
    solve_composed_matching_refs, CoresetParams,
};
use distsim::CheckpointItem;
use graph::{Graph, GraphView};
use matching::maximum::MaximumMatchingAlgorithm;
use matching::Matching;
use rand_chacha::ChaCha8Rng;
use vertexcover::VertexCover;

/// One problem's builder, message size, merge and final solve.
pub trait Problem: Sync {
    /// A machine's message to the coordinator.
    type Summary: Clone + Send + Sync + CheckpointItem;
    /// The coordinator's answer.
    type Answer: PartialEq;
    /// Span name of the final solve.
    const COMPOSE_SPAN: &'static str;

    /// Builds machine `machine`'s coreset of `piece`.
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Self::Summary;
    /// `(edges, vertices)` charged for the message.
    fn message(s: &Self::Summary) -> (usize, usize);
    /// The lost-machine placeholder.
    fn empty(n: usize) -> Self::Summary;
    /// Re-coresets one tree node's group.
    fn merge(
        &self,
        n: usize,
        params: &CoresetParams,
        seed: u64,
        level: usize,
        node: usize,
        group: Vec<Self::Summary>,
    ) -> Self::Summary;
    /// The coordinator's final solve.
    fn compose(roots: &[&Self::Summary]) -> Self::Answer;
}

/// Matching with maximum-matching coresets.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchingProblem(pub MaximumMatchingCoreset);

/// Vertex cover with peeling coresets.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoverProblem(pub PeelingVcCoreset);

impl Problem for MatchingProblem {
    type Summary = Graph;
    type Answer = Matching;
    const COMPOSE_SPAN: &'static str = "coresets.compose.matching";

    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Graph {
        self.0.build(piece, params, machine, rng)
    }

    fn message(s: &Graph) -> (usize, usize) {
        (s.m(), 0)
    }

    fn empty(n: usize) -> Graph {
        Graph::empty(n)
    }

    fn merge(
        &self,
        n: usize,
        params: &CoresetParams,
        seed: u64,
        level: usize,
        node: usize,
        group: Vec<Graph>,
    ) -> Graph {
        merge_matching_coresets(n, params, &self.0, seed, level, node, &group)
    }

    fn compose(roots: &[&Graph]) -> Matching {
        solve_composed_matching_refs(roots, MaximumMatchingAlgorithm::Auto)
    }
}

impl Problem for CoverProblem {
    type Summary = VcCoresetOutput;
    type Answer = VertexCover;
    const COMPOSE_SPAN: &'static str = "coresets.compose.cover";

    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> VcCoresetOutput {
        self.0.build(piece, params, machine, rng)
    }

    fn message(s: &VcCoresetOutput) -> (usize, usize) {
        (s.residual.m(), s.fixed_vertices.len())
    }

    fn empty(n: usize) -> VcCoresetOutput {
        VcCoresetOutput {
            fixed_vertices: Vec::new(),
            residual: Graph::empty(n),
        }
    }

    fn merge(
        &self,
        n: usize,
        params: &CoresetParams,
        seed: u64,
        level: usize,
        node: usize,
        group: Vec<VcCoresetOutput>,
    ) -> VcCoresetOutput {
        merge_vc_coresets(n, params, &self.0, seed, level, node, group)
    }

    fn compose(roots: &[&VcCoresetOutput]) -> VertexCover {
        compose_vertex_cover_refs(roots)
    }
}
