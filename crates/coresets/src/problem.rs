//! One protocol, two problems: the per-problem facts behind one trait.
//!
//! Every runner executes the same sequence — randomly partition the edges
//! over `k` machines, build a coreset per machine, optionally re-coreset
//! merged groups up a composition tree, solve on the union (Theorems 1–2;
//! Mirrokni–Zadimoghaddam, 1506.06715, define randomized composable
//! core-sets with no reference to a problem). [`CoresetProblem`] holds what
//! depends on the problem, so each runner is written once. The adapters
//! [`MatchingProblem`] and [`CoverProblem`] wrap the two builder traits.

use crate::compose::{compose_vertex_cover_refs, solve_composed_matching_refs};
use crate::matching_coreset::MatchingCoresetBuilder;
use crate::params::CoresetParams;
use crate::streams::machine_jobs;
use crate::tree::{merge_matching_coresets, merge_vc_coresets, reduce_levels};
use crate::vc_coreset::{VcCoresetBuilder, VcCoresetOutput};
use graph::{Graph, GraphView};
use matching::matching::Matching;
use matching::maximum::MaximumMatchingAlgorithm;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use vertexcover::VertexCover;

/// One problem's coreset construction, message, merge and final solve.
pub trait CoresetProblem: Sync {
    /// A machine's message to the coordinator.
    type Summary: Clone + Send + Sync;
    /// The coordinator's answer.
    type Answer;

    /// Resident-edge scratch the final solve holds, in passes over the
    /// union of the summaries it composes.
    const SOLVE_SCRATCH_PASSES: usize;

    /// Builds machine `machine`'s coreset of `piece` from its private
    /// stream `rng` (see the builder traits for the contract).
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Self::Summary;

    /// `(edges, vertices)` a summary's message carries.
    fn message_size(summary: &Self::Summary) -> (usize, usize);

    /// The placeholder composed in place of a lost machine's summary: it
    /// keeps the composition tree's shape while contributing nothing.
    fn empty(n: usize) -> Self::Summary;

    /// Re-coresets the group of tree node `(level, node)` into one summary,
    /// drawing randomness from the node's private stream.
    fn merge(
        &self,
        n: usize,
        params: &CoresetParams,
        seed: u64,
        level: usize,
        node: usize,
        group: Vec<Self::Summary>,
    ) -> Self::Summary;

    /// The coordinator's final solve over the union of `summaries`.
    fn compose(&self, summaries: &[&Self::Summary]) -> Self::Answer;

    /// [`CoresetProblem::compose`] over owned summaries.
    fn compose_owned(&self, summaries: &[Self::Summary]) -> Self::Answer {
        self.compose(&summaries.iter().collect::<Vec<_>>())
    }

    /// The answer's size (matched edges, cover vertices).
    fn answer_size(answer: &Self::Answer) -> usize;
}

/// Maximum matching over any [`MatchingCoresetBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct MatchingProblem<'a, B: ?Sized>(pub &'a B);

/// Minimum vertex cover over any [`VcCoresetBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct CoverProblem<'a, B: ?Sized>(pub &'a B);

impl<B: MatchingCoresetBuilder + ?Sized> CoresetProblem for MatchingProblem<'_, B> {
    type Summary = Graph;
    type Answer = Matching;
    /// The composed solve compacts the union once.
    const SOLVE_SCRATCH_PASSES: usize = 1;

    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> Graph {
        self.0.build(piece, params, machine, rng)
    }

    fn message_size(summary: &Graph) -> (usize, usize) {
        (summary.m(), 0)
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
        merge_matching_coresets(n, params, self.0, seed, level, node, &group)
    }

    fn compose(&self, summaries: &[&Graph]) -> Matching {
        solve_composed_matching_refs(summaries, MaximumMatchingAlgorithm::Auto)
    }

    fn answer_size(answer: &Matching) -> usize {
        answer.len()
    }
}

impl<B: VcCoresetBuilder + ?Sized> CoresetProblem for CoverProblem<'_, B> {
    type Summary = VcCoresetOutput;
    type Answer = VertexCover;
    /// The composed 2-approximation scans the residual slices in place.
    const SOLVE_SCRATCH_PASSES: usize = 0;

    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        machine: usize,
        rng: &mut ChaCha8Rng,
    ) -> VcCoresetOutput {
        self.0.build(piece, params, machine, rng)
    }

    fn message_size(summary: &VcCoresetOutput) -> (usize, usize) {
        (summary.residual.m(), summary.fixed_vertices.len())
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
        merge_vc_coresets(n, params, self.0, seed, level, node, group)
    }

    fn compose(&self, summaries: &[&VcCoresetOutput]) -> VertexCover {
        compose_vertex_cover_refs(summaries)
    }

    fn answer_size(answer: &VertexCover) -> usize {
        answer.len()
    }
}

/// Builds every machine's summary on the work-stealing pool, machine `i`
/// from its private `machine_rng(seed, i)` stream (derived before the
/// fan-out), collected in machine order.
pub fn build_all<P: CoresetProblem>(
    problem: &P,
    pieces: &[GraphView<'_>],
    params: &CoresetParams,
    seed: u64,
) -> Vec<P::Summary> {
    machine_jobs(pieces, seed)
        .into_par_iter()
        .map(|(i, piece, mut rng)| problem.build(*piece, params, i, &mut rng))
        .collect()
}

/// Merges `leaves` up the composition tree of the given fan-in
/// ([`reduce_levels`]) and solves the `≤ fan_in` roots. With
/// `leaves.len() ≤ fan_in` no merge fires: this is the flat composition.
pub fn tree_compose<P: CoresetProblem>(
    problem: &P,
    n: usize,
    params: &CoresetParams,
    seed: u64,
    fan_in: usize,
    leaves: Vec<P::Summary>,
) -> P::Answer {
    let roots = reduce_levels(leaves, fan_in, &|level, node, group| {
        problem.merge(n, params, seed, level, node, group)
    });
    problem.compose_owned(&roots)
}
