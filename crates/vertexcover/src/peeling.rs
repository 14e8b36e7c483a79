//! The Parnas–Ron iterative peeling process.
//!
//! `VC-Coreset` (paper, Section 3.2) peels vertices of highest residual degree
//! in `O(log n)` rounds: in round `j` every vertex whose degree in the current
//! residual graph is at least a threshold `t_j` is removed and added to the
//! fixed part of the cover, and the thresholds halve each round. The process
//! stops when the threshold reaches `O(log n)` scale, at which point the
//! residual graph has `O(n log n)` edges and is returned as the coreset
//! subgraph.
//!
//! This module implements the *generic* peeling process parameterised by the
//! threshold schedule; the coreset crate instantiates it with the paper's
//! schedule `t_j = n / (k · 2^{j+1})`.
//!
//! The free functions run on the calling thread's reusable
//! [`VcEngine`](crate::engine::VcEngine), whose rounds run only on the
//! vertices that can reach a threshold, with **zero** per-round edge-buffer
//! reallocations. The pre-engine implementation is preserved as
//! [`peel_with_thresholds_reference`] — the differential-testing baseline,
//! whose per-call and per-round scratch allocations are recorded in
//! [`graph::metrics::vc_peel_scratch_elems`] so protocol runs can assert they
//! never take it.

use crate::cover::VertexCover;
use crate::engine::with_thread_engine;
use graph::{Edge, Graph, GraphRef, VertexId};

/// The result of running the peeling process on a graph.
#[derive(Debug, Clone)]
pub struct PeelingOutcome {
    /// Vertices peeled in each round (round `j` corresponds to
    /// `thresholds[j]`).
    pub peeled_per_round: Vec<Vec<VertexId>>,
    /// The thresholds actually used, one per round.
    pub thresholds: Vec<usize>,
    /// The residual graph after the last round.
    pub residual: Graph,
}

impl PeelingOutcome {
    /// All peeled vertices, across rounds, as a cover fragment.
    pub fn peeled_cover(&self) -> VertexCover {
        VertexCover::from_vertices(self.peeled_per_round.iter().flatten().copied())
    }

    /// Total number of peeled vertices.
    pub fn peeled_count(&self) -> usize {
        self.peeled_per_round.iter().map(Vec::len).sum()
    }
}

/// Runs the iterative peeling process on `g` with the given threshold
/// schedule: in round `j`, every vertex whose *current residual degree* is at
/// least `thresholds[j]` is peeled (removed together with its incident edges).
///
/// Returns the peeled vertices per round and the residual graph. Thresholds
/// of zero are skipped (they would peel every vertex and make the outcome
/// trivial).
///
/// Accepts any [`GraphRef`] and runs on the calling thread's reusable
/// [`VcEngine`](crate::engine::VcEngine). The residual preserves the input
/// edge order (exactly what the per-round `remove_vertices` chain would
/// produce).
///
/// **Workspace-reuse invariance:** the output is a pure function of
/// `(g, thresholds)` — the engine's reused scratch is epoch-stamped, so
/// peeling after any sequence of earlier solves returns the same rounds,
/// vertex for vertex, as a fresh engine would
/// (`tests/engine_equivalence.rs` pins this property).
pub fn peel_with_thresholds<G: GraphRef + ?Sized>(g: &G, thresholds: &[usize]) -> PeelingOutcome {
    with_thread_engine(|engine| engine.peel_with_thresholds(g, thresholds))
}

/// The pre-engine peeling implementation, kept verbatim as the differential
/// baseline: one edge-buffer copy up front, then every round allocates a
/// fresh degree array and rescans + `retain`s the whole residual buffer —
/// `O(m · rounds + n · rounds)`.
///
/// Every scratch allocation is recorded in
/// [`graph::metrics::vc_peel_scratch_elems`]; the engine path records
/// nothing, which is how experiment E14 and the determinism suite assert
/// that protocol runs never fall back to this path. Output is identical to
/// [`peel_with_thresholds`], round by round (pinned by the
/// engine-equivalence proptests).
pub fn peel_with_thresholds_reference<G: GraphRef + ?Sized>(
    g: &G,
    thresholds: &[usize],
) -> PeelingOutcome {
    let n = g.n();
    let mut edges: Vec<Edge> = g.edges().to_vec();
    graph::metrics::record_vc_peel_scratch(edges.len());
    let mut peeled_per_round = Vec::with_capacity(thresholds.len());
    let mut used_thresholds = Vec::with_capacity(thresholds.len());
    let mut peeled_now = vec![false; n];
    graph::metrics::record_vc_peel_scratch(n);

    for &t in thresholds {
        if t == 0 {
            continue;
        }
        let mut degrees = vec![0usize; n];
        graph::metrics::record_vc_peel_scratch(n);
        for e in &edges {
            degrees[e.u as usize] += 1;
            degrees[e.v as usize] += 1;
        }
        let peeled: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| degrees[v as usize] >= t)
            .collect();
        for &v in &peeled {
            peeled_now[v as usize] = true;
        }
        edges.retain(|e| !peeled_now[e.u as usize] && !peeled_now[e.v as usize]);
        for &v in &peeled {
            peeled_now[v as usize] = false;
        }
        peeled_per_round.push(peeled);
        used_thresholds.push(t);
    }

    PeelingOutcome {
        peeled_per_round,
        thresholds: used_thresholds,
        residual: Graph::from_edges_unchecked(n, edges),
    }
}

/// The classic Parnas–Ron threshold schedule for an `n`-vertex graph:
/// `n/2, n/4, n/8, ...` down to `stop_at` (exclusive).
pub fn parnas_ron_schedule(n: usize, stop_at: usize) -> Vec<usize> {
    let mut thresholds = Vec::new();
    let mut t = n / 2;
    while t > stop_at.max(1) {
        thresholds.push(t);
        t /= 2;
    }
    thresholds
}

/// The classic Parnas–Ron schedule on a single graph: thresholds
/// `n/2, n/4, n/8, ...` down to `stop_at` (exclusive). Returns the outcome;
/// the union of the peeled vertices plus a 2-approximate cover of the residual
/// graph is an `O(log n)`-approximate vertex cover.
///
/// Runs on the calling thread's reusable engine; like
/// [`peel_with_thresholds`], the output is invariant under workspace reuse.
pub fn parnas_ron_peeling<G: GraphRef + ?Sized>(g: &G, stop_at: usize) -> PeelingOutcome {
    peel_with_thresholds(g, &parnas_ron_schedule(g.n(), stop_at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::two_approx_cover;
    use crate::exact::exact_cover_branch_and_bound;
    use graph::gen::er::gnp;
    use graph::gen::structured::{star, star_forest};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn peeling_reduces_max_degree() {
        let g = star(100); // centre has degree 100
        let outcome = parnas_ron_peeling(&g, 4);
        // The centre must be peeled in the first round (threshold 50).
        assert!(outcome.peeled_per_round[0].contains(&0));
        assert!(outcome.residual.max_degree() <= 4 * 2);
        assert!(outcome.peeled_cover().contains(0));
    }

    #[test]
    fn residual_plus_peeled_covers_the_graph() {
        for seed in 0..5 {
            let g = gnp(60, 0.15, &mut rng(seed));
            let outcome = parnas_ron_peeling(&g, 2);
            let mut cover = outcome.peeled_cover();
            let residual_cover = two_approx_cover(&outcome.residual);
            cover.extend_from(&residual_cover);
            assert!(
                cover.covers(&g),
                "seed {seed}: peeled + residual 2-approx must cover"
            );
        }
    }

    #[test]
    fn peeled_vertices_are_not_too_many_on_small_graphs() {
        // The peeled set is O(log n) * OPT; on small random graphs check a
        // generous multiple.
        for seed in 0..5 {
            let g = gnp(30, 0.2, &mut rng(seed + 10));
            let outcome = parnas_ron_peeling(&g, 2);
            let opt = exact_cover_branch_and_bound(&g).len().max(1);
            let log_n = (g.n() as f64).ln().ceil() as usize;
            assert!(
                outcome.peeled_count() <= 4 * log_n * opt,
                "seed {seed}: peeled {} vs bound {}",
                outcome.peeled_count(),
                4 * log_n * opt
            );
        }
    }

    #[test]
    fn thresholds_are_decreasing_and_skip_zero() {
        let g = gnp(64, 0.1, &mut rng(3));
        let outcome = parnas_ron_peeling(&g, 2);
        for w in outcome.thresholds.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!(outcome.thresholds.iter().all(|&t| t > 0));

        let custom = peel_with_thresholds(&g, &[10, 0, 5]);
        assert_eq!(custom.thresholds, vec![10, 5]);
    }

    #[test]
    fn star_forest_peels_only_centres_eventually() {
        let g = star_forest(5, 40);
        let outcome = peel_with_thresholds(&g, &[20, 10]);
        let peeled = outcome.peeled_cover();
        // Every centre has degree 40 >= 20, so all five centres are peeled in
        // round one; leaves have degree 1 and never reach a threshold.
        assert_eq!(peeled.len(), 5);
        assert!(outcome.residual.is_empty());
    }

    #[test]
    fn empty_graph_is_a_fixed_point() {
        let g = Graph::empty(10);
        let outcome = parnas_ron_peeling(&g, 2);
        assert_eq!(outcome.peeled_count(), 0);
        assert!(outcome.residual.is_empty());
    }

    #[test]
    fn reference_path_records_scratch_and_matches_engine() {
        // The counter is process-wide and tests run concurrently, so assert
        // only monotone movement here; the engine path's *zero*-scratch
        // claim is asserted in single-threaded contexts (experiment E14 and
        // `tests/determinism.rs`, whose processes never call the reference).
        let g = gnp(200, 0.05, &mut rng(4));
        let schedule = parnas_ron_schedule(g.n(), 4);
        let engine_out = peel_with_thresholds(&g, &schedule);
        let before = graph::metrics::vc_peel_scratch_elems();
        let reference = peel_with_thresholds_reference(&g, &schedule);
        assert!(
            graph::metrics::vc_peel_scratch_elems() > before,
            "the reference path must record its per-round scratch"
        );
        assert_eq!(engine_out.peeled_per_round, reference.peeled_per_round);
        assert_eq!(engine_out.residual, reference.residual);
    }
}
