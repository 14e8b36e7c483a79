//! The vertex-cover engine: candidate-restricted peeling + compaction +
//! epoch-reset scratch, mirroring [`matching::MatchingEngine`]'s role on the
//! matching side.
//!
//! [`VcEngine`] is the solve path behind every free function in this crate
//! ([`crate::peeling`], [`crate::approx`], [`crate::lp`], [`crate::exact`])
//! and therefore behind the vertex-cover half of every protocol run. One
//! engine owns two reusable pieces of state:
//!
//! * a [`graph::VertexCompactor`] that relabels inputs onto their
//!   non-isolated vertices (monotonically, so orderings survive) before the
//!   structure-building solvers (greedy, LP, exact) run, and
//! * a [`VcWorkspace`] whose epoch-stamped flags, stamped degree counts and
//!   candidate-subgraph buffers replace every per-call `vec![false; n]` /
//!   `vec![0; n]` allocation of the pre-engine path.
//!
//! The peeling core ([`VcEngine::peel_with_thresholds`]) is where the
//! asymptotics change. The old path rescanned and `retain`ed the full
//! residual edge buffer every threshold round — `O(m · rounds)` plus a fresh
//! `O(n)` degree array per round. The engine runs peeling in two regimes:
//!
//! * **Pre-screen.** Degrees are counted once into the stamped workspace
//!   (`O(m)`, no `O(n)` pass). If the maximum degree is below every
//!   threshold — the common case for sparse pieces of a random `k`-partition,
//!   whose thresholds start at `n/(4k)` — no round can peel anything and the
//!   outcome is produced with **no further work**: empty rounds plus the
//!   input edge list as the residual.
//! * **Candidate rounds.** Otherwise only the *candidates* — the vertices
//!   whose degree reaches the smallest threshold — can ever be peeled,
//!   because degrees only fall, and only their degrees are ever compared
//!   with a threshold. Their adjacency among themselves is built in the
//!   workspace's reused buffers (one pass over the edges); each round scans
//!   the live candidates, peels those at or above the threshold and
//!   decrements their candidate neighbours; the residual is one flag filter
//!   over the input edges. There is no compaction and no CSR over the whole
//!   piece, so vertices that can never be peeled cost nothing beyond the
//!   degree count, and a round costs `O(live candidates + candidate edges
//!   removed)`.
//!
//! Outputs are **identical** to the pre-engine path, round by round
//! (`tests/engine_equivalence.rs` pins this against
//! [`crate::peeling::peel_with_thresholds_reference`], and experiment E14
//! re-asserts it at scale), and independent of workspace history — the epoch
//! stamps make stale state invisible, so the per-thread engine reuse behind
//! the free functions never affects determinism.

use crate::cover::VertexCover;
use crate::exact::branch_and_bound_on_lists;
use crate::lp::HalfIntegralSolution;
use crate::peeling::PeelingOutcome;
use crate::workspace::VcWorkspace;
use graph::{BipartiteGraph, Csr, Edge, Graph, GraphRef, VertexCompactor, VertexId};
use std::cell::RefCell;

/// A reusable vertex-cover solver: compaction scratch + epoch-reset workspace
/// + candidate-restricted peeling, allocated once and reused across solves.
///
/// See the [module docs](self) for the solve pipeline. Construct one per
/// long-lived worker, or use the thread-local engine behind the free
/// functions ([`crate::peeling::peel_with_thresholds`],
/// [`crate::approx::two_approx_cover`], …).
#[derive(Debug, Clone, Default)]
pub struct VcEngine {
    compactor: VertexCompactor,
    workspace: VcWorkspace,
}

impl VcEngine {
    /// Creates an engine with empty (lazily grown) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the workspace (solve / full-reset counters).
    pub fn workspace(&self) -> &VcWorkspace {
        &self.workspace
    }

    /// Runs the iterative peeling process on `g` (see
    /// [`crate::peeling::peel_with_thresholds`] for the semantics). Output is
    /// identical to the reference implementation, round by round, and
    /// independent of the engine's history.
    pub fn peel_with_thresholds<G: GraphRef + ?Sized>(
        &mut self,
        g: &G,
        thresholds: &[usize],
    ) -> PeelingOutcome {
        let n = g.n();
        let edges = g.edges();
        let rounds = thresholds.iter().filter(|&&t| t > 0).count();
        let mut peeled_per_round: Vec<Vec<VertexId>> = Vec::with_capacity(rounds);
        let mut used_thresholds: Vec<usize> = Vec::with_capacity(rounds);

        // Pre-screen: count degrees once (O(m), stamped — no O(n) pass) and
        // find the maximum. If no vertex reaches the smallest threshold,
        // degrees can only decrease from here, so every round peels nothing.
        self.workspace.begin_scope(n);
        let mut max_degree = 0u32;
        for e in edges {
            max_degree = max_degree
                .max(self.workspace.bump_degree(e.u))
                .max(self.workspace.bump_degree(e.v));
        }
        let min_threshold = thresholds.iter().copied().filter(|&t| t > 0).min();
        let Some(min_threshold) = min_threshold.filter(|&t| t <= max_degree as usize) else {
            for &t in thresholds {
                if t > 0 {
                    // Empty round marker: `Vec::new` performs no heap allocation.
                    peeled_per_round.push(Vec::new()); // xtask: allow(hot-path-alloc)
                    used_thresholds.push(t);
                }
            }
            return PeelingOutcome {
                peeled_per_round,
                thresholds: used_thresholds,
                // The residual graph is part of the output contract.
                residual: Graph::from_edges_unchecked(n, edges.to_vec()), // xtask: allow(hot-path-alloc)
            };
        };

        // Candidate rounds: only vertices whose degree already reaches the
        // smallest threshold can ever be peeled, so the rounds run on their
        // subgraph alone.
        let ws = &mut self.workspace;
        ws.build_candidates(edges, min_threshold);
        for &t in thresholds {
            if t == 0 {
                continue;
            }
            // Simultaneous semantics: the whole round is decided against the
            // round-start degrees, then removed together.
            ws.peel_round(t);
            let mut peeled: Vec<VertexId> = ws.round.iter().map(|&i| ws.cand[i as usize]).collect();
            // Candidates sit in first-touch order; the reference lists each
            // round in ascending id order.
            peeled.sort_unstable();
            peeled_per_round.push(peeled);
            used_thresholds.push(t);
        }

        // Peeled vertices are flagged by their original ids, so the residual
        // (in input order) is one filter pass over the input edges — the
        // only edge buffer the whole solve writes.
        let residual: Vec<Edge> = edges
            .iter()
            .filter(|e| !ws.is_flagged(e.u) && !ws.is_flagged(e.v))
            .copied()
            .collect();
        PeelingOutcome {
            peeled_per_round,
            thresholds: used_thresholds,
            residual: Graph::from_edges_unchecked(n, residual),
        }
    }

    /// The classic Parnas–Ron schedule (see
    /// [`crate::peeling::parnas_ron_peeling`]).
    pub fn parnas_ron_peeling<G: GraphRef + ?Sized>(
        &mut self,
        g: &G,
        stop_at: usize,
    ) -> PeelingOutcome {
        let schedule = crate::peeling::parnas_ron_schedule(g.n(), stop_at);
        self.peel_with_thresholds(g, &schedule)
    }

    /// 2-approximate vertex cover: both endpoints of the greedy maximal
    /// matching over `g`'s edges in input order (see
    /// [`crate::approx::two_approx_cover`]). One stamped `O(m)` scan, no
    /// per-call allocation beyond the output.
    pub fn two_approx_cover<G: GraphRef + ?Sized>(&mut self, g: &G) -> VertexCover {
        self.two_approx_concat(g.n(), std::iter::once(g.edges()), std::iter::empty())
    }

    /// 2-approximate vertex cover of the graph formed by concatenating the
    /// given edge slices (in order) over vertex ids `0..n`, joined with every
    /// vertex of the `fixed` slices. `n` must exceed every endpoint and every
    /// fixed vertex id.
    ///
    /// This is the coordinator's composition primitive: the union of the
    /// residual subgraphs is never materialized — the greedy maximal
    /// matching scans the slices in sequence, and duplicate edges across
    /// slices are harmless no-ops (their endpoints are already matched when
    /// the duplicate arrives), so the output equals
    /// [`Self::two_approx_cover`] on the deduplicated union graph, plus the
    /// fixed vertices. The coordinator passes the machines' fixed vertex sets
    /// as `fixed`, so the composed cover is built here once.
    ///
    /// The picks, then the fixed vertices not already flagged, go into the
    /// workspace's reused buffer; the scope flags de-duplicate them, so it
    /// holds each cover vertex once. It is sorted in place and the cover is
    /// bulk-built from it, instead of one ordered-set insert per vertex.
    pub fn two_approx_concat<'a>(
        &mut self,
        n: usize,
        slices: impl IntoIterator<Item = &'a [Edge]>,
        fixed: impl IntoIterator<Item = &'a [VertexId]>,
    ) -> VertexCover {
        let ws = &mut self.workspace;
        ws.begin_scope(n);
        ws.picks.clear();
        for slice in slices {
            for e in slice {
                if !ws.is_flagged(e.u) && !ws.is_flagged(e.v) {
                    ws.flag(e.u);
                    ws.flag(e.v);
                    ws.picks.push(e.u);
                    ws.picks.push(e.v);
                }
            }
        }
        // Fixed vertices never change the picks, so they join after the scan,
        // when a flag means "already in the cover".
        for part in fixed {
            for &v in part {
                if !ws.is_flagged(v) {
                    ws.flag(v);
                    ws.picks.push(v);
                }
            }
        }
        ws.picks.sort_unstable();
        VertexCover::from_vertices(ws.picks.iter().copied())
    }

    /// Greedy maximum-degree vertex cover (see
    /// [`crate::approx::greedy_degree_cover`]): lazy-deletion heap over the
    /// compacted CSR, with the workspace providing the degree array, the
    /// covered flags and the reused heap.
    pub fn greedy_degree_cover<G: GraphRef + ?Sized>(&mut self, g: &G) -> VertexCover {
        if g.is_empty() {
            return VertexCover::new();
        }
        let VcEngine {
            compactor,
            workspace: ws,
        } = self;
        compactor.compact(g);
        let n_local = compactor.n_local();
        let adj = Csr::from_edges(n_local, compactor.local_edges());
        ws.begin_scope(n_local);
        ws.heap.clear();
        for v in 0..n_local as VertexId {
            // Compaction keeps only non-isolated vertices, so every degree is
            // positive and belongs in the heap.
            ws.set_degree(v, adj.degree(v) as u32);
            ws.heap.push((adj.degree(v), v));
        }
        let mut uncovered_edges = compactor.local_edges().len();
        let mut cover = VertexCover::new();
        while uncovered_edges > 0 {
            let (claimed_degree, v) = ws
                .heap
                .pop()
                .expect("uncovered edges remain so the heap is non-empty");
            if ws.is_flagged(v) || claimed_degree != ws.degree_of(v) as usize {
                continue; // stale entry
            }
            if ws.degree_of(v) == 0 {
                continue;
            }
            cover.insert(compactor.orig_of(v));
            ws.flag(v);
            for &w in adj.neighbors(v) {
                if !ws.is_flagged(w) {
                    uncovered_edges -= 1;
                    let d = ws.dec_degree(w);
                    if d > 0 {
                        ws.heap.push((d as usize, w));
                    }
                }
            }
            ws.set_degree(v, 0);
        }
        cover
    }

    /// Half-integral vertex-cover LP optimum (see
    /// [`crate::lp::lp_vertex_cover`]): König on the bipartite double cover
    /// of the *compacted* graph, expanded back to original ids.
    pub fn lp_vertex_cover<G: GraphRef + ?Sized>(&mut self, g: &G) -> HalfIntegralSolution {
        self.compactor.compact(g);
        let n_local = self.compactor.n_local();
        let pairs = self
            .compactor
            .local_edges()
            .iter()
            .flat_map(|e| [(e.u, e.v), (e.v, e.u)]);
        let double = BipartiteGraph::from_pairs(n_local, n_local, pairs)
            .expect("double-cover ids are in range by construction");
        let cover = crate::exact::koenig_cover(&double);

        let mut values = vec![0.0f64; g.n()];
        for v in cover.vertices() {
            let local = if (v as usize) < n_local {
                v as usize
            } else {
                v as usize - n_local
            };
            values[self.compactor.orig_of(local as VertexId) as usize] += 0.5;
        }
        HalfIntegralSolution { values }
    }

    /// Exact minimum vertex cover by branch and bound (see
    /// [`crate::exact::exact_cover_branch_and_bound`]): the kernelization
    /// preamble builds its editable adjacency lists over the compacted
    /// vertices only.
    pub fn exact_cover<G: GraphRef + ?Sized>(&mut self, g: &G) -> VertexCover {
        self.compactor.compact(g);
        let n_local = self.compactor.n_local();
        let mut neighbors: Vec<Vec<VertexId>> = vec![Vec::new(); n_local];
        for e in self.compactor.local_edges() {
            neighbors[e.u as usize].push(e.v);
            neighbors[e.v as usize].push(e.u);
        }
        for list in &mut neighbors {
            list.sort_unstable();
        }
        let best = branch_and_bound_on_lists(&mut neighbors);
        VertexCover::from_vertices(best.into_iter().map(|v| self.compactor.orig_of(v)))
    }
}

thread_local! {
    static THREAD_ENGINE: RefCell<VcEngine> = RefCell::new(VcEngine::new());
}

/// Runs `f` on the calling thread's reusable engine (falling back to a fresh
/// engine in the re-entrant case, which keeps the API panic-free).
pub(crate) fn with_thread_engine<T>(f: impl FnOnce(&mut VcEngine) -> T) -> T {
    THREAD_ENGINE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut engine) => f(&mut engine),
        Err(_) => f(&mut VcEngine::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::gen::structured::{star, star_forest};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn engine_peeling_matches_reference_across_reuse() {
        let mut engine = VcEngine::new();
        for seed in 0..10 {
            let g = gnp(80, 0.12, &mut rng(seed));
            let reference = crate::peeling::peel_with_thresholds_reference(&g, &[20, 9, 4, 2]);
            let engine_out = engine.peel_with_thresholds(&g, &[20, 9, 4, 2]);
            assert_eq!(engine_out.peeled_per_round, reference.peeled_per_round);
            assert_eq!(engine_out.thresholds, reference.thresholds);
            assert_eq!(engine_out.residual, reference.residual);
        }
        assert_eq!(engine.workspace().full_resets(), 0);
    }

    #[test]
    fn bucket_rounds_fire_on_stars_and_fast_path_on_sparse() {
        let mut engine = VcEngine::new();
        // Star: the centre is peeled through the candidate rounds.
        let g = star(100);
        let out = engine.peel_with_thresholds(&g, &[50, 10]);
        assert_eq!(out.peeled_per_round[0], vec![0]);
        assert!(out.residual.is_empty());
        // Sparse piece: thresholds above the max degree take the pre-screen
        // path and forward everything.
        let g = gnp(500, 0.004, &mut rng(7));
        let out = engine.peel_with_thresholds(&g, &[100, 50]);
        assert_eq!(out.peeled_per_round, vec![Vec::<u32>::new(); 2]);
        assert_eq!(out.residual.edges(), g.edges());
    }

    #[test]
    fn two_approx_concat_equals_two_approx_on_union() {
        let mut engine = VcEngine::new();
        let a = gnp(60, 0.05, &mut rng(1));
        let b = gnp(60, 0.05, &mut rng(2));
        let union = Graph::union(&[&a, &b]);
        let on_union = engine.two_approx_cover(&union);
        let concat = engine.two_approx_concat(60, [a.edges(), b.edges()], []);
        assert_eq!(on_union, concat);
        assert!(concat.covers(&union));
    }

    #[test]
    fn greedy_degree_is_optimal_on_star_forests() {
        let mut engine = VcEngine::new();
        let g = star_forest(4, 30);
        let cover = engine.greedy_degree_cover(&g);
        assert_eq!(cover.len(), 4);
        assert!(cover.covers(&g));
    }

    #[test]
    fn empty_graph_is_a_no_op_everywhere() {
        let mut engine = VcEngine::new();
        let g = Graph::empty(9);
        assert_eq!(engine.peel_with_thresholds(&g, &[3, 1]).peeled_count(), 0);
        assert!(engine.two_approx_cover(&g).is_empty());
        assert!(engine.greedy_degree_cover(&g).is_empty());
        assert_eq!(engine.lp_vertex_cover(&g).objective(), 0.0);
        assert!(engine.exact_cover(&g).is_empty());
    }
}
