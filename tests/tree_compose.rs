//! Cross-layer properties of hierarchical (tree) composition and the
//! out-of-core edge arena.
//!
//! Three families, all over randomly generated protocol inputs:
//!
//! * **Concat-vs-union pinning** — `solve_composed_matching` now solves the
//!   coreset edge slices in machine order without materializing the union
//!   `Graph`; against protocol coresets (edge-disjoint by construction) its
//!   answer must be **bit-identical** to the frozen union path
//!   (`Graph::union` + warm-started solve), re-implemented here as the
//!   reference.
//! * **Flat-vs-tree equivalence** — the tree-composed matching is valid for
//!   the original graph and at least the best single machine's coreset (every
//!   merge solves a union containing each child matching); the tree-composed
//!   vertex cover is feasible for the original graph.
//! * **Arena round-trip** — a partition written to an arena file and streamed
//!   back through the out-of-core tree runner gives the bit-identical answer
//!   to the in-memory tree protocol on the same seed.
//! * **Peeling at every node** — on a skewed R-MAT arena, where leaf builds
//!   and tree merges really peel, the engine-backed cover coreset gives the
//!   same answers and communication as one built on the reference peeling.

use coresets::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use coresets::vc_coreset::{PeelingVcCoreset, VcCoresetBuilder, VcCoresetOutput};
use coresets::{
    machine_rng, solve_composed_matching, tree_compose, CoresetParams, CoverProblem,
    MatchingProblem,
};
use distsim::{ArenaProtocol, CoordinatorProtocol};
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{Graph, GraphView};
use matching::matching::{edges_form_matching, Matching};
use matching::maximum::{maximum_matching_warm, maximum_matching_with, MaximumMatchingAlgorithm};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;
use vertexcover::peeling::peel_with_thresholds_reference;

/// Strategy: a random simple graph with up to `max_n` vertices and a
/// density-controlled number of random edges.
fn arb_graph(max_n: usize, max_extra_edges: usize) -> impl Strategy<Value = Graph> {
    (8usize..max_n, 0usize..max_extra_edges, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        graph::gen::er::gnm(n, m.min(n * (n - 1) / 2), &mut rng)
    })
}

/// Builds the protocol's matching coresets exactly as the coordinator does:
/// random `k`-partition drawn from `seed`, one maximum-matching coreset per
/// piece on its `(seed, machine)` stream.
fn matching_coresets(g: &Graph, k: usize, seed: u64) -> Vec<Graph> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let part = PartitionedGraph::random(g, k, &mut rng).unwrap();
    let params = CoresetParams::new(g.n(), k);
    part.views()
        .iter()
        .enumerate()
        .map(|(i, piece)| {
            MaximumMatchingCoreset::new().build(*piece, &params, i, &mut machine_rng(seed, i))
        })
        .collect()
}

/// The frozen pre-concat composition path, kept as the reference: materialize
/// the first-occurrence-preserving union, warm-start from the first
/// maximal-size coreset that is a valid matching, and solve.
fn union_path_reference(coresets: &[Graph], algorithm: MaximumMatchingAlgorithm) -> Matching {
    let refs: Vec<&Graph> = coresets.iter().collect();
    let union = Graph::union(&refs);
    let mut best: Option<usize> = None;
    for (i, c) in coresets.iter().enumerate() {
        if edges_form_matching(c.edges()) && c.m() > best.map_or(0, |b| coresets[b].m()) {
            best = Some(i);
        }
    }
    match best.map(|i| Matching::try_from_edges(coresets[i].edges().to_vec()).unwrap()) {
        Some(warm) => maximum_matching_warm(&union, &warm, algorithm),
        None => maximum_matching_with(&union, algorithm),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The unmaterialized concat composition is bit-identical to the frozen
    /// union path on protocol coresets (edge-disjoint by construction).
    #[test]
    fn concat_composition_is_bit_identical_to_the_union_path(
        g in arb_graph(140, 700),
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let coresets = matching_coresets(&g, k, seed);
        let concat = solve_composed_matching(&coresets, MaximumMatchingAlgorithm::Auto);
        let union = union_path_reference(&coresets, MaximumMatchingAlgorithm::Auto);
        prop_assert_eq!(concat.edges(), union.edges());
    }

    /// The tree-composed matching is valid for the original graph and never
    /// smaller than the best single machine's coreset: every merge solves a
    /// union that contains each child matching whole.
    #[test]
    fn tree_matching_dominates_every_single_machine(
        g in arb_graph(140, 700),
        k in 2usize..10,
        fan_in in 2usize..5,
        seed in any::<u64>(),
    ) {
        let coresets = matching_coresets(&g, k, seed);
        let best = coresets.iter().map(Graph::m).max().unwrap_or(0);
        let params = CoresetParams::new(g.n(), k);
        let answer = tree_compose(
            &MatchingProblem(&MaximumMatchingCoreset::new()),
            g.n(),
            &params,
            seed,
            fan_in,
            coresets,
        );
        prop_assert!(answer.is_valid_for(&g));
        prop_assert!(
            answer.len() >= best,
            "tree answer {} below best single coreset {}", answer.len(), best
        );
    }

    /// The tree-composed vertex cover covers the original graph for every
    /// shape of the tree.
    #[test]
    fn tree_vertex_cover_is_feasible(
        g in arb_graph(140, 500),
        k in 2usize..9,
        fan_in in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let part = PartitionedGraph::random(&g, k, &mut rng).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let outputs: Vec<VcCoresetOutput> = part
            .views()
            .iter()
            .enumerate()
            .map(|(i, piece)| {
                PeelingVcCoreset::new().build(*piece, &params, i, &mut machine_rng(seed, i))
            })
            .collect();
        let cover = tree_compose(
            &CoverProblem(&PeelingVcCoreset::new()),
            g.n(),
            &params,
            seed,
            fan_in,
            outputs,
        );
        prop_assert!(cover.covers(&g));
    }
}

/// End-to-end arena round trip: the out-of-core tree runner over a written
/// arena file reproduces the in-memory tree protocol bit-for-bit, for both
/// problems.
#[test]
fn arena_tree_runs_match_the_in_memory_protocol() {
    let (k, fan_in, seed) = (11, 2, 97);
    let g = graph::gen::er::gnp(900, 0.012, &mut ChaCha8Rng::seed_from_u64(3));
    // The partition the coordinator would draw from this seed.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let partition = PartitionedGraph::new(&g, k, PartitionStrategy::Random, &mut rng).unwrap();
    let path = std::env::temp_dir().join(format!("rc_tree_compose_it_{}.bin", std::process::id()));
    graph::write_arena_file(&path, &partition).unwrap();
    let arena = graph::ArenaFile::open(&path).unwrap();

    let mem_matching = CoordinatorProtocol::tree(k, fan_in)
        .run_matching(&g, &MaximumMatchingCoreset::new(), seed)
        .unwrap();
    let ooc_matching = ArenaProtocol::tree(fan_in)
        .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
        .unwrap();
    assert_eq!(mem_matching.answer.edges(), ooc_matching.answer.edges());
    assert_eq!(mem_matching.communication, ooc_matching.communication);
    assert_eq!(mem_matching.piece_sizes, ooc_matching.piece_sizes);

    let mem_cover = CoordinatorProtocol::tree(k, fan_in)
        .run_vertex_cover(&g, &PeelingVcCoreset::new(), seed)
        .unwrap();
    let ooc_cover = ArenaProtocol::tree(fan_in)
        .run_vertex_cover(&arena, &PeelingVcCoreset::new(), seed)
        .unwrap();
    assert_eq!(mem_cover.answer, ooc_cover.answer);
    assert!(mem_cover.answer.covers(&g));

    std::fs::remove_file(&path).unwrap();
}

/// The Theorem 2 coreset on the reference peeling, recording how many
/// vertices each build (leaf or merge) peeled, in call order.
#[derive(Default)]
struct ReferencePeelingCoreset {
    peeled: Mutex<Vec<usize>>,
}

impl VcCoresetBuilder for ReferencePeelingCoreset {
    fn build(
        &self,
        piece: GraphView<'_>,
        params: &CoresetParams,
        _machine: usize,
        _rng: &mut ChaCha8Rng,
    ) -> VcCoresetOutput {
        let outcome = peel_with_thresholds_reference(&piece, &params.peeling_schedule());
        self.peeled.lock().unwrap().push(outcome.peeled_count());
        VcCoresetOutput {
            fixed_vertices: outcome.peeled_per_round.into_iter().flatten().collect(),
            residual: outcome.residual,
        }
    }

    fn name(&self) -> &'static str {
        "reference-peeling-vc-coreset"
    }
}

/// Leaf builds and tree merges that really peel: on a `rmat_graph500(11, 16)`
/// arena over k = 8 machines, the cover coreset gives the same leaves, the
/// same tree-composed cover, and the same arena-run answer and communication
/// as the reference peeling.
#[test]
fn rmat_arena_cover_peels_like_the_reference() {
    let (k, fan_in, seed) = (8, 2, 1);
    let g = graph::gen::rmat::rmat_graph500(11, 16, &mut ChaCha8Rng::seed_from_u64(5));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let partition = PartitionedGraph::new(&g, k, PartitionStrategy::Random, &mut rng).unwrap();
    let params = CoresetParams::new(g.n(), k);
    let reference = ReferencePeelingCoreset::default();

    let build_leaves = |builder: &dyn VcCoresetBuilder| -> Vec<VcCoresetOutput> {
        partition
            .views()
            .iter()
            .enumerate()
            .map(|(i, piece)| builder.build(*piece, &params, i, &mut machine_rng(seed, i)))
            .collect()
    };
    let leaves = build_leaves(&PeelingVcCoreset::new());
    let reference_leaves = build_leaves(&reference);
    for (leaf, expected) in leaves.iter().zip(&reference_leaves) {
        assert_eq!(leaf.fixed_vertices, expected.fixed_vertices);
        assert_eq!(leaf.residual, expected.residual);
    }
    let cover = tree_compose(
        &CoverProblem(&PeelingVcCoreset::new()),
        g.n(),
        &params,
        seed,
        fan_in,
        leaves,
    );
    let expected = tree_compose(
        &CoverProblem(&reference),
        g.n(),
        &params,
        seed,
        fan_in,
        reference_leaves,
    );
    assert_eq!(cover, expected);
    assert!(cover.covers(&g));
    let peeled = reference.peeled.lock().unwrap().clone();
    let (leaf_peels, merge_peels) = peeled.split_at(k);
    assert!(
        leaf_peels.iter().any(|&p| p > 0) && merge_peels.iter().any(|&p| p > 0),
        "leaves {leaf_peels:?} and merges {merge_peels:?} must both peel"
    );

    let path = std::env::temp_dir().join(format!("rc_rmat_peel_it_{}.bin", std::process::id()));
    graph::write_arena_file(&path, &partition).unwrap();
    let arena = graph::ArenaFile::open(&path).unwrap();
    let run = ArenaProtocol::tree(fan_in)
        .run_vertex_cover(&arena, &PeelingVcCoreset::new(), seed)
        .unwrap();
    let reference_run = ArenaProtocol::tree(fan_in)
        .run_vertex_cover(&arena, &ReferencePeelingCoreset::default(), seed)
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(run.answer, reference_run.answer);
    assert_eq!(run.communication, reference_run.communication);
    assert_eq!(run.answer, cover, "the arena run composes the same tree");
}
