//! MapReduce simulation (Karloff et al. model, as used by the paper).
//!
//! The paper's MapReduce application (Section 1.1) uses `k = √n` machines,
//! each with `Õ(n√n)` memory, and finishes in **two rounds**:
//!
//! * **Round 1** — every machine randomly re-shuffles the edges it holds
//!   across the `k` machines; afterwards the edge set is randomly
//!   `k`-partitioned.
//! * **Round 2** — every machine sends its randomized composable coreset to a
//!   designated machine `M`, which holds the union (`k · Õ(n) = Õ(n√n)`
//!   edges, within its memory) and computes the final answer.
//!
//! If the input is already randomly distributed, round 1 can be skipped and
//! the algorithm takes a single round. The simulator tracks, per round, the
//! maximum number of words resident on any machine so that the memory budget
//! claim can be checked experimentally (experiment E8). As in the
//! coordinator model, every maximum-matching solve (per-machine coresets,
//! machine `M`'s composed solve) runs on the compacted, epoch-reset,
//! warm-started [`matching::MatchingEngine`] (experiment E13), and every
//! vertex-cover peeling / composition runs on the bucket-queue
//! `vertexcover::VcEngine` (experiment E14).
//!
//! Round 2 *is* the coordinator protocol with machine `M` as the coordinator:
//! the simulator runs [`CoordinatorProtocol::run_problem`] over the shuffled
//! partition, so its answer and message words are exactly the
//! coordinator's. Its fan-out runs on the vendored rayon backend's
//! **work-stealing chunk queue** (experiment E15): machines are handed to
//! scoped workers a chunk at a time, so a machine holding a disproportionate
//! share of the shuffled edges cannot serialize the round. Machine `M`'s
//! composition also fans out its independent sub-solves (warm-start
//! screening, the per-machine vertex extent) on the same pool; results
//! reassemble in machine order, so simulated rounds stay bit-identical at
//! every thread count.

use crate::comm::CostModel;
use crate::coordinator::CoordinatorProtocol;
use coresets::matching_coreset::MatchingCoresetBuilder;
use coresets::vc_coreset::VcCoresetBuilder;
use coresets::{CoresetProblem, CoverProblem, MatchingProblem};
use graph::{Graph, GraphError};
use matching::matching::Matching;
use serde::{Deserialize, Serialize};
use vertexcover::VertexCover;

/// Static configuration of a MapReduce deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MapReduceConfig {
    /// Number of machines.
    pub k: usize,
    /// Memory budget per machine, in words (vertex ids).
    pub memory_words: u64,
    /// Whether the input is already randomly partitioned across the machines
    /// (in which case the shuffle round is skipped, as in the paper's
    /// discussion following the two-round algorithm).
    pub input_already_random: bool,
}

impl MapReduceConfig {
    /// The paper's parameterisation for an `n`-vertex, `m`-edge graph:
    /// `k = ceil(sqrt(n))` machines with `c · n·sqrt(n) · log2(n)` words of
    /// memory each.
    pub fn paper_defaults(n: usize) -> Self {
        let k = (n as f64).sqrt().ceil() as usize;
        let log_n = (n.max(2) as f64).log2();
        let memory_words = (2.0 * n as f64 * (n as f64).sqrt() * log_n).ceil() as u64;
        MapReduceConfig {
            k: k.max(1),
            memory_words,
            input_already_random: false,
        }
    }
}

/// Per-round memory statistics of a MapReduce run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Human-readable description of what the round did.
    pub description: String,
    /// The maximum number of words resident on any machine during the round.
    pub max_words_per_machine: u64,
}

/// The outcome of a MapReduce computation.
#[derive(Debug, Clone)]
pub struct MapReduceOutcome<T> {
    /// The final answer.
    pub answer: T,
    /// One entry per MapReduce round that was executed.
    pub rounds: Vec<RoundStats>,
    /// Whether every round respected the per-machine memory budget.
    pub within_memory_budget: bool,
}

impl<T> MapReduceOutcome<T> {
    /// Number of rounds used.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }
}

/// Simulator for the paper's two-round coreset-based MapReduce algorithms.
#[derive(Debug, Clone, Copy)]
pub struct MapReduceSimulator {
    /// Deployment parameters.
    pub config: MapReduceConfig,
}

impl MapReduceSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: MapReduceConfig) -> Self {
        MapReduceSimulator { config }
    }

    /// Runs the two-round (or one-round) coreset algorithm for maximum
    /// matching.
    pub fn run_matching<B: MatchingCoresetBuilder>(
        &self,
        g: &Graph,
        builder: &B,
        seed: u64,
    ) -> Result<MapReduceOutcome<Matching>, GraphError> {
        self.run_problem(g, &MatchingProblem(builder), seed)
    }

    /// Runs the two-round (or one-round) coreset algorithm for minimum vertex
    /// cover.
    pub fn run_vertex_cover<B: VcCoresetBuilder>(
        &self,
        g: &Graph,
        builder: &B,
        seed: u64,
    ) -> Result<MapReduceOutcome<VertexCover>, GraphError> {
        self.run_problem(g, &CoverProblem(builder), seed)
    }

    /// Runs the two-round (or one-round) coreset algorithm for `problem`.
    pub fn run_problem<P: CoresetProblem>(
        &self,
        g: &Graph,
        problem: &P,
        seed: u64,
    ) -> Result<MapReduceOutcome<P::Answer>, GraphError> {
        // Round 1 (shuffle) draws the random k-partition from `seed`; round 2
        // builds the coresets locally (in parallel, each machine on its own
        // pre-derived RNG stream), sends them to machine M and solves there.
        let run = CoordinatorProtocol::random(self.config.k).run_problem(g, problem, seed)?;
        let model = CostModel::for_n(g.n());
        // The memory high water mark of the shuffle is the largest piece any
        // machine receives (each machine holds its share of the input plus
        // what it receives; the received share dominates and is what we
        // report).
        let max_piece_words = run
            .piece_sizes
            .iter()
            .map(|&m| model.words(m, 0))
            .max()
            .unwrap_or(0);
        let mut rounds = Vec::new();
        if !self.config.input_already_random {
            rounds.push(RoundStats {
                description: "shuffle: random re-partitioning of the edges".into(),
                max_words_per_machine: max_piece_words,
            });
        }
        rounds.push(RoundStats {
            description: "coresets: build locally, union and solve on the designated machine"
                .into(),
            max_words_per_machine: run.communication.total_words().max(max_piece_words),
        });

        let within_memory_budget = rounds
            .iter()
            .all(|r| r.max_words_per_machine <= self.config.memory_words);
        Ok(MapReduceOutcome {
            answer: run.answer,
            rounds,
            within_memory_budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::SimultaneousRun;
    use coresets::matching_coreset::MaximumMatchingCoreset;
    use coresets::vc_coreset::PeelingVcCoreset;
    use graph::gen::er::gnm;
    use matching::maximum::maximum_matching;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn paper_defaults_use_sqrt_n_machines() {
        let cfg = MapReduceConfig::paper_defaults(10_000);
        assert_eq!(cfg.k, 100);
        assert!(cfg.memory_words >= 10_000 * 100);
    }

    #[test]
    fn two_rounds_for_matching_and_within_budget() {
        // Dense-ish graph: m ~ n^1.5 like the paper's regime.
        let n = 900;
        let m = 20_000;
        let g = gnm(n, m, &mut rng(1));
        let cfg = MapReduceConfig::paper_defaults(n);
        let sim = MapReduceSimulator::new(cfg);
        let out = sim
            .run_matching(&g, &MaximumMatchingCoreset::new(), 3)
            .unwrap();
        assert_eq!(out.round_count(), 2);
        assert!(out.within_memory_budget, "rounds: {:?}", out.rounds);
        assert!(out.answer.is_valid_for(&g));
        let opt = maximum_matching(&g).len();
        assert!(9 * out.answer.len() >= opt);
    }

    #[test]
    fn one_round_when_input_is_already_random() {
        let n = 400;
        let g = gnm(n, 6_000, &mut rng(2));
        let mut cfg = MapReduceConfig::paper_defaults(n);
        cfg.input_already_random = true;
        let out = MapReduceSimulator::new(cfg)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 5)
            .unwrap();
        assert_eq!(out.round_count(), 1);
        assert!(out.answer.is_valid_for(&g));
    }

    #[test]
    fn vertex_cover_two_rounds_and_feasible() {
        let n = 900;
        let g = gnm(n, 15_000, &mut rng(3));
        let cfg = MapReduceConfig::paper_defaults(n);
        let out = MapReduceSimulator::new(cfg)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 9)
            .unwrap();
        assert_eq!(out.round_count(), 2);
        assert!(out.within_memory_budget);
        assert!(out.answer.covers(&g));
    }

    #[test]
    fn tight_memory_budget_is_detected() {
        let n = 300;
        let g = gnm(n, 8_000, &mut rng(4));
        let cfg = MapReduceConfig {
            k: 4,
            memory_words: 10,
            input_already_random: false,
        };
        let out = MapReduceSimulator::new(cfg)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 1)
            .unwrap();
        assert!(!out.within_memory_budget);
    }

    #[test]
    fn zero_machines_rejected() {
        let g = gnm(20, 30, &mut rng(5));
        let cfg = MapReduceConfig {
            k: 0,
            memory_words: 1000,
            input_already_random: false,
        };
        assert!(MapReduceSimulator::new(cfg)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 0)
            .is_err());
    }

    /// Round 2 is the coordinator protocol with machine `M` as coordinator:
    /// the same `(g, k, seed)` gives the coordinator's answer, and round 2's
    /// high-water mark is the larger of the coordinator's total message
    /// words and the largest piece (two words per edge).
    #[test]
    fn mapreduce_matches_the_coordinator() {
        fn round2_words<T>(run: &SimultaneousRun<T>) -> u64 {
            let largest = run.piece_sizes.iter().copied().max().unwrap_or(0);
            run.communication.total_words().max(2 * largest as u64)
        }
        for (n, m, graph_seed, seed) in
            [(900, 20_000, 1, 3), (400, 6_000, 2, 5), (300, 8_000, 4, 1)]
        {
            let g = gnm(n, m, &mut rng(graph_seed));
            let cfg = MapReduceConfig::paper_defaults(n);
            let sim = MapReduceSimulator::new(cfg);
            let coordinator = CoordinatorProtocol::random(cfg.k);

            let mb = MaximumMatchingCoreset::new();
            let out = sim.run_matching(&g, &mb, seed).unwrap();
            let run = coordinator.run_matching(&g, &mb, seed).unwrap();
            assert_eq!(out.answer.edges(), run.answer.edges(), "n = {n}");
            assert_eq!(out.rounds[1].max_words_per_machine, round2_words(&run));

            let vb = PeelingVcCoreset::new();
            let out = sim.run_vertex_cover(&g, &vb, seed).unwrap();
            let run = coordinator.run_vertex_cover(&g, &vb, seed).unwrap();
            assert_eq!(out.answer, run.answer, "n = {n}");
            assert_eq!(out.rounds[1].max_words_per_machine, round2_words(&run));
        }
    }
}
