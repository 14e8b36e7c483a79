//! The coordinator (simultaneous communication) model.
//!
//! A [`CoordinatorProtocol`] run proceeds exactly as in the paper's model
//! (Section 2, "Communication Complexity"):
//!
//! 1. the edge set is **randomly partitioned** across `k` machines,
//! 2. every machine simultaneously sends one message to the coordinator —
//!    here, its coreset — with its size charged to the communication cost,
//! 3. the coordinator combines the messages and outputs the answer; no
//!    further interaction happens.
//!
//! Machines execute **simultaneously on real OS threads**: the vendored rayon
//! backend spawns a scoped pool of `std::thread` workers (worker count from
//! `RC_THREADS` / `RAYON_NUM_THREADS`, or every available core) that race a
//! **work-stealing chunk queue** over the machines — a worker that finishes a
//! sparse machine immediately claims more work, so one dense machine of a
//! skewed partition no longer serializes the fan-out (experiment E15,
//! `exp_sched_scaling`). All randomness is
//! fixed *before* that fan-out — the edge partition is drawn from the run
//! seed, and machine `i`'s private `ChaCha8Rng` stream is derived from
//! `(seed, i)` via [`coresets::streams::machine_rng`] — and per-machine
//! messages are collected in machine order, so a run's answer, coreset sizes
//! and communication cost are bit-identical for any thread count or schedule
//! (asserted by `tests/determinism.rs`).
//!
//! Both the per-machine coreset solves and the coordinator's composed solve
//! run on the compacted, epoch-reset, warm-started matching engine
//! ([`matching::MatchingEngine`]; experiment E13): each worker thread reuses
//! one engine across the machines it simulates, and
//! [`coresets::solve_composed_matching`] seeds the final solve with the best
//! machine's matching. The vertex-cover side runs on the analogous
//! `vertexcover::VcEngine` (experiment E14): candidate-restricted peeling per
//! machine and a union-free composed 2-approximation at the coordinator,
//! with zero per-round edge-buffer reallocations across the whole run.
//!
//! The coordinator's own composition step is parallel where its sub-solves
//! are independent: the warm-start screen over the received coresets and the
//! per-machine vertex extent that sizes the composed 2-approximation fan out
//! on the same work-stealing pool and reduce deterministically (see
//! `coresets::compose`), so composition answers are also bit-identical at
//! every thread count.
//!
//! Both runners here are written once, generic over
//! [`coresets::CoresetProblem`]; the per-problem `run_*` methods are thin
//! wrappers that pick the [`MatchingProblem`] or [`CoverProblem`] adapter.
//! A plain run is the fault loop under an unarmed [`FaultPlan`], and flat
//! composition is the degenerate tree whose fan-in covers all `k` leaves.

use crate::checkpoint::{
    load_checkpoint, save_checkpoint_view, CheckpointItem, CheckpointKey, CheckpointView,
};
use crate::comm::{CommunicationCost, CostModel};
use crate::error::ProtocolError;
use crate::faults::{
    run_machine_with_faults, DegradedComposition, FaultInjector, FaultPlan, FaultReport,
    MachineOutcome, RetryPolicy,
};
use coresets::matching_coreset::MatchingCoresetBuilder;
use coresets::streams::machine_rng;
use coresets::tree::{TreeFolder, TreePlan};
use coresets::vc_coreset::VcCoresetBuilder;
use coresets::{tree_compose, CoresetParams, CoresetProblem, CoverProblem, MatchingProblem};
use graph::arena_file::{ArenaFile, SegmentLoader, SegmentRetryPolicy};
use graph::metrics::ResidentCharge;
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{Graph, GraphError};
use matching::matching::Matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use vertexcover::VertexCover;

/// How the coordinator combines the `k` received coresets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComposeMode {
    /// One flat union of all `k` coresets, solved in a single step (the
    /// paper's literal model).
    #[default]
    Flat,
    /// Hierarchical composition: merge coresets `fan_in` at a time over
    /// `⌈log_f k⌉` levels, re-coreseting each merged union through the same
    /// builder (Mirrokni–Zadimoghaddam associativity), then solve the
    /// `≤ fan_in` roots flat. Bounded per-node memory; bit-identical across
    /// thread counts (see [`coresets::tree`]).
    Tree {
        /// Coresets merged per tree node; must be at least 2.
        fan_in: usize,
    },
}

impl ComposeMode {
    /// The composition tree's fan-in over `k` leaves. Flat composition is the
    /// degenerate tree whose root set is all `k` coresets: a fan-in wide
    /// enough that no merge round fires.
    fn fan_in(self, k: usize) -> usize {
        match self {
            ComposeMode::Tree { fan_in } => fan_in,
            ComposeMode::Flat => k.max(2),
        }
    }
}

/// Configuration of one simultaneous-protocol run.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorProtocol {
    /// Number of machines `k`.
    pub k: usize,
    /// How the edges are split across machines (the paper's model is
    /// [`PartitionStrategy::Random`]; the adversarial strategy is provided for
    /// the negative-control experiments).
    pub strategy: PartitionStrategy,
    /// How the coordinator composes the received coresets (flat union by
    /// default).
    pub compose: ComposeMode,
}

impl CoordinatorProtocol {
    /// The paper's model: random partitioning across `k` machines.
    pub fn random(k: usize) -> Self {
        CoordinatorProtocol {
            k,
            strategy: PartitionStrategy::Random,
            compose: ComposeMode::Flat,
        }
    }

    /// Adversarial (sorted-chunk) partitioning across `k` machines.
    pub fn adversarial(k: usize) -> Self {
        CoordinatorProtocol {
            k,
            strategy: PartitionStrategy::Adversarial,
            compose: ComposeMode::Flat,
        }
    }

    /// Random partitioning with hierarchical (tree) composition.
    pub fn tree(k: usize, fan_in: usize) -> Self {
        CoordinatorProtocol::random(k).with_compose(ComposeMode::Tree { fan_in })
    }

    /// Returns this protocol with the given composition mode.
    pub fn with_compose(mut self, compose: ComposeMode) -> Self {
        self.compose = compose;
        self
    }

    /// Runs the matching protocol: each machine sends the coreset built by
    /// `builder`, the coordinator extracts a maximum matching of the union.
    pub fn run_matching<B: MatchingCoresetBuilder>(
        &self,
        g: &Graph,
        builder: &B,
        seed: u64,
    ) -> Result<SimultaneousRun<Matching>, GraphError> {
        self.run_problem(g, &MatchingProblem(builder), seed)
    }

    /// Runs the vertex-cover protocol: each machine sends the coreset built by
    /// `builder` (fixed vertices + residual edges), the coordinator unions the
    /// residuals, 2-approximates a cover of the union, and adds the fixed
    /// vertices.
    pub fn run_vertex_cover<B: VcCoresetBuilder>(
        &self,
        g: &Graph,
        builder: &B,
        seed: u64,
    ) -> Result<SimultaneousRun<VertexCover>, GraphError> {
        self.run_problem(g, &CoverProblem(builder), seed)
    }

    /// Runs the matching protocol under a fault plan: machine failures are
    /// injected deterministically, failed machines are **re-executed by
    /// replaying** their `machine_rng(seed, i)` stream (so a run in which
    /// every machine eventually delivers is bit-identical to the fault-free
    /// run), and machines that exhaust the retry budget fall through to the
    /// plan's [`DegradedComposition`] policy.
    pub fn run_matching_faulty<B: MatchingCoresetBuilder>(
        &self,
        g: &Graph,
        builder: &B,
        seed: u64,
        plan: &FaultPlan,
        retry: &RetryPolicy,
    ) -> Result<FaultyRun<Matching>, ProtocolError> {
        self.run_problem_faulty(g, &MatchingProblem(builder), seed, plan, retry)
    }

    /// Runs the vertex-cover protocol under a fault plan (same retry-by-
    /// replay and degraded-composition semantics as
    /// [`CoordinatorProtocol::run_matching_faulty`]).
    pub fn run_vertex_cover_faulty<B: VcCoresetBuilder>(
        &self,
        g: &Graph,
        builder: &B,
        seed: u64,
        plan: &FaultPlan,
        retry: &RetryPolicy,
    ) -> Result<FaultyRun<VertexCover>, ProtocolError> {
        self.run_problem_faulty(g, &CoverProblem(builder), seed, plan, retry)
    }

    /// Runs `problem`'s protocol fault-free: the fault loop under an unarmed
    /// plan, where every machine delivers on its first attempt.
    pub fn run_problem<P: CoresetProblem>(
        &self,
        g: &Graph,
        problem: &P,
        seed: u64,
    ) -> Result<SimultaneousRun<P::Answer>, GraphError> {
        let unarmed = FaultPlan::default();
        self.run_under(g, problem, seed, &unarmed, &RetryPolicy::default(), |_| {
            Ok(())
        })
        .map(|r| r.run)
    }

    /// Runs `problem`'s protocol under a fault plan (the semantics of
    /// [`CoordinatorProtocol::run_matching_faulty`]).
    pub fn run_problem_faulty<P: CoresetProblem>(
        &self,
        g: &Graph,
        problem: &P,
        seed: u64,
        plan: &FaultPlan,
        retry: &RetryPolicy,
    ) -> Result<FaultyRun<P::Answer>, ProtocolError> {
        self.run_under(g, problem, seed, plan, retry, |faults| {
            check_losses(faults, plan, self.k)
        })
    }

    /// The in-memory protocol: partition, build every machine's summary
    /// under `plan`, account the delivered messages, apply `check` to the
    /// losses, then compose through the tree.
    fn run_under<P: CoresetProblem, E: From<GraphError>>(
        &self,
        g: &Graph,
        problem: &P,
        seed: u64,
        plan: &FaultPlan,
        retry: &RetryPolicy,
        check: impl FnOnce(&FaultReport) -> Result<(), E>,
    ) -> Result<FaultyRun<P::Answer>, E> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // One edge permutation into the arena; each machine computes on a
        // zero-copy view of its slice.
        let partition = PartitionedGraph::new(g, self.k, self.strategy, &mut rng)?;
        let views = partition.views();
        let n = g.n();
        let params = CoresetParams::new(n, self.k);
        let model = CostModel::for_n(n);
        let injector = FaultInjector::new(plan.clone());
        // A machine's build is a pure function of (seed, i): retries and the
        // degraded baseline below replay the same stream.
        let build = |i: usize| problem.build(views[i], &params, i, &mut machine_rng(seed, i));
        let outcomes: Vec<MachineOutcome<P::Summary>> = (0..self.k)
            .into_par_iter()
            .map(|i| run_machine_with_faults(&injector, retry, i, || build(i)))
            .collect();

        let mut faults = FaultReport::new(plan.fault_seed);
        let mut communication = CommunicationCost::default();
        let mut summaries = Vec::with_capacity(self.k);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            faults.absorb(i, &outcome);
            summaries.push(match outcome.summary {
                Some(summary) => {
                    let (edges, vertices) = P::message_size(&summary);
                    communication.record_message(&model, edges, vertices);
                    summary
                }
                // Empty placeholder: keeps the composition tree's shape and
                // its (level, node) RNG streams identical to a fault-free
                // run, while contributing nothing.
                None => P::empty(n),
            });
        }
        check(&faults)?;

        let fan_in = self.compose.fan_in(self.k);
        let solve = |leaves| tree_compose(problem, n, &params, seed, fan_in, leaves);
        // The degraded baseline is cheap to recover in-memory: lost machines
        // are deterministic replays, so rebuild them and compose everything.
        let baseline = faults.degraded.then(|| {
            let mut full = summaries.clone();
            for &i in &faults.lost_machines {
                full[i] = build(i);
            }
            P::answer_size(&solve(full))
        });
        let answer = solve(summaries);
        faults.achieved_vs_fault_free =
            Some(baseline.map_or(1.0, |b| size_ratio(P::answer_size(&answer), b)));
        Ok(FaultyRun {
            run: SimultaneousRun {
                answer,
                communication,
                piece_sizes: partition.piece_sizes(),
            },
            faults,
        })
    }
}

/// The loss policy shared by every runner: losing all `k` machines is
/// always [`ProtocolError::NoSurvivors`]; losing some is
/// [`ProtocolError::MachinesLost`] under [`DegradedComposition::Fail`].
fn check_losses(faults: &FaultReport, plan: &FaultPlan, k: usize) -> Result<(), ProtocolError> {
    if faults.lost_machines.len() == k {
        return Err(ProtocolError::NoSurvivors);
    }
    if faults.degraded && plan.on_loss == DegradedComposition::Fail {
        return Err(ProtocolError::MachinesLost {
            machines: faults.lost_machines.clone(),
        });
    }
    Ok(())
}

/// Out-of-core protocol runner: the partition lives in an on-disk
/// [`ArenaFile`], machine pieces are streamed one at a time through a
/// [`SegmentLoader`], and composition is hierarchical by default — so peak
/// memory is one segment plus the live coresets of `log k` levels, never the
/// full arena (experiment E16's in-binary bound).
///
/// The leaf coresets use the same `(seed, machine)` streams and the tree the
/// same `(seed, level, node)` streams as the in-memory
/// [`CoordinatorProtocol`] over the same partition, so for an arena written
/// from that partition the answers are **bit-identical** to the in-memory
/// run — the file format and the bounded-memory schedule are invisible in
/// the output (asserted by E16 and `tests/tree_compose.rs`).
///
/// Leaves are built sequentially (each needs the loader's single resident
/// segment); the composition-side solves inside each merge and the final
/// root solve still ride the work-stealing pool.
#[derive(Debug, Clone, Copy)]
pub struct ArenaProtocol {
    /// How the coordinator composes the received coresets.
    pub compose: ComposeMode,
}

impl ArenaProtocol {
    /// Hierarchical composition with the given fan-in (the mode E16 measures).
    pub fn tree(fan_in: usize) -> Self {
        ArenaProtocol {
            compose: ComposeMode::Tree { fan_in },
        }
    }

    /// Flat composition (all coresets resident at once; the arena is still
    /// streamed one segment at a time).
    pub fn flat() -> Self {
        ArenaProtocol {
            compose: ComposeMode::Flat,
        }
    }

    /// Runs the matching protocol from an on-disk arena: stream each
    /// machine's segment, build its coreset, drop the segment, compose.
    ///
    /// `k` and `n` come from the arena header; every coreset buffer alive at
    /// the coordinator (plus merge scratch) is charged to
    /// [`graph::metrics::resident_edges`], alongside the loader's segment
    /// accounting, and released on every exit path.
    pub fn run_matching<B: MatchingCoresetBuilder>(
        &self,
        arena: &ArenaFile,
        builder: &B,
        seed: u64,
    ) -> Result<SimultaneousRun<Matching>, ProtocolError> {
        self.run_matching_resumable(arena, builder, seed, &FaultRunOptions::default())
            .map(|r| r.run)
    }

    /// Runs the vertex-cover protocol from an on-disk arena (same schedule
    /// and accounting as [`ArenaProtocol::run_matching`]).
    pub fn run_vertex_cover<B: VcCoresetBuilder>(
        &self,
        arena: &ArenaFile,
        builder: &B,
        seed: u64,
    ) -> Result<SimultaneousRun<VertexCover>, ProtocolError> {
        self.run_vertex_cover_resumable(arena, builder, seed, &FaultRunOptions::default())
            .map(|r| r.run)
    }

    /// Runs the matching protocol from an arena under a fault plan, with
    /// optional checkpoint/resume.
    ///
    /// Fault semantics:
    ///
    /// * Arena-segment faults (transient I/O, checksum corruption) are
    ///   injected inside the [`SegmentLoader`] from
    ///   [`FaultPlan::segment_plan`] and retried up to the machine retry
    ///   budget; machine-level faults use the same retry-by-replay loop as
    ///   [`CoordinatorProtocol::run_matching_faulty`].
    /// * A machine whose segment stays unreadable after the budget — whether
    ///   the failure was injected or genuine — is **permanently lost** and
    ///   handled by the plan's [`DegradedComposition`] policy (an *unarmed*
    ///   plan instead surfaces [`ProtocolError::Segment`], matching
    ///   [`ArenaProtocol::run_matching`]).
    /// * With `opts.checkpoint` set, the folder's pending state is persisted
    ///   after every completed leaf and a rerun resumes after the last one;
    ///   the checkpoint is deleted once the run completes. A resumed run's
    ///   answer is bit-identical to an uninterrupted one (`tests/faults.rs`
    ///   kills at every leaf to pin this). A checkpoint that fails to load,
    ///   or whose frontier does not fit the run's [`TreePlan`], is ignored
    ///   and the run starts fresh.
    pub fn run_matching_resumable<B: MatchingCoresetBuilder>(
        &self,
        arena: &ArenaFile,
        builder: &B,
        seed: u64,
        opts: &FaultRunOptions,
    ) -> Result<FaultyRun<Matching>, ProtocolError> {
        self.run_problem(arena, &MatchingProblem(builder), seed, opts)
    }

    /// Runs the vertex-cover protocol from an arena under a fault plan, with
    /// optional checkpoint/resume (same semantics as
    /// [`ArenaProtocol::run_matching_resumable`]).
    pub fn run_vertex_cover_resumable<B: VcCoresetBuilder>(
        &self,
        arena: &ArenaFile,
        builder: &B,
        seed: u64,
        opts: &FaultRunOptions,
    ) -> Result<FaultyRun<VertexCover>, ProtocolError> {
        self.run_problem(arena, &CoverProblem(builder), seed, opts)
    }

    /// Runs `problem`'s protocol from an arena under `opts` (the semantics of
    /// [`ArenaProtocol::run_matching_resumable`]): fold every leaf, then
    /// solve the tree's roots.
    pub fn run_problem<P>(
        &self,
        arena: &ArenaFile,
        problem: &P,
        seed: u64,
        opts: &FaultRunOptions,
    ) -> Result<FaultyRun<P::Answer>, ProtocolError>
    where
        P: CoresetProblem,
        P::Summary: CheckpointItem,
    {
        let Leaves {
            roots,
            charge,
            communication,
            mut faults,
        } = self.fold_leaves(arena, problem, seed, opts)?;
        let root_edges: usize = roots.iter().map(|r| P::message_size(r).0).sum();
        let scratch = P::SOLVE_SCRATCH_PASSES * root_edges;
        charge.acquire(scratch);
        let answer = problem.compose_owned(&roots);
        charge.release(root_edges + scratch);
        faults.achieved_vs_fault_free = if faults.degraded {
            // The fault-free baseline needs every segment intact; a genuinely
            // corrupt arena has no computable baseline.
            self.run_problem(arena, problem, seed, &FaultRunOptions::default())
                .ok()
                .map(|clean| size_ratio(P::answer_size(&answer), P::answer_size(&clean.run.answer)))
        } else {
            Some(1.0)
        };
        // The run is complete: its checkpoint is stale.
        if let Some(path) = opts.checkpoint.as_deref() {
            let _ = std::fs::remove_file(path);
        }
        Ok(FaultyRun {
            run: SimultaneousRun {
                answer,
                communication,
                piece_sizes: arena.piece_sizes(),
            },
            faults,
        })
    }

    /// The leaf loop: stream each segment under `opts`' fault plan, build its
    /// summary, fold it into the composition tree, and checkpoint after
    /// every leaf. Returns the tree's roots, still charged to the
    /// resident-edge gauge through the returned guard; every early return
    /// drops the guard and releases them.
    fn fold_leaves<P>(
        &self,
        arena: &ArenaFile,
        problem: &P,
        seed: u64,
        opts: &FaultRunOptions,
    ) -> Result<Leaves<P::Summary>, ProtocolError>
    where
        P: CoresetProblem,
        P::Summary: CheckpointItem,
    {
        let (n, k) = (arena.n(), arena.k());
        let params = CoresetParams::new(n, k);
        let model = CostModel::for_n(n);
        let fan_in = self.compose.fan_in(k);
        let injector = FaultInjector::new(opts.plan.clone());
        let key = CheckpointKey {
            problem: <P::Summary as CheckpointItem>::PROBLEM,
            n: n as u64,
            k: k as u64,
            m: arena.m() as u64,
            seed,
            fan_in: fan_in as u64,
            fault_seed: opts.plan.fault_seed,
        };
        let edges = |s: &P::Summary| P::message_size(s).0;
        let charge = ResidentCharge::default();
        let charged_merge = |level: usize, node: usize, group: Vec<P::Summary>| {
            let union_edges: usize = group.iter().map(edges).sum();
            charge.acquire(union_edges);
            let merged = problem.merge(n, &params, seed, level, node, group);
            charge.release(union_edges);
            charge.acquire(edges(&merged));
            charge.release(union_edges);
            merged
        };

        let mut communication = CommunicationCost::default();
        let mut faults = FaultReport::new(opts.plan.fault_seed);
        // A frontier the plan cannot reach is as damaged as a failed CRC.
        let plan = TreePlan::new(k, fan_in);
        let resumed = opts
            .checkpoint
            .as_deref()
            .and_then(|p| load_checkpoint::<P::Summary>(p, &key))
            .filter(|ck| plan.fits(ck.pushed, &ck.pending));
        let (mut folder, start) = match resumed {
            Some(ck) => {
                communication = ck.communication;
                faults.injected = ck.injected;
                faults.retried = ck.retried;
                faults.recovered = ck.recovered;
                faults.ticks = ck.ticks;
                faults.degraded = !ck.lost_machines.is_empty();
                faults.lost_machines = ck.lost_machines;
                charge.acquire(ck.pending.iter().flatten().map(edges).sum());
                (
                    TreeFolder::resume(k, fan_in, charged_merge, ck.pushed, ck.pending),
                    ck.pushed,
                )
            }
            None => (TreeFolder::new(k, fan_in, charged_merge), 0),
        };

        let mut loader = SegmentLoader::new(arena)?;
        loader.set_fault_plan(Some(opts.plan.segment_plan()));
        loader.set_retry_policy(SegmentRetryPolicy {
            max_attempts: opts.retry.max_attempts.max(1),
        });
        let (mut seg_injected, mut seg_retried) = (0u64, 0u64);
        for i in start..k {
            let outcome: MachineOutcome<P::Summary> = match loader.load(i) {
                Ok(piece) => run_machine_with_faults(&injector, &opts.retry, i, || {
                    problem.build(piece, &params, i, &mut machine_rng(seed, i))
                }),
                Err(source) => {
                    if !opts.plan.is_armed() {
                        return Err(ProtocolError::Segment { machine: i, source });
                    }
                    MachineOutcome::lost()
                }
            };
            // Fold the loader's per-segment injection/retry deltas into the
            // run totals; segment retries are charged the flat base backoff
            // on the simulated tick clock.
            let d_inj = loader.injected_faults() - seg_injected;
            let d_ret = loader.retries() - seg_retried;
            seg_injected += d_inj;
            seg_retried += d_ret;
            faults.injected += d_inj;
            faults.retried += d_ret;
            faults.ticks = faults
                .ticks
                .saturating_add(opts.retry.backoff_ticks.saturating_mul(d_ret));
            if d_inj > 0 && outcome.summary.is_some() && outcome.injected == 0 {
                // Recovered at the segment layer only; absorb() below would
                // not see those injections.
                faults.recovered += 1;
            }
            faults.absorb(i, &outcome);
            match outcome.summary {
                Some(summary) => {
                    let (edges, vertices) = P::message_size(&summary);
                    communication.record_message(&model, edges, vertices);
                    charge.acquire(edges);
                    folder.push(summary);
                }
                // Empty placeholder: keeps the tree's shape and its
                // (level, node) RNG streams identical to a fault-free run.
                None => folder.push(P::empty(n)),
            }
            if let Some(path) = opts.checkpoint.as_deref() {
                let state =
                    CheckpointView::new(folder.pushed(), folder.pending(), &communication, &faults);
                save_checkpoint_view(path, &key, &state)?;
            }
            if opts.kill_after_leaves == Some(folder.pushed()) {
                return Err(ProtocolError::Interrupted {
                    pushed: folder.pushed(),
                });
            }
        }
        loader.release();
        check_losses(&faults, &opts.plan, k)?;
        let roots = folder.finish();
        Ok(Leaves {
            roots,
            charge,
            communication,
            faults,
        })
    }
}

/// What [`ArenaProtocol::fold_leaves`] hands to the final solve.
struct Leaves<T> {
    /// The `≤ fan_in` roots of the composition tree.
    roots: Vec<T>,
    /// Resident-edge charge of the roots, released on drop.
    charge: ResidentCharge,
    communication: CommunicationCost,
    faults: FaultReport,
}

/// `achieved / baseline`, or `1.0` against an empty baseline.
fn size_ratio(achieved: usize, baseline: usize) -> f64 {
    match baseline {
        0 => 1.0,
        b => achieved as f64 / b as f64,
    }
}

/// Options of a fault-injected, optionally resumable arena run.
#[derive(Debug, Clone, Default)]
pub struct FaultRunOptions {
    /// Which faults to inject (a defaulted plan injects nothing).
    pub plan: FaultPlan,
    /// Retry budget and backoff schedule shared by machine replays and
    /// segment re-reads.
    pub retry: RetryPolicy,
    /// Where to persist the resume checkpoint; `None` disables
    /// checkpointing.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Test knob: abort with [`ProtocolError::Interrupted`] once this many
    /// leaves completed (after the checkpoint for that leaf is saved), so
    /// crash-recovery tests can kill a run at every possible point.
    pub kill_after_leaves: Option<usize>,
}

/// The result of one simultaneous-protocol run.
#[derive(Debug, Clone)]
pub struct SimultaneousRun<T> {
    /// The coordinator's answer (a matching or a vertex cover).
    pub answer: T,
    /// Communication charged to the machines' messages.
    pub communication: CommunicationCost,
    /// Number of edges each machine received (the input partition sizes).
    pub piece_sizes: Vec<usize>,
}

/// A [`SimultaneousRun`] plus the fault accounting of how it got there.
#[derive(Debug, Clone)]
pub struct FaultyRun<T> {
    /// The protocol outcome (answer, communication, piece sizes).
    pub run: SimultaneousRun<T>,
    /// What was injected, retried, recovered, and lost along the way.
    pub faults: FaultReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use coresets::matching_coreset::MaximumMatchingCoreset;
    use coresets::vc_coreset::{PeelingVcCoreset, VcCoresetOutput};
    use graph::gen::er::gnp;
    use graph::metrics;
    use matching::maximum::maximum_matching;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn matching_protocol_communication_is_o_of_nk() {
        let mut r = rng(1);
        let n = 600;
        let g = gnp(n, 0.02, &mut r);
        let k = 6;
        let run = CoordinatorProtocol::random(k)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 42)
            .unwrap();
        assert!(run.answer.is_valid_for(&g));
        // Each message is a matching: at most n/2 edges = n words.
        assert!(run.communication.max_message_words() <= n as u64);
        assert!(run.communication.total_words() <= (n * k) as u64);
        assert_eq!(run.communication.message_count(), k);
        // Approximation guarantee of Theorem 1.
        let opt = maximum_matching(&g).len();
        assert!(9 * run.answer.len() >= opt);
    }

    #[test]
    fn vertex_cover_protocol_covers_and_accounts() {
        let mut r = rng(2);
        let n = 800;
        let g = gnp(n, 0.015, &mut r);
        let k = 5;
        let run = CoordinatorProtocol::random(k)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 7)
            .unwrap();
        assert!(run.answer.covers(&g));
        assert_eq!(run.communication.message_count(), k);
        assert!(run.communication.total_words() > 0);
        assert_eq!(run.piece_sizes.iter().sum::<usize>(), g.m());
    }

    #[test]
    fn runs_are_reproducible() {
        let mut r = rng(3);
        let g = gnp(300, 0.03, &mut r);
        let p = CoordinatorProtocol::random(4);
        let a = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 11)
            .unwrap();
        let b = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 11)
            .unwrap();
        assert_eq!(a.answer.len(), b.answer.len());
        assert_eq!(a.communication, b.communication);
    }

    #[test]
    fn adversarial_strategy_is_supported() {
        let mut r = rng(4);
        let g = gnp(200, 0.05, &mut r);
        let run = CoordinatorProtocol::adversarial(4)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 1)
            .unwrap();
        assert!(run.answer.is_valid_for(&g));
    }

    #[test]
    fn zero_machines_is_rejected() {
        let g = gnp(50, 0.1, &mut rng(5));
        assert!(CoordinatorProtocol::random(0)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 0)
            .is_err());
    }

    #[test]
    fn tree_mode_runs_are_valid_and_reproducible() {
        let g = gnp(500, 0.02, &mut rng(6));
        let p = CoordinatorProtocol::tree(9, 2);
        let a = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 13)
            .unwrap();
        let b = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 13)
            .unwrap();
        assert!(a.answer.is_valid_for(&g));
        assert_eq!(a.answer.edges(), b.answer.edges());
        // Communication is charged to the leaf messages only: same as flat.
        let flat = CoordinatorProtocol::random(9)
            .run_matching(&g, &MaximumMatchingCoreset::new(), 13)
            .unwrap();
        assert_eq!(a.communication, flat.communication);

        let cover = p
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), 13)
            .unwrap();
        assert!(cover.answer.covers(&g));
    }

    /// Serializes the arena tests: they all touch the process-global
    /// resident-edge counters, and the peak test needs them quiescent.
    static ARENA_METRICS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn arena_lock() -> std::sync::MutexGuard<'static, ()> {
        ARENA_METRICS_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Writes `g`'s partition (drawn exactly as `run_matching` draws it) to
    /// an arena file and returns the open arena plus its path.
    fn arena_of(
        g: &Graph,
        k: usize,
        seed: u64,
        tag: &str,
    ) -> (graph::ArenaFile, std::path::PathBuf) {
        let mut r = rng(seed);
        let partition =
            graph::PartitionedGraph::new(g, k, graph::partition::PartitionStrategy::Random, &mut r)
                .unwrap();
        let path =
            std::env::temp_dir().join(format!("rc_coord_arena_{}_{tag}.bin", std::process::id()));
        graph::write_arena_file(&path, &partition).unwrap();
        (ArenaFile::open(&path).unwrap(), path)
    }

    #[test]
    fn arena_flat_matching_is_bit_identical_to_in_memory_flat() {
        let _guard = arena_lock();
        let g = gnp(400, 0.025, &mut rng(7));
        let (k, seed) = (6, 21);
        let mem = CoordinatorProtocol::random(k)
            .run_matching(&g, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let (arena, path) = arena_of(&g, k, seed, "flat_match");
        let ooc = ArenaProtocol::flat()
            .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(mem.answer.edges(), ooc.answer.edges());
        assert_eq!(mem.communication, ooc.communication);
        assert_eq!(mem.piece_sizes, ooc.piece_sizes);
    }

    #[test]
    fn arena_tree_matching_is_bit_identical_to_in_memory_tree() {
        let _guard = arena_lock();
        let g = gnp(450, 0.02, &mut rng(8));
        let (k, fan_in, seed) = (9, 2, 33);
        let mem = CoordinatorProtocol::tree(k, fan_in)
            .run_matching(&g, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let (arena, path) = arena_of(&g, k, seed, "tree_match");
        let ooc = ArenaProtocol::tree(fan_in)
            .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(mem.answer.edges(), ooc.answer.edges());
        assert_eq!(mem.communication, ooc.communication);
    }

    #[test]
    fn arena_tree_vertex_cover_is_bit_identical_to_in_memory_tree() {
        let _guard = arena_lock();
        let g = gnp(500, 0.015, &mut rng(9));
        let (k, fan_in, seed) = (8, 3, 5);
        let mem = CoordinatorProtocol::tree(k, fan_in)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), seed)
            .unwrap();
        let (arena, path) = arena_of(&g, k, seed, "tree_vc");
        let ooc = ArenaProtocol::tree(fan_in)
            .run_vertex_cover(&arena, &PeelingVcCoreset::new(), seed)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert!(mem.answer.covers(&g));
        assert_eq!(mem.answer, ooc.answer);
        assert_eq!(mem.communication, ooc.communication);
    }

    #[test]
    fn arena_tree_peak_resident_stays_bounded() {
        let _guard = arena_lock();
        let g = gnp(600, 0.05, &mut rng(10));
        let (k, fan_in, seed) = (8, 2, 2);
        let (arena, path) = arena_of(&g, k, seed, "peak");
        metrics::reset_peak_resident_edges();
        let before = metrics::resident_edges();
        let run = ArenaProtocol::tree(fan_in)
            .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert!(!run.answer.is_empty());
        // Everything acquired during the run was released again.
        assert_eq!(metrics::resident_edges(), before);
        // Peak stayed below the full arena plus tree overhead — the bound E16
        // asserts at 10^7-edge scale (levels + 1 live coreset layers of at
        // most n/2 edges each, one segment, merge scratch).
        let levels = coresets::TreePlan::new(k, fan_in).levels();
        let m = arena.m();
        let bound = (2 * (m / k + fan_in * (g.n() / 2) * (levels + 1))) as u64;
        assert!(
            metrics::peak_resident_edges() <= bound,
            "peak {} above bound {bound}",
            metrics::peak_resident_edges()
        );
    }

    /// An unarmed plan injects nothing: the faulty runner reproduces the
    /// plain run for both problems, flat and tree.
    #[test]
    fn unarmed_faulty_run_matches_fault_free_run() {
        let g = gnp(300, 0.03, &mut rng(11));
        let (mb, vb) = (MaximumMatchingCoreset::new(), PeelingVcCoreset::new());
        let (plan, retry) = (FaultPlan::new(99), RetryPolicy::default());
        let assert_untouched = |faults: &FaultReport| {
            assert_eq!(faults.injected, 0);
            assert_eq!(faults.retried, 0);
            assert_eq!(faults.lost_machines, Vec::<usize>::new());
            assert!(!faults.degraded);
            assert_eq!(faults.achieved_vs_fault_free, Some(1.0));
        };
        for compose in [ComposeMode::Flat, ComposeMode::Tree { fan_in: 2 }] {
            let p = CoordinatorProtocol::random(5).with_compose(compose);
            let clean = p.run_matching(&g, &mb, 17).unwrap();
            let faulty = p.run_matching_faulty(&g, &mb, 17, &plan, &retry).unwrap();
            assert_eq!(
                clean.answer.edges(),
                faulty.run.answer.edges(),
                "{compose:?}"
            );
            assert_eq!(clean.communication, faulty.run.communication);
            assert_untouched(&faulty.faults);

            let clean = p.run_vertex_cover(&g, &vb, 17).unwrap();
            let faulty = p
                .run_vertex_cover_faulty(&g, &vb, 17, &plan, &retry)
                .unwrap();
            assert_eq!(clean.answer, faulty.run.answer, "{compose:?}");
            assert_eq!(clean.communication, faulty.run.communication);
            assert_untouched(&faulty.faults);
        }
    }

    #[test]
    fn recovered_faulty_run_is_bit_identical_to_fault_free_run() {
        let g = gnp(350, 0.025, &mut rng(12));
        let p = CoordinatorProtocol::random(6);
        let clean = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 23)
            .unwrap();
        let plan = FaultPlan::machine_failure(4242, 0.2);
        let faulty = p
            .run_matching_faulty(
                &g,
                &MaximumMatchingCoreset::new(),
                23,
                &plan,
                &RetryPolicy::attempts(12),
            )
            .unwrap();
        assert!(
            !faulty.faults.degraded,
            "retry budget should recover every machine at this seed"
        );
        assert!(faulty.faults.injected > 0, "this seed must inject faults");
        assert!(faulty.faults.retried > 0);
        // Retry replays the same machine_rng stream: recovery is invisible in
        // the output.
        assert_eq!(clean.answer.edges(), faulty.run.answer.edges());
        assert_eq!(clean.communication, faulty.run.communication);
        assert_eq!(faulty.faults.achieved_vs_fault_free, Some(1.0));
    }

    #[test]
    fn stragglers_only_cost_simulated_ticks() {
        let g = gnp(200, 0.04, &mut rng(13));
        let k = 4;
        let mut plan = FaultPlan::new(5);
        plan.straggler_prob = 1.0;
        plan.straggler_ticks = 7;
        let p = CoordinatorProtocol::random(k);
        let clean = p
            .run_matching(&g, &MaximumMatchingCoreset::new(), 3)
            .unwrap();
        let faulty = p
            .run_matching_faulty(
                &g,
                &MaximumMatchingCoreset::new(),
                3,
                &plan,
                &RetryPolicy::default(),
            )
            .unwrap();
        // Every machine straggles exactly once, still delivers, and the
        // answer is untouched — only the tick clock moves.
        assert_eq!(faulty.faults.injected, k as u64);
        assert_eq!(faulty.faults.recovered, k as u64);
        assert_eq!(faulty.faults.ticks, 7 * k as u64);
        assert!(!faulty.faults.degraded);
        assert_eq!(clean.answer.edges(), faulty.run.answer.edges());
    }

    #[test]
    fn forced_machine_loss_degrades_but_stays_valid() {
        let g = gnp(400, 0.02, &mut rng(14));
        let p = CoordinatorProtocol::random(6);
        let plan = FaultPlan::new(1).losing(vec![2]);
        let faulty = p
            .run_matching_faulty(
                &g,
                &MaximumMatchingCoreset::new(),
                9,
                &plan,
                &RetryPolicy::attempts(8),
            )
            .unwrap();
        assert!(faulty.faults.degraded);
        assert_eq!(faulty.faults.lost_machines, vec![2]);
        assert!(faulty.run.answer.is_valid_for(&g));
        let ratio = faulty.faults.achieved_vs_fault_free.unwrap();
        assert!(ratio > 0.0 && ratio <= 1.0 + 1e-9, "ratio {ratio}");
        // Communication only counts survivors' messages.
        assert_eq!(faulty.run.communication.message_count(), 5);
    }

    #[test]
    fn degraded_vertex_cover_covers_the_surviving_edges() {
        let g = gnp(400, 0.02, &mut rng(15));
        let (k, seed) = (5, 31);
        let plan = FaultPlan::new(2).losing(vec![0]);
        let faulty = CoordinatorProtocol::random(k)
            .run_vertex_cover_faulty(
                &g,
                &PeelingVcCoreset::new(),
                seed,
                &plan,
                &RetryPolicy::default(),
            )
            .unwrap();
        assert!(faulty.faults.degraded);
        // The degraded cover must still cover every edge a surviving machine
        // held (the lost machine's edges are unknowable to the coordinator).
        let mut r = rng(seed);
        let partition = graph::PartitionedGraph::new(
            &g,
            k,
            graph::partition::PartitionStrategy::Random,
            &mut r,
        )
        .unwrap();
        for (i, piece) in partition.views().iter().enumerate() {
            if faulty.faults.lost_machines.contains(&i) {
                continue;
            }
            for e in piece.edges() {
                assert!(
                    faulty.run.answer.contains(e.u) || faulty.run.answer.contains(e.v),
                    "surviving edge ({}, {}) uncovered",
                    e.u,
                    e.v
                );
            }
        }
    }

    #[test]
    fn loss_policy_fail_and_total_loss_are_typed_errors() {
        let g = gnp(120, 0.05, &mut rng(16));
        let p = CoordinatorProtocol::random(3);
        let mut plan = FaultPlan::new(3).losing(vec![1]);
        plan.on_loss = DegradedComposition::Fail;
        let err = p
            .run_matching_faulty(
                &g,
                &MaximumMatchingCoreset::new(),
                1,
                &plan,
                &RetryPolicy::default(),
            )
            .unwrap_err();
        assert_eq!(err, ProtocolError::MachinesLost { machines: vec![1] });

        let all = FaultPlan::new(3).losing(vec![0, 1, 2]);
        let err = p
            .run_vertex_cover_faulty(
                &g,
                &PeelingVcCoreset::new(),
                1,
                &all,
                &RetryPolicy::default(),
            )
            .unwrap_err();
        assert_eq!(err, ProtocolError::NoSurvivors);
    }

    #[test]
    fn resumable_run_without_faults_matches_plain_arena_run() {
        let _guard = arena_lock();
        let g = gnp(380, 0.02, &mut rng(17));
        let (k, fan_in, seed) = (6, 2, 41);
        let (arena, path) = arena_of(&g, k, seed, "resume_clean");
        let plain = ArenaProtocol::tree(fan_in)
            .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let faulty = ArenaProtocol::tree(fan_in)
            .run_matching_resumable(
                &arena,
                &MaximumMatchingCoreset::new(),
                seed,
                &FaultRunOptions::default(),
            )
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(plain.answer.edges(), faulty.run.answer.edges());
        assert_eq!(plain.communication, faulty.run.communication);
        assert_eq!(faulty.faults.injected, 0);
        assert_eq!(faulty.faults.achieved_vs_fault_free, Some(1.0));
    }

    #[test]
    fn segment_faults_are_retried_transparently() {
        let _guard = arena_lock();
        let g = gnp(300, 0.025, &mut rng(18));
        let (k, fan_in, seed) = (5, 2, 47);
        let (arena, path) = arena_of(&g, k, seed, "seg_retry");
        let plain = ArenaProtocol::tree(fan_in)
            .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let mut plan = FaultPlan::new(77);
        plan.segment_io_prob = 0.5;
        let opts = FaultRunOptions {
            plan,
            retry: RetryPolicy {
                max_attempts: 16,
                backoff_ticks: 3,
            },
            ..FaultRunOptions::default()
        };
        let faulty = ArenaProtocol::tree(fan_in)
            .run_matching_resumable(&arena, &MaximumMatchingCoreset::new(), seed, &opts)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert!(faulty.faults.injected > 0, "this seed must inject faults");
        assert_eq!(faulty.faults.retried, faulty.faults.injected);
        assert_eq!(faulty.faults.ticks, 3 * faulty.faults.retried);
        assert!(!faulty.faults.degraded);
        assert_eq!(plain.answer.edges(), faulty.run.answer.edges());
        assert_eq!(plain.communication, faulty.run.communication);
    }

    #[test]
    fn killed_run_resumes_to_the_identical_answer() {
        let _guard = arena_lock();
        let g = gnp(350, 0.02, &mut rng(19));
        let (k, fan_in, seed) = (6, 2, 53);
        let (arena, path) = arena_of(&g, k, seed, "kill_resume");
        let ckpt =
            std::env::temp_dir().join(format!("rc_coord_ckpt_{}_kill.bin", std::process::id()));
        let _ = std::fs::remove_file(&ckpt);
        let uninterrupted = ArenaProtocol::tree(fan_in)
            .run_vertex_cover(&arena, &PeelingVcCoreset::new(), seed)
            .unwrap();
        let mut opts = FaultRunOptions {
            checkpoint: Some(ckpt.clone()),
            kill_after_leaves: Some(3),
            ..FaultRunOptions::default()
        };
        let err = ArenaProtocol::tree(fan_in)
            .run_vertex_cover_resumable(&arena, &PeelingVcCoreset::new(), seed, &opts)
            .unwrap_err();
        assert_eq!(err, ProtocolError::Interrupted { pushed: 3 });
        assert!(ckpt.exists(), "kill must leave a checkpoint behind");
        opts.kill_after_leaves = None;
        let resumed = ArenaProtocol::tree(fan_in)
            .run_vertex_cover_resumable(&arena, &PeelingVcCoreset::new(), seed, &opts)
            .unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(uninterrupted.answer, resumed.run.answer);
        assert_eq!(uninterrupted.communication, resumed.run.communication);
        assert!(
            !ckpt.exists(),
            "completed run must remove its checkpoint file"
        );
    }

    /// Every exit of an arena run — killed, resumed, a corrupt segment with
    /// and without an armed plan, total loss, loss under `Fail` — leaves the
    /// resident-edge gauge where it found it, for both problems.
    #[test]
    fn resident_gauge_balances_on_every_exit_path() {
        let _guard = arena_lock();
        let g = gnp(300, 0.03, &mut rng(23));
        let (k, fan_in, seed) = (6, 2, 59);
        let (arena, path) = arena_of(&g, k, seed, "gauge_balance");
        let ckpt =
            std::env::temp_dir().join(format!("rc_coord_ckpt_{}_gauge.bin", std::process::id()));
        let _ = std::fs::remove_file(&ckpt);
        let proto = ArenaProtocol::tree(fan_in);
        let (mb, vb) = (MaximumMatchingCoreset::new(), PeelingVcCoreset::new());
        let start = metrics::resident_edges();
        let run_both = |arena: &ArenaFile, opts: &FaultRunOptions| {
            let m = proto
                .run_matching_resumable(arena, &mb, seed, opts)
                .map(|_| ());
            assert_eq!(metrics::resident_edges(), start, "matching: {m:?}");
            let c = proto
                .run_vertex_cover_resumable(arena, &vb, seed, opts)
                .map(|_| ());
            assert_eq!(metrics::resident_edges(), start, "cover: {c:?}");
            (m, c)
        };

        let mut opts = FaultRunOptions {
            checkpoint: Some(ckpt.clone()),
            kill_after_leaves: Some(k / 2),
            ..FaultRunOptions::default()
        };
        let killed = ProtocolError::Interrupted { pushed: k / 2 };
        assert_eq!(run_both(&arena, &opts), (Err(killed.clone()), Err(killed)));
        opts.kill_after_leaves = None;
        assert_eq!(run_both(&arena, &opts), (Ok(()), Ok(())));

        let all = FaultRunOptions {
            plan: FaultPlan::new(5).losing((0..k).collect()),
            ..FaultRunOptions::default()
        };
        let none_left = Err(ProtocolError::NoSurvivors);
        assert_eq!(run_both(&arena, &all), (none_left.clone(), none_left));
        let mut fail = FaultRunOptions {
            plan: FaultPlan::new(5).losing(vec![2]),
            ..FaultRunOptions::default()
        };
        fail.plan.on_loss = DegradedComposition::Fail;
        let lost = Err(ProtocolError::MachinesLost { machines: vec![2] });
        assert_eq!(run_both(&arena, &fail), (lost.clone(), lost));

        // Corrupt the last segment's final record: every earlier leaf is
        // folded (and charged) before the load fails.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let corrupt = ArenaFile::open(&path).unwrap();
        let (m, c) = run_both(&corrupt, &FaultRunOptions::default());
        assert!(matches!(m, Err(ProtocolError::Segment { machine, .. }) if machine == k - 1));
        assert!(matches!(c, Err(ProtocolError::Segment { machine, .. }) if machine == k - 1));
        let mut armed = FaultRunOptions::default();
        armed.plan.segment_io_prob = 1e-9;
        assert_eq!(run_both(&corrupt, &armed), (Ok(()), Ok(())));
        std::fs::remove_file(path).unwrap();
    }

    /// A checkpoint with a valid CRC and a matching key, but a frontier the
    /// plan cannot reach, is a fresh start rather than a panic: `pushed`
    /// beyond `k`, or more pending levels than the plan has. Both problems.
    #[test]
    fn misshapen_checkpoint_starts_fresh() {
        let _guard = arena_lock();
        let g = gnp(320, 0.025, &mut rng(29));
        let (k, fan_in, seed) = (6, 2, 61);
        let (arena, path) = arena_of(&g, k, seed, "misshapen");
        let ckpt = std::env::temp_dir().join(format!(
            "rc_coord_ckpt_{}_misshapen.bin",
            std::process::id()
        ));
        let key = |problem: u8| CheckpointKey {
            problem,
            n: g.n() as u64,
            k: k as u64,
            m: arena.m() as u64,
            seed,
            fan_in: fan_in as u64,
            fault_seed: 0,
        };
        fn misshapen<T>(pushed: usize, levels: usize) -> crate::ArenaCheckpoint<T> {
            crate::ArenaCheckpoint {
                pushed,
                pending: (0..levels).map(|_| Vec::new()).collect(),
                communication: CommunicationCost::default(),
                injected: 0,
                retried: 0,
                recovered: 0,
                ticks: 0,
                lost_machines: Vec::new(),
            }
        }
        // k = 6 at fan-in 2 plans three levels (6 -> 3 -> 2).
        let shapes = [(99, 3), (2, 4)];
        let proto = ArenaProtocol::tree(fan_in);
        let opts = FaultRunOptions {
            checkpoint: Some(ckpt.clone()),
            ..FaultRunOptions::default()
        };
        let (mb, vb) = (MaximumMatchingCoreset::new(), PeelingVcCoreset::new());
        let clean_m = proto.run_matching(&arena, &mb, seed).unwrap();
        let clean_c = proto.run_vertex_cover(&arena, &vb, seed).unwrap();
        for (pushed, levels) in shapes {
            let bad = misshapen::<Graph>(pushed, levels);
            crate::checkpoint::save_checkpoint(&ckpt, &key(Graph::PROBLEM), &bad).unwrap();
            let m = proto
                .run_matching_resumable(&arena, &mb, seed, &opts)
                .unwrap();
            assert_eq!(m.run.answer.edges(), clean_m.answer.edges());
            assert_eq!(m.run.communication, clean_m.communication);

            let bad = misshapen::<VcCoresetOutput>(pushed, levels);
            let vc_key = key(VcCoresetOutput::PROBLEM);
            crate::checkpoint::save_checkpoint(&ckpt, &vc_key, &bad).unwrap();
            let c = proto
                .run_vertex_cover_resumable(&arena, &vb, seed, &opts)
                .unwrap();
            assert_eq!(c.run.answer, clean_c.answer);
            assert_eq!(c.run.communication, clean_c.communication);
        }
        assert!(!ckpt.exists(), "completed runs remove their checkpoint");
        std::fs::remove_file(path).unwrap();
    }
}
