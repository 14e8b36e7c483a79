//! Traced replays: each protocol rebuilt from the layers' public functions,
//! in the same order and with the same RNG streams as the program's own
//! runners, with a span around every call into a layer and work counts taken
//! at the same boundaries.
//!
//! A replay's answer and communication are compared with the untraced call's
//! before any of its spans are used (see the workloads), so the per-layer
//! numbers describe the computation the end-to-end numbers measure.

use crate::problem::{CoverProblem, MatchingProblem, Problem};
use crate::trace::{Clock, Trace};
use coresets::streams::{machine_jobs, machine_rng};
use coresets::vc_coreset::VcCoresetOutput;
use coresets::{CoresetCache, CoresetCacheKey, CoresetParams, TreeFolder};
use distsim::checkpoint::{load_checkpoint, save_checkpoint};
use distsim::faults::{run_machine_with_faults, MachineOutcome};
use distsim::{
    ArenaCheckpoint, CheckpointItem, CheckpointKey, CommunicationCost, CostModel,
    DegradedComposition, FaultInjector, FaultReport, FaultRunOptions, GraphServiceConfig,
    ProtocolError,
};
use dynamic::DynamicCover;
use graph::arena_file::{ArenaFile, SegmentLoader, SegmentRetryPolicy};
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{ChurnOp, ChurnPartition, Graph, GraphError, GraphView};
use matching::Matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use vertexcover::VertexCover;

/// Work counts of one traced op, keyed by per-layer metric name.
#[derive(Debug, Clone, Default)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    /// Adds `v` to the count `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Raises the count `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert(v);
        *e = e.max(v);
    }

    /// The count `name`, 0 if never recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Builds every job's coreset on the pool; one `coresets.build.machine` span
/// per job under one `coresets.build` span.
fn build_parallel<P: Problem>(
    t: &mut Trace,
    parent: usize,
    c: &mut Counts,
    p: &P,
    jobs: Vec<(usize, &GraphView<'_>, ChaCha8Rng)>,
    params: &CoresetParams,
) -> Vec<P::Summary> {
    let clock = t.clock();
    c.add(
        "coresets.build.edges_in",
        jobs.iter().map(|(_, v, _)| v.edges().len()).sum::<usize>() as f64,
    );
    let build = t.open("coresets.build", Some(parent));
    let timed: Vec<(P::Summary, u64, u64)> = jobs
        .into_par_iter()
        .map(|(i, piece, mut rng)| clock.time(|| p.build(*piece, params, i, &mut rng)))
        .collect();
    t.close(build);
    timed
        .into_iter()
        .map(|(s, start, end)| {
            t.record("coresets.build.machine", Some(build), start, end);
            c.add("coresets.build.edges_out", P::message(&s).0 as f64);
            s
        })
        .collect()
}

/// Charges one message per summary, as the runners do, in machine order.
fn record_messages<P: Problem>(
    t: &mut Trace,
    parent: usize,
    c: &mut Counts,
    n: usize,
    summaries: &[&P::Summary],
) -> CommunicationCost {
    let model = CostModel::for_n(n);
    let mut comm = CommunicationCost::default();
    t.span("distsim.comm", parent, || {
        for s in summaries {
            let (edges, vertices) = P::message(s);
            comm.record_message(&model, edges, vertices);
        }
    });
    count_comm(c, &comm);
    comm
}

fn count_comm(c: &mut Counts, comm: &CommunicationCost) {
    c.add("distsim.comm.words", comm.total_words() as f64);
    c.max(
        "distsim.comm.max_message_words",
        comm.max_message_words() as f64,
    );
}

/// Runs the final solve under its span and counts the union it reads.
fn compose<P: Problem>(
    t: &mut Trace,
    parent: usize,
    c: &mut Counts,
    roots: &[&P::Summary],
) -> P::Answer {
    c.add(
        "coresets.compose.union_edges",
        roots.iter().map(|s| P::message(s).0).sum::<usize>() as f64,
    );
    t.span(P::COMPOSE_SPAN, parent, || P::compose(roots))
}

/// `CoordinatorProtocol::random(k)` with flat composition
/// (`run_matching` / `run_vertex_cover`).
pub fn flat<P: Problem>(
    t: &mut Trace,
    parent: usize,
    c: &mut Counts,
    p: &P,
    g: &Graph,
    k: usize,
    seed: u64,
) -> Result<(P::Answer, CommunicationCost), GraphError> {
    let span = t.open("graph.partition", Some(parent));
    let partition = PartitionedGraph::new(
        g,
        k,
        PartitionStrategy::Random,
        &mut ChaCha8Rng::seed_from_u64(seed),
    );
    t.close(span);
    let partition = partition?;
    c.add("graph.partition.edges", partition.m() as f64);
    Ok(round(t, parent, c, p, &partition, seed))
}

/// One flat round over an existing partition: build every machine on the
/// pool, charge the messages, solve the union.
pub fn round<P: Problem>(
    t: &mut Trace,
    parent: usize,
    c: &mut Counts,
    p: &P,
    partition: &PartitionedGraph,
    seed: u64,
) -> (P::Answer, CommunicationCost) {
    let params = CoresetParams::new(partition.n(), partition.k());
    let views = partition.views();
    let summaries = build_parallel(t, parent, c, p, machine_jobs(&views, seed), &params);
    let refs: Vec<&P::Summary> = summaries.iter().collect();
    let comm = record_messages::<P>(t, parent, c, partition.n(), &refs);
    (compose::<P>(t, parent, c, &refs), comm)
}

/// The tree-merge closure's timings, drained into spans after each push.
type MergeLog = RefCell<Vec<(u64, u64, usize)>>;

fn drain_merges(t: &mut Trace, parent: usize, c: &mut Counts, log: &MergeLog) {
    for (start, end, union) in log.borrow_mut().drain(..) {
        t.record("coresets.tree", Some(parent), start, end);
        c.add("coresets.tree.merges", 1.0);
        c.add("coresets.tree.union_edges", union as f64);
    }
}

/// A merge closure for [`TreeFolder`] that logs each merge's interval.
fn logged_merge<'a, P: Problem>(
    clock: Clock,
    log: &'a MergeLog,
    p: &'a P,
    n: usize,
    params: &'a CoresetParams,
    seed: u64,
) -> impl Fn(usize, usize, Vec<P::Summary>) -> P::Summary + 'a {
    move |level, node, group| {
        let union = group.iter().map(|s| P::message(s).0).sum();
        let (out, start, end) = clock.time(|| p.merge(n, params, seed, level, node, group));
        log.borrow_mut().push((start, end, union));
        out
    }
}

/// Builds one leaf under a `coresets.build` span with one machine span per
/// build attempt (a retried machine rebuilds).
fn build_leaf<P: Problem, R>(
    t: &mut Trace,
    parent: usize,
    c: &mut Counts,
    piece_edges: usize,
    run: impl FnOnce(&mut dyn FnMut(&dyn Fn() -> P::Summary) -> P::Summary) -> R,
) -> R {
    let clock = t.clock();
    let mut attempts: Vec<(u64, u64, usize)> = Vec::new();
    let build = t.open("coresets.build", Some(parent));
    let out = run(&mut |f: &dyn Fn() -> P::Summary| {
        let (s, start, end) = clock.time(f);
        attempts.push((start, end, P::message(&s).0));
        s
    });
    t.close(build);
    for &(start, end, edges_out) in &attempts {
        t.record("coresets.build.machine", Some(build), start, end);
        c.add("coresets.build.edges_in", piece_edges as f64);
        c.add("coresets.build.edges_out", edges_out as f64);
    }
    out
}

/// Counts one decoded segment of `edges` 8-byte edge records; returns
/// `edges`.
fn count_load(c: &mut Counts, edges: usize) -> usize {
    c.add("graph.arena_file.bytes", (8 * edges) as f64);
    edges
}

/// `ArenaProtocol::tree(fan_in).run_*_resumable`: stream each segment,
/// build its leaf, fold the tree, solve the roots — under `opts`' fault
/// plan, persisting a checkpoint after every leaf and resuming from one if
/// present. With default options (no faults, no checkpoint) it computes what
/// `run_matching` / `run_vertex_cover` compute.
#[allow(clippy::too_many_arguments)]
pub fn arena<P: Problem>(
    t: &mut Trace,
    parent: usize,
    c: &mut Counts,
    p: &P,
    arena: &ArenaFile,
    fan_in: usize,
    seed: u64,
    opts: &FaultRunOptions,
) -> Result<(P::Answer, CommunicationCost, FaultReport), ProtocolError> {
    let (n, k) = (arena.n(), arena.k());
    let params = CoresetParams::new(n, k);
    let model = CostModel::for_n(n);
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
    let log = MergeLog::default();
    let merge = logged_merge(t.clock(), &log, p, n, &params, seed);

    let mut comm = CommunicationCost::default();
    let mut report = FaultReport::new(opts.plan.fault_seed);
    let span = t.open("distsim.checkpoint.load", Some(parent));
    let resumed = opts
        .checkpoint
        .as_deref()
        .and_then(|path| load_checkpoint::<P::Summary>(path, &key));
    t.close(span);
    let (mut folder, start) = match resumed {
        Some(ck) => {
            comm = ck.communication;
            report.injected = ck.injected;
            report.retried = ck.retried;
            report.recovered = ck.recovered;
            report.ticks = ck.ticks;
            report.degraded = !ck.lost_machines.is_empty();
            report.lost_machines = ck.lost_machines;
            let pushed = ck.pushed;
            (
                TreeFolder::resume(k, fan_in, merge, pushed, ck.pending),
                pushed,
            )
        }
        None => (TreeFolder::new(k, fan_in, merge), 0),
    };

    let span = t.open("graph.arena_file", Some(parent));
    let loader = SegmentLoader::new(arena);
    t.close(span);
    let mut loader = loader?;
    loader.set_fault_plan(Some(opts.plan.segment_plan()));
    loader.set_retry_policy(SegmentRetryPolicy {
        max_attempts: opts.retry.max_attempts.max(1),
    });
    let (mut seg_injected, mut seg_retried) = (0u64, 0u64);
    for i in start..k {
        let span = t.open("graph.arena_file", Some(parent));
        let loaded = loader.load(i);
        t.close(span);
        let outcome: MachineOutcome<P::Summary> = match loaded {
            Ok(piece) => {
                let edges = count_load(c, piece.edges().len());
                build_leaf::<P, _>(t, parent, c, edges, |timed| {
                    run_machine_with_faults(&injector, &opts.retry, i, || {
                        timed(&|| p.build(piece, &params, i, &mut machine_rng(seed, i)))
                    })
                })
            }
            Err(source) => {
                if !opts.plan.is_armed() {
                    return Err(ProtocolError::Segment { machine: i, source });
                }
                MachineOutcome {
                    summary: None,
                    injected: 0,
                    retried: 0,
                    ticks: 0,
                }
            }
        };
        let d_inj = loader.injected_faults() - seg_injected;
        let d_ret = loader.retries() - seg_retried;
        seg_injected += d_inj;
        seg_retried += d_ret;
        report.injected += d_inj;
        report.retried += d_ret;
        report.ticks = report
            .ticks
            .saturating_add(opts.retry.backoff_ticks.saturating_mul(d_ret));
        if d_inj > 0 && outcome.summary.is_some() && outcome.injected == 0 {
            report.recovered += 1;
        }
        report.absorb(i, &outcome);
        match outcome.summary {
            Some(summary) => {
                let (edges, vertices) = P::message(&summary);
                t.span("distsim.comm", parent, || {
                    comm.record_message(&model, edges, vertices)
                });
                folder.push(summary);
            }
            None => folder.push(P::empty(n)),
        }
        drain_merges(t, parent, c, &log);
        if let Some(path) = opts.checkpoint.as_deref() {
            let span = t.open("distsim.checkpoint.save", Some(parent));
            let saved = save_checkpoint(
                path,
                &key,
                &ArenaCheckpoint {
                    pushed: folder.pushed(),
                    pending: folder.pending().to_vec(),
                    communication: comm.clone(),
                    injected: report.injected,
                    retried: report.retried,
                    recovered: report.recovered,
                    ticks: report.ticks,
                    lost_machines: report.lost_machines.clone(),
                },
            );
            t.close(span);
            saved?;
        }
        if opts.kill_after_leaves == Some(folder.pushed()) {
            return Err(ProtocolError::Interrupted {
                pushed: folder.pushed(),
            });
        }
    }
    loader.release();
    if report.lost_machines.len() == k {
        return Err(ProtocolError::NoSurvivors);
    }
    if report.degraded && opts.plan.on_loss == DegradedComposition::Fail {
        return Err(ProtocolError::MachinesLost {
            machines: report.lost_machines.clone(),
        });
    }
    let roots = folder.finish();
    drain_merges(t, parent, c, &log);
    let refs: Vec<&P::Summary> = roots.iter().collect();
    let answer = compose::<P>(t, parent, c, &refs);
    count_comm(c, &comm);
    // A degraded run has no fault-free baseline here; the workload counts
    // any lost machine as a failed op.
    report.achieved_vs_fault_free = (!report.degraded).then_some(1.0);
    if let Some(path) = opts.checkpoint.as_deref() {
        let _ = std::fs::remove_file(path);
    }
    Ok((answer, comm, report))
}

/// What one replayed `GraphService::apply_batch` produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnStep {
    /// Composed matching after the batch.
    pub matching: Matching,
    /// Composed cover after the batch.
    pub cover: VertexCover,
    /// Machines whose coresets were rebuilt.
    pub rebuilt: usize,
    /// Whether the overlay compacted.
    pub compacted: bool,
    /// The incremental matcher's matching size.
    pub approx_matching: usize,
    /// The incremental cover's size.
    pub approx_cover: usize,
}

/// `GraphService` rebuilt from its parts: the churn overlay, the incremental
/// cover, two coreset caches and the composed solves.
pub struct ChurnReplay {
    cfg: GraphServiceConfig,
    params: CoresetParams,
    partition: ChurnPartition,
    incremental: DynamicCover,
    matching_cache: CoresetCache<Graph>,
    vc_cache: CoresetCache<VcCoresetOutput>,
}

impl ChurnReplay {
    /// `GraphService::new`: partition, incremental structures, first round.
    pub fn new(g: &Graph, cfg: GraphServiceConfig) -> Result<Self, ProtocolError> {
        let mut replay = ChurnReplay {
            cfg,
            params: CoresetParams::new(g.n(), cfg.k),
            partition: ChurnPartition::new(g, cfg.k, cfg.seed)?,
            incremental: DynamicCover::from_graph(g, cfg.eps)?,
            matching_cache: CoresetCache::new(cfg.k),
            vc_cache: CoresetCache::new(cfg.k),
        };
        let mut scratch = Trace::new();
        let root = scratch.begin_op();
        replay.refresh(&mut scratch, root, &mut Counts::default());
        Ok(replay)
    }

    /// `GraphService::apply_batch`.
    pub fn apply_batch(
        &mut self,
        t: &mut Trace,
        parent: usize,
        c: &mut Counts,
        ops: &[ChurnOp],
    ) -> Result<ChurnStep, String> {
        for &op in ops {
            let span = t.open("graph.churn", Some(parent));
            let changed = self.partition.apply(op);
            t.close(span);
            let span = t.open("dynamic", Some(parent));
            let also = self.incremental.apply(op);
            t.close(span);
            if changed.map_err(|e| e.to_string())? != also.map_err(|e| e.to_string())? {
                return Err(format!("overlay and matcher disagree on {op:?}"));
            }
        }
        let span = t.open("graph.churn", Some(parent));
        let compacted = self.partition.maybe_compact();
        t.close(span);
        c.add("graph.churn.compactions", f64::from(u8::from(compacted)));
        let mut step = self.refresh(t, parent, c);
        step.compacted = compacted;
        Ok(step)
    }

    fn refresh(&mut self, t: &mut Trace, parent: usize, c: &mut Counts) -> ChurnStep {
        let (k, seed) = (self.cfg.k, self.cfg.seed);
        let span = t.open("graph.churn", Some(parent));
        let fingerprints: Vec<u64> = (0..k)
            .map(|i| self.partition.piece_fingerprint(i))
            .collect();
        t.close(span);
        let span = t.open("coresets.cache", Some(parent));
        let mut missing: Vec<(usize, CoresetCacheKey)> = Vec::new();
        for (i, &fp) in fingerprints.iter().enumerate() {
            let key = CoresetCacheKey {
                seed,
                machine: i,
                piece_fingerprint: fp,
            };
            let hit = self.matching_cache.lookup(&key).is_some();
            self.vc_cache.lookup(&key);
            if !hit {
                missing.push((i, key));
            }
        }
        t.close(span);
        c.add("graph.churn.dirty_machines", missing.len() as f64);
        c.add("coresets.cache.lookups", k as f64);
        c.add("coresets.cache.hits", (k - missing.len()) as f64);

        // Both builders per dirty machine in one fan-out, as the service does.
        let clock = t.clock();
        let (partition, params) = (&self.partition, &self.params);
        let (mp, cp) = (MatchingProblem::default(), CoverProblem::default());
        let build = t.open("coresets.build", Some(parent));
        let built: Vec<(Graph, VcCoresetOutput, u64, u64)> = missing
            .par_iter()
            .map(|&(i, _)| {
                let piece = partition.piece(i);
                let ((mc, vc), start, end) = clock.time(|| {
                    let mc = mp.build(piece, params, i, &mut machine_rng(seed, i));
                    let vc = cp.build(piece, params, i, &mut machine_rng(seed, i));
                    (mc, vc)
                });
                (mc, vc, start, end)
            })
            .collect();
        t.close(build);
        let model = CostModel::for_n(self.params.n);
        let mut comm = CommunicationCost::default();
        for ((i, _), (mc, vc, start, end)) in missing.iter().zip(&built) {
            t.record("coresets.build.machine", Some(build), *start, *end);
            let piece_edges = self.partition.piece(*i).edges().len() as f64;
            c.add("coresets.build.edges_in", 2.0 * piece_edges);
            c.add(
                "coresets.build.edges_out",
                (mc.m() + vc.residual.m()) as f64,
            );
            comm.record_message(&model, mc.m(), 0);
            comm.record_message(&model, vc.residual.m(), vc.fixed_vertices.len());
        }
        count_comm(c, &comm);
        let rebuilt = built.len();
        let span = t.open("coresets.cache", Some(parent));
        for ((_, key), (mc, vc, _, _)) in missing.into_iter().zip(built) {
            self.matching_cache.insert(key, mc);
            self.vc_cache.insert(key, vc);
        }
        t.close(span);

        let matching_refs: Vec<&Graph> = (0..k)
            .map(|i| {
                self.matching_cache
                    .slot(i)
                    .expect("every machine is cached")
            })
            .collect();
        let matching = compose::<MatchingProblem>(t, parent, c, &matching_refs);
        let vc_refs: Vec<&VcCoresetOutput> = (0..k)
            .map(|i| self.vc_cache.slot(i).expect("every machine is cached"))
            .collect();
        let cover = compose::<CoverProblem>(t, parent, c, &vc_refs);
        ChurnStep {
            matching,
            cover,
            rebuilt,
            compacted: false,
            approx_matching: self.incremental.matcher().matching_size(),
            approx_cover: self.incremental.cover_size(),
        }
    }
}
