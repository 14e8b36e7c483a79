//! The four workloads: their inputs, measured loops, answer checks and
//! metrics.
//!
//! Every input is generated from the run's seed; the program under test
//! only ever sees the generated graph, arena file and churn stream.

use crate::check::{self, check_cover, check_matching, cover_hash, EdgeIndex, Fingerprint};
use crate::problem::{CoverProblem, MatchingProblem, Problem};
use crate::replay::{self, ChurnReplay, Counts};
use crate::stats::median;
use crate::trace::Trace;
use crate::{
    latency_metrics, ms_since, peak_rss_mb, timed_setups, Ctx, Deadline, Gauge, Outcome, Size,
    TracedOps,
};
use distsim::{
    ArenaProtocol, CommunicationCost, CoordinatorProtocol, FaultPlan, FaultReport, FaultRunOptions,
    FaultyRun, GraphService, GraphServiceConfig, ProtocolError, RetryPolicy,
};
use graph::arena_file::{write_arena_file, ArenaFile};
use graph::gen::er::gnp;
use graph::gen::rmat::rmat_graph500;
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{ChurnOp, Edge, Graph};
use matching::Matching;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vertexcover::VertexCover;

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Ops every static-workload run makes, however short `--seconds` is.
const MIN_OPS: usize = 2;
/// Build attempts per machine and reads per segment under the fault plan:
/// enough that every machine recovers at fault rate 1/k.
const FAULT_ATTEMPTS: u32 = 16;

/// Input sizes of every workload at one [`Size`].
struct Params {
    flat_n: usize,
    flat_p: f64,
    flat_k: usize,
    rmat_scale: u32,
    rmat_edge_factor: usize,
    arena_k: usize,
    fan_in: usize,
    churn_n: usize,
    churn_p: f64,
    churn_k: usize,
    /// Batches in each half of the churn cycle.
    churn_half: usize,
    churn_small: usize,
    churn_burst: usize,
    /// Every this many batches, one is a burst.
    churn_burst_every: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            flat_n: 100_000,
            flat_p: 2e-4,
            flat_k: 16,
            rmat_scale: 16,
            rmat_edge_factor: 16,
            arena_k: 32,
            fan_in: 2,
            churn_n: 4000,
            churn_p: 0.1,
            churn_k: 64,
            churn_half: 48,
            churn_small: 4,
            churn_burst: 64,
            churn_burst_every: 16,
        },
        Size::Tiny => Params {
            flat_n: 2000,
            flat_p: 0.004,
            flat_k: 4,
            rmat_scale: 10,
            rmat_edge_factor: 8,
            arena_k: 8,
            fan_in: 2,
            churn_n: 300,
            churn_p: 0.1,
            churn_k: 8,
            churn_half: 8,
            churn_small: 2,
            churn_burst: 8,
            churn_burst_every: 4,
        },
    }
}

/// The generator stream of one input, independent of the protocol seed's
/// own uses.
fn input_rng(seed: u64, salt: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `f`, returning its result and its wall time in ms.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms_since(t0))
}

/// Both answers of one op of a static workload, with what it took to get
/// them.
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    matching: Matching,
    cover: VertexCover,
    matching_comm: CommunicationCost,
    cover_comm: CommunicationCost,
    faults: Option<(FaultReport, FaultReport)>,
}

impl Answers {
    fn new(
        (matching, matching_comm): (Matching, CommunicationCost),
        (cover, cover_comm): (VertexCover, CommunicationCost),
        faults: Option<(FaultReport, FaultReport)>,
    ) -> Self {
        Answers {
            matching,
            cover,
            matching_comm,
            cover_comm,
            faults,
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(
            &self.matching,
            &self.cover,
            check::words(&[&self.matching_comm, &self.cover_comm]),
        )
    }

    /// Whether `self` gives the same answers and communication as `other`.
    fn same_result(&self, other: &Answers) -> bool {
        self.matching == other.matching
            && self.cover == other.cover
            && self.matching_comm == other.matching_comm
            && self.cover_comm == other.cover_comm
    }
}

/// Checks both answers against the input graph.
fn validate(index: &EdgeIndex, n: usize, a: &Answers) -> Result<(), String> {
    check_matching(n, &a.matching, |e| index.contains(e))?;
    check_cover(n, &a.cover, index.edges())
}

/// Per-op wall times of the untraced calls.
#[derive(Debug, Default)]
struct StaticRun {
    first: Option<Answers>,
    matching_ms: Vec<f64>,
    cover_ms: Vec<f64>,
    op_ms: Vec<f64>,
    traced: TracedOps,
}

type Untraced<'a> = Box<dyn FnMut() -> Result<(Answers, f64, f64), String> + 'a>;
type Traced<'a> = Box<dyn FnMut(&mut Trace, usize, &mut Counts) -> Result<Answers, String> + 'a>;

/// The measured loop of a static workload: every op computes both answers
/// from the same inputs, so every op must return the first op's answers.
/// `untraced` returns the answers and the matching and cover times in ms.
fn run_static(
    ctx: &Ctx,
    out: &mut Outcome,
    mut untraced: Untraced<'_>,
    mut traced: Traced<'_>,
    check_first: &dyn Fn(&Answers) -> Result<(), String>,
) -> StaticRun {
    let mut run = StaticRun::default();
    let deadline = Deadline::new(ctx.seconds, MIN_OPS);
    let mut done = 0;
    while deadline.more(done) {
        done += 1;
        let gauge = Gauge::start();
        let (result, op_ms) = timed(&mut untraced);
        let gauge = gauge.finish();
        let answers = match result {
            Ok((answers, matching_ms, cover_ms)) => {
                run.matching_ms.push(matching_ms);
                run.cover_ms.push(cover_ms);
                run.op_ms.push(op_ms);
                answers
            }
            Err(e) => {
                out.record(Err(e));
                continue;
            }
        };
        let mut verdict = match &run.first {
            Some(first) if *first == answers => Ok(()),
            Some(_) => Err("answers differ from the run's first op".to_string()),
            None => check_first(&answers),
        };
        if run.first.is_none() && verdict.is_ok() {
            run.first = Some(answers.clone());
        }
        if ctx.trace {
            let replayed = run.traced.op(op_ms, gauge, &mut traced);
            verdict = verdict.and(match replayed {
                Ok(r) if r == answers => Ok(()),
                Ok(_) => Err("traced replay differs from the untraced call".to_string()),
                Err(e) => Err(format!("traced replay failed: {e}")),
            });
        }
        out.record(verdict);
    }
    run
}

/// Reports a static workload's metrics and fingerprint.
fn finish_static(ctx: &Ctx, out: &mut Outcome, run: StaticRun, setup_s: f64, edges_per_op: f64) {
    if ctx.trace {
        run.traced.layer_metrics(ctx.workers, out);
        out.trace = Some(run.traced.trace);
    } else {
        out.metric("setup_s", setup_s, "s");
        latency_metrics(out, &run.matching_ms, &run.cover_ms, &run.op_ms);
        let secs: f64 = run.op_ms.iter().sum::<f64>() / 1e3;
        out.metric(
            "updates_per_s",
            edges_per_op * run.op_ms.len() as f64 / secs,
            "1/s",
        );
        out.metric("recover_ms_p50", median(&run.op_ms), "ms");
        let first = run.first.as_ref();
        out.metric(
            "matching_size",
            first.map_or(0.0, |a| a.matching.len() as f64),
            "edges",
        );
        out.metric(
            "cover_size",
            first.map_or(0.0, |a| a.cover.len() as f64),
            "vertices",
        );
        out.metric(
            "comm_words",
            first.map_or(0.0, |a| a.fingerprint().comm_words as f64),
            "words",
        );
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    if let Some(first) = &run.first {
        out.compare_fingerprint(ctx, first.fingerprint());
    }
}

/// `flat-gnp`: `CoordinatorProtocol::random(k)`, flat compose, one matching
/// and one cover run per op on a uniform random graph.
pub fn flat_gnp(ctx: &Ctx) -> Result<Outcome, String> {
    let p = params(ctx.size);
    let (setup_s, g) = timed_setups(SETUP_REPS, || {
        Ok(gnp(p.flat_n, p.flat_p, &mut input_rng(ctx.seed, 0x6E9)))
    })?;
    let index = EdgeIndex::new(g.edges());
    let proto = CoordinatorProtocol::random(p.flat_k);
    let (mp, cp) = (MatchingProblem::default(), CoverProblem::default());
    let seed = ctx.seed;
    let mut out = Outcome::default();
    out.notes.push(format!(
        "input: gnp(n={}, p={}) m={} k={}",
        g.n(),
        p.flat_p,
        g.m(),
        p.flat_k
    ));
    let run = run_static(
        ctx,
        &mut out,
        Box::new(|| {
            let (m, matching_ms) = timed(|| proto.run_matching(&g, &mp.0, seed));
            let (c, cover_ms) = timed(|| proto.run_vertex_cover(&g, &cp.0, seed));
            let (m, c) = (m.map_err(err)?, c.map_err(err)?);
            let answers = Answers::new(
                (m.answer, m.communication),
                (c.answer, c.communication),
                None,
            );
            Ok((answers, matching_ms, cover_ms))
        }),
        Box::new(|t, root, c| {
            let m = replay::flat(t, root, c, &mp, &g, p.flat_k, seed).map_err(err)?;
            let cv = replay::flat(t, root, c, &cp, &g, p.flat_k, seed).map_err(err)?;
            Ok(Answers::new(m, cv, None))
        }),
        &|a| validate(&index, g.n(), a),
    );
    finish_static(ctx, &mut out, run, setup_s, 2.0 * g.m() as f64);
    Ok(out)
}

/// The arena file and checkpoint of one run, removed when the run ends.
struct ScratchFiles {
    arena: PathBuf,
    checkpoint: PathBuf,
}

impl ScratchFiles {
    fn new(dir: &Path) -> Self {
        let pid = std::process::id();
        ScratchFiles {
            arena: dir.join(format!("arena-{pid}.bin")),
            checkpoint: dir.join(format!("checkpoint-{pid}.bin")),
        }
    }
}

impl Drop for ScratchFiles {
    fn drop(&mut self) {
        let mut tmp = self.checkpoint.clone().into_os_string();
        tmp.push(".tmp");
        for path in [&self.arena, &self.checkpoint, &PathBuf::from(tmp)] {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs a resumable arena call killed after `kill` leaves, then resumes it.
fn kill_and_resume<T>(
    kill: usize,
    opts: &FaultRunOptions,
    call: impl Fn(&FaultRunOptions) -> Result<FaultyRun<T>, ProtocolError>,
) -> Result<FaultyRun<T>, String> {
    let mut killed = opts.clone();
    killed.kill_after_leaves = Some(kill);
    expect_interrupted(call(&killed).map(|_| ()), kill)?;
    call(opts).map_err(err)
}

fn expect_interrupted(result: Result<(), ProtocolError>, kill: usize) -> Result<(), String> {
    match result {
        Err(ProtocolError::Interrupted { pushed }) if pushed == kill => Ok(()),
        Err(e) => Err(format!("killed run: {e}")),
        Ok(()) => Err(format!("a run killed after {kill} leaves completed")),
    }
}

/// The traced replay of [`kill_and_resume`].
#[allow(clippy::too_many_arguments)]
fn kill_and_resume_traced<P: Problem>(
    t: &mut Trace,
    root: usize,
    c: &mut Counts,
    p: &P,
    arena: &ArenaFile,
    fan_in: usize,
    seed: u64,
    kill: usize,
    opts: &FaultRunOptions,
) -> Result<(P::Answer, CommunicationCost, FaultReport), String> {
    let mut killed = opts.clone();
    killed.kill_after_leaves = Some(kill);
    let span = t.open("distsim.checkpoint.killed", Some(root));
    let result = replay::arena(t, span, c, p, arena, fan_in, seed, &killed);
    t.close(span);
    expect_interrupted(result.map(|_| ()), kill)?;
    if let Some(path) = &opts.checkpoint {
        let bytes = std::fs::metadata(path).map_err(err)?.len();
        c.add("distsim.checkpoint.bytes", bytes as f64);
    }
    let span = t.open("distsim.checkpoint.resume", Some(root));
    let result = replay::arena(t, span, c, p, arena, fan_in, seed, opts);
    t.close(span);
    let (answer, comm, report) = result.map_err(err)?;
    c.add("distsim.faults.injected", report.injected as f64);
    c.add("distsim.faults.retried", report.retried as f64);
    c.add("distsim.faults.recovered", report.recovered as f64);
    c.add("distsim.faults.lost", report.lost_machines.len() as f64);
    Ok((answer, comm, report))
}

/// `tree-arena-rmat` (`faulty = false`): `ArenaProtocol::tree(2)` from an
/// arena file of a skewed R-MAT graph, one matching and one cover run per
/// op. `fault-resume` (`faulty = true`): the same arena under a seeded fault
/// plan, each run killed halfway and resumed from its checkpoint; the
/// answers must equal the fault-free runs'.
pub fn tree_arena(ctx: &Ctx, faulty: bool) -> Result<Outcome, String> {
    let p = params(ctx.size);
    let seed = ctx.seed;
    let files = ScratchFiles::new(&ctx.scratch);
    let (setup_s, (g, arena)) = timed_setups(SETUP_REPS, || {
        let g = rmat_graph500(
            p.rmat_scale,
            p.rmat_edge_factor,
            &mut input_rng(seed, 0x43A7),
        );
        let partition = PartitionedGraph::new(
            &g,
            p.arena_k,
            PartitionStrategy::Random,
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
        .map_err(err)?;
        write_arena_file(&files.arena, &partition).map_err(err)?;
        Ok((g, ArenaFile::open(&files.arena).map_err(err)?))
    })?;
    let index = EdgeIndex::new(g.edges());
    let (n, m) = (g.n(), g.m());
    drop(g);
    let proto = ArenaProtocol::tree(p.fan_in);
    let (mp, cp) = (MatchingProblem::default(), CoverProblem::default());
    let mut out = Outcome::default();
    out.notes.push(format!(
        "input: rmat_graph500(scale={}, edge_factor={}) n={n} m={m} k={} fan_in={}",
        p.rmat_scale, p.rmat_edge_factor, p.arena_k, p.fan_in
    ));

    let plain = || -> Result<(Answers, f64, f64), String> {
        let (m, matching_ms) = timed(|| proto.run_matching(&arena, &mp.0, seed));
        let (c, cover_ms) = timed(|| proto.run_vertex_cover(&arena, &cp.0, seed));
        let (m, c) = (m.map_err(err)?, c.map_err(err)?);
        let answers = Answers::new(
            (m.answer, m.communication),
            (c.answer, c.communication),
            None,
        );
        Ok((answers, matching_ms, cover_ms))
    };
    let run = if !faulty {
        run_static(
            ctx,
            &mut out,
            Box::new(plain),
            Box::new(|t, root, c| {
                let plain = FaultRunOptions::default();
                let (m, m_comm, _) =
                    replay::arena(t, root, c, &mp, &arena, p.fan_in, seed, &plain).map_err(err)?;
                let (cv, c_comm, _) =
                    replay::arena(t, root, c, &cp, &arena, p.fan_in, seed, &plain).map_err(err)?;
                Ok(Answers::new((m, m_comm), (cv, c_comm), None))
            }),
            &|a| validate(&index, n, a),
        )
    } else {
        // The fault-free answers every resumed run must reproduce.
        let reference = plain()?.0;
        let k = p.arena_k;
        let rate = 1.0 / k as f64;
        let mut plan = FaultPlan::new(seed ^ 0xFA17);
        plan.crash_before_prob = rate;
        plan.segment_io_prob = rate;
        plan.segment_checksum_prob = rate;
        let opts = FaultRunOptions {
            plan,
            retry: RetryPolicy::attempts(FAULT_ATTEMPTS),
            checkpoint: Some(files.checkpoint.clone()),
            kill_after_leaves: None,
        };
        let kill = k / 2;
        out.notes.push(format!(
            "faults: crash, segment I/O and checksum each at 1/{k}, {FAULT_ATTEMPTS} attempts; killed after {kill} leaves"
        ));
        run_static(
            ctx,
            &mut out,
            Box::new(|| {
                let (m, matching_ms) = timed(|| {
                    kill_and_resume(kill, &opts, |o| {
                        proto.run_matching_resumable(&arena, &mp.0, seed, o)
                    })
                });
                let (c, cover_ms) = timed(|| {
                    kill_and_resume(kill, &opts, |o| {
                        proto.run_vertex_cover_resumable(&arena, &cp.0, seed, o)
                    })
                });
                let (m, c) = (m?, c?);
                let answers = Answers::new(
                    (m.run.answer, m.run.communication),
                    (c.run.answer, c.run.communication),
                    Some((m.faults, c.faults)),
                );
                Ok((answers, matching_ms, cover_ms))
            }),
            Box::new(|t, root, c| {
                let (m, m_comm, mf) =
                    kill_and_resume_traced(t, root, c, &mp, &arena, p.fan_in, seed, kill, &opts)?;
                let (cv, c_comm, cf) =
                    kill_and_resume_traced(t, root, c, &cp, &arena, p.fan_in, seed, kill, &opts)?;
                Ok(Answers::new((m, m_comm), (cv, c_comm), Some((mf, cf))))
            }),
            &|a| {
                validate(&index, n, &reference)?;
                if !a.same_result(&reference) {
                    return Err("resumed answers differ from the fault-free run".to_string());
                }
                match &a.faults {
                    Some((mf, cf))
                        if mf.lost_machines.is_empty() && cf.lost_machines.is_empty() =>
                    {
                        Ok(())
                    }
                    _ => Err("a machine was lost".to_string()),
                }
            },
        )
    };
    finish_static(ctx, &mut out, run, setup_s, 2.0 * m as f64);
    Ok(out)
}

/// Mixes a sequence of hashes into one, order-sensitively.
fn fold_hashes(hashes: impl IntoIterator<Item = u64>) -> u64 {
    hashes.into_iter().fold(0xCBF2_9CE4_8422_2325, |acc, h| {
        (acc ^ h)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29)
    })
}

fn inverse(op: ChurnOp) -> ChurnOp {
    match op {
        ChurnOp::Insert(e) => ChurnOp::Delete(e),
        ChurnOp::Delete(e) => ChurnOp::Insert(e),
    }
}

/// The churn stream: one cycle of batches that ends where it began. The
/// first half inserts absent edges and deletes present ones, every edge at
/// most once; the second half undoes the first in reverse. Every op changes
/// the edge set, and the graph after batch `i` of any cycle is the same.
fn churn_stream(g: &Graph, p: &Params, seed: u64) -> Vec<Vec<ChurnOp>> {
    let mut rng = input_rng(seed, 0xC4A2);
    let present: HashSet<Edge> = g.edges().iter().copied().collect();
    let mut touched: HashSet<Edge> = HashSet::new();
    let n = g.n() as u32;
    let mut forward: Vec<Vec<ChurnOp>> = (0..p.churn_half)
        .map(|j| {
            let len = if j % p.churn_burst_every == p.churn_burst_every - 1 {
                p.churn_burst
            } else {
                p.churn_small
            };
            let mut ops = Vec::with_capacity(len);
            while ops.len() < len {
                if rng.gen_bool(0.5) {
                    let e = g.edges()[rng.gen_range(0..g.m())];
                    if touched.insert(e) {
                        ops.push(ChurnOp::Delete(e));
                    }
                } else {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u != v
                        && !present.contains(&Edge::new(u, v))
                        && touched.insert(Edge::new(u, v))
                    {
                        ops.push(ChurnOp::Insert(Edge::new(u, v)));
                    }
                }
            }
            ops
        })
        .collect();
    let undo: Vec<Vec<ChurnOp>> = forward
        .iter()
        .rev()
        .map(|ops| ops.iter().rev().map(|&op| inverse(op)).collect())
        .collect();
    forward.extend(undo);
    forward
}

/// `churn-serve`: one closed-loop client applying the churn stream to a
/// `GraphService`, one `apply_batch` per op, both answers recomposed after
/// every batch.
pub fn churn_serve(ctx: &Ctx) -> Result<Outcome, String> {
    let p = params(ctx.size);
    let seed = ctx.seed;
    let cfg = GraphServiceConfig::new(p.churn_k, seed);
    let mut service_s = Vec::new();
    let (setup_s, (g, stream, mut svc)) = timed_setups(SETUP_REPS, || {
        let g = gnp(p.churn_n, p.churn_p, &mut input_rng(seed, 0xC4A1));
        let stream = churn_stream(&g, &p, seed);
        let (svc, ms) = timed(|| GraphService::new(&g, cfg));
        service_s.push(ms);
        Ok((g, stream, svc.map_err(err)?))
    })?;
    let n = g.n();
    let cycle = stream.len();
    let mut out = Outcome::default();
    out.notes.push(format!(
        "input: gnp(n={n}, p={}) m={} k={}; cycle of {cycle} batches, {}-op bursts every {} batches, else {} ops",
        p.churn_p, g.m(), p.churn_k, p.churn_burst, p.churn_burst_every, p.churn_small
    ));

    let mut current: HashSet<Edge> = g.edges().iter().copied().collect();
    let mut replay = if ctx.trace {
        Some(ChurnReplay::new(&g, cfg).map_err(err)?)
    } else {
        None
    };
    drop(g);
    let mut traced = TracedOps::default();
    let mut batch_ms = Vec::new();
    let mut applied = 0usize;
    // Answer hashes at each position of the first cycle; later cycles must
    // repeat them.
    let mut cycle_hashes: Vec<Option<(u64, u64)>> = vec![None; cycle];
    let mut mid: Option<(Matching, VertexCover, Vec<Edge>)> = None;
    // Whole cycles only, so every run samples each batch of the cycle
    // equally often.
    let deadline = Deadline::new(ctx.seconds, cycle);
    let mut done = 0;
    while deadline.more(done) || done % cycle != 0 {
        let pos = done % cycle;
        done += 1;
        let ops = &stream[pos];
        let gauge = Gauge::start();
        let (result, op_ms) = timed(|| svc.apply_batch(ops));
        let gauge = gauge.finish();
        for &op in ops {
            match op {
                ChurnOp::Insert(e) => current.insert(e),
                ChurnOp::Delete(e) => current.remove(&e),
            };
        }
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                out.record(Err(e.to_string()));
                continue;
            }
        };
        batch_ms.push(op_ms);
        applied += outcome.applied;
        let hashes = (
            check::fingerprint_matching(svc.matching()),
            cover_hash(svc.cover()),
        );
        let mut verdict = if outcome.applied != ops.len() {
            Err(format!("{} of {} ops applied", outcome.applied, ops.len()))
        } else if done <= cycle {
            if pos + 1 == cycle / 2 {
                let edges = current.iter().copied().collect();
                mid = Some((svc.matching().clone(), svc.cover().clone(), edges));
            }
            check_matching(n, svc.matching(), |e| current.contains(e))
                .and_then(|()| check_cover(n, svc.cover(), current.iter()))
        } else if cycle_hashes[pos] != Some(hashes) {
            Err(format!("batch {pos} answers differ from the first cycle's"))
        } else {
            Ok(())
        };
        if done <= cycle {
            cycle_hashes[pos] = Some(hashes);
        }
        if let Some(replay) = replay.as_mut() {
            let step = traced.op(op_ms, gauge, |t, root, c| {
                replay.apply_batch(t, root, c, ops)
            });
            verdict = verdict.and(match step {
                Ok(s)
                    if s.matching == *svc.matching()
                        && s.cover == *svc.cover()
                        && s.rebuilt == outcome.machines_rebuilt
                        && s.compacted == outcome.compacted
                        && s.approx_matching == outcome.approx_matching_size
                        && s.approx_cover == outcome.approx_cover_size =>
                {
                    Ok(())
                }
                Ok(_) => Err("traced replay differs from the service".to_string()),
                Err(e) => Err(format!("traced replay failed: {e}")),
            });
        }
        out.record(verdict);
    }

    // The mid-cycle answers must equal a from-scratch round on that graph;
    // the round's messages give the communication behind them.
    let (mid_matching, mid_cover, mid_edges) = mid.ok_or("the first cycle did not complete")?;
    let mid_graph = Graph::from_edges(n, mid_edges).map_err(err)?;
    let partition = PartitionedGraph::by_edge_hash(&mid_graph, p.churn_k, seed).map_err(err)?;
    let (mut scratch, mut counts) = (Trace::new(), Counts::default());
    let root = scratch.begin_op();
    let (matching, matching_comm) = replay::round(
        &mut scratch,
        root,
        &mut counts,
        &MatchingProblem::default(),
        &partition,
        seed,
    );
    let (cover, cover_comm) = replay::round(
        &mut scratch,
        root,
        &mut counts,
        &CoverProblem::default(),
        &partition,
        seed,
    );
    out.record(if matching == mid_matching && cover == mid_cover {
        Ok(())
    } else {
        Err("mid-cycle answers differ from a from-scratch round".to_string())
    });
    let comm_words = check::words(&[&matching_comm, &cover_comm]);

    if replay.is_some() {
        traced.layer_metrics(ctx.workers, &mut out);
        out.trace = Some(traced.trace);
    } else {
        out.metric("setup_s", setup_s, "s");
        latency_metrics(&mut out, &batch_ms, &batch_ms, &batch_ms);
        let secs: f64 = batch_ms.iter().sum::<f64>() / 1e3;
        out.metric("updates_per_s", applied as f64 / secs, "1/s");
        out.metric("recover_ms_p50", median(&service_s), "ms");
        out.metric("matching_size", mid_matching.len() as f64, "edges");
        out.metric("cover_size", mid_cover.len() as f64, "vertices");
        out.metric("comm_words", comm_words as f64, "words");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    let fp = Fingerprint {
        matching: fold_hashes(cycle_hashes.iter().map(|h| h.map_or(0, |h| h.0))),
        cover: fold_hashes(cycle_hashes.iter().map(|h| h.map_or(0, |h| h.1))),
        comm_words,
    };
    out.compare_fingerprint(ctx, fp);
    Ok(out)
}
