//! Experiment E14 — the vertex-cover hot path, old vs new.
//!
//! E13 made the maximum-matching side of a protocol run 43x faster, which
//! left the vertex-cover half as the last naive hot path: the Parnas–Ron
//! peeling at the heart of `VC-Coreset` rescanned and `retain`ed the full
//! residual edge buffer every threshold round (`O(m · rounds)`) and
//! allocated a fresh `O(n)` degree array per round, and the coordinator's
//! composition materialized the union of the residual subgraphs before
//! 2-approximating it. This experiment isolates the `vertexcover::VcEngine`
//! overhaul:
//!
//! * **stamped degree pre-screen** — residual degrees are counted once into
//!   epoch-stamped workspace arrays (`O(m)`, no `O(n)` pass); threshold
//!   schedules that cannot peel anything (sparse pieces of a random
//!   `k`-partition) finish right there;
//! * **candidate rounds** — otherwise the rounds run on the candidates
//!   only (the vertices whose degree reaches the smallest threshold; no
//!   other vertex can ever be peeled): their adjacency among themselves is
//!   built in reused workspace buffers, each round scans the live
//!   candidates and decrements their candidate neighbours, and the residual
//!   is one flag filter over the input edges;
//! * **union-free composition** — the coordinator's 2-approximation scans
//!   the residual edge slices in machine order instead of materializing
//!   `Graph::union` first.
//!
//! The **legacy path is frozen in this binary** (`mod legacy`): a faithful
//! copy of the pre-engine peeling (per-round rescans, per-round `vec![0; n]`
//! degrees, per-call `vec![false; n]` flags) and of the union-materializing
//! composition, so the comparison survives future changes to the live
//! crates.
//!
//! Three phases are timed on `G(n, p)` with `k = 16` (at `RC_THREADS=1`):
//! the `k` per-piece peelings, the coordinator's composed cover, and the
//! full vertex-cover pipeline end to end. The per-piece peeling outcomes are
//! asserted **identical round by round** (peeled sets, thresholds and
//! residuals), the composed covers identical vertex for vertex, the
//! `graph::metrics::vc_peel_scratch_elems` counter is asserted **zero**
//! across the engine runs (and positive on the legacy path), the engine's
//! `full_resets` counter is asserted zero, and the end-to-end speedup must
//! clear the acceptance bar (≥ 2x at the default `n = 10⁵` workload) — the
//! fixed-seed regression mirroring E13's `required_pipeline_speedup`.
//!
//! Emits machine-readable `BENCH_vc.json` (uploaded as a CI artifact).
//! CI runs the smaller `E14_CI=1` workload with a correspondingly relaxed
//! bar; regenerate the committed numbers with `RC_THREADS=1 cargo run
//! --release -p bench --bin exp_vc_hotpath`.

use bench::table::fmt_f;
use bench::{Summary, Table};
use coresets::vc_coreset::{PeelingVcCoreset, VcCoresetBuilder, VcCoresetOutput};
use coresets::{compose_vertex_cover, CoresetParams, DistributedVertexCover};
use graph::gen::er::gnp;
use graph::partition::PartitionedGraph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;
use vertexcover::VcEngine;

const SEED: u64 = 2017;
const K: usize = 16;

/// The pre-engine vertex-cover path, reproduced faithfully from the seed so
/// the benchmark keeps measuring the same baseline forever.
mod legacy {
    use coresets::CoresetParams;
    use graph::partition::PartitionedGraph;
    use graph::{Edge, Graph, GraphRef, VertexId};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Seed peeling: one edge-buffer copy up front, then every round
    /// allocates a fresh `vec![0; n]` degree array, rescans the residual
    /// buffer, scans all `n` vertex ids for the peel set and `retain`s the
    /// buffer — `O((m + n) · rounds)`. Scratch allocations are recorded in
    /// `graph::metrics::vc_peel_scratch_elems`, like the library's reference
    /// implementation.
    pub fn peel_with_thresholds<G: GraphRef + ?Sized>(
        g: &G,
        thresholds: &[usize],
    ) -> (Vec<Vec<VertexId>>, Vec<usize>, Graph) {
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
        (
            peeled_per_round,
            used_thresholds,
            Graph::from_edges_unchecked(n, edges),
        )
    }

    /// Seed 2-approximation: greedy maximal matching with a `vec![false; n]`
    /// matched array, both endpoints of every chosen edge.
    pub fn two_approx_vertices(g: &Graph) -> Vec<VertexId> {
        let mut matched = vec![false; g.n()];
        let mut cover = Vec::new();
        for e in g.edges() {
            if !matched[e.u as usize] && !matched[e.v as usize] {
                matched[e.u as usize] = true;
                matched[e.v as usize] = true;
                cover.push(e.u);
                cover.push(e.v);
            }
        }
        cover.sort_unstable();
        cover.dedup();
        cover
    }

    /// One machine's VC coreset on the seed path.
    pub struct LegacyVcOutput {
        pub fixed_vertices: Vec<VertexId>,
        pub residual: Graph,
    }

    pub fn build_coreset<G: GraphRef + ?Sized>(g: &G, params: &CoresetParams) -> LegacyVcOutput {
        let schedule = params.peeling_schedule();
        let (peeled_per_round, _, residual) = peel_with_thresholds(g, &schedule);
        LegacyVcOutput {
            fixed_vertices: peeled_per_round.into_iter().flatten().collect(),
            residual,
        }
    }

    /// Seed composition: materialize the union of the residual subgraphs,
    /// 2-approximate it, add the fixed vertices. Returns the sorted cover.
    pub fn compose(outputs: &[LegacyVcOutput]) -> Vec<VertexId> {
        let residuals: Vec<&Graph> = outputs.iter().map(|o| &o.residual).collect();
        let union = Graph::union(&residuals);
        let mut cover = two_approx_vertices(&union);
        for o in outputs {
            cover.extend_from_slice(&o.fixed_vertices);
        }
        cover.sort_unstable();
        cover.dedup();
        cover
    }

    /// The full pre-engine vertex-cover pipeline: random partition into the
    /// arena, seed peeling per piece, union-materializing composition.
    /// Returns the sorted cover vertices.
    pub fn pipeline(g: &Graph, k: usize, seed: u64) -> Vec<VertexId> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let partition = PartitionedGraph::random(g, k, &mut rng).expect("k >= 1");
        let params = CoresetParams::new(g.n(), k);
        let outputs: Vec<LegacyVcOutput> = partition
            .views()
            .iter()
            .map(|p| build_coreset(p, &params))
            .collect();
        compose(&outputs)
    }
}

/// One phase's old-vs-new measurement.
#[derive(Debug, Serialize)]
struct PhaseSample {
    /// Median wall-clock seconds of the legacy (pre-engine) path.
    old_median_secs: f64,
    /// Median wall-clock seconds of the engine path.
    new_median_secs: f64,
    /// `old / new` — > 1 means the new path is faster.
    speedup: f64,
}

fn phase(old: f64, new: f64) -> PhaseSample {
    PhaseSample {
        old_median_secs: old,
        new_median_secs: new,
        speedup: old / new.max(f64::MIN_POSITIVE),
    }
}

/// All measurements for one workload.
#[derive(Debug, Serialize)]
struct WorkloadBench {
    workload: String,
    n: usize,
    m: usize,
    k: usize,
    /// Median seconds to build the random partition (shared by both paths —
    /// the non-VC remainder of the pipeline).
    partition_overhead_secs: f64,
    /// All `k` per-piece peelings, summed.
    per_piece: PhaseSample,
    /// The coordinator's composed cover over fixed coresets (the new path
    /// never materializes the residual union).
    composed: PhaseSample,
    /// The full pipeline: partition → per-piece coresets → composed cover.
    pipeline: PhaseSample,
    /// Final composed cover size (identical between the paths).
    cover_size: usize,
    /// Whether every per-piece peeling outcome was identical round by round
    /// between the legacy path and the engine (asserted).
    per_piece_outcomes_identical: bool,
    /// Whether the composed covers were identical vertex for vertex
    /// (asserted).
    composed_covers_identical: bool,
    /// Scratch words the legacy peeling allocated during one per-piece pass
    /// (edge-buffer copies + per-round degree arrays + peel flags).
    legacy_peel_scratch_elems: u64,
    /// Scratch words recorded during the engine's per-piece + composed +
    /// pipeline passes — asserted 0 (zero per-round edge-buffer
    /// reallocations).
    engine_peel_scratch_elems: u64,
    /// `O(n)` workspace resets in the engine during those passes — asserted 0.
    engine_full_resets: u64,
}

/// The whole `BENCH_vc.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    seed: u64,
    p: f64,
    k: usize,
    per_piece_reps: usize,
    composed_reps: usize,
    pipeline_reps: usize,
    /// Acceptance bar: the end-to-end VC pipeline must be at least this much
    /// faster on the new path (the E14 fixed-seed regression).
    required_pipeline_speedup: f64,
    /// True when the reduced `E14_CI=1` workload was measured.
    ci_mode: bool,
    workloads: Vec<WorkloadBench>,
}

/// Times `run` with one warm-up followed by `reps` timed repetitions; asserts
/// every repetition returns the same answer and reports the median seconds.
fn median_secs<T: Eq + std::fmt::Debug>(reps: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let reference = run();
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let again = run();
        secs.push(start.elapsed().as_secs_f64());
        assert_eq!(again, reference, "timed runs must be deterministic");
    }
    (Summary::of(&secs).median, reference)
}

struct Reps {
    per_piece: usize,
    composed: usize,
    pipeline: usize,
}

fn bench_workload(n: usize, p: f64, reps: &Reps) -> WorkloadBench {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let g = gnp(n, p, &mut rng);
    let params = CoresetParams::new(n, K);
    let schedule = params.peeling_schedule();

    // Overhead: the partition build both paths share (E12's territory).
    let (partition_overhead_secs, _) = median_secs(5, || {
        let mut r = ChaCha8Rng::seed_from_u64(SEED + 1);
        let part = PartitionedGraph::random(&g, K, &mut r).expect("k >= 1");
        part.piece_sizes().iter().sum::<usize>()
    });

    let mut r = ChaCha8Rng::seed_from_u64(SEED + 1);
    let partition = PartitionedGraph::random(&g, K, &mut r).expect("k >= 1");
    let views = partition.views();

    // Identity pass (untimed): the engine must reproduce the legacy peeling
    // round by round — peeled sets, thresholds and residual graphs — with
    // zero recorded scratch elements and zero O(n) workspace resets.
    graph::metrics::reset_vc_peel_scratch();
    let mut engine = VcEngine::new();
    let engine_outcomes: Vec<_> = views
        .iter()
        .map(|v| engine.peel_with_thresholds(v, &schedule))
        .collect();
    let engine_scratch_after_pieces = graph::metrics::vc_peel_scratch_elems();
    let mut per_piece_outcomes_identical = true;
    for (view, outcome) in views.iter().zip(&engine_outcomes) {
        let (peeled, thresholds, residual) = legacy::peel_with_thresholds(view, &schedule);
        per_piece_outcomes_identical &= peeled == outcome.peeled_per_round
            && thresholds == outcome.thresholds
            && residual == outcome.residual;
    }
    assert!(
        per_piece_outcomes_identical,
        "the engine must reproduce the legacy peeling round by round"
    );
    let engine_full_resets = engine.workspace().full_resets();
    assert_eq!(
        engine_full_resets, 0,
        "epoch stamps must never fall back to an O(n) reset"
    );
    assert_eq!(
        engine_scratch_after_pieces, 0,
        "the engine peeling path must record zero scratch elements"
    );

    // One legacy per-piece pass with a fresh counter, to report its scratch.
    graph::metrics::reset_vc_peel_scratch();
    for view in &views {
        let _ = legacy::peel_with_thresholds(view, &schedule);
    }
    let legacy_peel_scratch_elems = graph::metrics::vc_peel_scratch_elems();
    assert!(
        legacy_peel_scratch_elems > 0,
        "the legacy path must record its per-round scratch"
    );

    // Phase 1: all k per-piece peelings.
    graph::metrics::reset_vc_peel_scratch();
    let (old_pp, old_sum) = median_secs(reps.per_piece, || {
        views
            .iter()
            .map(|v| {
                let (peeled, _, residual) = legacy::peel_with_thresholds(v, &schedule);
                peeled.iter().map(Vec::len).sum::<usize>() + residual.m()
            })
            .sum::<usize>()
    });
    graph::metrics::reset_vc_peel_scratch();
    let (new_pp, new_sum) = median_secs(reps.per_piece, || {
        let mut e = VcEngine::new();
        views
            .iter()
            .map(|v| {
                let out = e.peel_with_thresholds(v, &schedule);
                out.peeled_count() + out.residual.m()
            })
            .sum::<usize>()
    });
    assert_eq!(old_sum, new_sum, "per-piece peeling sizes must agree");
    let engine_scratch_phase1 = graph::metrics::vc_peel_scratch_elems();
    assert_eq!(engine_scratch_phase1, 0, "engine per-piece pass stays at 0");

    // Phase 2: the coordinator's composed cover over fixed coresets.
    let builder = PeelingVcCoreset::new();
    let outputs: Vec<VcCoresetOutput> = views
        .iter()
        .enumerate()
        .map(|(i, v)| builder.build(*v, &params, i, &mut coresets::machine_rng(SEED, i)))
        .collect();
    let legacy_outputs: Vec<legacy::LegacyVcOutput> = outputs
        .iter()
        .map(|o| legacy::LegacyVcOutput {
            fixed_vertices: o.fixed_vertices.clone(),
            residual: o.residual.clone(),
        })
        .collect();
    let (old_comp, old_cover) = median_secs(reps.composed, || legacy::compose(&legacy_outputs));
    let (new_comp, new_cover) = median_secs(reps.composed, || {
        compose_vertex_cover(&outputs).sorted_vertices()
    });
    let composed_covers_identical = old_cover == new_cover;
    assert!(
        composed_covers_identical,
        "the union-free composition must return the exact legacy cover"
    );

    // Phase 3: the full pipeline, end to end. The legacy pipeline records
    // scratch elements; reset before the engine pipeline so the final zero
    // assertion covers exactly the engine protocol runs.
    let dv = DistributedVertexCover::new(K);
    let (old_pipe, old_ans) = median_secs(reps.pipeline, || legacy::pipeline(&g, K, SEED + 2));
    graph::metrics::reset_vc_peel_scratch();
    let (new_pipe, new_ans) = median_secs(reps.pipeline, || {
        dv.run(&g, SEED + 2)
            .expect("k >= 1")
            .cover
            .sorted_vertices()
    });
    assert_eq!(
        old_ans, new_ans,
        "end-to-end covers must be identical between the paths"
    );
    let engine_peel_scratch_elems = graph::metrics::vc_peel_scratch_elems();
    assert_eq!(
        engine_peel_scratch_elems, 0,
        "a full engine protocol run performs zero per-round edge-buffer reallocations"
    );

    WorkloadBench {
        workload: format!("gnp({n}, {p})"),
        n,
        m: g.m(),
        k: K,
        partition_overhead_secs,
        per_piece: phase(old_pp, new_pp),
        composed: phase(old_comp, new_comp),
        pipeline: phase(old_pipe, new_pipe),
        cover_size: new_ans.len(),
        per_piece_outcomes_identical,
        composed_covers_identical,
        legacy_peel_scratch_elems,
        engine_peel_scratch_elems,
        engine_full_resets,
    }
}

fn main() {
    let ci_mode = std::env::var("E14_CI").is_ok();
    // CI runs a scaled-down instance of the same regime; the full workload is
    // the acceptance workload of the vertex-cover overhaul.
    let (n, p, required_pipeline_speedup) = if ci_mode {
        (25_000, 8e-4, 1.5)
    } else {
        (100_000, 2e-4, 2.0)
    };
    let reps = Reps {
        per_piece: 3,
        composed: 3,
        pipeline: 2,
    };

    println!("# E14 — vertex-cover hot path: candidate-restricted peeling engine\n");
    println!("Old path (frozen in this binary): per-round residual rescans + retains, a fresh");
    println!("vec![0; n] degree array per round, vec![false; n] peel/matched flags per call,");
    println!("union-materializing composition. New path: stamped degree pre-screen, rounds");
    println!("over the threshold-reaching candidates only, union-free composed 2-approximation.");
    println!("k = {K}, RC_THREADS=1.\n");

    let w = bench_workload(n, p, &reps);

    let mut table = Table::new(
        format!("E14: vertex-cover hot path old vs new (k = {K} machines)"),
        &["workload", "m", "phase", "old secs", "new secs", "speedup"],
    );
    for (name, s) in [
        ("per-piece peelings", &w.per_piece),
        ("composed cover", &w.composed),
        ("pipeline", &w.pipeline),
    ] {
        table.add_row(vec![
            w.workload.clone(),
            w.m.to_string(),
            name.to_string(),
            format!("{:.6}", s.old_median_secs),
            format!("{:.6}", s.new_median_secs),
            fmt_f(s.speedup),
        ]);
    }
    table.add_row(vec![
        w.workload.clone(),
        w.m.to_string(),
        "partition overhead".to_string(),
        format!("{:.6}", w.partition_overhead_secs),
        format!("{:.6}", w.partition_overhead_secs),
        fmt_f(1.0),
    ]);
    println!("{table}");

    println!(
        "legacy peel scratch elems {} | engine peel scratch elems {} | engine full resets {}",
        w.legacy_peel_scratch_elems, w.engine_peel_scratch_elems, w.engine_full_resets
    );
    println!(
        "per-piece outcomes identical: {} | composed covers identical: {}",
        w.per_piece_outcomes_identical, w.composed_covers_identical
    );

    let report = BenchReport {
        seed: SEED,
        p,
        k: K,
        per_piece_reps: reps.per_piece,
        composed_reps: reps.composed,
        pipeline_reps: reps.pipeline,
        required_pipeline_speedup,
        ci_mode,
        workloads: vec![w],
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_vc.json", &json).expect("BENCH_vc.json is writable");
    println!("Wrote BENCH_vc.json ({} bytes).", json.len());

    for w in &report.workloads {
        println!(
            "{}: pipeline speedup {:.2}x (bar: >= {:.1}x)",
            w.workload, w.pipeline.speedup, report.required_pipeline_speedup
        );
        assert!(
            w.pipeline.speedup >= report.required_pipeline_speedup,
            "{}: pipeline speedup {:.2}x fell below the {:.1}x acceptance bar",
            w.workload,
            w.pipeline.speedup,
            report.required_pipeline_speedup
        );
    }
    println!("Expected shape: per-piece peelings faster (the stamped pre-screen replaces");
    println!("every per-round rescan; the shared residual copy bounds the ratio), the");
    println!("composed cover several times faster (no union materialization), and the");
    println!("end-to-end pipeline comfortably above the bar.");
}
