//! The repository's benchmark: four protocol workloads measured end to end,
//! and a traced replay that splits each op into the protocol's layers.
//!
//! See `perfbench/README.md` for the workloads, the metrics and how to run it.

#![forbid(unsafe_code)]

pub mod check;
pub mod problem;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;

use check::Fingerprint;
use replay::Counts;
use stats::{median, tail};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Trace;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory coordinator protocol, flat compose, on a uniform graph.
    FlatGnp,
    /// Out-of-core arena protocol, tree compose, on a skewed graph.
    TreeArenaRmat,
    /// The churn service under a closed-loop writer.
    ChurnServe,
    /// The arena protocol under injected faults, killed and resumed.
    FaultResume,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FlatGnp,
        Workload::TreeArenaRmat,
        Workload::ChurnServe,
        Workload::FaultResume,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatGnp => "flat-gnp",
            Workload::TreeArenaRmat => "tree-arena-rmat",
            Workload::ChurnServe => "churn-serve",
            Workload::FaultResume => "fault-resume",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: `Full` is the benchmark, `Tiny` the smoke-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is tuned for.
    Full,
    /// Graphs of a few thousand edges, for tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall-clock seconds of the measured loop.
    pub seconds: f64,
    /// Run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Directory for the arena file, checkpoints and the span dump.
    pub scratch: PathBuf,
    /// Worker threads the pool is pinned to.
    pub workers: usize,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, gave an invalid answer or differed from the
    /// recorded or replayed answer.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The answer fingerprint of this seed.
    pub fingerprint: Option<Fingerprint>,
    /// The traced run's spans.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Counts one op, failed if `result` is an error.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Compares the run's fingerprint with the recorded one, counting a
    /// mismatch as a failed op. The table holds `Size::Full` runs only.
    pub fn compare_fingerprint(&mut self, ctx: &Ctx, fp: Fingerprint) {
        let (workload, seed) = (ctx.workload.name(), ctx.seed);
        let recorded = match ctx.size {
            Size::Full => check::recorded(workload, seed),
            Size::Tiny => None,
        };
        let status = match recorded {
            None => "not recorded for this seed".to_string(),
            Some(want) if want == fp => "matches the recorded table".to_string(),
            Some(want) => {
                self.record(Err(format!(
                    "answer fingerprint {fp} differs from the recorded {want}"
                )));
                "MISMATCH".to_string()
            }
        };
        self.notes
            .push(format!("fingerprint {workload} {seed} {fp}  ({status})"));
        self.fingerprint = Some(fp);
    }
}

/// Runs `ctx.workload` and gathers its outcome.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.scratch)
        .map_err(|e| format!("cannot create {}: {e}", ctx.scratch.display()))?;
    let mut out = match ctx.workload {
        Workload::FlatGnp => workloads::flat_gnp(ctx)?,
        Workload::TreeArenaRmat => workloads::tree_arena(ctx, false)?,
        Workload::FaultResume => workloads::tree_arena(ctx, true)?,
        Workload::ChurnServe => workloads::churn_serve(ctx)?,
    };
    if let Some(t) = &out.trace {
        let path = ctx
            .scratch
            .join(format!("trace-{}-{}.json", ctx.workload.name(), ctx.seed));
        t.write_json(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(out)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` `reps` times, returning the median wall time in seconds and
/// the last result. Earlier results are dropped before the next begins.
pub fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((median(&secs), last.expect("at least one setup ran")))
}

/// Deadline of a measured loop that always runs at least `min_ops` ops.
pub struct Deadline {
    end: Instant,
    min_ops: usize,
}

impl Deadline {
    /// A loop of `seconds` seconds, starting now.
    pub fn new(seconds: f64, min_ops: usize) -> Self {
        Deadline {
            end: Instant::now() + Duration::from_secs_f64(seconds),
            min_ops,
        }
    }

    /// Whether another op should run after `done` ops.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_ops || Instant::now() < self.end
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Resident-edge gauge readings around one untraced op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauge {
    start: u64,
}

impl Gauge {
    /// Reads the gauge and restarts its high-water mark at the current value.
    pub fn start() -> Self {
        graph::metrics::reset_peak_resident_edges();
        Gauge {
            start: graph::metrics::resident_edges(),
        }
    }

    /// `(edges left charged by the op, peak above the op's start)`.
    pub fn finish(self) -> (f64, f64) {
        let now = graph::metrics::resident_edges();
        let peak = graph::metrics::peak_resident_edges();
        (
            now as f64 - self.start as f64,
            peak.saturating_sub(self.start) as f64,
        )
    }
}

/// What a traced run collects per op.
#[derive(Debug, Default)]
pub struct TracedOps {
    /// Spans of every traced op.
    pub trace: Trace,
    /// Work counts of every traced op.
    pub counts: Vec<Counts>,
    /// Wall time of each traced op.
    pub traced_ms: Vec<f64>,
    /// Wall time of the untraced call paired with each traced op.
    pub untraced_ms: Vec<f64>,
    /// Resident-edge gauge left charged by each untraced call.
    pub leak_edges: Vec<f64>,
    /// Resident-edge peak of each untraced call above its start.
    pub peak_edges: Vec<f64>,
}

/// One op's spans of one name, summed.
#[derive(Debug, Clone, Copy, Default)]
struct SpanSums {
    own_ms: f64,
    total_ms: f64,
    longest_ms: f64,
    spans: f64,
}

/// Per-layer metric names and units, in report order.
pub const LAYER_METRICS: [(&str, &str); 38] = [
    ("graph.partition.ms", "ms"),
    ("graph.partition.edges", "edges"),
    ("graph.arena_file.load_ms", "ms"),
    ("graph.arena_file.bytes", "bytes"),
    ("graph.churn.apply_ms", "ms"),
    ("graph.churn.dirty_machines", "count"),
    ("graph.churn.compactions", "count"),
    ("coresets.build.wall_ms", "ms"),
    ("coresets.build.busy_ms", "ms"),
    ("coresets.build.max_machine_ms", "ms"),
    ("coresets.build.machines", "count"),
    ("coresets.build.parallel_eff", "frac"),
    ("coresets.build.edges_in", "edges"),
    ("coresets.build.edges_out", "edges"),
    ("coresets.build.keep_ratio", "frac"),
    ("distsim.comm.words", "words"),
    ("distsim.comm.max_message_words", "words"),
    ("coresets.tree.merge_ms", "ms"),
    ("coresets.tree.merges", "count"),
    ("coresets.tree.union_edges", "edges"),
    ("coresets.compose.matching_ms", "ms"),
    ("coresets.compose.cover_ms", "ms"),
    ("coresets.compose.union_edges", "edges"),
    ("coresets.cache.hit_ratio", "frac"),
    ("dynamic.apply_ms", "ms"),
    ("distsim.faults.injected", "count"),
    ("distsim.faults.retried", "count"),
    ("distsim.faults.recovered", "count"),
    ("distsim.faults.lost", "count"),
    ("distsim.checkpoint.bytes", "bytes"),
    ("distsim.checkpoint.save_ms", "ms"),
    ("distsim.checkpoint.killed_ms", "ms"),
    ("distsim.checkpoint.resume_ms", "ms"),
    ("graph.metrics.resident_leak_edges", "edges"),
    ("graph.metrics.peak_resident_edges", "edges"),
    ("trace.traced_op_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_ms", "ms"),
];

impl TracedOps {
    /// Runs one traced replay under a new op span and records it beside
    /// the untraced call it replays (its time and gauge readings).
    pub fn op<R>(
        &mut self,
        untraced_ms: f64,
        (leak, peak): (f64, f64),
        replay: impl FnOnce(&mut Trace, usize, &mut Counts) -> R,
    ) -> R {
        let mut counts = Counts::default();
        let root = self.trace.begin_op();
        let t0 = Instant::now();
        let out = replay(&mut self.trace, root, &mut counts);
        self.traced_ms.push(ms_since(t0));
        self.trace.close(root);
        self.counts.push(counts);
        self.untraced_ms.push(untraced_ms);
        self.leak_edges.push(leak);
        self.peak_edges.push(peak);
        out
    }

    /// Per-layer metrics (medians over ops) plus a self-time table.
    pub fn layer_metrics(&self, workers: usize, out: &mut Outcome) {
        let self_ns = self.trace.self_times_ns();
        let ops = self.counts.len();
        let mut by_op: Vec<BTreeMap<&'static str, SpanSums>> = vec![BTreeMap::new(); ops];
        for (s, own) in self.trace.spans().iter().zip(&self_ns) {
            let Some(op) = (s.run as usize).checked_sub(1).filter(|&r| r < ops) else {
                continue;
            };
            let e = by_op[op].entry(s.name).or_default();
            let dur = s.dur_ns() as f64 / 1e6;
            e.own_ms += *own as f64 / 1e6;
            e.total_ms += dur;
            e.longest_ms = e.longest_ms.max(dur);
            e.spans += 1.0;
        }
        let mut per_op: Vec<BTreeMap<&'static str, f64>> = Vec::with_capacity(ops);
        let (mut hits, mut lookups) = (0.0, 0.0);
        for (i, (spans, c)) in by_op.iter().zip(&self.counts).enumerate() {
            let sums = |n: &str| spans.get(n).copied().unwrap_or_default();
            let own = |n: &str| sums(n).own_ms;
            let dur = |n: &str| sums(n).total_ms;
            let wall = dur("coresets.build");
            let busy = dur("coresets.build.machine");
            let covered = self.traced_ms[i] - own("op");
            let mut m = BTreeMap::new();
            m.insert("graph.partition.ms", own("graph.partition"));
            m.insert("graph.arena_file.load_ms", own("graph.arena_file"));
            m.insert("graph.churn.apply_ms", own("graph.churn"));
            m.insert("coresets.build.wall_ms", wall);
            m.insert("coresets.build.busy_ms", busy);
            m.insert(
                "coresets.build.max_machine_ms",
                sums("coresets.build.machine").longest_ms,
            );
            m.insert(
                "coresets.build.machines",
                sums("coresets.build.machine").spans,
            );
            m.insert(
                "coresets.build.parallel_eff",
                ratio(busy, wall * workers as f64),
            );
            m.insert(
                "coresets.build.keep_ratio",
                ratio(
                    c.get("coresets.build.edges_out"),
                    c.get("coresets.build.edges_in"),
                ),
            );
            m.insert("coresets.tree.merge_ms", dur("coresets.tree"));
            m.insert(
                "coresets.compose.matching_ms",
                own("coresets.compose.matching"),
            );
            m.insert("coresets.compose.cover_ms", own("coresets.compose.cover"));
            m.insert("dynamic.apply_ms", own("dynamic"));
            m.insert("distsim.checkpoint.save_ms", own("distsim.checkpoint.save"));
            m.insert(
                "distsim.checkpoint.killed_ms",
                dur("distsim.checkpoint.killed"),
            );
            m.insert(
                "distsim.checkpoint.resume_ms",
                dur("distsim.checkpoint.resume"),
            );
            m.insert("graph.metrics.resident_leak_edges", self.leak_edges[i]);
            m.insert("graph.metrics.peak_resident_edges", self.peak_edges[i]);
            m.insert("trace.traced_op_ms", self.traced_ms[i]);
            m.insert("trace.unattributed_ms", self.untraced_ms[i] - covered);
            for (name, _) in LAYER_METRICS {
                if !m.contains_key(name) {
                    m.insert(name, c.get(name));
                }
            }
            hits += c.get("coresets.cache.hits");
            lookups += c.get("coresets.cache.lookups");
            per_op.push(m);
        }
        for (name, unit) in LAYER_METRICS {
            let value = match name {
                "coresets.cache.hit_ratio" => ratio(hits, lookups),
                "trace.overhead_frac" => median(&self.traced_ms) / median(&self.untraced_ms) - 1.0,
                _ => median(&per_op.iter().map(|m| m[name]).collect::<Vec<_>>()),
            };
            out.metric(name, value, unit);
        }

        // Self time per span name, as a table: where an op's time goes.
        let mut names: Vec<&'static str> = by_op.iter().flat_map(|m| m.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        let traced = median(&self.traced_ms);
        out.notes.push(format!(
            "self time per traced op over {ops} ops (median ms, share of the traced op's {traced:.3} ms):"
        ));
        for name in names {
            let own: Vec<f64> = by_op
                .iter()
                .map(|m| m.get(name).map_or(0.0, |v| v.own_ms))
                .collect();
            let v = median(&own);
            out.notes.push(format!(
                "  {name:<32} {v:>10.3} ms {:>6.1}%",
                100.0 * v / traced
            ));
        }
        let rest: Vec<f64> = per_op.iter().map(|m| m["trace.unattributed_ms"]).collect();
        out.notes.push(format!(
            "unattributed remainder (untraced op {:.3} ms minus the layer spans' blocking path): {:.3} ms per op",
            median(&self.untraced_ms),
            median(&rest)
        ));
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The shared end-to-end latency metrics of a run's op samples.
pub fn latency_metrics(out: &mut Outcome, matching_ms: &[f64], cover_ms: &[f64], op_ms: &[f64]) {
    out.metric("matching_ms_p50", median(matching_ms), "ms");
    out.metric("cover_ms_p50", median(cover_ms), "ms");
    out.metric("batch_ms_p50", median(op_ms), "ms");
    // A percentile needs ten samples above it to be stable: runs with fewer
    // than 1000 ops report the highest percentile that has them.
    let (p99, above) = tail(op_ms, 0.99, 10);
    out.metric("batch_ms_p99", p99, "ms");
    out.notes.push(format!(
        "{} ops; batch_ms_p99 is the {:.1}th percentile, {above} ops above it",
        op_ms.len(),
        100.0 * (op_ms.len() - above) as f64 / op_ms.len() as f64
    ));
}
