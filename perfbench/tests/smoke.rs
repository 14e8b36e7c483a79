//! Tiny-size smoke run of every workload, untraced and traced: each must
//! finish with every op checked and passing and report its full metric set.

use perfbench::{run, Ctx, Size, Workload, LAYER_METRICS};
use std::sync::Mutex;

/// The resident-edge gauge is process-wide, so runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

const END_TO_END: [&str; 11] = [
    "setup_s",
    "matching_ms_p50",
    "cover_ms_p50",
    "batch_ms_p50",
    "batch_ms_p99",
    "updates_per_s",
    "recover_ms_p50",
    "matching_size",
    "cover_size",
    "comm_words",
    "peak_rss_mb",
];

fn smoke(workload: Workload, trace: bool) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = Ctx {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        size: Size::Tiny,
        scratch: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{}-{}",
            workload.name(),
            u8::from(trace)
        )),
        workers: 2,
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(ctx.workers)
        .build()
        .expect("pool");
    let out = pool.install(|| run(&ctx)).expect("the run completes");
    assert!(out.attempted >= 2, "{workload:?}: too few ops");
    assert_eq!(out.failed, 0, "{workload:?} failed: {:?}", out.errors);
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    if trace {
        let want: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert!(out.trace.is_some_and(|t| !t.spans().is_empty()));
    } else {
        assert_eq!(names, END_TO_END);
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload:?} {m:?}");
        }
    }
    assert!(out.fingerprint.is_some());
}

#[test]
fn flat_gnp() {
    smoke(Workload::FlatGnp, false);
    smoke(Workload::FlatGnp, true);
}

#[test]
fn tree_arena_rmat() {
    smoke(Workload::TreeArenaRmat, false);
    smoke(Workload::TreeArenaRmat, true);
}

#[test]
fn churn_serve() {
    smoke(Workload::ChurnServe, false);
    smoke(Workload::ChurnServe, true);
}

#[test]
fn fault_resume() {
    smoke(Workload::FaultResume, false);
    smoke(Workload::FaultResume, true);
}

#[test]
fn fault_resume_reports_the_resident_gauge_leak() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = Ctx {
        workload: Workload::FaultResume,
        seed: 7,
        seconds: 0.05,
        trace: true,
        size: Size::Tiny,
        scratch: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-leak"),
        workers: 1,
    };
    let out = run(&ctx).expect("the run completes");
    let leak = out
        .metrics
        .iter()
        .find(|m| m.name == "graph.metrics.resident_leak_edges")
        .expect("reported");
    assert!(leak.value > 0.0, "a killed resumable run leaves its charge");
}
