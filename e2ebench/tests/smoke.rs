//! Every workload at tiny N, untraced and traced, in a few seconds.

use std::path::PathBuf;
use std::sync::Mutex;

use e2ebench::bench::Workload;
use e2ebench::{run, Config, Outcome};

/// The span recorder is process-wide, so runs take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Long enough for the live writer (two batches a second) to land
    // writes in both halves of a traced window.
    let mut cfg = Config::new(workload, 5, 2.0, trace);
    cfg.n = 3000;
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    cfg.work_dir = tmp.join("e2ebench-smoke");
    cfg.span_dir = tmp.join("e2ebench-smoke-spans");
    let outcome = run(&cfg).expect("the run completes");
    assert!(outcome.correct, "{:#?}", outcome.report);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metric(name)
        .unwrap_or_else(|| panic!("metric {name} is reported"))
}

const END_TO_END: [&str; 6] = [
    "query_p50_ms",
    "query_p99_ms",
    "queries_per_s",
    "accesses_per_query",
    "setup_s",
    "peak_rss_mb",
];

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in [Workload::MemMix, Workload::DiskSpill, Workload::LiveRw] {
        let outcome = tiny(workload, false);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END, "{}", workload.name());
        for name in END_TO_END {
            let v = value(&outcome, name);
            if name == "peak_rss_mb" {
                // Runs share this process, so a tiny one can reuse memory
                // an earlier one freed and add nothing to its resident set.
                assert!(v >= 0.0, "{name} on {}", workload.name());
            } else {
                assert!(v > 0.0, "{name} on {}", workload.name());
            }
        }
        let json = outcome.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn traced_mem_mix_touches_no_storage() {
    let outcome = tiny(Workload::MemMix, true);
    assert_eq!(value(&outcome, "vfs.reads_per_query"), 0.0);
    assert_eq!(value(&outcome, "segment.self_ms_per_query"), 0.0);
    assert!(value(&outcome, "parser.us_per_query") > 0.0);
    assert!(value(&outcome, "exec.self_ms_per_query") > 0.0);
    assert!(value(&outcome, "cost.c1_ns.memory") > 0.0);
    assert!(value(&outcome, "sharded.source_share") > 0.0);
}

#[test]
fn traced_disk_spill_reads_through_cache_and_vfs() {
    let outcome = tiny(Workload::DiskSpill, true);
    assert!(value(&outcome, "cache.hit_rate") > 0.0);
    assert!(value(&outcome, "segment.self_ms_per_query") > 0.0);
    assert!(value(&outcome, "cost.c2_ns.flat") > 0.0);
    assert!(value(&outcome, "disk_bytes_per_entry") > 0.0);
}

#[test]
fn traced_live_rw_sees_the_writer() {
    let outcome = tiny(Workload::LiveRw, true);
    assert!(value(&outcome, "wal.bytes_per_op") > 0.0);
    assert!(value(&outcome, "live.snapshot_us_per_query") > 0.0);
    assert!(value(&outcome, "disk_bytes_per_entry") > 0.0);
    assert!(value(&outcome, "write_p50_ms") > 0.0);
}
