//! Turning measurements into named metrics, and run provenance.

use std::collections::BTreeMap;

use garlic_middleware::TelemetrySnapshot;
use garlic_storage::CacheStats;
use garlic_telemetry::MetricValue;

use crate::bench::{Reads, WritePhase, BACKENDS};
use crate::stats::{mean, median, tail};
use crate::trace::{self_times, FileKind, Kind, Role, SpanRec};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// Its value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Appends a metric.
pub fn push(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        // `+ 0.0` turns an empty float sum's -0.0 into 0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    });
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The sum of every counter in `snap` whose name ends with `suffix`.
pub fn counter_sum(snap: &TelemetrySnapshot, suffix: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.name.ends_with(suffix))
        .map(|e| match e.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Storage counters read at the edges of the traced window.
#[derive(Debug, Clone, Default)]
pub struct StorageDelta {
    /// Cache counters at the start and the end of the window.
    pub cache: Option<(CacheStats, CacheStats)>,
    /// Telemetry snapshots at the start and the end of the window.
    pub telemetry: Option<(TelemetrySnapshot, TelemetrySnapshot)>,
}

impl StorageDelta {
    fn cache_delta(&self) -> (f64, f64, f64, f64, f64) {
        match &self.cache {
            None => (0.0, 0.0, 0.0, 0.0, 0.0),
            Some((a, b)) => (
                (b.hits - a.hits) as f64,
                (b.misses - a.misses) as f64,
                (b.evictions - a.evictions) as f64,
                (b.admitted - a.admitted) as f64,
                (b.rejected - a.rejected) as f64,
            ),
        }
    }

    fn counter_delta(&self, suffix: &str) -> f64 {
        match &self.telemetry {
            None => 0.0,
            Some((a, b)) => counter_sum(b, suffix).saturating_sub(counter_sum(a, suffix)) as f64,
        }
    }
}

/// Whether a VFS span did work for the reader's in-flight query: on the
/// reader itself, or on a helper thread outside any live store while a
/// query was in flight. Writer and background (compaction) I/O are not.
fn query_io(s: &SpanRec) -> bool {
    match s.role {
        Role::Reader => s.query != 0,
        Role::Other => s.query != 0 && !s.live,
        Role::Writer => false,
    }
}

fn is_source(kind: Kind) -> bool {
    matches!(kind, Kind::Sorted | Kind::Random | Kind::SetScan)
}

/// Inputs of the per-layer metrics of one traced run.
pub struct LayerInputs<'a> {
    /// Spans of the traced window.
    pub spans: &'a [SpanRec],
    /// Untraced reads of the same run.
    pub untraced: &'a Reads,
    /// Traced reads.
    pub traced: &'a Reads,
    /// Writer measurements of the untraced window (live only).
    pub write_untraced: Option<&'a WritePhase>,
    /// Writer measurements of the traced window (live only).
    pub write_traced: Option<&'a WritePhase>,
    /// Storage counters over the traced window.
    pub storage: &'a StorageDelta,
    /// Bytes on disk per graded entry (0 without disk).
    pub disk_bytes_per_entry: f64,
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn layer_metrics(inp: &LayerInputs<'_>) -> Vec<Metric> {
    let spans = inp.spans;
    let selfs = self_times(spans);
    let queries = spans.iter().filter(|s| s.kind == Kind::Query).count() as f64;
    let per_q = |x: f64| ratio(x, queries);
    let sum = |f: &dyn Fn(&SpanRec) -> bool| -> f64 {
        spans
            .iter()
            .filter(|s| f(s))
            .map(|s| s.duration() as f64)
            .sum()
    };
    let count = |f: &dyn Fn(&SpanRec) -> bool| -> f64 {
        spans.iter().filter(|s| f(s)).map(|s| s.count as f64).sum()
    };
    let calls =
        |f: &dyn Fn(&SpanRec) -> bool| -> f64 { spans.iter().filter(|s| f(s)).count() as f64 };
    let self_sum = |f: &dyn Fn(&SpanRec) -> bool| -> f64 {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| f(s))
            .map(|(_, t)| *t as f64)
            .sum()
    };
    let sorted = |s: &SpanRec| matches!(s.kind, Kind::Sorted | Kind::SetScan) && s.query != 0;
    let random = |s: &SpanRec| s.kind == Kind::Random && s.query != 0;

    let mut out = Vec::new();
    push(
        &mut out,
        "parser.us_per_query",
        per_q(sum(&|s| s.kind == Kind::Parse)) / 1e3,
        "us",
    );
    push(
        &mut out,
        "plan.us_per_query",
        per_q(sum(&|s| s.kind == Kind::Plan)) / 1e3,
        "us",
    );
    push(
        &mut out,
        "exec.self_ms_per_query",
        per_q(self_sum(&|s| s.kind == Kind::Exec)) / 1e6,
        "ms",
    );
    for strategy in ["fa_min", "fa", "b0_max", "filtered", "naive"] {
        let p50 = inp
            .untraced
            .by_strategy
            .get(strategy)
            .map_or(0.0, |v| median(v));
        push(&mut out, format!("algo.{strategy}.p50_ms"), p50, "ms");
    }
    push(
        &mut out,
        "subsys.evaluate_us_per_query",
        per_q(sum(&|s| s.kind == Kind::Evaluate)) / 1e3,
        "us",
    );
    push(
        &mut out,
        "source.sorted_ms_per_query",
        per_q(sum(&sorted)) / 1e6,
        "ms",
    );
    push(
        &mut out,
        "source.random_ms_per_query",
        per_q(sum(&random)) / 1e6,
        "ms",
    );
    push(
        &mut out,
        "source.sorted_entries_per_query",
        per_q(count(&sorted)),
        "count",
    );
    push(
        &mut out,
        "source.random_probes_per_query",
        per_q(count(&random)),
        "count",
    );
    push(
        &mut out,
        "source.sorted_batches_per_query",
        per_q(calls(&sorted)),
        "count",
    );
    push(
        &mut out,
        "source.random_batches_per_query",
        per_q(calls(&random)),
        "count",
    );
    for (b, name) in BACKENDS.iter().enumerate() {
        let b = b as u8;
        let ns = sum(&|s| sorted(s) && s.backend == b);
        push(
            &mut out,
            format!("cost.c1_ns.{name}"),
            ratio(ns, count(&|s| sorted(s) && s.backend == b)),
            "ns",
        );
    }
    for (b, name) in BACKENDS.iter().enumerate() {
        let b = b as u8;
        let ns = sum(&|s| random(s) && s.backend == b);
        push(
            &mut out,
            format!("cost.c2_ns.{name}"),
            ratio(ns, count(&|s| random(s) && s.backend == b)),
            "ns",
        );
    }
    let source_all = sum(&|s| is_source(s.kind) && s.query != 0);
    let source_sharded = sum(&|s| is_source(s.kind) && s.query != 0 && matches!(s.backend, 1 | 3));
    push(
        &mut out,
        "sharded.source_share",
        ratio(source_sharded, source_all),
        "ratio",
    );
    push(
        &mut out,
        "sharded.consumed_per_emitted",
        ratio(
            inp.storage.counter_delta(".shard.consumed"),
            inp.storage.counter_delta(".shard.emitted"),
        ),
        "ratio",
    );

    let (hits, misses, evictions, admitted, rejected) = inp.storage.cache_delta();
    let cache_q = inp.traced.latency_ms.len() as f64;
    push(
        &mut out,
        "cache.hit_rate",
        ratio(hits, hits + misses),
        "ratio",
    );
    push(
        &mut out,
        "cache.misses_per_query",
        ratio(misses, cache_q),
        "count",
    );
    push(
        &mut out,
        "cache.evictions_per_query",
        ratio(evictions, cache_q),
        "count",
    );
    push(
        &mut out,
        "cache.admission_rate",
        ratio(admitted, admitted + rejected),
        "ratio",
    );

    let disk_source = |s: &SpanRec| is_source(s.kind) && s.query != 0 && s.backend >= 2;
    push(
        &mut out,
        "segment.self_ms_per_query",
        per_q(self_sum(&disk_source)) / 1e6,
        "ms",
    );
    let skipped = inp.storage.counter_delta(".fence.blocks_skipped");
    let loaded = inp.storage.counter_delta(".fence.blocks_loaded");
    push(
        &mut out,
        "segment.fence_skip_rate",
        ratio(skipped, skipped + loaded),
        "ratio",
    );

    let vfs_read = |s: &SpanRec| s.kind == Kind::VfsRead && query_io(s);
    push(
        &mut out,
        "vfs.reads_per_query",
        per_q(calls(&vfs_read)),
        "count",
    );
    push(
        &mut out,
        "vfs.read_kib_per_query",
        per_q(count(&vfs_read)) / 1024.0,
        "KiB",
    );
    push(
        &mut out,
        "vfs.read_ms_per_query",
        per_q(sum(&vfs_read)) / 1e6,
        "ms",
    );

    let wal_syncs: Vec<f64> = spans
        .iter()
        .filter(|s| s.kind == Kind::VfsSync && s.file == FileKind::Wal && s.role == Role::Writer)
        .map(|s| s.duration() as f64 / 1e6)
        .collect();
    let written_ops = inp.write_traced.map_or(0, |w| w.ops) as f64;
    let wal_bytes = count(&|s| s.kind == Kind::VfsWrite && s.file == FileKind::Wal);
    push(&mut out, "wal.sync_ms_p50", median(&wal_syncs), "ms");
    push(
        &mut out,
        "wal.bytes_per_op",
        ratio(wal_bytes, written_ops),
        "B",
    );
    push(
        &mut out,
        "live.frozen_layers_max",
        inp.write_traced.map_or(0, |w| w.frozen_max) as f64,
        "count",
    );
    push(
        &mut out,
        "live.snapshot_us_per_query",
        per_q(sum(&|s| s.kind == Kind::Evaluate && s.backend == 4)) / 1e3,
        "us",
    );

    let runs = compactions(spans);
    push(&mut out, "compact.runs", runs.len() as f64, "count");
    push(&mut out, "compact.ms_per_run", mean(&runs), "ms");
    let stored = count(&|s| s.kind == Kind::VfsWrite && s.live);
    push(
        &mut out,
        "compact.write_amp",
        ratio(stored, written_ops * USER_BYTES_PER_OP),
        "ratio",
    );

    let (write_p50, write_p99) = inp.write_untraced.map_or((0.0, 0.0), |w| {
        (median(&w.latency_ms), tail(&w.latency_ms, 0.99, 10).value)
    });
    push(&mut out, "write_p50_ms", write_p50, "ms");
    push(&mut out, "write_p99_ms", write_p99, "ms");
    push(
        &mut out,
        "disk_bytes_per_entry",
        inp.disk_bytes_per_entry,
        "B",
    );
    push(
        &mut out,
        "writer.lag_ms_p99",
        inp.write_traced
            .map_or(0.0, |w| tail(&w.lag_ms, 0.99, 10).value),
        "ms",
    );
    push(
        &mut out,
        "trace.overhead_ratio",
        ratio(mean(&inp.traced.latency_ms), mean(&inp.untraced.latency_ms)),
        "ratio",
    );
    push(
        &mut out,
        "calib.kernel_us",
        median(&inp.untraced.calib_us),
        "us",
    );
    out
}

/// A user's upsert: an 8-byte object id and an 8-byte grade.
pub const USER_BYTES_PER_OP: f64 = 16.0;

/// Durations in ms of the background compactions among `spans`: on each
/// compactor thread, from creating the new segment's staging file to the
/// manifest rename that commits it.
pub fn compactions(spans: &[SpanRec]) -> Vec<f64> {
    let mut open: BTreeMap<u32, u64> = BTreeMap::new();
    let mut runs = Vec::new();
    let mut ordered: Vec<&SpanRec> = spans
        .iter()
        .filter(|s| s.live && s.role == Role::Other)
        .collect();
    ordered.sort_by_key(|s| s.start);
    for s in ordered {
        match (s.kind, s.file) {
            (Kind::VfsCreate, FileKind::Segment) => {
                open.entry(s.thread).or_insert(s.start);
            }
            (Kind::VfsRename, FileKind::Manifest) => {
                if let Some(start) = open.remove(&s.thread) {
                    runs.push(s.end.saturating_sub(start) as f64 / 1e6);
                }
            }
            _ => {}
        }
    }
    runs
}

/// A field of `/proc/self/status` (such as `VmHWM` or `VmRSS`), in MB.
fn status_mb(field: &str) -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?
        .split_whitespace()
        .nth(1)?
        .parse::<f64>()
        .ok()
        .map(|kb| kb / 1024.0)
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set and returns that, in MB: the baseline [`peak_rss_mb`]
/// is measured above.
pub fn reset_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))?;
    status_mb("VmRSS").ok_or_else(|| "no VmRSS in /proc/self/status".to_owned())
}

/// The process's peak resident set (`VmHWM`), in MB, 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM").unwrap_or(0.0)
}

/// Facts about the machine and build a report is only comparable under.
pub fn provenance() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        (
            "git_commit",
            git_commit().unwrap_or_else(|| "unknown".into()),
        ),
        ("rustc", rustc),
    ]
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_owned()),
        Some(name) => {
            let loose = std::fs::read_to_string(format!(".git/{name}")).ok();
            let packed = || {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()?
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            };
            loose.map(|c| c.trim().to_owned()).or_else(packed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io(kind: Kind, file: FileKind, thread: u32, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id: 1,
            parent: 0,
            query: 0,
            kind,
            backend: 0,
            role: Role::Other,
            thread,
            file,
            live: true,
            start,
            end,
            count: 0,
        }
    }

    #[test]
    fn compactions_pair_segment_create_with_manifest_rename_per_thread() {
        let spans = vec![
            io(Kind::VfsCreate, FileKind::Segment, 7, 1_000_000, 1_100_000),
            io(Kind::VfsCreate, FileKind::Segment, 8, 2_000_000, 2_100_000),
            io(Kind::VfsRename, FileKind::Segment, 7, 4_000_000, 4_100_000),
            io(Kind::VfsRename, FileKind::Manifest, 8, 5_000_000, 6_000_000),
            io(Kind::VfsRename, FileKind::Manifest, 7, 8_000_000, 9_000_000),
        ];
        assert_eq!(compactions(&spans), vec![4.0, 8.0]);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
