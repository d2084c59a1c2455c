//! # e2ebench — the end-to-end benchmark of the Garlic middleware
//!
//! Sends the paper's query shapes through the public front door — each
//! query parsed from text and served by `GarlicService::top_k` — over one
//! backend family per workload:
//!
//! * `mem_mix`: in-memory lists, flat and 4-shard;
//! * `disk_spill`: v2 segments, flat and 4-shard, read through one block
//!   cache a tenth the size of the data;
//! * `live_rw`: live stores (WAL, memtable, compaction) with an open-loop
//!   writer beside the reader.
//!
//! A run builds the store several times (timing set-up), gates every
//! distinct query against an in-memory reference, warms up, then measures
//! a closed-loop reader for the requested time. With tracing on, half the
//! window runs untraced and half through the benchmark's timing wrappers,
//! and the spans are split into per-layer metrics.

pub mod bench;
pub mod calib;
pub mod gen;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod wrap;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use calib::{Calibrator, REFERENCE_US};
use garlic_agg::Grade;

use bench::{
    build_store, dir_bytes, gate, phase, program_idle, read_loop, reference_service, service,
    Calibration, Check, Store, Workload, WritePhase, Writes, WRITE_RATE,
};
use gen::{Dataset, QueryMix};
use metrics::{
    layer_metrics, peak_rss_mb, provenance, push, ratio, reset_peak_rss, LayerInputs, Metric,
    StorageDelta,
};
use stats::{median, tail};
use trace::{tracer, Role};

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Whether to run the traced per-layer measurement.
    pub trace: bool,
    /// Objects per attribute.
    pub n: usize,
    /// Directory the per-run directory is created in.
    pub work_dir: PathBuf,
    /// Directory the traced run writes its spans to.
    pub span_dir: PathBuf,
}

impl Config {
    /// The full-size settings of a workload.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            n: workload.default_n(),
            work_dir: PathBuf::from(".e2ebench-runs"),
            span_dir: PathBuf::from(".e2ebench-out"),
        }
    }

    /// Unmeasured warm-up before the window, in seconds: the workload's,
    /// shortened in proportion when the data is smaller than full size.
    pub fn warmup(&self) -> f64 {
        let full = self.workload.default_n() as f64;
        self.workload.warmup_s() * (self.n as f64 / full).min(1.0)
    }
}

/// How many times the store is built; set-up time is their median. Disk
/// set-up is fsync-bound and varies from build to build; the median of
/// five stays put.
const SETUP_REPS: usize = 5;

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Why the run is not valid and must not be reported, if it is not.
    pub invalid: Option<String>,
    /// Whether every answer and every write checked out.
    pub correct: bool,
    /// Operations attempted: reads and writes.
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The run's own directory: unique per process, run and seed, removed
/// when dropped — also when the run fails.
struct RunDir {
    path: PathBuf,
}

impl RunDir {
    fn create(cfg: &Config) -> Result<RunDir, String> {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let path = cfg.work_dir.join(format!(
            "{}-s{}-p{}-{}",
            cfg.workload.name(),
            cfg.seed,
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        settle(&cfg.work_dir);
        Ok(RunDir { path })
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            settle(parent);
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Syncs `dir`, which commits the file system's pending metadata work —
/// such as freeing (and discarding) the blocks of files deleted just
/// before — so it is paid here and does not carry over into the next
/// run's set-up or window.
fn settle(dir: &Path) {
    if let Ok(dir) = std::fs::File::open(dir) {
        let _ = dir.sync_all();
    }
}

/// Sets its flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Builds the store [`SETUP_REPS`] times, each in a fresh directory,
/// keeping the last; returns it with every set-up time in seconds.
fn setup(cfg: &Config, data: &Dataset, run_dir: &Path) -> Result<(Store, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept: Option<Store> = None;
    for rep in 0..SETUP_REPS {
        // Earlier builds are closed but their files stay until the run
        // directory goes: deleting them now would put a burst of block
        // frees (and discards) into the measured window's fsyncs.
        drop(kept.take());
        let dir = run_dir.join(format!("setup-{rep}"));
        let start = Instant::now();
        let store = build_store(cfg.workload, data, &dir, cfg.trace)?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(store);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Counts a gate's mismatches into the outcome.
fn note_mismatches(label: &str, mismatches: &[String], failed: &mut u64, report: &mut Vec<String>) {
    *failed += mismatches.len() as u64;
    for m in mismatches.iter().take(5) {
        report.push(format!("MISMATCH ({label}): {m}"));
    }
}

/// Runs one workload as configured.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    trace::set_role(Role::Reader);
    let workload = cfg.workload;
    let data = Dataset::generate(cfg.seed, cfg.n, workload.fuzzy());
    let run_dir = RunDir::create(cfg)?;
    let mut calibrator = Calibrator::new();
    // The benchmark's own state — inputs, the gate's reference, the
    // writer's model, the calibration table — is allocated before the
    // peak-memory mark is reset, so `peak_rss_mb` counts the program.
    let reference = reference_service(&data.grades);
    let mut mix = QueryMix::new(cfg.seed, workload.suffixes(), workload.fuzzy());
    let specs = mix.specs().to_vec();
    let write_model: Option<Vec<Vec<Grade>>> =
        (workload == Workload::LiveRw).then(|| data.grades.clone());
    let rss_baseline = reset_peak_rss()?;

    let (store, setup_times) = setup(cfg, &data, &run_dir.path)?;
    let mut report = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Correctness gate: every distinct (query, k) on every backend
    // against the in-memory reference.
    let untraced = service(workload, &store.subsystem, false);
    let (prints, mismatches) = gate(&untraced, &reference, &specs);
    attempted += specs.len() as u64;
    note_mismatches("gate", &mismatches, &mut failed, &mut report);

    // Wrapper fidelity: the traced catalog must plan, answer and bill
    // exactly like the untraced one.
    let traced = cfg.trace.then(|| service(workload, &store.subsystem, true));
    if let Some(traced) = &traced {
        let (traced_prints, mismatches) = gate(traced, &reference, &specs);
        attempted += specs.len() as u64;
        note_mismatches("traced gate", &mismatches, &mut failed, &mut report);
        let differ = traced_prints
            .iter()
            .zip(&prints)
            .filter(|(a, b)| a != b)
            .count();
        attempted += specs.len() as u64;
        failed += differ as u64;
        if differ > 0 {
            report.push(format!(
                "MISMATCH: {differ} traced answers differ from untraced"
            ));
        }
    }

    let live = store.live_sources();
    let check = if workload == Workload::LiveRw {
        Check::Shape(prints.clone(), cfg.n)
    } else {
        Check::Exact(prints.clone())
    };
    let current = AtomicU8::new(phase::WARMUP);
    let stop = AtomicBool::new(false);
    let writing = AtomicU64::new(0);
    let idle = || program_idle(&live, &writing);
    let half = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };

    let (reads, traced_reads, spans, storage, writes) = std::thread::scope(|scope| {
        // Stops the writer however this closure ends, so the scope can
        // join it even if the reader panics.
        let _stop_writer = StopOnDrop(&stop);
        let writer = write_model.map(|model| {
            let (live, current, stop, writing) = (&live, &current, &stop, &writing);
            let seed = cfg.seed;
            scope.spawn(move || bench::write_loop(live, model, seed, current, stop, writing))
        });
        let warm = read_loop(
            &untraced,
            &mut mix,
            Instant::now() + Duration::from_secs_f64(cfg.warmup()),
            &check,
            false,
            None,
        );
        current.store(phase::MEASURE, Ordering::SeqCst);
        let reads = read_loop(
            &untraced,
            &mut mix,
            Instant::now() + Duration::from_secs_f64(half),
            &check,
            false,
            Some(Calibration {
                kernel: &mut calibrator,
                idle: &idle,
            }),
        );
        let mut traced_reads = None;
        let mut spans = Vec::new();
        let mut storage = StorageDelta::default();
        if let Some(traced) = &traced {
            current.store(phase::TRACED, Ordering::SeqCst);
            let cache_before = store.disk.as_ref().map(|d| d.cache_stats());
            let tel_before = store.telemetry.as_ref().map(|t| t.snapshot());
            tracer().set_enabled(true);
            traced_reads = Some(read_loop(
                traced,
                &mut mix,
                Instant::now() + Duration::from_secs_f64(half),
                &check,
                true,
                None,
            ));
            tracer().set_enabled(false);
            spans = tracer().take();
            storage.cache = cache_before.zip(store.disk.as_ref().map(|d| d.cache_stats()));
            storage.telemetry = tel_before.zip(store.telemetry.as_ref().map(|t| t.snapshot()));
        }
        current.store(phase::DONE, Ordering::SeqCst);
        stop.store(true, Ordering::SeqCst);
        let writes = writer.map(|w| w.join().expect("the writer thread does not panic"));
        ((warm, reads), traced_reads, spans, storage, writes)
    });
    let (warm, reads) = reads;
    for r in [Some(&warm), Some(&reads), traced_reads.as_ref()]
        .into_iter()
        .flatten()
    {
        attempted += r.attempted;
        failed += r.failed;
        for f in &r.failures {
            report.push(format!("FAILED: {f}"));
        }
    }

    // The writer has stopped; flush the live stores, and read the peak
    // memory before the checks below allocate.
    for source in &live {
        attempted += 1;
        if let Err(e) = source.flush() {
            failed += 1;
            report.push(format!("FAILED: flush: {e}"));
        }
    }
    let peak_rss = peak_rss_mb() - rss_baseline;

    // Live stores: compare with the model of every acknowledged write.
    let mut write_phases: Option<[WritePhase; 4]> = None;
    let mut disk_bytes_per_entry = 0.0;
    if let Some(Writes {
        phases,
        model,
        failures,
    }) = writes
    {
        for p in &phases {
            attempted += (p.latency_ms.len() as u64) + p.failed;
            failed += p.failed;
        }
        report.extend(failures.iter().map(|f| format!("FAILED: {f}")));
        let model_ref = reference_service(&model);
        let (after, mismatches) = gate(&untraced, &model_ref, &specs);
        attempted += specs.len() as u64;
        note_mismatches("after writes", &mismatches, &mut failed, &mut report);
        if let Some(traced) = &traced {
            let (traced_after, mismatches) = gate(traced, &model_ref, &specs);
            attempted += specs.len() as u64;
            note_mismatches("traced after writes", &mismatches, &mut failed, &mut report);
            let differ = traced_after
                .iter()
                .zip(&after)
                .filter(|(a, b)| a != b)
                .count();
            attempted += specs.len() as u64;
            failed += differ as u64;
        }
        disk_bytes_per_entry = ratio(
            store
                .attributes
                .iter()
                .map(|a| dir_bytes(&store.dir.join(format!("live-{a}"))))
                .sum::<u64>() as f64,
            (cfg.n * store.attributes.len()) as f64,
        );
        write_phases = Some(phases);
    } else if workload == Workload::DiskSpill {
        disk_bytes_per_entry = ratio(
            dir_bytes(&store.dir) as f64,
            (cfg.n * store.attributes.len() * 2) as f64,
        );
    }

    let period_ms = 1e3 / WRITE_RATE;
    let measured_write = write_phases
        .as_ref()
        .map(|p| &p[usize::from(phase::MEASURE)]);
    let lag_p99 = measured_write.map_or(0.0, |w| tail(&w.lag_ms, 0.99, 10).value);

    report.push(format!(
        "calibration kernel while the program was idle: median {:.1} us over {} runs (reference {REFERENCE_US} us)",
        median(&reads.calib_us),
        reads.calib_us.len()
    ));

    let mut metrics = Vec::new();
    if cfg.trace {
        let traced_reads = traced_reads.expect("traced run");
        metrics = layer_metrics(&LayerInputs {
            spans: &spans,
            untraced: &reads,
            traced: &traced_reads,
            write_untraced: measured_write,
            write_traced: write_phases
                .as_ref()
                .map(|p| &p[usize::from(phase::TRACED)]),
            storage: &storage,
            disk_bytes_per_entry,
        });
        if tracer().dropped() > 0 {
            report.push(format!("spans dropped: {}", tracer().dropped()));
        }
        write_spans(cfg, &spans);
    } else {
        // Times are scaled by the calibration kernel (see `calib`); the
        // report lines keep the raw wall-clock figures.
        let scaled = reads.scaled_latency_ms();
        let p99 = tail(&scaled, 0.99, 10);
        push(&mut metrics, "query_p50_ms", median(&scaled), "ms");
        push(&mut metrics, "query_p99_ms", p99.value, "ms");
        push(
            &mut metrics,
            "queries_per_s",
            reads.scaled_rate(&scaled),
            "1/s",
        );
        push(
            &mut metrics,
            "accesses_per_query",
            ratio(reads.accesses as f64, reads.latency_ms.len() as f64),
            "count",
        );
        push(&mut metrics, "setup_s", median(&setup_times), "s");
        push(&mut metrics, "peak_rss_mb", peak_rss, "MB");
        report.push(format!(
            "reads: {} samples, tail percentile p{:.2}; wall clock: p50 {:.4} ms, p99 {:.4} ms, {:.2} q/s",
            p99.samples,
            p99.quantile * 100.0,
            median(&reads.latency_ms),
            tail(&reads.latency_ms, 0.99, 10).value,
            ratio(reads.latency_ms.len() as f64, reads.elapsed.as_secs_f64())
        ));
        // Specs come grouped by (variant, class), one per tuple.
        let mut first = 0;
        for group in specs.chunk_by(|a, b| a.variant == b.variant && a.class == b.class) {
            let lats = &reads.by_spec[first..first + group.len()];
            first += group.len();
            let pooled: Vec<f64> = lats.iter().flatten().copied().collect();
            let attribute = format!("A{}", workload.suffixes()[group[0].variant]);
            report.push(format!(
                "class {:13} {:13} {:>6} samples, wall-clock p50 {:.4} ms",
                gen::CLASSES[group[0].class].label,
                bench::BACKENDS[usize::from(workload.backend_of(&attribute))],
                pooled.len(),
                median(&pooled)
            ));
        }
    }

    // Provenance and the figures that are not end-to-end metrics of
    // every workload.
    let cache_blocks = workload.cache_blocks();
    report.push(format!(
        "workload {} seed {} N {} trace {} window {:.1}s warmup {:.1}s",
        workload.name(),
        cfg.seed,
        cfg.n,
        cfg.trace,
        cfg.seconds,
        cfg.warmup()
    ));
    report.push(format!(
        "peak resident set {:.2} MB above the {rss_baseline:.2} MB the benchmark held when the mark was reset",
        peak_rss
    ));
    report.push(format!(
        "cache {} blocks ({} bytes); store bytes after set-up {}; set-up times {:?} s",
        cache_blocks,
        cache_blocks * garlic_storage::DEFAULT_BLOCK_SIZE,
        dir_bytes(&store.dir),
        setup_times
    ));
    if let Some(disk) = &store.disk {
        report.push(format!("cache: {}", disk.cache_stats()));
    }
    if let Some(w) = measured_write {
        let p99 = tail(&w.latency_ms, 0.99, 10);
        report.push(format!(
            "write_p50_ms {:.4} ms; write_p99_ms {:.4} ms (p{:.2} of {} samples); writer.lag_ms_p99 {:.4} ms (period {:.1} ms)",
            median(&w.latency_ms),
            p99.value,
            p99.quantile * 100.0,
            p99.samples,
            lag_p99,
            period_ms
        ));
    }
    if disk_bytes_per_entry > 0.0 {
        report.push(format!("disk_bytes_per_entry {disk_bytes_per_entry:.4} B"));
    }
    report.push(format!(
        "error_rate {:.6} ratio ({failed} of {attempted} operations)",
        ratio(failed as f64, attempted as f64)
    ));
    for (key, value) in provenance() {
        report.push(format!("{key}: {value}"));
    }

    drop(untraced);
    drop(traced);
    drop(live);
    drop(store);
    drop(run_dir);

    let invalid = (measured_write.is_some() && lag_p99 > period_ms).then(|| {
        format!(
            "invalid live_rw run: writer.lag_ms_p99 {lag_p99:.3} ms exceeds the {period_ms:.1} ms write period"
        )
    });
    Ok(Outcome {
        invalid,
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        report,
    })
}

/// At most this many spans (about 10 MB) are written out per run.
const SPANS_WRITTEN: usize = 200_000;

/// Writes the traced run's first spans as CSV next to the run directories.
fn write_spans(cfg: &Config, spans: &[trace::SpanRec]) {
    let dir = &cfg.span_dir;
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!(
        "spans-{}-s{}-p{}.csv",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ));
    let Ok(file) = std::fs::File::create(&path) else {
        return;
    };
    let mut w = std::io::BufWriter::new(file);
    let _ = writeln!(
        w,
        "id,parent,query,kind,backend,role,thread,file,live,start_ns,end_ns,count"
    );
    for s in spans.iter().take(SPANS_WRITTEN) {
        let _ = writeln!(
            w,
            "{},{},{},{:?},{},{:?},{},{:?},{},{},{},{}",
            s.id,
            s.parent,
            s.query,
            s.kind,
            s.backend,
            s.role,
            s.thread,
            s.file,
            s.live,
            s.start,
            s.end,
            s.count
        );
    }
    let _ = w.flush();
}

/// Parses the command line: `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1>`, plus `--n <objects>` to shrink the data.
pub fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut n = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value} (mem_mix, disk_spill, live_rw)")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--n" => n = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut cfg = Config::new(workload, seed, seconds, trace);
    if let Some(n) = n {
        cfg.n = n;
    }
    Ok(cfg)
}
