//! Building each workload's store, the correctness gate, the closed-loop
//! reader and the open-loop writer.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use garlic_agg::Grade;
use garlic_core::ObjectId;
use garlic_middleware::{
    parse_query, Catalog, Garlic, GarlicService, QueryResult, Strategy, Telemetry,
};
use garlic_storage::{std_vfs, BlockCache, LiveSource, SegmentWriter, Vfs, WalOp};
use garlic_subsys::{DiskSubsystem, Subsystem, VectorSubsystem};

use crate::calib::Calibrator;
use crate::gen::{quantized, Dataset, QueryMix, QuerySpec, Rng, CRISP_SHARE};
use crate::trace::{span, tracer, Kind, Role};
use crate::wrap::{BackendOf, TimingVfs, TracedSubsystem};

/// Backend labels, indexed by the backend number spans carry.
pub const BACKENDS: [&str; 5] = ["memory", "memory_shard4", "flat", "shard4", "live"];

/// Shards behind every sharded attribute.
pub const SHARDS: usize = 4;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory lists, flat and 4-shard.
    MemMix,
    /// v2 segments, flat and 4-shard, behind a cache a tenth their size.
    DiskSpill,
    /// Live stores with a concurrent open-loop writer.
    LiveRw,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "mem_mix" => Some(Workload::MemMix),
            "disk_spill" => Some(Workload::DiskSpill),
            "live_rw" => Some(Workload::LiveRw),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MemMix => "mem_mix",
            Workload::DiskSpill => "disk_spill",
            Workload::LiveRw => "live_rw",
        }
    }

    /// Objects per attribute at full size.
    pub fn default_n(self) -> usize {
        match self {
            Workload::MemMix | Workload::LiveRw => 100_000,
            Workload::DiskSpill => 200_000,
        }
    }

    /// Unmeasured warm-up before the window at full size, in seconds.
    pub fn warmup_s(self) -> f64 {
        match self {
            Workload::MemMix => 1.0,
            Workload::DiskSpill => 2.0,
            // Every store freezes (about every 10 s under the writer) and
            // is compacted before the window opens.
            Workload::LiveRw => 10.0,
        }
    }

    /// Block-cache capacity in blocks (0: no cache).
    pub fn cache_blocks(self) -> usize {
        match self {
            Workload::MemMix => 0,
            // A tenth of the ≈23 MB of segments.
            Workload::DiskSpill => 576,
            Workload::LiveRw => 4096,
        }
    }

    /// How many fuzzy attributes the workload serves. `live_rw` keeps
    /// four, so the writer's upserts go to few stores and each memtable
    /// freezes about every 10 s.
    pub fn fuzzy(self) -> usize {
        match self {
            Workload::MemMix | Workload::DiskSpill => 8,
            Workload::LiveRw => 4,
        }
    }

    /// Attribute-name suffixes of the backend variants the mix alternates.
    pub fn suffixes(self) -> &'static [&'static str] {
        match self {
            Workload::MemMix | Workload::DiskSpill => &["", "4"],
            Workload::LiveRw => &[""],
        }
    }

    /// The backend number of an attribute.
    pub fn backend_of(self, attribute: &str) -> u8 {
        let sharded = attribute.ends_with('4');
        match (self, sharded) {
            (Workload::MemMix, false) => 0,
            (Workload::MemMix, true) => 1,
            (Workload::DiskSpill, false) => 2,
            (Workload::DiskSpill, true) => 3,
            (Workload::LiveRw, _) => 4,
        }
    }
}

/// A ready catalog plus the handles the metrics read.
pub struct Store {
    /// The subsystem registered in the catalog.
    pub subsystem: Arc<dyn Subsystem>,
    /// The same subsystem as its concrete disk type, for disk workloads.
    pub disk: Option<Arc<DiskSubsystem>>,
    /// Storage telemetry (cache, fences, shard merge) for disk workloads.
    pub telemetry: Option<Arc<Telemetry>>,
    /// The directory holding the store's files.
    pub dir: PathBuf,
    /// The flat attribute names, in dataset order.
    pub attributes: Vec<&'static str>,
}

impl Store {
    /// The live store behind each attribute, in dataset order.
    pub fn live_sources(&self) -> Vec<Arc<LiveSource>> {
        let Some(disk) = &self.disk else {
            return Vec::new();
        };
        self.attributes
            .iter()
            .filter_map(|a| disk.live_source(a).cloned())
            .collect()
    }
}

/// Live-store ingest batch: four memtables' worth of upserts, one WAL
/// record and one freeze each.
const INGEST_BATCH: usize = 16_384;

/// Builds the workload's store in the empty directory `dir`: segment
/// builds and verified opens, or live ingest and flush. `timed_vfs` routes
/// every file operation through the timing [`TimingVfs`].
pub fn build_store(
    workload: Workload,
    data: &Dataset,
    dir: &Path,
    timed_vfs: bool,
) -> Result<Store, String> {
    let n = data.len();
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let vfs: Arc<dyn Vfs> = if timed_vfs {
        Arc::new(TimingVfs::new(std_vfs()))
    } else {
        std_vfs()
    };
    let storage_err = |e: garlic_storage::StorageError| format!("storage: {e}");
    let attributes = data.attributes();
    match workload {
        Workload::MemMix => {
            let mut sub = VectorSubsystem::new("mem", n);
            for (a, grades) in attributes.iter().zip(&data.grades) {
                sub = sub
                    .with_list(a, grades)
                    .with_sharded_list(&format!("{a}4"), grades, SHARDS);
            }
            Ok(Store {
                subsystem: Arc::new(sub),
                disk: None,
                telemetry: None,
                dir: dir.to_path_buf(),
                attributes,
            })
        }
        Workload::DiskSpill => {
            let writer = SegmentWriter::new();
            let cache = Arc::new(BlockCache::new(workload.cache_blocks()));
            let mut sub = DiskSubsystem::with_cache("disk", n, cache).with_vfs(vfs);
            for (a, grades) in attributes.iter().zip(&data.grades) {
                let flat = dir.join(format!("{a}.seg"));
                writer.write_grades(&flat, grades).map_err(storage_err)?;
                let shards = writer
                    .write_sharded_grades(dir, &format!("{a}4"), SHARDS, grades)
                    .map_err(storage_err)?;
                sub = sub
                    .open_segment(a, &flat)
                    .map_err(storage_err)?
                    .open_sharded_segment(&format!("{a}4"), shards.iter().map(|s| &s.path))
                    .map_err(storage_err)?;
            }
            Ok(disk_store(sub, dir, attributes))
        }
        Workload::LiveRw => {
            let cache = Arc::new(BlockCache::new(workload.cache_blocks()));
            let mut sub = DiskSubsystem::with_cache("live", n, cache).with_vfs(vfs);
            for &a in &attributes {
                sub = sub
                    .open_live(a, &dir.join(format!("live-{a}")))
                    .map_err(storage_err)?;
            }
            for (a, grades) in attributes.iter().zip(&data.grades) {
                let live = sub.live_source(a).expect("opened above");
                let mut ops = Vec::with_capacity(INGEST_BATCH);
                for (start, chunk) in grades.chunks(INGEST_BATCH).enumerate() {
                    ops.clear();
                    ops.extend(chunk.iter().enumerate().map(|(i, &grade)| WalOp::Upsert {
                        object: ObjectId::from(start * INGEST_BATCH + i),
                        grade,
                    }));
                    live.write_batch(&ops).map_err(storage_err)?;
                }
            }
            for &a in &attributes {
                let live = sub.live_source(a).expect("opened above");
                live.flush().map_err(storage_err)?;
            }
            Ok(disk_store(sub, dir, attributes))
        }
    }
}

fn disk_store(sub: DiskSubsystem, dir: &Path, attributes: Vec<&'static str>) -> Store {
    let telemetry = Telemetry::new();
    sub.register_telemetry(&telemetry);
    let disk = Arc::new(sub);
    Store {
        subsystem: Arc::clone(&disk) as Arc<dyn Subsystem>,
        disk: Some(disk),
        telemetry: Some(telemetry),
        dir: dir.to_path_buf(),
        attributes,
    }
}

/// A service over one subsystem, optionally behind the tracing wrapper.
pub fn service(workload: Workload, subsystem: &Arc<dyn Subsystem>, traced: bool) -> GarlicService {
    let mut catalog = Catalog::new();
    let registered: Arc<dyn Subsystem> = if traced {
        let backend_of: BackendOf = Arc::new(move |a: &str| workload.backend_of(a));
        Arc::new(TracedSubsystem::new(Arc::clone(subsystem), backend_of))
    } else {
        Arc::clone(subsystem)
    };
    catalog
        .register_arc(registered)
        .expect("one subsystem registers");
    GarlicService::new(Garlic::new(catalog))
}

/// The `MemorySource` reference: the flat attributes as plain in-memory
/// lists.
pub fn reference_service(grades: &[Vec<Grade>]) -> GarlicService {
    let mut sub = VectorSubsystem::new("reference", grades[0].len());
    for (a, g) in crate::gen::attributes(grades.len() - 1).iter().zip(grades) {
        sub = sub.with_list(a, g);
    }
    let sub: Arc<dyn Subsystem> = Arc::new(sub);
    service(Workload::MemMix, &sub, false)
}

/// The short strategy label metrics are grouped by.
pub fn strategy_label(strategy: &Strategy) -> &'static str {
    match strategy {
        Strategy::FaMin => "fa_min",
        Strategy::FaGeneric => "fa",
        Strategy::B0Max => "b0_max",
        Strategy::Filtered { .. } => "filtered",
        Strategy::NaiveCalculus => "naive",
        Strategy::InternalPushdown { .. } => "pushdown",
        Strategy::FaNnf => "fa_nnf",
    }
}

/// What identifies one answer: strategy, billed `S`/`R`, and a hash of
/// the entries in order (object ids and grade bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// The plan strategy.
    pub strategy: &'static str,
    /// Billed sorted accesses.
    pub sorted: u64,
    /// Billed random accesses.
    pub random: u64,
    /// FNV-1a over the entries.
    pub entries: u64,
}

impl Fingerprint {
    /// Fingerprints a query result.
    pub fn of(result: &QueryResult) -> Fingerprint {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in result.answers.entries() {
            for word in [e.object.0, e.grade.value().to_bits()] {
                for byte in word.to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        Fingerprint {
            strategy: strategy_label(&result.plan.strategy),
            sorted: result.stats.sorted,
            random: result.stats.random,
            entries: h,
        }
    }
}

/// Parses and serves one query: the measured read path.
pub fn execute(service: &GarlicService, text: &str, k: usize) -> Result<QueryResult, String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    service.top_k(&query, k).map_err(|e| e.to_string())
}

/// Runs every distinct query of `specs` on `service` and on the
/// reference, and requires them to agree bit for bit: entries, tie order,
/// strategy and billed `S`/`R`. Returns each query's fingerprint and a
/// description of every disagreement.
pub fn gate(
    service: &GarlicService,
    reference: &GarlicService,
    specs: &[QuerySpec],
) -> (Vec<Option<Fingerprint>>, Vec<String>) {
    let mut prints = Vec::with_capacity(specs.len());
    let mut mismatches = Vec::new();
    for spec in specs {
        let got = execute(service, &spec.text, spec.k);
        let want = execute(reference, &spec.flat_text, spec.k);
        match (got, want) {
            (Ok(got), Ok(want)) => {
                let same = got.answers.entries() == want.answers.entries()
                    && got.plan.strategy == want.plan.strategy
                    && got.stats == want.stats
                    && !got.degraded;
                if same {
                    prints.push(Some(Fingerprint::of(&got)));
                } else {
                    mismatches.push(format!(
                        "{} k={}: {:?} S={} R={} vs reference {:?} S={} R={}",
                        spec.text,
                        spec.k,
                        got.plan.strategy,
                        got.stats.sorted,
                        got.stats.random,
                        want.plan.strategy,
                        want.stats.sorted,
                        want.stats.random
                    ));
                    prints.push(None);
                }
            }
            (got, want) => {
                mismatches.push(format!(
                    "{} k={}: {:?} / reference {:?}",
                    spec.text,
                    spec.k,
                    got.err(),
                    want.err()
                ));
                prints.push(None);
            }
        }
    }
    (prints, mismatches)
}

/// How answers are checked while the clock runs.
pub enum Check {
    /// Data is fixed: each answer must match the gate's fingerprint.
    Exact(Vec<Option<Fingerprint>>),
    /// Data changes under the reader: each answer must have the gate's
    /// strategy, `min(k, N)` entries and descending grades.
    Shape(Vec<Option<Fingerprint>>, usize),
}

impl Check {
    fn accepts(&self, index: usize, spec: &QuerySpec, result: &QueryResult) -> bool {
        match self {
            Check::Exact(prints) => prints[index] == Some(Fingerprint::of(result)),
            Check::Shape(prints, n) => {
                let entries = result.answers.entries();
                prints[index].is_some_and(|p| p.strategy == strategy_label(&result.plan.strategy))
                    && entries.len() == spec.k.min(*n)
                    && entries.windows(2).all(|w| w[0].grade >= w[1].grade)
                    && !result.degraded
            }
        }
    }
}

/// What the closed-loop reader measured.
#[derive(Debug, Default)]
pub struct Reads {
    /// Latency of every completed query, in ms.
    pub latency_ms: Vec<f64>,
    /// Latencies grouped by plan strategy.
    pub by_strategy: BTreeMap<&'static str, Vec<f64>>,
    /// Latencies grouped by query (index into the mix's specs).
    pub by_spec: Vec<Vec<f64>>,
    /// Billed `S + R`, summed.
    pub accesses: u64,
    /// Queries sent.
    pub attempted: u64,
    /// Queries that failed or answered wrongly.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Wall time of the loop, calibration excluded.
    pub elapsed: Duration,
    /// Calibration kernel times in µs, one every [`CALIBRATE_EVERY`], when
    /// the loop calibrates.
    pub calib_us: Vec<f64>,
    /// For each latency sample, the calibration run just before it.
    pub sample_calib: Vec<usize>,
}

impl Reads {
    /// The latency samples scaled to the reference machine by the
    /// calibration runs around each (see [`crate::calib`]); raw when the
    /// loop did not calibrate.
    pub fn scaled_latency_ms(&self) -> Vec<f64> {
        if self.calib_us.is_empty() {
            return self.latency_ms.clone();
        }
        self.latency_ms
            .iter()
            .zip(&self.sample_calib)
            .map(|(ms, &c)| ms * crate::calib::scale_at(&self.calib_us, c))
            .collect()
    }

    /// Completed reads per second, with the elapsed time scaled like the
    /// latencies.
    pub fn scaled_rate(&self, scaled_ms: &[f64]) -> f64 {
        let raw: f64 = self.latency_ms.iter().sum();
        let scaled: f64 = scaled_ms.iter().sum();
        let elapsed = self.elapsed.as_secs_f64() * crate::metrics::ratio(scaled, raw);
        crate::metrics::ratio(self.latency_ms.len() as f64, elapsed)
    }
}

/// How often a calibrating reader times the calibration kernel.
pub const CALIBRATE_EVERY: Duration = Duration::from_millis(50);

/// The calibration kernel, and a probe of whether the program is idle.
pub struct Calibration<'a> {
    /// The kernel.
    pub kernel: &'a mut Calibrator,
    /// `Some(stamp)` while no program thread works; the stamp changes
    /// whenever work starts (see [`program_idle`]).
    pub idle: &'a dyn Fn() -> Option<u64>,
}

/// Whether the program is idle: the writer is between `write_batch` calls
/// (`writing` is even; it counts every call's start and end) and no live
/// store holds a frozen layer, so the background compactor has nothing to
/// do. `Some(writing)` when idle. Always idle without live stores.
pub fn program_idle(live: &[Arc<LiveSource>], writing: &AtomicU64) -> Option<u64> {
    let stamp = writing.load(Ordering::SeqCst);
    let busy = stamp % 2 == 1 || live.iter().any(|l| l.frozen_layers() > 0);
    (!busy).then_some(stamp)
}

/// The closed-loop client: sends the next query of `mix` only after the
/// previous one returned, until `until` has passed and the current deck is
/// complete, so every window holds exact class shares. Given a
/// `calibration`, it times the kernel between queries about every
/// [`CALIBRATE_EVERY`], only while the program is idle; a timing during
/// which program work started is dropped and retried after the next query.
/// When `traced`, the loop also stops early once the span recorder is
/// nearly full, and every query is wrapped in spans (a separately timed `plan_for`, then parse and
/// `top_k` under one query span).
pub fn read_loop(
    service: &GarlicService,
    mix: &mut QueryMix,
    until: Instant,
    check: &Check,
    traced: bool,
    mut calibration: Option<Calibration<'_>>,
) -> Reads {
    let mut reads = Reads {
        by_spec: vec![Vec::new(); mix.specs().len()],
        ..Reads::default()
    };
    let started = Instant::now();
    let mut calibrating = Duration::ZERO;
    let mut last_calibration: Option<Instant> = None;
    let t = tracer();
    let mut query_id: u32 = 0;
    while Instant::now() < until || !mix.at_deck_start() {
        if traced && t.budget_spent() {
            break;
        }
        if let Some(c) = calibration.as_mut() {
            if last_calibration.is_none_or(|t: Instant| t.elapsed() >= CALIBRATE_EVERY) {
                let start = Instant::now();
                if let Some(before) = (c.idle)() {
                    let us = c.kernel.time();
                    if (c.idle)() == Some(before) {
                        reads.calib_us.push(us);
                        last_calibration = Some(Instant::now());
                    }
                }
                calibrating += start.elapsed();
            }
        }
        let index = mix.next_index();
        let spec = &mix.specs()[index];
        reads.attempted += 1;
        let (outcome, elapsed) = if traced {
            query_id += 1;
            t.set_query(query_id);
            let outcome = traced_query(service, spec);
            t.set_query(0);
            outcome
        } else {
            let start = Instant::now();
            let outcome = execute(service, &spec.text, spec.k);
            (outcome, start.elapsed())
        };
        match outcome {
            Ok(result) if check.accepts(index, spec, &result) => {
                let ms = elapsed.as_secs_f64() * 1e3;
                reads.latency_ms.push(ms);
                reads
                    .sample_calib
                    .push(reads.calib_us.len().saturating_sub(1));
                reads
                    .by_strategy
                    .entry(strategy_label(&result.plan.strategy))
                    .or_default()
                    .push(ms);
                reads.by_spec[index].push(ms);
                reads.accesses += result.stats.sorted + result.stats.random;
            }
            Ok(result) => {
                reads.failed += 1;
                if reads.failures.len() < 5 {
                    reads.failures.push(format!(
                        "wrong answer: {} k={} ({:?})",
                        spec.text,
                        spec.k,
                        Fingerprint::of(&result)
                    ));
                }
            }
            Err(e) => {
                reads.failed += 1;
                if reads.failures.len() < 5 {
                    reads
                        .failures
                        .push(format!("{} k={}: {e}", spec.text, spec.k));
                }
            }
        }
    }
    reads.elapsed = started.elapsed().saturating_sub(calibrating);
    reads
}

/// One traced query; its latency covers parse and `top_k`, as untraced.
fn traced_query(
    service: &GarlicService,
    spec: &QuerySpec,
) -> (Result<QueryResult, String>, Duration) {
    if let Ok(query) = parse_query(&spec.text) {
        let _ = span(
            Kind::Plan,
            0,
            |_| 0,
            || service.garlic().plan_for(&query, spec.k),
        );
    }
    let open = tracer().open(Kind::Query, 0, true);
    let start = Instant::now();
    let parsed = span(Kind::Parse, 0, |_| 0, || parse_query(&spec.text));
    let outcome = match parsed {
        Ok(query) => {
            span(Kind::Exec, 0, |_| 0, || service.top_k(&query, spec.k)).map_err(|e| e.to_string())
        }
        Err(e) => Err(e.to_string()),
    };
    let elapsed = start.elapsed();
    if let Some(open) = open {
        open.close(0);
    }
    (outcome, elapsed)
}

/// Phases of a run, as the writer sees them.
pub mod phase {
    /// Before the measured windows.
    pub const WARMUP: u8 = 0;
    /// The untraced measured window.
    pub const MEASURE: u8 = 1;
    /// The traced measured window.
    pub const TRACED: u8 = 2;
    /// After the measured windows.
    pub const DONE: u8 = 3;
}

/// `write_batch` calls per second of the open-loop writer. With
/// [`WRITE_OPS`] that is 2048 upserts/s over five stores, so each store's
/// 4096-op memtable freezes about every 10 s and the window sees about ten
/// freeze-and-compact cycles. A `write_batch` fsyncs, and a freeze fsyncs
/// several times, while holding the lock every read's snapshot takes; on a
/// shared disk whose fsyncs take 2-10 ms and now and then stall for
/// 50-250 ms, 200 (or even 10) calls a second and a freeze every 0.3 s
/// made read latency track the disk's state from minute to minute rather
/// than the program, and fell behind schedule enough to make runs invalid.
pub const WRITE_RATE: f64 = 2.0;

/// Upserts per `write_batch` call.
pub const WRITE_OPS: usize = 1024;

/// What the open-loop writer measured in one phase.
#[derive(Debug, Default, Clone)]
pub struct WritePhase {
    /// Latency of each acknowledged batch from its due time, in ms.
    pub latency_ms: Vec<f64>,
    /// How late each batch was sent, in ms.
    pub lag_ms: Vec<f64>,
    /// Upserts acknowledged.
    pub ops: u64,
    /// Batches that failed.
    pub failed: u64,
    /// Most frozen memtables seen on any attribute after a write.
    pub frozen_max: usize,
}

/// Everything the writer returns when stopped.
#[derive(Debug)]
pub struct Writes {
    /// Per-phase measurements, indexed by [`phase`].
    pub phases: [WritePhase; 4],
    /// The model of every acknowledged write: the grades the stores must
    /// now hold.
    pub model: Vec<Vec<Grade>>,
    /// The first few failures.
    pub failures: Vec<String>,
}

/// Runs the open-loop writer until `stop`: batch `i` is due at
/// `start + i / WRITE_RATE` and goes to store `i mod stores`; it is sent as soon
/// as it is due, or late if the previous batch has not returned. `writing`
/// is bumped as each call starts and again as it returns.
pub fn write_loop(
    stores: &[Arc<LiveSource>],
    mut model: Vec<Vec<Grade>>,
    seed: u64,
    current: &AtomicU8,
    stop: &AtomicBool,
    writing: &AtomicU64,
) -> Writes {
    crate::trace::set_role(Role::Writer);
    let mut rng = Rng::new(seed, 3);
    let n = model[0].len() as u64;
    let period = Duration::from_secs_f64(1.0 / WRITE_RATE);
    let mut phases: [WritePhase; 4] = Default::default();
    let mut failures = Vec::new();
    let mut ops = Vec::with_capacity(WRITE_OPS);
    let start = Instant::now();
    let mut i: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        let due = start + period * i;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let attribute = i as usize % stores.len();
        ops.clear();
        for _ in 0..WRITE_OPS {
            let object = rng.below(n);
            // The crisp attribute is the last store: keep it crisp.
            let grade = if attribute + 1 == stores.len() {
                Grade::from_bool(rng.below(1_000_000) < (CRISP_SHARE * 1e6) as u64)
            } else {
                quantized(&mut rng)
            };
            ops.push(WalOp::Upsert {
                object: ObjectId(object),
                grade,
            });
        }
        let phase = &mut phases[usize::from(current.load(Ordering::SeqCst))];
        let sent = Instant::now();
        writing.fetch_add(1, Ordering::SeqCst);
        let result = stores[attribute].write_batch(&ops);
        writing.fetch_add(1, Ordering::SeqCst);
        let done = Instant::now();
        match result {
            Ok(()) => {
                for op in &ops {
                    if let WalOp::Upsert { object, grade } = *op {
                        model[attribute][object.index()] = grade;
                    }
                }
                phase.latency_ms.push((done - due).as_secs_f64() * 1e3);
                phase
                    .lag_ms
                    .push((sent.saturating_duration_since(due)).as_secs_f64() * 1e3);
                phase.ops += ops.len() as u64;
                let frozen = stores[attribute].frozen_layers();
                phase.frozen_max = phase.frozen_max.max(frozen);
            }
            Err(e) => {
                phase.failed += 1;
                if failures.len() < 5 {
                    failures.push(format!("write_batch: {e}"));
                }
            }
        }
        i += 1;
    }
    Writes {
        phases,
        model,
        failures,
    }
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
