//! In-memory span recording for the traced run.
//!
//! Spans are recorded only by the benchmark's own wrappers around the
//! program's public traits and calls (see `wrap`), never inside the
//! program. A span has a kind, a start and an end, a parent span and the
//! id of the query it belongs to. Spans stay in memory until the run ends.
//!
//! Parents come from a per-thread stack of open spans. Work that a layer
//! hands to helper threads (sharded refills fetch on scoped threads) has
//! an empty stack; its spans fall back to the source span currently open
//! on the reader, so child spans of one parent may overlap. File spans of
//! a live store's directory never take that fallback: on a thread the
//! program started they are background compaction, not the reader's work.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One whole query: parse plus `GarlicService::top_k`.
    Query,
    /// `parse_query`.
    Parse,
    /// A separately timed `Garlic::plan_for`.
    Plan,
    /// `GarlicService::top_k`: plan, engine and sources.
    Exec,
    /// `Subsystem::evaluate` / `evaluate_set`.
    Evaluate,
    /// A sorted-access call on a source (`count` = entries returned).
    Sorted,
    /// A random-access call on a source (`count` = probes).
    Random,
    /// A crisp match-set scan (`count` = objects returned).
    SetScan,
    /// A positioned file read (`count` = bytes).
    VfsRead,
    /// A file write (`count` = bytes).
    VfsWrite,
    /// A data or metadata sync of a file.
    VfsSync,
    /// A file creation.
    VfsCreate,
    /// A rename (classified by its destination).
    VfsRename,
}

/// Which thread a span ran on, by the benchmark's own roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The closed-loop query client (and set-up).
    Reader,
    /// The open-loop writer of `live_rw`.
    Writer,
    /// Any thread the program started itself: scoped shard fetches,
    /// background compactors.
    Other,
}

/// The kind of file a VFS span touched, from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A segment, or the staging file of one.
    Segment,
    /// A write-ahead log.
    Wal,
    /// A live store's manifest, or its staging file.
    Manifest,
    /// Anything else.
    Other,
    /// Not a file span.
    None,
}

impl FileKind {
    /// Classifies a path by its file name.
    pub fn of(path: &std::path::Path) -> FileKind {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.contains("MANIFEST") {
            FileKind::Manifest
        } else if name.contains(".wal") {
            FileKind::Wal
        } else if name.contains(".seg") {
            FileKind::Segment
        } else {
            FileKind::Other
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    /// Unique, non-zero id.
    pub id: u32,
    /// The causing span, 0 for a root.
    pub parent: u32,
    /// The in-flight query when the span opened, 0 for none.
    pub query: u32,
    /// What the span covers.
    pub kind: Kind,
    /// Backend index of the source or subsystem call (see `bench::BACKENDS`).
    pub backend: u8,
    /// The recording thread's role.
    pub role: Role,
    /// Small per-process thread number.
    pub thread: u32,
    /// File kind, for VFS spans.
    pub file: FileKind,
    /// Whether a VFS span touched a live store's directory.
    pub live: bool,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Entries, probes or bytes, by kind.
    pub count: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The process-wide span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    /// The query the reader has in flight (0 when idle).
    query: AtomicU32,
    /// The source span open on the reader, for helper-thread children.
    open_source: AtomicU32,
    next_thread: AtomicU32,
    dropped: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// Most spans one run keeps (about 50 MB); beyond this they are counted
/// as dropped.
const SPAN_LIMIT: usize = 1_000_000;

/// Once this many spans are kept the traced reader stops sending queries,
/// leaving room for the spans of the one in flight (a naive scan records
/// tens of thousands).
const SPAN_BUDGET: usize = SPAN_LIMIT * 8 / 10;

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static ROLE: Cell<Role> = const { Cell::new(Role::Other) };
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

/// The process-wide tracer.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU32::new(1),
        query: AtomicU32::new(0),
        open_source: AtomicU32::new(0),
        next_thread: AtomicU32::new(1),
        dropped: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
    })
}

/// Sets the calling thread's role.
pub fn set_role(role: Role) {
    ROLE.with(|r| r.set(role));
}

fn thread_number() -> u32 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(tracer().next_thread.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// A span that has started but not ended.
#[derive(Debug)]
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    rec: SpanRec,
    pushed: bool,
    source: bool,
    prev_source: u32,
    /// Whether the parent is the reader's open source span, taken from
    /// another thread.
    borrowed_parent: bool,
}

impl Tracer {
    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Marks `query` as in flight (0 = none).
    pub fn set_query(&self, query: u32) {
        self.query.store(query, Ordering::SeqCst);
    }

    /// Opens a span on the calling thread, or `None` when recording is
    /// off. Spans that can have children (`nests`) go on the thread's
    /// stack until closed.
    pub fn open(&self, kind: Kind, backend: u8, nests: bool) -> Option<Open> {
        if !self.enabled() {
            return None;
        }
        let role = ROLE.with(Cell::get);
        let top = STACK.with(|s| s.borrow().last().copied());
        let (parent, borrowed_parent) = match (top, role) {
            (Some(p), _) => (p, false),
            (None, Role::Other) => (self.open_source.load(Ordering::SeqCst), true),
            (None, _) => (0, false),
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let source = matches!(kind, Kind::Sorted | Kind::Random | Kind::SetScan);
        let prev_source = if source && role == Role::Reader {
            self.open_source.swap(id, Ordering::SeqCst)
        } else {
            0
        };
        if nests {
            STACK.with(|s| s.borrow_mut().push(id));
        }
        Some(Open {
            rec: SpanRec {
                id,
                parent,
                query: self.query.load(Ordering::SeqCst),
                kind,
                backend,
                role,
                thread: thread_number(),
                file: FileKind::None,
                live: false,
                start: self.now(),
                end: 0,
                count: 0,
            },
            pushed: nests,
            source: source && role == Role::Reader,
            prev_source,
            borrowed_parent,
        })
    }

    /// Records a finished span.
    fn record(&self, rec: SpanRec) {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() < SPAN_LIMIT {
            spans.push(rec);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes every recorded span, leaving the recorder empty.
    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Whether the traced reader should stop: the recorder is nearly full.
    pub fn budget_spent(&self) -> bool {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
            >= SPAN_BUDGET
    }

    /// Spans not kept because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Open {
    /// Tags a VFS span with the file it touched.
    pub fn file(mut self, path: &std::path::Path) -> Open {
        self.rec.file = FileKind::of(path);
        self.rec.live = path
            .components()
            .any(|c| c.as_os_str().to_string_lossy().starts_with("live-"));
        if self.rec.live && self.borrowed_parent {
            self.rec.parent = 0;
        }
        self
    }

    /// Ends the span with its count and records it.
    pub fn close(mut self, count: u64) {
        let t = tracer();
        self.rec.end = t.now();
        self.rec.count = count;
        if self.pushed {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.last() == Some(&self.rec.id) {
                    s.pop();
                }
            });
        }
        if self.source {
            t.open_source.store(self.prev_source, Ordering::SeqCst);
        }
        t.record(self.rec);
    }
}

/// Runs `f` inside a span when recording is on; `count` derives the
/// span's count from the result.
pub fn span<T>(kind: Kind, backend: u8, count: impl FnOnce(&T) -> u64, f: impl FnOnce() -> T) -> T {
    match tracer().open(kind, backend, true) {
        None => f(),
        Some(open) => {
            let out = f();
            let n = count(&out);
            open.close(n);
            out
        }
    }
}

/// Length of the union of `intervals` (each `(start, end)`, end exclusive).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        if e <= s {
            continue;
        }
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlapping
/// children counted once). Indexed like `spans`.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let parent = &spans[p];
            let (start, end) = (s.start.max(parent.start), s.end.min(parent.end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, c)| s.duration().saturating_sub(union_len(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: u32, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            query: 1,
            kind: Kind::Sorted,
            backend: 0,
            role: Role::Reader,
            thread: 1,
            file: FileKind::None,
            live: false,
            start,
            end,
            count: 0,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50), (45, 46), (50, 55)];
        assert_eq!(union_len(&mut iv), 20 + 15);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // Parent 0..100; children on parallel threads: 10..60 and 40..80
        // overlap (union 10..80 = 70), a third child sticks out past the
        // parent's end and is clipped to 90..100.
        let spans = vec![
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 60),
            rec(3, 1, 40, 80),
            rec(4, 1, 90, 130),
            rec(5, 2, 20, 30),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 70 - 10);
        assert_eq!(st[1], 50 - 10);
        assert_eq!(st[2], 40);
        assert_eq!(st[3], 40);
        assert_eq!(st[4], 10);
    }

    /// The only test in this crate's unit tests that records spans through
    /// the process-wide tracer.
    #[test]
    fn background_live_io_is_not_a_child_of_the_readers_source_span() {
        let t = tracer();
        t.set_enabled(true);
        set_role(Role::Reader);
        let source = t.open(Kind::Sorted, 2, true).expect("recording");
        let source_id = source.rec.id;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // A compactor and a shard refill, both on program threads.
                let compact = t.open(Kind::VfsRead, 0, false).expect("recording");
                std::thread::sleep(std::time::Duration::from_millis(2));
                compact
                    .file(std::path::Path::new("run/live-A/seg-000004.seg"))
                    .close(1);
                let refill = t.open(Kind::VfsRead, 0, false).expect("recording");
                std::thread::sleep(std::time::Duration::from_millis(2));
                refill
                    .file(std::path::Path::new("run/A4/seg-000001.seg"))
                    .close(1);
            });
        });
        source.close(0);
        t.set_enabled(false);
        let spans = t.take();
        let source = spans.iter().position(|s| s.id == source_id).unwrap();
        let compact = spans.iter().find(|s| s.live).unwrap();
        let refill = spans
            .iter()
            .find(|s| s.kind == Kind::VfsRead && !s.live)
            .unwrap();
        assert_eq!(compact.parent, 0);
        assert_eq!(refill.parent, source_id);
        // Only the refill is taken out of the source's self time.
        let selfs = self_times(&spans);
        assert_eq!(selfs[source], spans[source].duration() - refill.duration());
    }

    #[test]
    fn file_kinds_follow_names() {
        use std::path::Path;
        assert_eq!(
            FileKind::of(Path::new("x/seg-000003.seg")),
            FileKind::Segment
        );
        assert_eq!(
            FileKind::of(Path::new("x/seg-000003.seg.tmp")),
            FileKind::Segment
        );
        assert_eq!(FileKind::of(Path::new("x/wal-000002.wal")), FileKind::Wal);
        assert_eq!(
            FileKind::of(Path::new("x/MANIFEST.tmp")),
            FileKind::Manifest
        );
        assert_eq!(FileKind::of(Path::new("x/other")), FileKind::Other);
    }
}
