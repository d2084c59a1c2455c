//! Timing wrappers around the program's public traits, installed only for
//! the traced run: a [`Subsystem`] wrapper whose answers are wrapped
//! [`GradedSource`]s / [`SetAccess`]es, and a [`Vfs`] wrapper installed
//! with `DiskSubsystem::with_vfs`.
//!
//! Every trait method is forwarded to the wrapped value, including the
//! provided ones, so the program runs the same code paths it runs
//! untraced: same plans, answers and billed accesses.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::access::{BoundedBatch, GradedSource, SetAccess, SourceError};
use garlic_core::{GradedEntry, ObjectId};
use garlic_storage::{Vfs, VfsFile, VfsRead};
use garlic_subsys::{AtomicQuery, Subsystem, SubsystemError};

use crate::trace::{span, tracer, Kind};

/// Maps an attribute name to the backend index its spans are tagged with.
pub type BackendOf = Arc<dyn Fn(&str) -> u8 + Send + Sync>;

/// A [`Subsystem`] that times `evaluate`/`evaluate_set` and wraps each
/// answer in a [`TracedSource`].
pub struct TracedSubsystem {
    inner: Arc<dyn Subsystem>,
    backend_of: BackendOf,
}

impl TracedSubsystem {
    /// Wraps `inner`; `backend_of` tags spans by attribute.
    pub fn new(inner: Arc<dyn Subsystem>, backend_of: BackendOf) -> Self {
        TracedSubsystem { inner, backend_of }
    }
}

impl Subsystem for TracedSubsystem {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn attributes(&self) -> Vec<String> {
        self.inner.attributes()
    }

    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn evaluate(&self, query: &AtomicQuery) -> Result<Arc<dyn GradedSource>, SubsystemError> {
        let backend = (self.backend_of)(&query.attribute);
        let source = span(
            Kind::Evaluate,
            backend,
            |_| 0,
            || self.inner.evaluate(query),
        )?;
        Ok(Arc::new(TracedSource {
            inner: source,
            backend,
        }))
    }

    fn is_crisp(&self, attribute: &str) -> bool {
        self.inner.is_crisp(attribute)
    }

    fn evaluate_set(&self, query: &AtomicQuery) -> Result<Arc<dyn SetAccess>, SubsystemError> {
        let backend = (self.backend_of)(&query.attribute);
        let set = span(
            Kind::Evaluate,
            backend,
            |_| 0,
            || self.inner.evaluate_set(query),
        )?;
        Ok(Arc::new(TracedSource {
            inner: set,
            backend,
        }))
    }

    fn estimate_matches(&self, query: &AtomicQuery) -> Option<usize> {
        self.inner.estimate_matches(query)
    }

    fn supports_internal_conjunction(&self) -> bool {
        self.inner.supports_internal_conjunction()
    }

    fn evaluate_internal_conjunction(
        &self,
        queries: &[AtomicQuery],
    ) -> Result<Arc<dyn GradedSource>, SubsystemError> {
        let backend = queries
            .first()
            .map_or(0, |q| (self.backend_of)(&q.attribute));
        let source = span(
            Kind::Evaluate,
            backend,
            |_| 0,
            || self.inner.evaluate_internal_conjunction(queries),
        )?;
        Ok(Arc::new(TracedSource {
            inner: source,
            backend,
        }))
    }
}

/// A source answer with every access timed.
pub struct TracedSource<S: ?Sized> {
    inner: Arc<S>,
    backend: u8,
}

fn appended<E>(r: &Result<usize, E>) -> u64 {
    r.as_ref().map_or(0, |n| *n as u64)
}

fn bounded_appended<E>(r: &Result<BoundedBatch, E>) -> u64 {
    r.as_ref().map_or(0, |b| b.appended as u64)
}

impl<S: GradedSource + ?Sized> GradedSource for TracedSource<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn sorted_access(&self, rank: usize) -> Option<GradedEntry> {
        span(
            Kind::Sorted,
            self.backend,
            |e: &Option<GradedEntry>| u64::from(e.is_some()),
            || self.inner.sorted_access(rank),
        )
    }

    fn random_access(&self, object: ObjectId) -> Option<Grade> {
        span(
            Kind::Random,
            self.backend,
            |_| 1,
            || self.inner.random_access(object),
        )
    }

    fn random_batch(&self, objects: &[ObjectId], out: &mut Vec<Option<Grade>>) {
        span(
            Kind::Random,
            self.backend,
            |_| objects.len() as u64,
            || self.inner.random_batch(objects, out),
        )
    }

    fn sorted_batch(&self, start: usize, count: usize, out: &mut Vec<GradedEntry>) -> usize {
        span(
            Kind::Sorted,
            self.backend,
            |n: &usize| *n as u64,
            || self.inner.sorted_batch(start, count, out),
        )
    }

    fn sorted_batch_bounded(
        &self,
        start: usize,
        count: usize,
        bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> BoundedBatch {
        span(
            Kind::Sorted,
            self.backend,
            |b: &BoundedBatch| b.appended as u64,
            || self.inner.sorted_batch_bounded(start, count, bound, out),
        )
    }

    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        span(Kind::Sorted, self.backend, appended, || {
            self.inner.try_sorted_batch(start, count, out)
        })
    }

    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        span(
            Kind::Random,
            self.backend,
            |_| objects.len() as u64,
            || self.inner.try_random_batch(objects, out),
        )
    }

    fn try_sorted_batch_bounded(
        &self,
        start: usize,
        count: usize,
        bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> Result<BoundedBatch, SourceError> {
        span(Kind::Sorted, self.backend, bounded_appended, || {
            self.inner
                .try_sorted_batch_bounded(start, count, bound, out)
        })
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }
}

impl SetAccess for TracedSource<dyn SetAccess> {
    fn matching_set(&self) -> Vec<ObjectId> {
        span(
            Kind::SetScan,
            self.backend,
            |v: &Vec<ObjectId>| v.len() as u64,
            || self.inner.matching_set(),
        )
    }

    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        span(
            Kind::SetScan,
            self.backend,
            |r: &Result<Vec<ObjectId>, SourceError>| r.as_ref().map_or(0, |v| v.len() as u64),
            || self.inner.try_matching_set(),
        )
    }
}

/// A [`Vfs`] that times every read, write, sync, create and rename.
#[derive(Debug)]
pub struct TimingVfs {
    inner: Arc<dyn Vfs>,
}

impl TimingVfs {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        TimingVfs { inner }
    }
}

/// Runs a file operation inside a non-nesting VFS span tagged with `path`.
fn file_span<T>(kind: Kind, path: &Path, count: u64, f: impl FnOnce() -> T) -> T {
    match tracer().open(kind, 0, false) {
        None => f(),
        Some(open) => {
            let out = f();
            open.file(path).close(count);
            out
        }
    }
}

impl Vfs for TimingVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsRead>> {
        let inner = self.inner.open_read(path)?;
        Ok(Box::new(TimedRead {
            inner,
            path: path.to_path_buf(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = file_span(Kind::VfsCreate, path, 0, || self.inner.create(path))?;
        Ok(Box::new(TimedFile {
            inner,
            path: path.to_path_buf(),
        }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.open_rw(path)?;
        Ok(Box::new(TimedFile {
            inner,
            path: path.to_path_buf(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        file_span(Kind::VfsRename, to, 0, || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        file_span(Kind::VfsSync, dir, 0, || self.inner.sync_dir(dir))
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }
}

struct TimedRead {
    inner: Box<dyn VfsRead>,
    path: PathBuf,
}

impl VfsRead for TimedRead {
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let n = buf.len() as u64;
        file_span(Kind::VfsRead, &self.path, n, || {
            self.inner.read_exact_at(buf, offset)
        })
    }
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
}

impl VfsFile for TimedFile {
    fn read_to_end(&mut self, out: &mut Vec<u8>) -> io::Result<usize> {
        self.inner.read_to_end(out)
    }

    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.inner.seek_to(offset)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let (inner, path) = (&mut self.inner, &self.path);
        file_span(Kind::VfsWrite, path, buf.len() as u64, || {
            inner.write_all(buf)
        })
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let (inner, path) = (&mut self.inner, &self.path);
        file_span(Kind::VfsSync, path, 0, || inner.sync_data())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let (inner, path) = (&mut self.inner, &self.path);
        file_span(Kind::VfsSync, path, 0, || inner.sync_all())
    }
}
