//! The round-trip property: a segment written from any graded list and
//! reopened must be **bit-identical** to a [`MemorySource`] over the same
//! pairs — the same entries in the same skeleton (tie) order, the same
//! random-access answers, the same Section-5 access counts under metering,
//! and the same resumed-paging output from a cold cursor. Disk is an
//! implementation detail; the paper's access contract is the observable.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use garlic_agg::iterated::min_agg;
use garlic_agg::Grade;
use garlic_core::access::{CountingSource, GradedSource, MemorySource, SetAccess, SortedCursor};
use garlic_core::algorithms::fa::fagin_topk;
use garlic_core::{GradedEntry, ObjectId};
use garlic_storage::format::{
    FooterV2, FLAG_GRADE_DICT, FORMAT_V1, FORMAT_VERSION, GRADE_DICT_MAX,
};
use garlic_storage::{BlockCache, SegmentSource, SegmentWriter};
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

fn case_path() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("garlic-storage-proptest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("case-{}.seg", CASE.fetch_add(1, Ordering::Relaxed)))
}

/// Sparse pairs with deliberately collision-prone ids (deduplicated) and
/// quantized grades so ties are common — tie order is the property under
/// test.
fn pairs_strategy() -> impl Strategy<Value = Vec<(ObjectId, Grade)>> {
    proptest::collection::vec((0u64..200, 0u32..=8), 0..120).prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        raw.into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .map(|(id, g)| (ObjectId(id), Grade::clamped(g as f64 / 8.0)))
            .collect()
    })
}

/// Block sizes from one-entry blocks to the default page, so batch and
/// block boundaries land everywhere relative to each other.
fn block_size_strategy() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [16, 48, 160, 4096][i])
}

/// Both on-disk format versions, so every property holds for each.
fn version_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(FORMAT_V1), Just(FORMAT_VERSION)]
}

/// The table-block encodings a random probe can land in: v1 fixed slots,
/// v2 with the grade dictionary, and v2 with delta-coded grade bits (more
/// than [`GRADE_DICT_MAX`] distinct grades).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Encoding {
    V1,
    V2Dict,
    V2Delta,
}

fn encoding_strategy() -> impl Strategy<Value = Encoding> {
    prop_oneof![
        Just(Encoding::V1),
        Just(Encoding::V2Dict),
        Just(Encoding::V2Delta)
    ]
}

/// Probe lists as drawn (shuffled) or sorted descending; each drawn id
/// repeats 1–3 times in a row, so runs of duplicates are common.
fn probes_strategy() -> impl Strategy<Value = Vec<ObjectId>> {
    (
        proptest::collection::vec((0u64..220, 1usize..4), 0..40),
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(|(runs, descending)| {
            let mut probes: Vec<ObjectId> = runs
                .into_iter()
                .flat_map(|(id, run)| std::iter::repeat_n(ObjectId(id), run))
                .collect();
            if descending {
                probes.sort_unstable_by(|a, b| b.cmp(a));
            }
            probes
        })
}

/// Whether the v2 segment at `path` stores its grades as dictionary
/// indices, read from the footer the trailer points at.
fn has_grade_dict(path: &PathBuf) -> bool {
    let bytes = std::fs::read(path).unwrap();
    let word = |from: usize| u64::from_le_bytes(bytes[from..from + 8].try_into().unwrap()) as usize;
    let (offset, len) = (word(bytes.len() - 24), word(bytes.len() - 16));
    let footer = FooterV2::parse(&bytes[offset..offset + len]).unwrap();
    footer.flags & FLAG_GRADE_DICT != 0
}

fn reopen(path: &PathBuf) -> SegmentSource {
    SegmentSource::open(path, Arc::new(BlockCache::new(32))).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Entries, tie order, random access, and the matching set all equal
    /// the in-memory source — under both a cold and a warm cache.
    #[test]
    fn segment_is_bit_identical_to_memory(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
    ) {
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        let seg = reopen(&path);
        let mem = MemorySource::from_pairs(pairs.clone());

        prop_assert_eq!(seg.len(), mem.len());
        for pass in ["cold", "warm"] {
            for rank in 0..=mem.len() {
                prop_assert_eq!(
                    seg.sorted_access(rank),
                    mem.sorted_access(rank),
                    "{} rank {}", pass, rank
                );
            }
            for probe in 0..220u64 {
                prop_assert_eq!(
                    seg.random_access(ObjectId(probe)),
                    mem.random_access(ObjectId(probe)),
                    "{} object {}", pass, probe
                );
            }
            prop_assert_eq!(seg.matching_set(), mem.matching_set(), "{}", pass);
        }
    }

    /// The batched cursor stream replays the positional stream for any
    /// batch size, and metering bills identically on both backends.
    #[test]
    fn cursor_stream_and_counts_match_memory(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
        batch in 1usize..17,
    ) {
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        let seg = CountingSource::new(reopen(&path));
        let mem = CountingSource::new(MemorySource::from_pairs(pairs));

        let mut seg_stream = Vec::new();
        let mut cursor = seg.open_sorted();
        while cursor.next_batch(&mut seg_stream, batch) > 0 {}
        let mut mem_stream = Vec::new();
        let mut cursor = mem.open_sorted();
        while cursor.next_batch(&mut mem_stream, batch) > 0 {}

        prop_assert_eq!(seg_stream, mem_stream);
        prop_assert_eq!(seg.stats(), mem.stats(), "identical Section-5 bills");
    }

    /// Block-grouped batched random access is observably the per-object
    /// loop: for arbitrary sparse probe sequences — shuffled or descending,
    /// runs of duplicates, misses below/between/above the fences — over
    /// every table-block encoding, the segment's `random_batch` answers
    /// exactly what `MemorySource` answers, positionally aligned, with
    /// identical Section-5 random bills, and touches each candidate table
    /// block at most once per batch.
    #[test]
    fn segment_random_batch_matches_memory_and_bills_identically(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
        encoding in encoding_strategy(),
        probes in probes_strategy(),
    ) {
        let mut pairs = pairs;
        if encoding == Encoding::V2Delta {
            // One more distinct grade than the dictionary holds, on every
            // other id from 200 up, so probes 200..220 hit and miss there.
            pairs.extend((0..=GRADE_DICT_MAX as u64).map(|j| {
                let grade = (j + 1) as f64 / (GRADE_DICT_MAX + 2) as f64;
                (ObjectId(200 + 2 * j), Grade::clamped(grade))
            }));
        }
        let version = if encoding == Encoding::V1 { FORMAT_V1 } else { FORMAT_VERSION };
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .with_version(version)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        if encoding != Encoding::V1 {
            let dict_expected = encoding == Encoding::V2Dict && !pairs.is_empty();
            prop_assert_eq!(has_grade_dict(&path), dict_expected, "{:?}", encoding);
        }
        let cache = Arc::new(BlockCache::new(64));
        let seg = CountingSource::new(
            SegmentSource::open(&path, Arc::clone(&cache)).unwrap(),
        );
        let mem = CountingSource::new(MemorySource::from_pairs(pairs));

        let mut from_seg = Vec::new();
        seg.random_batch(&probes, &mut from_seg);
        let mut from_mem = Vec::new();
        mem.random_batch(&probes, &mut from_mem);
        prop_assert_eq!(&from_seg, &from_mem);
        prop_assert_eq!(seg.stats(), mem.stats(), "identical random bills");

        // Probe-for-probe agreement with the per-object path too.
        let looped: Vec<Option<Grade>> =
            probes.iter().map(|&p| seg.random_access(p)).collect();
        prop_assert_eq!(&from_seg, &looped);

        // Block economy: the batch issued at most one cache request per
        // table block (every probe with a fence candidate maps to one).
        let entries_per_block = block_size / 16;
        let table_blocks = seg.inner().len().div_ceil(entries_per_block.max(1)) as u64;
        // The per-probe loop above polluted the counters; isolate one
        // batch's requests by re-running it against a cleared cache.
        cache.clear();
        let base = cache.stats();
        let mut again = Vec::new();
        seg.random_batch(&probes, &mut again);
        let after = cache.stats();
        let batch_requests = (after.hits + after.misses) - (base.hits + base.misses);
        prop_assert!(
            batch_requests <= table_blocks,
            "one batch issued {batch_requests} block requests over {table_blocks} table blocks"
        );
    }

    /// Fagin's algorithm over segment-backed sources returns the same
    /// top-k entries (objects, grades, tie order) with the same per-source
    /// Section-5 access counts as over memory-backed sources.
    #[test]
    fn fagin_topk_costs_the_same_on_disk(
        lists in proptest::collection::vec(
            proptest::collection::vec(0u32..=8, 1..40),
            1..4,
        ),
        k in 1usize..12,
    ) {
        let n = lists.iter().map(|l| l.len()).min().unwrap();
        let grades: Vec<Vec<Grade>> = lists
            .iter()
            .map(|l| l[..n].iter().map(|&g| Grade::clamped(g as f64 / 8.0)).collect())
            .collect();
        let k = k.min(n);

        let mem: Vec<CountingSource<MemorySource>> = grades
            .iter()
            .map(|g| CountingSource::new(MemorySource::from_grades(g)))
            .collect();
        let cache = Arc::new(BlockCache::new(64));
        let seg: Vec<CountingSource<SegmentSource>> = grades
            .iter()
            .map(|g| {
                let path = case_path();
                SegmentWriter::with_block_size(48)
                    .unwrap()
                    .write_grades(&path, g)
                    .unwrap();
                CountingSource::new(SegmentSource::open(&path, Arc::clone(&cache)).unwrap())
            })
            .collect();

        let agg = min_agg();
        let from_mem = fagin_topk(&mem, &agg, k).unwrap();
        let from_seg = fagin_topk(&seg, &agg, k).unwrap();

        prop_assert_eq!(from_seg.entries(), from_mem.entries(), "same answers, same tie order");
        for (s, m) in seg.iter().zip(&mem) {
            prop_assert_eq!(s.stats(), m.stats(), "same per-source access counts");
        }
    }

    /// A v1 segment and a v2 segment over the same pairs are observably
    /// one source: identical streams, tie order, random-access answers,
    /// matching sets, and Section-5 bills.
    #[test]
    fn v1_and_v2_formats_are_observably_identical(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
        batch in 1usize..17,
    ) {
        let mut segs = Vec::new();
        for version in [FORMAT_V1, FORMAT_VERSION] {
            let path = case_path();
            SegmentWriter::with_block_size(block_size)
                .unwrap()
                .with_version(version)
                .unwrap()
                .write_pairs(&path, pairs.clone())
                .unwrap();
            segs.push(CountingSource::new(reopen(&path)));
        }
        let (v1, v2) = (&segs[0], &segs[1]);
        prop_assert_eq!(v1.inner().version(), FORMAT_V1);
        prop_assert_eq!(v2.inner().version(), FORMAT_VERSION);

        let mut streams = [Vec::new(), Vec::new()];
        for (seg, stream) in segs.iter().zip(streams.iter_mut()) {
            let mut cursor = seg.open_sorted();
            while cursor.next_batch(stream, batch) > 0 {}
        }
        let [s1, s2] = streams;
        prop_assert_eq!(s1, s2, "identical streams and tie order");
        for probe in 0..220u64 {
            prop_assert_eq!(
                v1.random_access(ObjectId(probe)),
                v2.random_access(ObjectId(probe)),
                "object {}", probe
            );
        }
        prop_assert_eq!(v1.matching_set(), v2.matching_set());
        prop_assert_eq!(v1.stats(), v2.stats(), "identical Section-5 bills");
    }

    /// A threshold-hinted cursor — with an arbitrary, possibly dirty hint
    /// — emits an exact prefix of the unbounded stream on every backend
    /// and format, is honest about why it stopped, bills exactly the
    /// entries it emitted, and resumes into the full stream once the
    /// stale hint is cleared.
    #[test]
    fn hinted_cursors_stay_exact_under_dirty_hints(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
        version in version_strategy(),
        bound_num in 0u32..=10,
        batch in 1usize..17,
    ) {
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .with_version(version)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        let mem = MemorySource::from_pairs(pairs);
        let full: Vec<GradedEntry> =
            (0..mem.len()).map(|r| mem.sorted_access(r).unwrap()).collect();
        // Grades are quantized to ninths, the hint to tenths: hints land
        // on, between, above, and below every grade in the stream —
        // including hints no entry reaches (dirty-high) and the ZERO hint
        // that may never truncate.
        let bound = Grade::clamped(bound_num as f64 / 10.0);

        let seg = CountingSource::new(reopen(&path));
        let mut cursor = seg.open_sorted().with_bound(bound);
        let mut emitted = Vec::new();
        while cursor.next_batch(&mut emitted, batch) > 0 {}

        prop_assert_eq!(&emitted[..], &full[..emitted.len()], "exact prefix");
        prop_assert_eq!(
            seg.stats().sorted,
            emitted.len() as u64,
            "billed exactly the emitted entries"
        );
        if cursor.stopped_by_bound() {
            prop_assert!(
                full[emitted.len()..].iter().all(|e| e.grade < bound),
                "only entries strictly below the bound were withheld"
            );
        } else {
            prop_assert_eq!(emitted.len(), full.len(), "no stop means the whole stream");
        }

        // The hint was advisory: clear it and the cursor resumes into the
        // exact remainder of the stream.
        cursor.set_bound(None);
        while cursor.next_batch(&mut emitted, batch) > 0 {}
        prop_assert_eq!(emitted, full, "stitched stream equals the unbounded one");
    }

    /// Paging that stops mid-stream and resumes from a **cold** cursor — a
    /// fresh `SegmentSource` over a fresh cache, positioned by rank alone,
    /// as a process restart would — continues exactly where the warm
    /// stream left off.
    #[test]
    fn paging_resumes_from_a_cold_cursor(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
        cut in 0usize..140,
    ) {
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        let mem = MemorySource::from_pairs(pairs);
        let cut = cut.min(mem.len());

        // First process: page up to `cut` entries, remember only the rank.
        let mut first_leg: Vec<GradedEntry> = Vec::new();
        let resume_at = {
            let seg = reopen(&path);
            let mut cursor = seg.open_sorted();
            loop {
                let want = (cut - first_leg.len()).min(5);
                if want == 0 || cursor.next_batch(&mut first_leg, want) == 0 {
                    break;
                }
            }
            cursor.position()
        };

        // Second process: reopen cold, resume at the remembered rank.
        let seg = reopen(&path);
        let mut cursor = SortedCursor::at(&seg, resume_at);
        let mut second_leg = first_leg;
        while cursor.next_batch(&mut second_leg, 7) > 0 {}

        let reference: Vec<GradedEntry> =
            (0..mem.len()).map(|r| mem.sorted_access(r).unwrap()).collect();
        prop_assert_eq!(second_leg, reference, "stitched stream equals one-shot stream");
    }
}
