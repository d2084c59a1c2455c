//! A fixed calibration kernel, timed only while the program is idle.
//!
//! The kernel is benchmark code only — hash-map inserts and probes, a
//! binary heap, a sort and dependent reads over a table, the same kinds of
//! work the query path does. Its time tracks how fast the machine runs at
//! that moment.
//!
//! It is timed between the reader's queries, and only while the program
//! is idle: on `mem_mix` and `disk_spill` no program thread runs between
//! queries; on `live_rw` a timing counts only if the writer was between
//! `write_batch` calls and no store held a frozen layer for the background
//! compactor, both before and after it (see `bench::program_idle`). So the
//! kernel never shares the machine with a query, a write or a compaction,
//! and work the program does is not cancelled by the scaling. Set-up times
//! are reported raw.
//!
//! Each timing runs the kernel twice over the same memory and keeps the
//! second run, so what the program left in the caches does not set it.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::gen::Rng;

/// The kernel's time, in µs, that reported times are scaled to: about
/// what it takes between queries on a 2-vCPU Xeon virtual machine. A time
/// measured while the kernel takes `t` µs is multiplied by
/// `REFERENCE_US / t`, so a machine that runs slower for a while (a busy
/// neighbour, a lower clock) does not move the reported figures.
pub const REFERENCE_US: f64 = 1000.0;

/// Calibration runs on each side of an in-window sample that its scale is
/// taken from.
const NEIGHBOURS: usize = 2;

/// The scale for a time measured right after in-window calibration run
/// `index`: [`REFERENCE_US`] over the median of the runs within
/// [`NEIGHBOURS`] of it, so one noisy kernel run does not move the figure.
pub fn scale_at(calib_us: &[f64], index: usize) -> f64 {
    let lo = index.saturating_sub(NEIGHBOURS);
    let hi = (index + NEIGHBOURS + 1).min(calib_us.len());
    let around = crate::stats::median(&calib_us[lo.min(hi)..hi]);
    if around > 0.0 {
        REFERENCE_US / around
    } else {
        1.0
    }
}

/// The calibration kernel's state.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    keys: Vec<u64>,
    rng: Rng,
    /// Reused by every run, so a timing allocates nothing.
    map: HashMap<u64, u64>,
    heap: Vec<u64>,
}

const TABLE_WORDS: usize = 1 << 16;
const PROBES: usize = 4096;
const KEYS: usize = 8192;

impl Calibrator {
    /// Builds the kernel's inputs.
    pub fn new() -> Calibrator {
        let mut rng = Rng::new(0x5EED, 4);
        // One random cycle through the table, so probes chase pointers.
        let mut order: Vec<usize> = (0..TABLE_WORDS).collect();
        rng.shuffle(&mut order);
        let mut table = vec![0u64; TABLE_WORDS];
        for w in 0..TABLE_WORDS {
            table[order[w]] = order[(w + 1) % TABLE_WORDS] as u64;
        }
        let keys = (0..KEYS).map(|_| rng.next_u64()).collect();
        Calibrator {
            table,
            keys,
            rng,
            map: HashMap::with_capacity(KEYS),
            heap: Vec::with_capacity(KEYS),
        }
    }

    /// Times the kernel, in µs: one untimed run to warm the caches, then
    /// a timed one over the same memory.
    pub fn time(&mut self) -> f64 {
        let from = self.rng.below(TABLE_WORDS as u64);
        self.run(from);
        self.run(from).as_secs_f64() * 1e6
    }

    /// Runs the kernel once, chasing the table from word `from`, and
    /// returns its wall time.
    fn run(&mut self, from: u64) -> Duration {
        let start = Instant::now();
        let mut x = from;
        for _ in 0..PROBES {
            x = self.table[x as usize];
        }
        self.map.clear();
        for (i, &k) in self.keys.iter().enumerate() {
            self.map.insert(k ^ x, i as u64);
        }
        let mut heap = BinaryHeap::from(std::mem::take(&mut self.heap));
        for &k in &self.keys {
            heap.push(self.map.get(&(k ^ x)).copied().unwrap_or(0).wrapping_mul(k));
        }
        let mut top = 0u64;
        for _ in 0..100 {
            top ^= heap.pop().unwrap_or(0);
        }
        let mut sorted = heap.into_vec();
        sorted.sort_unstable();
        black_box((top, sorted.first().copied()));
        sorted.clear();
        self.heap = sorted;
        start.elapsed()
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_median_of_neighbouring_runs() {
        let runs = [1000.0, 2000.0, 1000.0, 500.0, 500.0, 500.0, 2000.0];
        assert_eq!(scale_at(&runs, 0), 1.0);
        assert_eq!(scale_at(&runs, 4), 2.0);
        assert_eq!(scale_at(&runs, 6), 2.0);
        assert_eq!(scale_at(&[], 0), 1.0);
    }

    #[test]
    fn kernel_takes_time() {
        let mut c = Calibrator::new();
        assert!(c.time() > 0.0);
    }
}
