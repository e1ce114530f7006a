//! Host-speed calibration.
//!
//! On a shared host the same pass takes up to a third longer in one
//! half-minute than in the next, because other tenants take CPU and memory
//! bandwidth. Such drift is wider than any regression bound worth having.
//! So the benchmark times a fixed reference kernel between passes, and it
//! reports every time scaled to the host speed at which that kernel takes
//! [`REFERENCE_MS`]. The kernel uses only the standard library and no code of
//! the program under test, so a change to the program cannot move it. It
//! mixes the kinds of work the simulator does: heap and B-tree operations,
//! dependent floating-point arithmetic, and first-touch page faults on a
//! fresh allocation.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in milliseconds, that defines the reference host speed.
pub const REFERENCE_MS: f64 = 10.0;

/// Kernel runs per probe; the probe reports their median.
const RUNS: usize = 7;

/// The median time of one kernel run right now, in milliseconds.
pub fn probe_ms() -> f64 {
    let mut ms: Vec<f64> = (0..RUNS as u64)
        .map(|seed| {
            let started = Instant::now();
            black_box(kernel(black_box(seed)));
            started.elapsed().as_secs_f64() * 1.0e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[RUNS / 2]
}

/// Factor that scales a time measured between two probes to the
/// reference host speed.
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * REFERENCE_MS / (before_ms + after_ms)
}

fn kernel(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;

    let mut heap: BinaryHeap<(u64, u64)> = (0..30_000).map(|i| (next() % 1_000_000, i)).collect();
    for _ in 0..30_000 {
        let (t, i) = heap.pop().expect("the heap is never empty");
        acc ^= t.wrapping_add(i);
        heap.push((t + next() % 1000, i));
    }

    let mut tree = BTreeMap::new();
    for i in 0..15_000u64 {
        tree.insert(next() % 100_000, i);
    }
    for _ in 0..15_000 {
        if let Some((k, v)) = tree.range(next() % 100_000..).next() {
            acc = acc.wrapping_add(k ^ v);
        }
    }

    let mut f = 1.0f64;
    for _ in 0..200_000 {
        f = f * 0.999_999 + ((next() % 1000) as f64).sqrt() * 1.0e-6;
    }

    // Above glibc's largest mmap threshold (32 MiB), so the block is
    // always mapped fresh and unmapped on drop: the probe neither keeps
    // resident memory nor moves the allocator's thresholds for the program.
    let mut pages = vec![0u8; 36 << 20];
    for i in (0..pages.len()).step_by(16 << 10) {
        pages[i] = next() as u8;
    }
    let touched: u64 = pages.iter().step_by(16 << 10).map(|&b| u64::from(b)).sum();

    acc ^ f.to_bits() ^ touched
}
