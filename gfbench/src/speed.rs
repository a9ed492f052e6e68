//! Machine-speed calibration.
//!
//! The machines this benchmark runs on share their memory system with
//! other tenants, and its speed drifts by a third or more over minutes:
//! the same 200 statements take a median 2.2 ms in one run and 3.4 ms in
//! another. A
//! fixed kernel of the benchmark's own (sort and hash over 1 MB, the kind
//! of work the executor does) is timed every [`CALIBRATE_EVERY_S`] while a
//! workload runs. Its time rises and falls with the workload's (within a
//! run, 1-second bins correlate at r ≈ 0.75–0.95), while a compute-only
//! loop barely moves. Each operation's wall time is then scaled by
//! [`REFERENCE_KERNEL_US`] ÷ the kernel time measured around it: the
//! figure is the operation's wall time on a machine whose memory system
//! runs the kernel in the reference time. The kernel is not the program's
//! code, so a change to the program moves the scaled figures exactly as
//! it moves wall time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// Kernel time, µs, that scaled figures refer to: about what the kernel
/// takes on the 2-vCPU machine the benchmark was written on.
pub const REFERENCE_KERNEL_US: f64 = 5000.0;
/// Seconds between two calibrations in a timed loop.
const CALIBRATE_EVERY_S: f64 = 0.1;
/// An operation's factor is the median of the calibrations within this
/// many seconds of its start (at least [`MIN_WINDOW`] of them).
const WINDOW_S: f64 = 0.5;
const MIN_WINDOW: usize = 3;

/// Run the calibration kernel once; returns its wall time in µs.
fn kernel_us() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys: Vec<u64> = (0..131_072)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut index: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(16_384, Default::default());
    for (i, k) in keys.iter().step_by(8).enumerate() {
        index.insert(*k, i);
    }
    let hits: usize = keys.iter().step_by(3).filter_map(|k| index.get(k)).sum();
    std::hint::black_box(hits);
    t.elapsed().as_secs_f64() * 1e6
}

/// Kernel times of one run, each with when it was taken.
pub struct Speed {
    origin: Instant,
    /// (seconds since `origin`, kernel µs), in time order.
    samples: Vec<(f64, f64)>,
}

impl Speed {
    pub fn new() -> Speed {
        Speed {
            origin: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Seconds since the run began.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Time the kernel now.
    pub fn calibrate(&mut self) {
        let at = self.now();
        let us = kernel_us();
        self.samples.push((at, us));
    }

    /// Time the kernel if the last calibration is [`CALIBRATE_EVERY_S`] old.
    pub fn calibrate_if_due(&mut self) {
        match self.samples.last() {
            Some(&(at, _)) if self.now() - at < CALIBRATE_EVERY_S => {}
            _ => self.calibrate(),
        }
    }

    /// Median kernel time of the run, µs.
    pub fn median_kernel_us(&self) -> f64 {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        median(&mut v)
    }

    /// Scale factor for an operation that started at `at`:
    /// [`REFERENCE_KERNEL_US`] ÷ the median kernel time near it.
    pub fn factor(&self, at: f64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let mut near: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|&(t, us)| ((t - at).abs(), us))
            .collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0));
        let take = near
            .iter()
            .take_while(|(d, _)| *d <= WINDOW_S)
            .count()
            .max(MIN_WINDOW);
        let mut us: Vec<f64> = near.iter().take(take).map(|s| s.1).collect();
        REFERENCE_KERNEL_US / median(&mut us)
    }
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
