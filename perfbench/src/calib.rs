//! Host-speed calibration. The reference host is a shared 2-core virtual
//! machine whose speed drifts by up to 2x over minutes with its
//! neighbours' load, for every workload alike. A timed phase is therefore
//! cut into short chunks, and before and after every chunk the worker
//! threads run a fixed calibration kernel. The kernel is the benchmark's
//! own code, so no change to the repository moves it; the time it takes
//! measures only how fast the host is at that moment.
//!
//! A timed phase's *host factor* is the reference kernel time
//! ([`REFERENCE_SLICE_S`]) over the median kernel time taken during it.
//! A time multiplied by it reads as it would at the reference host's
//! speed; on a quiet reference host the factor is about 1.

use crate::report::median;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Median calibration slice (all worker threads at once) on the quiet
/// 2-core reference host. Normalized times are expressed at this speed.
pub const REFERENCE_SLICE_S: f64 = 0.0165;

/// Kernel units per slice pass, shared out to the workers as they free
/// up, the way the benchmark's pools share out items.
const UNITS: usize = 64;
/// Pointer-chase table: 256 KiB of `u32`, inside a core's private
/// caches, so where the table lands in memory does not change a slice.
const CHASE_LEN: usize = 1 << 16;
/// Per unit: pointer-chase steps, byte-code steps of a little dispatch
/// loop, and hash-map operations over a table of `MAP_KEYS` keys.
const CHASE_STEPS: usize = 15_000;
const DISPATCH_STEPS: usize = 150_000;
const MAP_OPS: usize = 10_000;
const MAP_KEYS: u64 = 1 << 14;

/// One worker's calibration state, allocated and touched once so a slice
/// never faults memory in.
struct Lane {
    chase: Vec<u32>,
    code: Vec<u8>,
    map: HashMap<u64, u64>,
}

impl Lane {
    fn new(seed: u64) -> Lane {
        // A single random cycle through the table (Sattolo's shuffle).
        let mut chase: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x = seed | 1;
        for i in (1..CHASE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chase.swap(i, (x % i as u64) as usize);
        }
        let code = (0..256u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 29) as u8)
            .collect();
        let map = (0..MAP_KEYS)
            .map(|k| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k))
            .collect();
        Lane { chase, code, map }
    }

    /// One unit of the fixed kernel: a dependent pointer chase, a branchy
    /// dispatch loop and hash-map traffic, the three kinds of work the
    /// pipeline and the VM mix. Returns a checksum so nothing is
    /// optimized away.
    fn unit(&mut self, start: u32) -> u64 {
        let mut p = start;
        for _ in 0..CHASE_STEPS {
            p = self.chase[p as usize];
        }
        let (mut acc, mut pc) = (u64::from(p), 0usize);
        for _ in 0..DISPATCH_STEPS {
            acc = match self.code[pc] {
                0 => acc.wrapping_add(pc as u64),
                1 => acc ^ (acc >> 3),
                2 => acc.rotate_left(5),
                3 => acc.wrapping_mul(31),
                4 => acc.wrapping_sub(7),
                5 => acc | 1,
                6 => acc ^ 0x55,
                _ => acc.wrapping_add(1),
            };
            pc = (pc + 1 + (acc & 1) as usize) & 255;
        }
        let mut k = acc;
        for _ in 0..MAP_OPS {
            k = k.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let key = (k >> 50).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            *self.map.entry(key).or_insert(0) += 1;
        }
        acc ^ k
    }
}

/// The calibration kernels of every worker thread.
pub struct Calibrator {
    lanes: Vec<Lane>,
    /// Every slice taken, in order (seconds).
    pub slices: Vec<f64>,
    sink: u64,
}

impl Calibrator {
    pub fn new(workers: usize) -> Calibrator {
        let mut c = Calibrator {
            lanes: (0..workers as u64).map(|w| Lane::new(0x5eed + w)).collect(),
            slices: Vec::new(),
            sink: 0,
        };
        // warm-up: first touches and the hash map's growth stay out
        for _ in 0..3 {
            c.run_slice();
        }
        c.slices.clear();
        c
    }

    /// One pass: `UNITS` kernel units over all workers; its wall time.
    fn run_slice(&mut self) -> f64 {
        let next = AtomicUsize::new(0);
        let t = Instant::now();
        let sums: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| {
                    let next = &next;
                    s.spawn(move || {
                        let mut sum = 0;
                        loop {
                            let u = next.fetch_add(1, Ordering::Relaxed);
                            if u >= UNITS {
                                return sum;
                            }
                            sum ^= lane.unit(u as u32);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration thread"))
                .collect()
        });
        let dt = t.elapsed().as_secs_f64();
        self.sink ^= sums.iter().fold(0, |a, b| a ^ b);
        dt
    }

    /// Take one slice and record it: the faster of two back-to-back runs
    /// of the kernel on all workers at once, so a single hiccup of the
    /// host does not count as its speed.
    pub fn slice(&mut self) -> f64 {
        let dt = self.run_slice().min(self.run_slice());
        self.slices.push(dt);
        dt
    }

    /// Time `run(0)` .. `run(n - 1)` with a calibration slice before the
    /// first and after every one, handing each result to `keep` once its
    /// timing is over. Returns each run's wall time and the host factor of
    /// them all: the reference slice over the median of the slices taken.
    /// The median ignores the odd slice that a hiccup, or a server still
    /// finishing its last request, slowed down.
    fn timed<T>(
        &mut self,
        n: usize,
        mut run: impl FnMut(usize) -> Result<T, String>,
        mut keep: impl FnMut(T),
    ) -> Result<(Vec<f64>, f64), String> {
        let mut slices = vec![self.slice()];
        let mut walls = Vec::with_capacity(n);
        for c in 0..n {
            let t = Instant::now();
            let out = run(c)?;
            walls.push(t.elapsed().as_secs_f64());
            keep(out);
            slices.push(self.slice());
        }
        Ok((walls, REFERENCE_SLICE_S / median(&slices)))
    }

    /// Run `n` chunks of a timed phase, `run(c)` doing chunk `c`.
    pub fn chunks<T>(
        &mut self,
        n: usize,
        run: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<Chunks<T>, String> {
        let mut outs = Vec::with_capacity(n);
        let (walls, factor) = self.timed(n, run, |out| outs.push(out))?;
        Ok(Chunks {
            outs,
            raw_s: walls.iter().sum(),
            factor,
        })
    }

    /// Repeat a set-up `n` times and keep the last result; `retire` gets
    /// each earlier one after its timing. Returns the last result and the
    /// raw and host-normalized median times.
    pub fn reps<T>(
        &mut self,
        n: usize,
        run: impl FnMut(usize) -> Result<T, String>,
        mut retire: impl FnMut(T),
    ) -> Result<(T, f64, f64), String> {
        let mut last = None;
        let (walls, factor) = self.timed(n, run, |out| {
            if let Some(prev) = last.replace(out) {
                retire(prev);
            }
        })?;
        let last = last.ok_or("no set-up repetition")?;
        let raw = median(&walls);
        Ok((last, raw, raw * factor))
    }

    /// The median slice and the range of slices, for the report.
    pub fn summary(&self) -> String {
        let lo = self.slices.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.slices.iter().copied().fold(0.0, f64::max);
        format!(
            "calibration slice median {:.2} ms ({:.2}-{:.2}, n={}; reference {:.2} ms; checksum {:x})",
            median(&self.slices) * 1e3,
            lo * 1e3,
            hi * 1e3,
            self.slices.len(),
            REFERENCE_SLICE_S * 1e3,
            self.sink & 0xffff
        )
    }
}

/// A timed phase's chunks: what each produced, their total wall time,
/// and the host factor that brings their times to the reference host's
/// speed.
pub struct Chunks<T> {
    pub outs: Vec<T>,
    pub raw_s: f64,
    pub factor: f64,
}

impl<T> Chunks<T> {
    /// The total wall time at the reference host's speed.
    pub fn norm_s(&self) -> f64 {
        self.raw_s * self.factor
    }
}
