//! Host-speed normalisation of the end-to-end timings.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by up to about 1.8x over seconds to minutes, as neighbours load the
//! caches, memory and sibling threads. A drift like that moves every
//! timing of a run together, so medians within a run stay steady while
//! runs a minute apart disagree.
//!
//! A [`Pacer`] times a fixed reference slice — a table-driven byte kernel
//! of the benchmark's own, with constant inputs, that shares no code with
//! the program — at most every [`EVERY_S`] seconds, right before an op.
//! Each op's measured time is then scaled by `REF_SLICE_S / c`, where `c`
//! is the median time of the [`NEAREST`] slices closest to the op. A
//! normalised time reads as the op's time on a host that runs the slice
//! in [`REF_SLICE_S`] seconds. A slower program is slower against the
//! same slice, so it still reads slower; a slower host slows both.
//! The text report prints every raw median beside the normalised one.

use std::hint::black_box;
use std::time::Instant;

/// Seconds the reference slice takes on the unloaded 2-vCPU Xeon VM the
/// benchmark was defined on; the scale of every normalised timing.
pub const REF_SLICE_S: f64 = 1.5e-3;
/// Least gap between two slices.
const EVERY_S: f64 = 0.1;
/// Slices one op's scale is taken from.
const NEAREST: usize = 5;
/// Bytes the slice reads; with the table it fits in L2.
const DATA_BYTES: usize = 1 << 17;

/// One measured op: its midpoint on the pacer's clock and its raw time.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    at: f64,
    pub raw: f64,
}

/// Times ops and reference slices on one thread.
pub struct Pacer {
    data: Vec<u8>,
    table: Vec<u16>,
    start: Instant,
    last: Option<f64>,
    /// `(midpoint, seconds)` of every slice, in time order.
    slices: Vec<(f64, f64)>,
}

impl Pacer {
    pub fn new() -> Self {
        // Constant inputs: every run and every seed does the same work.
        let mut rng = crate::common::Rng::new(0x5EED);
        let table = (0..1 << 16).map(|_| rng.below(1 << 16) as u16).collect();
        let data = (0..DATA_BYTES).map(|_| rng.below(256) as u8).collect();
        Pacer {
            data,
            table,
            start: Instant::now(),
            last: None,
            slices: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The reference work: a data-dependent walk through the table, with
    /// an unpredictable branch per byte, like a codec's inner loop.
    fn kernel(&self) -> u64 {
        let (mut state, mut acc) = (0usize, 0u64);
        for &b in black_box(&self.data) {
            let v = self.table[(state << 8) | usize::from(b)];
            state = usize::from(v >> 8);
            if v & 3 == 0 {
                acc = acc.wrapping_mul(31).wrapping_add(u64::from(v));
            } else {
                acc ^= u64::from(v) << (v & 31);
            }
        }
        black_box(acc)
    }

    /// Times a reference slice if the last one is older than [`EVERY_S`].
    /// An untimed pass first reloads the slice's data into the caches, so
    /// the timed pass does not depend on how much the last op evicted.
    pub fn tick(&mut self) {
        let now = self.now();
        if self.last.is_some_and(|t| now - t < EVERY_S) {
            return;
        }
        self.kernel();
        let now = self.now();
        let t = Instant::now();
        self.kernel();
        let secs = t.elapsed().as_secs_f64();
        self.slices.push((now + secs / 2.0, secs));
        self.last = Some(now);
    }

    /// Ticks, then times `f` (see [`crate::common::time`]).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Paced) {
        self.tick();
        let at = self.now();
        let (out, raw) = crate::common::time(f);
        (out, Paced { at: at + raw / 2.0, raw })
    }

    /// Ticks, then runs `f` and takes the CPU time the whole process spent
    /// meanwhile, every thread counted (see [`process_cpu_s`]).
    pub fn cpu<T>(&mut self, f: impl FnOnce() -> T) -> (T, Paced) {
        self.tick();
        let (at, cpu) = (self.now(), process_cpu_s());
        let out = black_box(f());
        let raw = process_cpu_s() - cpu;
        (out, Paced { at: (at + self.now()) / 2.0, raw })
    }

    /// Ticks, then times `f` as a timed op (see [`crate::common::measure`]).
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> (T, Paced) {
        self.tick();
        let at = self.now();
        let (out, raw) = crate::common::measure(f);
        (out, Paced { at: at + raw / 2.0, raw })
    }

    /// `op`'s time on the reference host: its raw time scaled by
    /// `REF_SLICE_S` over the median of the nearest slices.
    pub fn normalize(&self, op: Paced) -> f64 {
        let i = self.slices.partition_point(|&(t, _)| t < op.at);
        let (mut lo, mut hi) = (i, i);
        while hi - lo < NEAREST.min(self.slices.len()) {
            let before = lo.checked_sub(1).map(|j| op.at - self.slices[j].0);
            let after = self.slices.get(hi).map(|s| s.0 - op.at);
            match (before, after) {
                (Some(b), Some(a)) if b <= a => lo -= 1,
                (_, Some(_)) => hi += 1,
                (Some(_), None) => lo -= 1,
                (None, None) => break,
            }
        }
        let near: Vec<f64> = self.slices[lo..hi].iter().map(|s| s.1).collect();
        op.raw * REF_SLICE_S / crate::stats::median(&near)
    }

    /// The run's median slice time against [`REF_SLICE_S`], for the report.
    pub fn describe(&self) -> String {
        let all: Vec<f64> = self.slices.iter().map(|s| s.1).collect();
        format!(
            "reference slice: {} slices, median {:.4} ms (normalised timings scale to {:.4} ms)",
            self.slices.len(),
            crate::stats::median(&all) * 1e3,
            REF_SLICE_S * 1e3
        )
    }
}

/// CPU seconds the process has used so far, every thread counted, exited
/// ones too (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`). Time the host
/// takes a virtual CPU away (steal) and time spent waiting for the disk
/// are not in it.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pacer(slices: &[(f64, f64)]) -> Pacer {
        Pacer {
            data: Vec::new(),
            table: Vec::new(),
            start: Instant::now(),
            last: None,
            slices: slices.to_vec(),
        }
    }

    #[test]
    fn normalizes_by_the_nearest_slices() {
        // A slow phase (slices twice the reference) from t=10 on.
        let mut s: Vec<(f64, f64)> = (0..10).map(|t| (f64::from(t), REF_SLICE_S)).collect();
        s.extend((10..20).map(|t| (f64::from(t), 2.0 * REF_SLICE_S)));
        let p = pacer(&s);
        let fast = p.normalize(Paced { at: 3.2, raw: 0.5 });
        let slow = p.normalize(Paced { at: 16.0, raw: 1.0 });
        assert!((fast - 0.5).abs() < 1e-12, "{fast}");
        assert!((slow - 0.5).abs() < 1e-12, "{slow}");
        // Near the ends the window shifts inward instead of shrinking.
        assert!((p.normalize(Paced { at: -5.0, raw: 0.5 }) - 0.5).abs() < 1e-12);
        assert!((p.normalize(Paced { at: 99.0, raw: 1.0 }) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn process_cpu_time_counts_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() - before > 1e-3, "{x}");
    }

    #[test]
    fn few_slices_use_them_all() {
        let p = pacer(&[(0.0, REF_SLICE_S), (1.0, 3.0 * REF_SLICE_S)]);
        let t = p.normalize(Paced { at: 0.4, raw: 2.0 });
        assert!((t - 1.0).abs() < 1e-12, "{t}");
    }
}
