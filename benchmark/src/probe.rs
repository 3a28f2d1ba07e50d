//! The host-speed probe: a fixed piece of work of the harness's own, timed
//! beside the program's, so that a run can say how fast the machine was
//! while it measured.
//!
//! The box is a shared 2-core microVM whose speed moves by 10–35 % for
//! seconds to minutes at a time (README, *Calibration*): everything the
//! process does, this probe included, slows down together, CPU time rises
//! in step and no steal is reported. A phase that covers a whole window
//! cannot be filtered from inside it, but it can be measured: the time
//! metrics are reported at the reference speed, `raw ÷ speed_factor`,
//! with the raw readings and the factor printed beside them.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one probe takes on the calibration box in its usual state. It sets
/// the scale only (a factor of 1 is "this box, as usually found"); every
/// comparison between two runs is independent of it.
const REFERENCE_MS: f64 = 0.65;

const BUF_BYTES: usize = 16 * 1024;
const ROUNDS: usize = 8;

/// A byte scan with data-dependent branches and a table lookup over
/// 16 KiB, L1-resident: the instruction mix of the program's own hot loops
/// (parsers, codecs, predicate kernels) rather than a dependency chain or
/// a memory stream, which followed the workloads' slow-downs half as well.
pub struct HostProbe {
    buf: Vec<u8>,
    table: Vec<u64>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        let mut x: u64 = 1;
        let buf = (0..BUF_BYTES)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect();
        let table = (0..256u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        HostProbe { buf, table }
    }

    /// Do the fixed work once; how long it took.
    #[inline(never)]
    pub fn run(&self) -> Duration {
        let t = Instant::now();
        let buf = black_box(self.buf.as_slice());
        let mut acc = 0u64;
        let mut digits = 0u64;
        for _ in 0..ROUNDS {
            for &b in buf {
                if b.is_ascii_digit() {
                    digits = digits.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                } else if b < 128 {
                    acc = acc.wrapping_add(self.table[b as usize]) ^ digits;
                    digits = 0;
                } else {
                    acc = acc.rotate_left(5) ^ u64::from(b);
                }
            }
        }
        black_box(acc);
        t.elapsed()
    }

    /// `n` readings back to back, in milliseconds.
    pub fn readings(&self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.run().as_secs_f64() * 1e3).collect()
    }
}

/// The host's slow-down over the stretch `readings_ms` were taken in:
/// their median over the reference. Above 1 the host was slower than the
/// reference and raw times are scaled down by it.
pub fn speed_factor(readings_ms: &mut [f64]) -> f64 {
    crate::harness::median(readings_ms) / REFERENCE_MS
}
