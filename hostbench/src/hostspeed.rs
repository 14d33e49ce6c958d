//! Host-speed reference: a fixed kernel, independent of the simulator,
//! timed in the same process while a workload runs.
//!
//! The host this benchmark runs on is shared, and its speed moves in
//! phases of seconds to minutes by up to about 1.7× for the simulator's
//! memory-bound loops. The reference slows with it, so dividing a unit's
//! host time by the reference's current time takes the phase out; the
//! result is scaled back to seconds at [`NOMINAL_SWEEP_S`].
//!
//! The kernel sweeps a plane laid out like a crossbar's cells (row-major
//! rows of 128 `(level, conductance)` pairs, 16 bytes each) and sums every
//! row into 128 accumulators, the access pattern of the simulator's MVM
//! loops. Each sample times a sweep after [`WARM_SWEEPS`] untimed ones:
//! the first sweep after a workload unit reads 2–3× slower, and by how
//! much depends on what the unit left in the caches; the third does not.

use std::time::Instant;

/// Seconds one reference sweep took on the baseline host, the median over
/// a 90 s `bank_noisy` run (see README.md); scaled times are host times on
/// a host whose sweep takes this long.
pub const NOMINAL_SWEEP_S: f64 = 0.4e-3;
/// Untimed sweeps before each timed one.
const WARM_SWEEPS: usize = 2;
const COLS: usize = 128;
/// 8 MB: the size of the conductance planes one FC MVM of `xbar_train`
/// sweeps.
const ROWS: usize = 4096;
pub const PLANE_MB: f64 = (ROWS * COLS * 16) as f64 / (1024.0 * 1024.0);
/// Seconds between samples.
const INTERVAL_S: f64 = 0.25;
/// Samples the current estimate is the median of.
const RECENT: usize = 5;

pub struct HostSpeed {
    plane: Vec<[f64; 2]>,
    samples: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    pub fn new() -> Self {
        let plane = (0..ROWS * COLS)
            .map(|i| [(i % 4) as f64, (i % 97) as f64])
            .collect();
        let mut speed = Self {
            plane,
            samples: Vec::new(),
            last: Instant::now(),
        };
        for _ in 0..RECENT {
            speed.sample();
        }
        speed
    }

    fn sweep(&self) -> f64 {
        let mut acc = [0.0f64; COLS];
        for row in self.plane.chunks_exact(COLS) {
            for (a, cell) in acc.iter_mut().zip(row) {
                *a += cell[1];
            }
        }
        std::hint::black_box(acc)[0]
    }

    fn sample(&mut self) {
        for _ in 0..WARM_SWEEPS {
            std::hint::black_box(self.sweep());
        }
        let t = Instant::now();
        std::hint::black_box(self.sweep());
        self.samples.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// `host_s` scaled to the nominal host: multiplied by
    /// [`NOMINAL_SWEEP_S`] over the median of the last [`RECENT`] sweeps.
    /// Takes a new sample first when the last is [`INTERVAL_S`] old.
    pub fn scale(&mut self, host_s: f64) -> f64 {
        if self.last.elapsed().as_secs_f64() >= INTERVAL_S {
            self.sample();
        }
        let mut recent = self.samples[self.samples.len() - RECENT..].to_vec();
        host_s * NOMINAL_SWEEP_S / crate::median(&mut recent)
    }

    /// Median sweep time over every sample so far, seconds.
    pub fn median_sweep_s(&self) -> f64 {
        crate::median(&mut self.samples.clone())
    }
}
