//! ReRAM device (cell) model — paper §II-B.
//!
//! "Resistive random access memory (ReRAM) is a type of non-volatile memory
//! that stores information as device resistance states." We model a cell as
//! a discrete conductance level in `0..2^cell_bits`, with optional Gaussian
//! programming variation frozen at write time (non-volatile state) and
//! Gaussian noise added per read.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reram_telemetry::{self as telemetry, Event};

/// One ReRAM cell: a target conductance level plus the actually-programmed
/// (variation-affected) analog conductance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReramCell {
    level: u32,
    conductance: f64,
}

impl ReramCell {
    /// The digital level the cell was programmed to.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The analog conductance realized after programming variation, in units
    /// of one level step.
    pub fn conductance(&self) -> f64 {
        self.conductance
    }
}

/// Stateful device model shared by all cells of a subsystem.
///
/// Owns the variation RNG so that programming the same matrix twice with the
/// same seed yields identical devices (reproducible experiments), while two
/// different arrays draw independent variations.
#[derive(Debug, Clone)]
pub struct ReramDeviceModel {
    levels: u32,
    write_sigma: f64,
    read_sigma: f64,
    rng: StdRng,
    writes: u64,
    reads: u64,
}

impl ReramDeviceModel {
    /// Creates a device model.
    ///
    /// `cell_bits` gives `2^cell_bits` conductance levels; `write_sigma` and
    /// `read_sigma` are expressed as a fraction of one level step.
    ///
    /// # Panics
    ///
    /// Panics if `cell_bits` is 0 or greater than 8.
    pub fn new(cell_bits: u32, write_sigma: f64, read_sigma: f64, seed: u64) -> Self {
        assert!(
            (1..=8).contains(&cell_bits),
            "cell_bits {cell_bits} outside 1..=8"
        );
        Self {
            levels: 1 << cell_bits,
            write_sigma,
            read_sigma,
            rng: StdRng::seed_from_u64(seed),
            writes: 0,
            reads: 0,
        }
    }

    /// Number of programmable conductance levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Highest programmable level value.
    pub fn max_level(&self) -> u32 {
        self.levels - 1
    }

    /// Programs a cell to `level`, applying write variation.
    ///
    /// The variation is frozen into the returned cell — ReRAM is
    /// non-volatile, so the error persists across every subsequent read
    /// until the cell is reprogrammed (a weight update in PipeLayer's
    /// terms, §III-A.3(a)).
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the device's level range.
    pub fn program(&mut self, level: u32) -> ReramCell {
        let cell = self.program_unrecorded(level);
        telemetry::record(Event::CellWrite, 1);
        cell
    }

    /// [`program`](Self::program) without the telemetry event: the write
    /// still counts towards [`write_count`](Self::write_count), and the
    /// caller records one `CellWrite` event for a whole batch of writes.
    pub(crate) fn program_unrecorded(&mut self, level: u32) -> ReramCell {
        assert!(
            level < self.levels,
            "level {level} exceeds device range {}",
            self.levels
        );
        self.writes += 1;
        let noise = if self.write_sigma > 0.0 {
            self.write_sigma * self.gaussian()
        } else {
            0.0
        };
        ReramCell {
            level,
            conductance: (level as f64 + noise).max(0.0),
        }
    }

    /// Counts `n` writes that [`program_unrecorded`](Self::program_unrecorded)
    /// would realize exactly: without write variation a write draws nothing
    /// from the RNG, and its conductance is its level.
    pub(crate) fn count_exact_writes(&mut self, n: u64) {
        debug_assert!(!self.has_write_variation());
        self.writes += n;
    }

    /// Whether programming draws write variation from the RNG stream.
    pub(crate) fn has_write_variation(&self) -> bool {
        self.write_sigma > 0.0
    }

    /// Reads a cell's conductance, adding read noise.
    pub fn read(&mut self, cell: &ReramCell) -> f64 {
        self.reads += 1;
        telemetry::record(Event::CellRead, 1);
        if self.read_sigma > 0.0 {
            (cell.conductance + self.read_sigma * self.gaussian()).max(0.0)
        } else {
            cell.conductance
        }
    }

    /// Programs an *uncounted* dummy level-0 cell for read-noise sampling.
    ///
    /// Draws from the same RNG stream as [`program`](Self::program) but
    /// counts as neither a write nor a telemetry event: the dummy cell is a
    /// measurement artifact of the readout circuit, not endurance traffic.
    pub fn noise_dummy(&mut self) -> ReramCell {
        let noise = if self.write_sigma > 0.0 {
            self.write_sigma * self.gaussian()
        } else {
            0.0
        };
        ReramCell {
            level: 0,
            conductance: noise.max(0.0),
        }
    }

    /// Additive read-noise sample for `cell`, without counting a read.
    ///
    /// Returns `read(cell) - cell.conductance()` using the same RNG stream
    /// as [`read`](Self::read), leaving the read counter untouched.
    pub fn read_noise(&mut self, cell: &ReramCell) -> f64 {
        if self.read_sigma > 0.0 {
            let (u1, u2) = self.gaussian_uniforms();
            self.read_noise_from(cell, u1, u2)
        } else {
            0.0
        }
    }

    /// Whether [`read_noise`](Self::read_noise) draws from the RNG stream.
    pub(crate) fn has_read_noise(&self) -> bool {
        self.read_sigma > 0.0
    }

    /// The transform half of [`read_noise`](Self::read_noise): the additive
    /// read noise for `cell` given the two uniforms
    /// [`gaussian_uniforms`](Self::gaussian_uniforms) drew.
    pub(crate) fn read_noise_from(&self, cell: &ReramCell, u1: f64, u2: f64) -> f64 {
        (cell.conductance + self.read_sigma * box_muller(u1, u2)).max(0.0) - cell.conductance
    }

    /// A bound `B` with `|read_noise(cell)| <= B` for every possible draw,
    /// and `B = 0` when there is no read noise.
    ///
    /// The noise is `max(c + rs·g, 0) − c` for `c = cell.conductance() >= 0`,
    /// so `B = max(GAUSSIAN_BOUND·rs, c)`. The clamp keeps it at or above
    /// `−c`. Above, it is at most `rs·|g|` plus the rounding of `c + rs·g`,
    /// at most `2^-52·(c + rs·|g|)`: while `c <= GAUSSIAN_BOUND·rs` the slack
    /// of [`GAUSSIAN_BOUND`] over `|g|` absorbs that rounding, and beyond it
    /// `c` bounds the sum.
    pub(crate) fn read_noise_bound(&self, cell: &ReramCell) -> f64 {
        if self.read_sigma > 0.0 {
            (GAUSSIAN_BOUND * self.read_sigma).max(cell.conductance)
        } else {
            0.0
        }
    }

    /// Total program operations issued (for endurance accounting).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Total read operations issued.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Whether the model adds any non-ideality.
    pub fn is_ideal(&self) -> bool {
        self.write_sigma == 0.0 && self.read_sigma == 0.0
    }

    fn gaussian(&mut self) -> f64 {
        let (u1, u2) = self.gaussian_uniforms();
        box_muller(u1, u2)
    }

    /// The draw half of one standard Gaussian: the two uniforms
    /// [`box_muller`] turns into a sample, in stream order.
    pub(crate) fn gaussian_uniforms(&mut self) -> (f64, f64) {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (u1, u2)
    }
}

/// No Gaussian the device draws exceeds this in magnitude: the first
/// uniform of [`box_muller`] is at least `ε = f64::EPSILON`, so
/// `|g| <= sqrt(−2 ln ε) = 8.4904…`. The 0.1% slack up to 8.5 absorbs the
/// rounding of `ln`, `sqrt` and `cos`, and of the arithmetic that scales
/// and offsets a sample into read noise.
const GAUSSIAN_BOUND: f64 = 8.5;

/// The transform half of one standard Gaussian (Box–Muller; cheap and
/// dependency-free). `u1` lies in `[ε, 1)` and `u2` in `[0, 1)`, so the
/// result lies within [`GAUSSIAN_BOUND`].
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_program_read_round_trips() {
        let mut dev = ReramDeviceModel::new(4, 0.0, 0.0, 0);
        for level in 0..16 {
            let cell = dev.program(level);
            assert_eq!(cell.level(), level);
            assert_eq!(dev.read(&cell), level as f64);
        }
        assert!(dev.is_ideal());
    }

    #[test]
    fn levels_follow_cell_bits() {
        assert_eq!(ReramDeviceModel::new(1, 0.0, 0.0, 0).levels(), 2);
        assert_eq!(ReramDeviceModel::new(4, 0.0, 0.0, 0).levels(), 16);
        assert_eq!(ReramDeviceModel::new(8, 0.0, 0.0, 0).max_level(), 255);
    }

    #[test]
    #[should_panic(expected = "exceeds device range")]
    fn program_rejects_out_of_range_level() {
        let mut dev = ReramDeviceModel::new(2, 0.0, 0.0, 0);
        let _ = dev.program(4);
    }

    #[test]
    fn write_variation_is_frozen_per_cell() {
        let mut dev = ReramDeviceModel::new(4, 0.1, 0.0, 7);
        let cell = dev.program(8);
        let first = dev.read(&cell);
        // Non-volatility: every read of the same cell sees the same
        // (variation-shifted) conductance when read noise is off.
        for _ in 0..10 {
            assert_eq!(dev.read(&cell), first);
        }
    }

    #[test]
    fn read_noise_varies_per_read() {
        let mut dev = ReramDeviceModel::new(4, 0.0, 0.1, 7);
        let cell = dev.program(8);
        let a = dev.read(&cell);
        let b = dev.read(&cell);
        assert_ne!(a, b);
        // Both stay near the programmed level.
        assert!((a - 8.0).abs() < 1.0 && (b - 8.0).abs() < 1.0);
    }

    #[test]
    fn variation_statistics_match_sigma() {
        let mut dev = ReramDeviceModel::new(8, 0.05, 0.0, 11);
        let errs: Vec<f64> = (0..2000)
            .map(|_| dev.program(100).conductance() - 100.0)
            .collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let var = errs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / errs.len() as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.05).abs() < 0.01, "sigma {}", var.sqrt());
    }

    #[test]
    fn conductance_never_negative() {
        let mut dev = ReramDeviceModel::new(1, 0.5, 0.5, 13);
        for _ in 0..500 {
            let cell = dev.program(0);
            assert!(cell.conductance() >= 0.0);
            assert!(dev.read(&cell) >= 0.0);
        }
    }

    #[test]
    fn counters_track_operations() {
        let mut dev = ReramDeviceModel::new(4, 0.0, 0.0, 0);
        let c = dev.program(3);
        let _ = dev.read(&c);
        let _ = dev.read(&c);
        assert_eq!(dev.write_count(), 1);
        assert_eq!(dev.read_count(), 2);
    }

    #[test]
    fn noise_helpers_match_counted_path() {
        // noise_dummy/read_noise must draw the same RNG stream as
        // program(0)/read, differing only in what they count.
        let mut counted = ReramDeviceModel::new(4, 0.1, 0.1, 42);
        let mut free = ReramDeviceModel::new(4, 0.1, 0.1, 42);
        let dummy_c = counted.program(0);
        let dummy_f = free.noise_dummy();
        assert_eq!(dummy_c.conductance(), dummy_f.conductance());
        for _ in 0..5 {
            let a = counted.read(&dummy_c) - dummy_c.conductance();
            let b = free.read_noise(&dummy_f);
            assert_eq!(a, b);
        }
        assert_eq!(free.write_count(), 0);
        assert_eq!(free.read_count(), 0);
    }

    #[test]
    fn draw_then_transform_is_read_noise() {
        let mut drawn = ReramDeviceModel::new(4, 0.1, 0.07, 42);
        let mut reference = drawn.clone();
        for _ in 0..50 {
            let dummy = drawn.noise_dummy();
            assert_eq!(dummy, reference.noise_dummy());
            let bound = drawn.read_noise_bound(&dummy);
            for _ in 0..8 {
                let (u1, u2) = drawn.gaussian_uniforms();
                let noise = drawn.read_noise_from(&dummy, u1, u2);
                assert_eq!(noise.to_bits(), reference.read_noise(&dummy).to_bits());
                assert!(noise.abs() <= bound, "noise {noise} beyond bound {bound}");
            }
        }
        // Both streams end at the same position.
        assert_eq!(drawn.gaussian(), reference.gaussian());
    }

    #[test]
    fn extreme_uniforms_stay_within_the_gaussian_bound() {
        let peak = (-2.0 * f64::EPSILON.ln()).sqrt();
        assert!(peak > 8.4904 && peak < 8.4905, "peak {peak}");
        for u2 in [0.0, 0.5] {
            let g = box_muller(f64::EPSILON, u2);
            assert!(g.abs() <= GAUSSIAN_BOUND, "g {g} at u2 {u2}");
            assert!(g.abs() > 8.49, "u2 {u2} should reach the peak, got {g}");
        }
        // The read-noise bound holds at the extremes with no dummy offset.
        let dev = ReramDeviceModel::new(4, 0.0, 0.3, 0);
        let dummy = ReramCell {
            level: 0,
            conductance: 0.0,
        };
        let bound = dev.read_noise_bound(&dummy);
        for u2 in [0.0, 0.5] {
            let noise = dev.read_noise_from(&dummy, f64::EPSILON, u2);
            assert!(noise.abs() <= bound, "noise {noise} beyond bound {bound}");
        }
    }

    #[test]
    fn same_seed_reproduces_variation() {
        let mut a = ReramDeviceModel::new(4, 0.1, 0.0, 99);
        let mut b = ReramDeviceModel::new(4, 0.1, 0.0, 99);
        for level in [0, 5, 15, 3] {
            assert_eq!(
                a.program(level).conductance(),
                b.program(level).conductance()
            );
        }
    }
}
