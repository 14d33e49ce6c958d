//! A single ReRAM crossbar array — paper Fig. 3(a, b).
//!
//! "The vector is represented by the input signals on the wordlines. Each
//! element of the matrix is programmed into the cell conductance in the
//! crossbar array. Thus, the current flowing to the end of each bitline is
//! viewed as the result of the matrix-vector multiplication."

use crate::device::{ReramCell, ReramDeviceModel};
use crate::spike::{self, IntegrateFire, SpikeTrain};
use crate::CrossbarConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reram_telemetry::{self as telemetry, Event};

/// Fixed-geometry crossbar of ReRAM cells with bit-serial analog MVM.
///
/// Cells are stored row-major as two planes: `levels[r * cols + c]` and
/// `conductances[r * cols + c]` describe the cell at wordline `r`, bitline
/// `c`. The array is unsigned — sign handling lives one level up in
/// [`crate::tile::TiledMatrix`] via differential array pairs.
///
/// Stuck-at cell faults (manufacturing defects / worn-out cells) are drawn
/// once at construction and persist: a stuck cell ignores every subsequent
/// programming pulse and always presents its stuck conductance.
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    rows: usize,
    cols: usize,
    /// Programmed digital level per cell. The device allows at most 8 cell
    /// bits, so a level always fits a byte.
    levels: Vec<u8>,
    /// Realized analog conductance per cell (level plus frozen write
    /// variation), in units of one level step.
    conductances: Vec<f64>,
    /// Per-cell stuck level (`None` = healthy).
    stuck: Vec<Option<u32>>,
    device: ReramDeviceModel,
    mvm_count: u64,
    spike_count: u64,
}

impl CrossbarArray {
    /// Creates an array with all cells programmed to level 0.
    pub fn new(config: &CrossbarConfig) -> Self {
        let device = ReramDeviceModel::new(
            config.cell_bits,
            config.write_sigma,
            config.read_sigma,
            config.noise_seed,
        );
        let max_level = device.max_level();
        let cells = config.rows * config.cols;
        let stuck: Vec<Option<u32>> = if config.stuck_off_rate > 0.0 || config.stuck_on_rate > 0.0 {
            // Distinct RNG stream from the variation RNG so enabling
            // faults does not perturb the variation draws.
            let mut rng =
                StdRng::seed_from_u64(config.noise_seed.wrapping_mul(0x51_7c_c1_b7_27_22_0a_95));
            (0..cells)
                .map(|_| {
                    let r: f64 = rng.gen();
                    if r < config.stuck_off_rate {
                        Some(0)
                    } else if r < config.stuck_off_rate + config.stuck_on_rate {
                        Some(max_level)
                    } else {
                        None
                    }
                })
                .collect()
        } else {
            vec![None; cells]
        };
        let mut array = Self {
            rows: config.rows,
            cols: config.cols,
            levels: vec![0; cells],
            conductances: vec![0.0; cells],
            stuck,
            device,
            mvm_count: 0,
            spike_count: 0,
        };
        array.write_all((0..cells).map(|_| 0));
        array
    }

    /// Number of stuck (faulty) cells in this array.
    pub fn fault_count(&self) -> usize {
        self.stuck.iter().filter(|s| s.is_some()).count()
    }

    /// Wordline count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bitline count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Issues one programming pulse to cell `i` (a stuck cell keeps its
    /// stuck level), without the telemetry event its caller batches.
    fn write_cell(&mut self, i: usize, level: u32) {
        let cell = self
            .device
            .program_unrecorded(self.stuck[i].unwrap_or(level));
        // The device rejects levels of 2^8 and above.
        self.levels[i] = cell.level() as u8;
        self.conductances[i] = cell.conductance();
    }

    /// Issues one programming pulse to every cell, in row-major order, and
    /// records them as one `CellWrite` event.
    ///
    /// Without write variation a pulse draws nothing from the device RNG
    /// and realizes its level exactly, so the planes are written in bulk:
    /// the same levels, conductances, range check and write count as one
    /// [`write_cell`](Self::write_cell) per cell.
    fn write_all(&mut self, levels: impl Iterator<Item = u32>) {
        let cells = self.levels.len();
        if self.device.has_write_variation() {
            for (i, level) in levels.enumerate() {
                self.write_cell(i, level);
            }
        } else {
            let range = self.device.levels();
            let planes = self.levels.iter_mut().zip(&mut self.conductances);
            for (((stored, g), stuck), level) in planes.zip(&self.stuck).zip(levels) {
                let level = stuck.unwrap_or(level);
                assert!(level < range, "level {level} exceeds device range {range}");
                *stored = level as u8;
                *g = f64::from(level);
            }
            self.device.count_exact_writes(cells as u64);
        }
        telemetry::record(Event::CellWrite, cells as u64);
    }

    /// Programs the whole array from row-major levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != rows * cols` or any level exceeds the
    /// device range.
    pub fn program(&mut self, levels: &[u32]) {
        assert_eq!(
            levels.len(),
            self.rows * self.cols,
            "program: {} levels for a {}x{} array",
            levels.len(),
            self.rows,
            self.cols
        );
        self.write_all(levels.iter().copied());
    }

    /// Programs only the cells whose stored level differs from `levels`, a
    /// row-major block `width` bitlines wide anchored at cell `(0, 0)`, and
    /// returns the number of pulses issued. Cells outside the block are left
    /// untouched; a stuck cell whose stuck level differs from the requested
    /// one is pulsed every time.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit the array or a changed level exceeds
    /// the device range.
    pub(crate) fn program_changed(&mut self, levels: &[u32], width: usize) -> u64 {
        assert!(
            width > 0
                && width <= self.cols
                && levels.len().is_multiple_of(width)
                && levels.len() / width <= self.rows,
            "program_changed: {} levels do not form a block {width} cells wide in a {}x{} array",
            levels.len(),
            self.rows,
            self.cols
        );
        let mut pulses = 0u64;
        for (r, row) in levels.chunks_exact(width).enumerate() {
            for (c, &level) in row.iter().enumerate() {
                let i = r * self.cols + c;
                if u32::from(self.levels[i]) != level {
                    self.write_cell(i, level);
                    pulses += 1;
                }
            }
        }
        if pulses > 0 {
            telemetry::record(Event::CellWrite, pulses);
        }
        pulses
    }

    /// The digital level currently programmed at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn level_at(&self, row: usize, col: usize) -> u32 {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row},{col}) out of range"
        );
        u32::from(self.levels[row * self.cols + col])
    }

    /// The programmed levels of wordline `row`, one per bitline.
    pub(crate) fn level_row(&self, row: usize) -> &[u8] {
        &self.levels[row * self.cols..(row + 1) * self.cols]
    }

    /// Whether the device adds neither write variation nor read noise.
    pub(crate) fn is_ideal(&self) -> bool {
        self.device.is_ideal()
    }

    /// Counts one MVM that drove `spikes` wordline spikes, for a caller
    /// that computed the product without this array (and records the
    /// MVM's telemetry itself).
    pub(crate) fn count_mvm(&mut self, spikes: u64) {
        self.mvm_count += 1;
        self.spike_count += spikes;
    }

    /// One analog frame: bitline currents with the given wordlines active.
    ///
    /// Returns `cols` currents, each the sum of active cells' conductances.
    /// Read noise (if configured) is one shared dummy-cell draw per frame
    /// plus one draw per bitline, modelling integrated current noise at the
    /// I&F input.
    ///
    /// # Panics
    ///
    /// Panics if `active.len() != rows`.
    pub fn bitline_currents(&mut self, active: &[bool]) -> Vec<f64> {
        assert_eq!(
            active.len(),
            self.rows,
            "bitline_currents: {} wordline states for {} rows",
            active.len(),
            self.rows
        );
        let mut currents = vec![0.0f64; self.cols];
        for (r, &on) in active.iter().enumerate() {
            if !on {
                continue;
            }
            self.spike_count += 1;
            let row = &self.conductances[r * self.cols..(r + 1) * self.cols];
            for (cur, &g) in currents.iter_mut().zip(row) {
                *cur += g;
            }
        }
        if !self.device.is_ideal() {
            // One dummy level-0 cell per frame turns the device's read noise
            // into additive current noise, drawn once per bitline.
            // The dummy is a readout artifact: it must not count as cell
            // write/read traffic in endurance or telemetry accounting.
            let dummy = self.device.noise_dummy();
            for cur in &mut currents {
                *cur += self.device.read_noise(&dummy);
            }
        }
        currents
    }

    /// Matrix-vector multiplication of the array's levels with one unsigned
    /// integer code per wordline: `y_c = Σ_r level[r][c] · x_r`.
    ///
    /// On an ideal device every conductance is an integer level and every
    /// I&F count of the spike-coded product is exact, so the bit-serial
    /// merge `Σ_t 2^t · IF(Σ_r g[r][c] · bit_t(x_r))` equals the integer dot
    /// product, which this computes directly from the level plane. A noisy
    /// device runs the frames without a spike train and skips the Gaussian
    /// transform wherever read noise cannot change a count (see
    /// `noisy_frames`). Both paths equal
    /// [`mvm_codes_bit_serial`](Self::mvm_codes_bit_serial) bit for bit —
    /// outputs, RNG stream, telemetry and counters.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != rows` or a code exceeds `input_bits`.
    pub fn mvm_codes(&mut self, codes: &[u64], input_bits: u32) -> Vec<u64> {
        self.begin_mvm(codes);
        self.spike_count += spike::drive(codes, input_bits);
        self.record_mvm(input_bits as usize);
        if !self.device.is_ideal() {
            return self.noisy_frames(codes, input_bits);
        }
        let mut acc = vec![0u64; self.cols];
        for (r, &code) in codes.iter().enumerate() {
            if code == 0 {
                continue;
            }
            let row = &self.levels[r * self.cols..(r + 1) * self.cols];
            for (a, &level) in acc.iter_mut().zip(row) {
                *a += u64::from(level) * code;
            }
        }
        acc
    }

    /// The bit-serial frames of a noisy-device MVM, merged with binary
    /// weights: the same sums, draws and counts as
    /// [`mvm_codes_bit_serial`](Self::mvm_codes_bit_serial), without its
    /// spike train or per-frame currents.
    ///
    /// Each frame sums the active conductance rows in row order, as
    /// [`bitline_currents`](Self::bitline_currents) does, and draws the
    /// shared noise dummy. Each bitline then draws its two read-noise
    /// uniforms, keeping the RNG stream where the reference leaves it, but
    /// transforms them (in the out-of-line `noisy_count`) only when the
    /// noise could change its count: the noise lies within the bound `B` of
    /// `ReramDeviceModel::read_noise_bound`, and `settled_count` proves
    /// that no noise within `B` moves the count of most currents.
    fn noisy_frames(&mut self, codes: &[u64], input_bits: u32) -> Vec<u64> {
        let cols = self.cols;
        let mut acc = vec![0u64; cols];
        let mut currents = vec![0.0f64; cols];
        for t in 0..input_bits {
            currents.fill(0.0);
            for (r, &code) in codes.iter().enumerate() {
                if (code >> t) & 1 == 1 {
                    let row = &self.conductances[r * cols..(r + 1) * cols];
                    for (cur, &g) in currents.iter_mut().zip(row) {
                        *cur += g;
                    }
                }
            }
            let dummy = self.device.noise_dummy();
            let weight = 1u64 << t;
            if !self.device.has_read_noise() {
                for (a, &cur) in acc.iter_mut().zip(&currents) {
                    *a += spike::fire_count(cur) * weight;
                }
                continue;
            }
            let slack = 0.5 - self.device.read_noise_bound(&dummy) - COUNT_MARGIN;
            for (a, &cur) in acc.iter_mut().zip(&currents) {
                let (u1, u2) = self.device.gaussian_uniforms();
                let count = match settled_count(cur, slack) {
                    Some(count) => count,
                    None => noisy_count(&self.device, &dummy, cur, u1, u2),
                };
                *a += count * weight;
            }
        }
        acc
    }

    /// Full spike-coded matrix-vector multiplication — the reference
    /// [`mvm_codes`](Self::mvm_codes) must equal on every device.
    ///
    /// Encodes `codes` (one unsigned integer per wordline) as a weighted
    /// spike train, integrates every frame through I&F counters, and merges
    /// the per-frame counts with binary weights. Returns one accumulated
    /// count per bitline: `y_c = Σ_t 2^t · IF(Σ_r g[r][c] · bit_t(x_r))`.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != rows` or a code exceeds `input_bits`.
    pub fn mvm_codes_bit_serial(&mut self, codes: &[u64], input_bits: u32) -> Vec<u64> {
        self.begin_mvm(codes);
        let train = SpikeTrain::encode(codes, input_bits);
        self.record_mvm(train.num_frames());
        let mut inf = IntegrateFire::new();
        let mut acc = vec![0u64; self.cols];
        for t in 0..train.num_frames() {
            let currents = self.bitline_currents(train.frame(t));
            let w = train.frame_weight(t);
            for (a, cur) in acc.iter_mut().zip(currents) {
                *a += inf.convert(cur) * w;
            }
        }
        acc
    }

    fn begin_mvm(&mut self, codes: &[u64]) {
        assert_eq!(
            codes.len(),
            self.rows,
            "mvm_codes: {} codes for {} rows",
            codes.len(),
            self.rows
        );
        self.mvm_count += 1;
    }

    /// Batched: one recorder acquisition for the whole MVM. Each of the
    /// `frames` bit-serial frames drives every bitline through one I&F
    /// conversion, so conversions = frames x cols (the closed form behind
    /// core's `LayerPlan::adc_conversions`).
    fn record_mvm(&self, frames: usize) {
        telemetry::with_recorder(|t| {
            t.record(Event::CrossbarMvm, 1);
            t.record(Event::SpikeFrame, frames as u64);
            t.record(Event::AdcConversion, (frames * self.cols) as u64);
        });
    }

    /// Number of MVM operations performed.
    pub fn mvm_count(&self) -> u64 {
        self.mvm_count
    }

    /// Number of wordline spikes driven (dynamic energy proxy).
    pub fn spike_count(&self) -> u64 {
        self.spike_count
    }

    /// Number of cell programming operations (endurance proxy).
    pub fn write_count(&self) -> u64 {
        self.device.write_count()
    }
}

/// Safety margin of [`settled_count`], in counts: above the two roundings
/// (at most `2^-32` each below [`SETTLED_BELOW`]) it must absorb.
const COUNT_MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// [`settled_count`] decides only for currents below this (`2^21`).
const SETTLED_BELOW: f64 = (1u64 << 21) as f64;

/// The I&F count of `current + n`, the same for every read noise `n` with
/// `|n| <= B`, or `None` if the noise could move it. `slack` is
/// `0.5 − B − COUNT_MARGIN`.
///
/// Let `f = fl(current + 0.5)` and `k = ⌊f⌋` (the cast); `f − k` is exact.
/// The count of a current `x` is `k` exactly when `x + 0.5` lies in
/// `[k, k + 1)` (for `k = 0` the clamp at zero covers `x < 0`). The
/// reference counts `x = fl(current + n)`. Below `2^21` the rounding of `f`
/// and of `x` each move a value by at most `2^-32`, so `x + 0.5` lies within
/// `B + 2^-31` of `f`, while `|f − k − 0.5| < slack` puts `f` more than
/// `B + 2^-30` inside `(k, k + 1)`: the count is `k`. A cast and a compare
/// replace the two libm `round` calls that checking both ends of
/// `[current − B, current + B]` would take.
#[inline]
fn settled_count(current: f64, slack: f64) -> Option<u64> {
    let shifted = current + 0.5;
    let whole = shifted as u32;
    (shifted < SETTLED_BELOW && (shifted - f64::from(whole) - 0.5).abs() < slack)
        .then_some(u64::from(whole))
}

/// The I&F count of `current` plus the read noise the uniforms `u1, u2`
/// transform into, as the reference computes it for every bitline.
///
/// Out of line and cold on purpose: inlined, the optimizer hoists the `ln`
/// and `cos` of the transform out of this rarely taken branch and into
/// every bitline of the hot loop.
#[cold]
#[inline(never)]
fn noisy_count(
    device: &ReramDeviceModel,
    dummy: &ReramCell,
    current: f64,
    u1: f64,
    u2: f64,
) -> u64 {
    spike::fire_count(current + device.read_noise_from(dummy, u1, u2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CrossbarConfig {
        CrossbarConfig {
            rows: 4,
            cols: 4,
            cell_bits: 4,
            weight_bits: 4,
            input_bits: 4,
            ..CrossbarConfig::default()
        }
    }

    #[test]
    fn new_array_is_all_zero() {
        let mut a = CrossbarArray::new(&small_config());
        let y = a.mvm_codes(&[15, 15, 15, 15], 4);
        assert!(y.iter().all(|&v| v == 0));
    }

    #[test]
    fn program_and_read_back_levels() {
        let mut a = CrossbarArray::new(&small_config());
        let levels: Vec<u32> = (0..16).collect();
        a.program(&levels);
        assert_eq!(a.level_at(0, 0), 0);
        assert_eq!(a.level_at(3, 3), 15);
        assert_eq!(a.level_at(1, 2), 6);
    }

    #[test]
    fn bitline_current_sums_active_rows() {
        let mut a = CrossbarArray::new(&small_config());
        let levels: Vec<u32> = (0..16).map(|i| i % 16).collect();
        a.program(&levels);
        // Activate rows 0 and 2: column c current = levels[c] + levels[8+c].
        let currents = a.bitline_currents(&[true, false, true, false]);
        for c in 0..4 {
            assert_eq!(currents[c], (c + (8 + c)) as f64);
        }
    }

    #[test]
    fn mvm_codes_computes_integer_product() {
        let mut a = CrossbarArray::new(&small_config());
        // g = row-major 4x4 matrix of levels.
        let g = [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0];
        a.program(&g);
        let x = [3u64, 0, 7, 15];
        let y = a.mvm_codes(&x, 4);
        for c in 0..4 {
            let want: u64 = (0..4).map(|r| g[r * 4 + c] as u64 * x[r]).sum();
            assert_eq!(y[c], want, "column {c}");
        }
    }

    #[test]
    fn mvm_is_exact_for_max_inputs() {
        let mut a = CrossbarArray::new(&small_config());
        a.program(&[15u32; 16]);
        let y = a.mvm_codes(&[15; 4], 4);
        // Every column: 4 rows * 15 * 15 = 900.
        assert!(y.iter().all(|&v| v == 900));
    }

    #[test]
    fn counters_accumulate() {
        let mut a = CrossbarArray::new(&small_config());
        a.program(&[1; 16]);
        let _ = a.mvm_codes(&[0b1010, 0b0101, 0, 0b1111], 4);
        assert_eq!(a.mvm_count(), 1);
        // spikes = popcount sum = 2 + 2 + 0 + 4 = 8
        assert_eq!(a.spike_count(), 8);
        // writes = initial 16 + programmed 16
        assert_eq!(a.write_count(), 32);
    }

    #[test]
    fn noisy_array_stays_close_to_ideal() {
        let cfg = small_config().with_noise(0.02, 0.02, 5);
        let mut noisy = CrossbarArray::new(&cfg);
        let mut ideal = CrossbarArray::new(&small_config());
        let g: Vec<u32> = (0..16).map(|i| (i * 3) % 16).collect();
        noisy.program(&g);
        ideal.program(&g);
        let x = [7u64, 3, 15, 1];
        let yn = noisy.mvm_codes(&x, 4);
        let yi = ideal.mvm_codes(&x, 4);
        for (a, b) in yn.iter().zip(&yi) {
            let diff = (*a as i64 - *b as i64).abs();
            assert!(diff <= 16, "noisy {a} vs ideal {b}");
        }
    }

    #[test]
    #[should_panic(expected = "codes for")]
    fn mvm_rejects_wrong_length() {
        let mut a = CrossbarArray::new(&small_config());
        let _ = a.mvm_codes(&[1, 2], 4);
    }

    #[test]
    fn fault_free_array_has_no_stuck_cells() {
        let a = CrossbarArray::new(&small_config());
        assert_eq!(a.fault_count(), 0);
    }

    #[test]
    fn fault_rate_statistics() {
        let cfg = CrossbarConfig {
            rows: 64,
            cols: 64,
            ..CrossbarConfig::default()
        }
        .with_faults(0.05, 0.05, 17);
        let a = CrossbarArray::new(&cfg);
        let rate = a.fault_count() as f64 / (64.0 * 64.0);
        assert!((rate - 0.10).abs() < 0.03, "fault rate {rate}");
    }

    #[test]
    fn stuck_cells_ignore_programming() {
        let cfg = small_config().with_faults(0.5, 0.0, 23);
        let mut a = CrossbarArray::new(&cfg);
        let faults_before = a.fault_count();
        assert!(faults_before > 0, "need at least one stuck cell");
        a.program(&[15u32; 16]);
        // Stuck-off cells still read level 0 after programming to 15.
        let zeros = (0..4)
            .flat_map(|r| (0..4).map(move |c| (r, c)))
            .filter(|&(r, c)| a.level_at(r, c) == 0)
            .count();
        assert_eq!(zeros, faults_before);
    }

    #[test]
    fn stuck_on_cells_add_current() {
        let cfg = small_config().with_faults(0.0, 0.5, 29);
        let mut a = CrossbarArray::new(&cfg);
        // Without programming anything, stuck-on cells conduct at max.
        let y = a.mvm_codes(&[1, 1, 1, 1], 4);
        let total: u64 = y.iter().sum();
        assert_eq!(total, a.fault_count() as u64 * 15);
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let cfg = small_config().with_faults(0.3, 0.1, 31);
        let a = CrossbarArray::new(&cfg);
        let b = CrossbarArray::new(&cfg);
        assert_eq!(a.fault_count(), b.fault_count());
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(a.level_at(r, c), b.level_at(r, c));
            }
        }
    }

    /// Pulses every cell of a fresh copy of `array`'s device one by one,
    /// as `new` and `program` did before they wrote the planes in bulk.
    fn per_cell(array: &CrossbarArray, cfg: &CrossbarConfig, levels: &[u32]) -> CrossbarArray {
        let mut reference = array.clone();
        reference.device = ReramDeviceModel::new(
            cfg.cell_bits,
            cfg.write_sigma,
            cfg.read_sigma,
            cfg.noise_seed,
        );
        for i in 0..levels.len() {
            reference.write_cell(i, 0);
        }
        for (i, &level) in levels.iter().enumerate() {
            reference.write_cell(i, level);
        }
        reference
    }

    #[test]
    fn bulk_writes_equal_per_cell_writes() {
        let base = CrossbarConfig {
            rows: 16,
            cols: 24,
            ..CrossbarConfig::default()
        };
        for cfg in [
            base.clone().with_faults(0.1, 0.1, 41),
            base.clone()
                .with_noise(0.0, 0.05, 43)
                .with_faults(0.2, 0.05, 43),
            base.clone()
                .with_noise(0.03, 0.02, 47)
                .with_faults(0.05, 0.1, 47),
        ] {
            let levels: Vec<u32> = (0..16 * 24).map(|i| (i * 7 % 16) as u32).collect();
            let mut bulk = CrossbarArray::new(&cfg);
            bulk.program(&levels);
            let mut reference = per_cell(&CrossbarArray::new(&cfg), &cfg, &levels);
            assert!(bulk.fault_count() > 0);
            assert_eq!(bulk.levels, reference.levels);
            let bits = |a: &CrossbarArray| {
                a.conductances
                    .iter()
                    .map(|g| g.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&bulk), bits(&reference));
            assert_eq!(bulk.write_count(), 2 * levels.len() as u64);
            assert_eq!(bulk.write_count(), reference.write_count());
            // Later reads draw from the same RNG position.
            let codes: Vec<u64> = (0..16).map(|r| r * 997 % 65536).collect();
            assert_eq!(bulk.mvm_codes(&codes, 16), reference.mvm_codes(&codes, 16));
            assert_eq!(
                bulk.device.gaussian_uniforms(),
                reference.device.gaussian_uniforms()
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds device range")]
    fn bulk_program_rejects_out_of_range_level() {
        let mut a = CrossbarArray::new(&small_config());
        a.program(&[16u32; 16]);
    }

    #[test]
    fn program_changed_pulses_only_differing_cells_of_the_block() {
        let mut a = CrossbarArray::new(&small_config());
        a.program(&[2u32; 16]);
        let writes = a.write_count();
        // A 2x3 block: two cells differ from the stored level 2.
        assert_eq!(a.program_changed(&[2, 9, 2, 2, 2, 0], 3), 2);
        assert_eq!((a.level_at(0, 1), a.level_at(1, 2)), (9, 0));
        assert_eq!(a.level_at(0, 3), 2, "outside the block");
        assert_eq!(a.write_count(), writes + 2);
        assert_eq!(a.program_changed(&[2, 9, 2, 2, 2, 0], 3), 0);
        // A stuck cell never reaches the requested level, so every call
        // pulses it again.
        let mut stuck = CrossbarArray::new(&small_config().with_faults(1.0, 0.0, 3));
        assert_eq!(stuck.program_changed(&[3], 1), 1);
        assert_eq!(stuck.program_changed(&[3], 1), 1);
        assert_eq!(stuck.level_at(0, 0), 0);
    }
}
