//! Crossbar fast paths against the references they stand in for.
//!
//! On an ideal device `CrossbarArray::mvm_codes` computes the integer dot
//! product of the level plane and the input codes directly; on a noisy one
//! it skips the Gaussian transform wherever read noise cannot change an I&F
//! count. The spike-coded `mvm_codes_bit_serial` loop is the paper-faithful
//! reference (§III-A.3). Both fast paths must agree with it bit for bit —
//! outputs, device RNG stream, spike counts and every telemetry count the
//! analytical cost models are checked against.
//!
//! One level up, an ideal-device `TiledMatrix::matvec` multiplies with the
//! signed weight plane read back from its cells instead of running the
//! arrays; `TiledMatrix::matvec_per_array` driven by the bit-serial array
//! MVM is its reference.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reram_suite::crossbar::array::CrossbarArray;
use reram_suite::crossbar::tile::ArrayMvm;
use reram_suite::crossbar::{CrossbarConfig, TiledMatrix};
use reram_suite::datasets::Dataset;
use reram_suite::nn::backend::LinearEngine;
use reram_suite::nn::layers::{ActivationLayer, Conv2d, Flatten, Linear, Pool2d};
use reram_suite::nn::Network;
use reram_suite::tensor::{init, Matrix, Shape2, Shape4};
use reram_telemetry::{scoped_recorder, CounterRecorder, Event};

/// The events one MVM records, in the order reported by [`counted`].
const MVM_EVENTS: [Event; 4] = [
    Event::CrossbarMvm,
    Event::SpikeFrame,
    Event::AdcConversion,
    Event::DacConversion,
];

/// Runs `f` under a fresh scoped recorder; returns its output and the
/// [`MVM_EVENTS`] counts it recorded.
fn counted(f: impl FnOnce() -> Vec<u64>) -> (Vec<u64>, [u64; 4]) {
    let counters = Arc::new(CounterRecorder::new());
    let out = {
        let _guard = scoped_recorder(counters.clone());
        f()
    };
    (out, MVM_EVENTS.map(|e| counters.count(e)))
}

/// A programmed array with random levels and the given fault rates, plus
/// random input codes: all zero (`mode` 0), all at the largest code (1), or
/// random with about a third of them zero (otherwise).
fn random_case(
    config: &CrossbarConfig,
    input_bits: u32,
    mode: u32,
    seed: u64,
) -> (CrossbarArray, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_level = (1u32 << config.cell_bits) - 1;
    let levels: Vec<u32> = (0..config.rows * config.cols)
        .map(|_| rng.gen_range(0..=max_level))
        .collect();
    let max_code = (1u64 << input_bits) - 1;
    let codes = (0..config.rows)
        .map(|_| match mode {
            0 => 0,
            1 => max_code,
            _ if rng.gen_bool(1.0 / 3.0) => 0,
            _ => rng.gen_range(0..=max_code),
        })
        .collect();
    let mut array = CrossbarArray::new(config);
    array.program(&levels);
    (array, codes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The ideal-device fast path equals the bit-serial reference bit for
    /// bit, over random geometry, cell and input precision, codes and
    /// stuck-at fault maps.
    #[test]
    fn ideal_fast_path_equals_bit_serial_reference(
        rows in 1usize..=130,
        cols in 1usize..=130,
        cell_bits in 1u32..=8,
        input_bits in 1u32..=32,
        stuck_off_pct in 0u32..=25,
        stuck_on_pct in 0u32..=25,
        mode in 0u32..4,
        seed in 0u64..u64::MAX,
    ) {
        let config = CrossbarConfig {
            rows,
            cols,
            cell_bits,
            ..CrossbarConfig::default()
        }
        .with_faults(
            f64::from(stuck_off_pct) / 100.0,
            f64::from(stuck_on_pct) / 100.0,
            seed,
        );
        let (mut fast, codes) = random_case(&config, input_bits, mode, seed);
        let mut reference = fast.clone();
        let (y_fast, n_fast) = counted(|| fast.mvm_codes(&codes, input_bits));
        let (y_ref, n_ref) = counted(|| reference.mvm_codes_bit_serial(&codes, input_bits));
        prop_assert_eq!(y_fast, y_ref);
        prop_assert_eq!(n_fast, n_ref);
        prop_assert_eq!(fast.spike_count(), reference.spike_count());
        prop_assert_eq!(fast.mvm_count(), reference.mvm_count());
        prop_assert_eq!(n_fast, [1, u64::from(input_bits), u64::from(input_bits) * cols as u64, rows as u64]);
    }

    /// The noisy-device fast path equals the bit-serial reference bit for
    /// bit and leaves the device RNG where the reference does, over random
    /// geometry, precision, codes, stuck-at fault maps and noise levels.
    /// Write and read sigma each come from {0, small, >= 0.06}: at 0.06 and
    /// above the read-noise bound exceeds half a count, so every bitline
    /// takes the exact Gaussian branch. Two MVMs, a reprogram (which draws
    /// write variation from the same stream) and a third MVM must all match.
    #[test]
    fn noisy_fast_path_equals_bit_serial_reference(
        rows in 1usize..=130,
        cols in 1usize..=130,
        cell_bits in 1u32..=8,
        input_bits in 1u32..=16,
        stuck_off_pct in 0u32..=25,
        stuck_on_pct in 0u32..=25,
        sigma_classes in 1u32..9,
        write_scale in 0.0f64..1.0,
        read_scale in 0.0f64..1.0,
        mode in 0u32..4,
        seed in 0u64..u64::MAX,
    ) {
        let config = CrossbarConfig {
            rows,
            cols,
            cell_bits,
            ..CrossbarConfig::default()
        }
        .with_noise(
            sigma_of_class(sigma_classes / 3, write_scale),
            sigma_of_class(sigma_classes % 3, read_scale),
            seed,
        )
        .with_faults(
            f64::from(stuck_off_pct) / 100.0,
            f64::from(stuck_on_pct) / 100.0,
            seed,
        );
        let (mut fast, codes) = random_case(&config, input_bits, mode, seed);
        let mut reference = fast.clone();
        let (y_fast, n_fast) = counted(|| fast.mvm_codes(&codes, input_bits));
        let (y_ref, n_ref) = counted(|| reference.mvm_codes_bit_serial(&codes, input_bits));
        prop_assert_eq!(y_fast, y_ref);
        prop_assert_eq!(n_fast, n_ref);
        let (other, recodes) = random_case(&config, input_bits, 2, seed ^ 1);
        let relevels = levels_of(&other);
        let rest = |array: &mut CrossbarArray, mvm: ArrayMvm| {
            let second = mvm(array, &codes, input_bits);
            array.program(&relevels);
            let third = mvm(array, &recodes, input_bits);
            let counters = [array.write_count(), array.spike_count(), array.mvm_count()];
            (second, levels_of(array), counters, third)
        };
        prop_assert_eq!(
            rest(&mut fast, CrossbarArray::mvm_codes),
            rest(&mut reference, CrossbarArray::mvm_codes_bit_serial)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The ideal-device grid's fused plane product equals the per-array
    /// polarity passes over the bit-serial reference, through program →
    /// matvec → true delta → matvec → fallback delta → matvec: output bits,
    /// spikes, writes, every array's levels and counters, and every event
    /// count. Cases span multi-tile grids, weight widths that are not a
    /// multiple of the cell width, up to 32-bit weights and inputs, stuck-on
    /// and stuck-off cells, and signed, all-negative and all-zero inputs.
    #[test]
    fn fused_tile_matvec_equals_per_array_reference(
        out_dim in 1usize..=24,
        in_dim in 1usize..=24,
        rows_class in 0usize..3,
        extra_cols in 0usize..=12,
        precision in 0usize..PRECISIONS.len(),
        stuck_off_pct in 0u32..=10,
        stuck_on_pct in 0u32..=10,
        input_mode in 0u32..3,
        seed in 0u64..u64::MAX,
    ) {
        let (cell_bits, weight_bits, input_bits) = PRECISIONS[precision];
        let slices = weight_bits.div_ceil(cell_bits) as usize;
        let config = CrossbarConfig {
            rows: [3, 8, 16][rows_class],
            cols: slices + extra_cols,
            cell_bits,
            weight_bits,
            input_bits,
            ..CrossbarConfig::default()
        }
        .with_faults(
            f64::from(stuck_off_pct) / 100.0,
            f64::from(stuck_on_pct) / 100.0,
            seed,
        );
        let case = TileCase::new(out_dim, in_dim, input_mode, seed);
        prop_assert_eq!(
            case.run(&config, TiledMatrix::matvec),
            case.run(&config, |grid, x| {
                grid.matvec_per_array(x, CrossbarArray::mvm_codes_bit_serial)
            })
        );
    }
}

/// `(cell_bits, weight_bits, input_bits)` of the grid cases: the default,
/// weight widths that are and are not a multiple of the cell width, one
/// bit per cell, and the 32-bit extremes.
const PRECISIONS: [(u32, u32, u32); 7] = [
    (4, 16, 16),
    (4, 8, 8),
    (3, 8, 6),
    (2, 7, 12),
    (1, 5, 4),
    (8, 32, 32),
    (3, 32, 32),
];

/// Weights, their two updates and one input per `matvec` of a grid case.
struct TileCase {
    weights: Matrix,
    /// Moves about half the weights, none past the programmed full scale,
    /// so `reprogram_delta` takes the true delta.
    delta: Matrix,
    /// Grows one weight past the full scale: the fallback reprogram.
    fallback: Matrix,
    inputs: [Vec<f32>; 3],
}

/// What a grid case observes after each step: output bits, spike and
/// write totals, the pulse count of each update, every array's levels and
/// MVM and spike counters, and every telemetry event count.
#[derive(Debug, PartialEq)]
struct TileTrace {
    outputs: Vec<Vec<u32>>,
    totals: Vec<(u64, u64)>,
    pulses: Vec<u64>,
    arrays: Vec<(Vec<u32>, u64, u64)>,
    events: Vec<u64>,
}

impl TileCase {
    fn new(out_dim: usize, in_dim: usize, input_mode: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = Matrix::from_fn(Shape2::new(out_dim, in_dim), |_, _| {
            if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        });
        let peak = weights.abs_max();
        let delta = Matrix::from_fn(weights.shape(), |r, c| {
            let w = weights.at(r, c);
            if w.abs() == peak {
                0.9 * w
            } else if rng.gen_bool(0.5) {
                w * rng.gen_range(-0.9f32..0.9)
            } else {
                w
            }
        });
        let mut fallback = delta.clone();
        let (r, c) = (rng.gen_range(0..out_dim), rng.gen_range(0..in_dim));
        fallback.set(r, c, -3.0 * peak - 1.0);
        let mut input = || -> Vec<f32> {
            (0..in_dim)
                .map(|_| match input_mode {
                    0 if rng.gen_bool(1.0 / 3.0) => 0.0,
                    0 => rng.gen_range(-1.0f32..1.0),
                    1 => -rng.gen_range(0.01f32..1.0),
                    _ => 0.0,
                })
                .collect()
        };
        let inputs = [input(), input(), input()];
        Self {
            weights,
            delta,
            fallback,
            inputs,
        }
    }

    fn run(
        &self,
        config: &CrossbarConfig,
        matvec: impl Fn(&mut TiledMatrix, &[f32]) -> Vec<f32>,
    ) -> TileTrace {
        let counters = Arc::new(CounterRecorder::new());
        let _guard = scoped_recorder(counters.clone());
        let mut grid = TiledMatrix::program(&self.weights, config);
        let mut trace = TileTrace {
            outputs: Vec::new(),
            totals: Vec::new(),
            pulses: Vec::new(),
            arrays: Vec::new(),
            events: Vec::new(),
        };
        for (step, x) in self.inputs.iter().enumerate() {
            match step {
                1 => trace.pulses.push(grid.reprogram_delta(&self.delta)),
                2 => trace.pulses.push(grid.reprogram_delta(&self.fallback)),
                _ => {}
            }
            let y = matvec(&mut grid, x);
            trace.outputs.push(y.iter().map(|v| v.to_bits()).collect());
            trace
                .totals
                .push((grid.total_spikes(), grid.total_writes()));
        }
        trace.arrays = grid
            .arrays()
            .map(|a| (levels_of(a), a.mvm_count(), a.spike_count()))
            .collect();
        trace.events = Event::ALL.iter().map(|&e| counters.count(e)).collect();
        trace
    }
}

/// Sigma of noise class `class`: 0 (off), 1 (small, below 0.05) or 2
/// (0.06 to 0.3), placed within the class by `scale` in `[0, 1)`.
fn sigma_of_class(class: u32, scale: f64) -> f64 {
    match class {
        0 => 0.0,
        1 => 0.001 + 0.049 * scale,
        _ => 0.06 + 0.24 * scale,
    }
}

/// The array's programmed levels, row-major.
fn levels_of(array: &CrossbarArray) -> Vec<u32> {
    (0..array.rows())
        .flat_map(|r| (0..array.cols()).map(move |c| array.level_at(r, c)))
        .collect()
}

/// Read noise changes I&F counts, and the fast path still equals the
/// reference. With exact integer conductances (no write variation) and one
/// input bit, a count can differ from the noise-free integer dot product
/// only where the fast path ran the exact Gaussian branch: its skip branch
/// returns the count of the noise-free current itself.
#[test]
fn noisy_fast_path_takes_the_exact_branch() {
    let config = CrossbarConfig {
        rows: 64,
        cols: 64,
        ..CrossbarConfig::default()
    }
    .with_noise(0.0, 0.3, 11);
    let (mut fast, codes) = random_case(&config, 1, 2, 11);
    let mut reference = fast.clone();
    let levels = levels_of(&fast);
    let exact: Vec<u64> = (0..config.cols)
        .map(|c| {
            (0..config.rows)
                .map(|r| u64::from(levels[r * config.cols + c]) * codes[r])
                .sum()
        })
        .collect();
    let (y_fast, _) = counted(|| fast.mvm_codes(&codes, 1));
    let (y_ref, _) = counted(|| reference.mvm_codes_bit_serial(&codes, 1));
    assert_eq!(y_fast, y_ref);
    let changed = y_fast.iter().zip(&exact).filter(|(y, e)| y != e).count();
    assert!(changed > 0, "read noise changed no count: {y_fast:?}");
}

/// Pins the delta-reprogram fallback under SGD, on the set-up of the host
/// benchmark's `xbar_train` workload (same network, seeds, batches and
/// learning rate). Every step grows some weight past the full scale its grid
/// was quantized with, so each `reprogram_delta` falls back to a full
/// reprogram and rewrites every cell, padding included; a true delta would
/// leave the unused cells alone. Other seeds can let a grid take a true
/// delta on some steps — the fallback is a property of the update, not of
/// the grid.
#[test]
fn sgd_weight_updates_fall_back_to_full_reprogram() {
    let counters = Arc::new(CounterRecorder::new());
    let _guard = scoped_recorder(counters.clone());

    let ds = Dataset::mnist_like().with_resolution(12);
    let mut data_rng = init::seeded_rng(1);
    let mut init_rng = init::seeded_rng(1 ^ 0x6e65_7477_6f72_6b00);
    let engine = || LinearEngine::crossbar(CrossbarConfig::default());
    let mut net = Network::new("sgd-fallback", Shape4::new(1, 1, 12, 12))
        .push(Conv2d::new(1, 6, 3, 1, 1, &mut init_rng).with_engine(engine()))
        .push(ActivationLayer::relu())
        .push(Pool2d::max(2))
        .push(Flatten::new())
        .push(Linear::new(6 * 6 * 6, 4, &mut init_rng).with_engine(engine()));
    // The conv grid is one differential pair of 128x128 arrays, the
    // 216-input FC grid two.
    let cells_per_update = 6 * 128 * 128;

    for step in 0..40 {
        let labels: Vec<usize> = (0..8).map(|i| (step * 8 + i) % 4).collect();
        let x = ds.batch_for_labels(&labels, &mut data_rng);
        let writes_before = counters.count(Event::CellWrite);
        let _ = net.train_batch(&x, &labels, 0.05);
        let writes = counters.count(Event::CellWrite) - writes_before;
        // Step 0 programs the fresh grids; every later forward pass first
        // applies the previous step's weight update to both grids.
        if step > 0 {
            assert_eq!(writes, cells_per_update, "step {step}");
        }
    }
}
