//! Crossbar kernel probe: direct calls to `CrossbarArray::mvm_codes` and
//! `TiledMatrix::{program, matvec, reprogram_delta}` at the workloads'
//! shapes (the 6×9 conv and 4×216 FC weight matrices) on a workload's
//! device. Each figure is the median over its repetitions, in µs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reram_crossbar::array::CrossbarArray;
use reram_crossbar::{CrossbarConfig, TiledMatrix};
use reram_tensor::{Matrix, Shape2};

use crate::trace::Tracer;
use crate::{median, Metrics};

const MVM_REPS: usize = 200;
const MATVEC_REPS: usize = 200;
const PROGRAM_REPS: usize = 20;
const DELTA_REPS: usize = 100;
/// The weight shapes of `xbar_train` and `bank_noisy`: conv, then FC.
const SHAPES: [(usize, usize); 2] = [(6, 9), (4, 216)];

fn random_matrix(rows: usize, cols: usize, scale: f32, rng: &mut StdRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-scale..scale))
        .collect();
    Matrix::from_vec(Shape2::new(rows, cols), data)
}

/// Median µs of `reps` calls of `f`, each its own span.
fn time_us(tr: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = std::time::Instant::now();
        tr.span(name, |_| f());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&mut samples)
}

pub fn run(device: &CrossbarConfig, seed: u64, tr: &mut Tracer, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7072_6f62_6500);

    let mut array = CrossbarArray::new(device);
    let max_level = (1u32 << device.cell_bits) - 1;
    let levels: Vec<u32> = (0..device.rows * device.cols)
        .map(|_| rng.gen_range(0..=max_level))
        .collect();
    array.program(&levels);
    let input_bits = 16;
    let codes: Vec<u64> = (0..device.rows)
        .map(|_| rng.gen_range(0..1u64 << input_bits))
        .collect();
    let us = time_us(tr, "crossbar.mvm_codes_us", MVM_REPS, || {
        std::hint::black_box(array.mvm_codes(&codes, input_bits));
    });
    m.insert("crossbar.mvm_codes_us", us);

    // The probe alternates each matrix with a copy shrunk by 2% (an SGD-step
    // sized change): both stay inside the programmed full scale, so every
    // delta reprogram is a true delta, never the full-reprogram fallback.
    let weights: Vec<[Matrix; 2]> = SHAPES
        .iter()
        .map(|&(r, c)| {
            let w = random_matrix(r, c, 0.5, &mut rng);
            let shrunk = w.data().iter().map(|v| 0.98 * v).collect();
            [w, Matrix::from_vec(Shape2::new(r, c), shrunk)]
        })
        .collect();
    let inputs: Vec<Vec<f32>> = SHAPES
        .iter()
        .map(|&(_, c)| (0..c).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();

    let us = time_us(tr, "crossbar.program_us", PROGRAM_REPS, || {
        for w in &weights {
            std::hint::black_box(TiledMatrix::program(&w[0], device));
        }
    });
    m.insert("crossbar.program_us", us);

    let mut tiles: Vec<TiledMatrix> = weights
        .iter()
        .map(|w| TiledMatrix::program(&w[0], device))
        .collect();
    let us = time_us(tr, "crossbar.matvec_us", MATVEC_REPS, || {
        for (t, x) in tiles.iter_mut().zip(&inputs) {
            std::hint::black_box(t.matvec(x));
        }
    });
    m.insert("crossbar.matvec_us", us);

    let mut rep = 0;
    let us = time_us(tr, "crossbar.reprogram_delta_us", DELTA_REPS, || {
        rep += 1;
        for (t, w) in tiles.iter_mut().zip(&weights) {
            std::hint::black_box(t.reprogram_delta(&w[rep % 2]));
        }
    });
    m.insert("crossbar.reprogram_delta_us", us);
}
