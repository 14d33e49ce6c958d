//! Micro-benchmarks of the crossbar substrate's primitive operations:
//! spike-train encoding, single-array MVM, grid programming (full vs
//! delta), grid products, and the quantization pipeline. These sit below the paper-level
//! artifacts in `paper_artifacts.rs` and track the cost of the simulator
//! itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reram_crossbar::array::CrossbarArray;
use reram_crossbar::quant::{slice_magnitude, Quantizer};
use reram_crossbar::spike::SpikeTrain;
use reram_crossbar::{CrossbarConfig, TiledMatrix};
use reram_tensor::{Matrix, Shape2};
use std::hint::black_box;

fn pattern_matrix(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(Shape2::new(rows, cols), |r, c| {
        (((r * 31 + c * 17) % 41) as f32 - 20.0) / 20.0
    })
}

fn bench_spike_encode(c: &mut Criterion) {
    let codes: Vec<u64> = (0..128).map(|i| (i * 37) % 65536).collect();
    c.bench_function("spike_encode_128x16b", |b| {
        b.iter(|| black_box(SpikeTrain::encode(&codes, 16)));
    });
}

fn bench_array_mvm(c: &mut Criterion) {
    let ideal = CrossbarConfig::default();
    let noisy = ideal.clone().with_noise(0.02, 0.02, 3);
    for (name, cfg) in [
        ("array_mvm_128x128_16b", ideal),
        ("array_mvm_128x128_16b_noisy", noisy),
    ] {
        let mut array = CrossbarArray::new(&cfg);
        let levels: Vec<u32> = (0..cfg.rows * cfg.cols).map(|i| (i % 16) as u32).collect();
        array.program(&levels);
        let codes: Vec<u64> = (0..cfg.rows as u64).map(|i| (i * 97) % 65536).collect();
        c.bench_function(name, |b| {
            b.iter(|| black_box(array.mvm_codes(&codes, 16)));
        });
    }
}

fn bench_tiled_program(c: &mut Criterion) {
    let w = pattern_matrix(256, 256);
    let cfg = CrossbarConfig::default();
    c.bench_function("tiled_program_256x256", |b| {
        b.iter(|| black_box(TiledMatrix::program(&w, &cfg)));
    });
}

fn bench_reprogram_full_vs_delta(c: &mut Criterion) {
    let w1 = pattern_matrix(256, 256);
    let mut w2 = w1.clone();
    // A sparse update: 16 of 65536 weights change.
    for k in 0..16usize {
        let (r, q) = (k * 15 % 256, k * 37 % 256);
        w2.set(r, q, w2.at(r, q) * 0.9);
    }
    let cfg = CrossbarConfig::default();
    let mut g = c.benchmark_group("weight_update_256x256");
    g.bench_function(BenchmarkId::new("reprogram", "full"), |b| {
        let mut t = TiledMatrix::program(&w1, &cfg);
        b.iter(|| {
            t.reprogram(black_box(&w2));
        });
    });
    g.bench_function(BenchmarkId::new("reprogram", "delta"), |b| {
        let mut t = TiledMatrix::program(&w1, &cfg);
        b.iter(|| black_box(t.reprogram_delta(black_box(&w2))));
    });
    g.finish();
}

fn bench_quantizer(c: &mut Criterion) {
    let q = Quantizer::fit(16, 1.0);
    let values: Vec<f32> = (0..4096).map(|i| (i as f32 / 4096.0) * 2.0 - 1.0).collect();
    c.bench_function("quantize_4096x16b", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for &v in &values {
                acc += q.quantize(black_box(v));
            }
            black_box(acc)
        });
    });
    c.bench_function("bit_slice_4096", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..4096u64 {
                acc += slice_magnitude(black_box(i * 13 % 65536), 4, 4)[3];
            }
            black_box(acc)
        });
    });
}

fn bench_grid_matvec(c: &mut Criterion) {
    let mut g = c.benchmark_group("tiled_matvec");
    g.sample_size(20);
    for n in [64usize, 256] {
        let w = pattern_matrix(n, n);
        let x: Vec<f32> = (0..n).map(|i| ((i % 13) as f32 - 6.0) / 6.0).collect();
        g.bench_with_input(BenchmarkId::new("square", n), &n, |b, _| {
            let mut t = TiledMatrix::program(&w, &CrossbarConfig::default());
            b.iter(|| black_box(t.matvec(&x)));
        });
    }
    g.finish();
}

/// `TiledMatrix::matmul_rows` at the shapes of one training step of the
/// suite's 12×12 CNN (batch 8, default config): the 3×3 conv's 6×9 grid
/// over 1152 signed im2col rows, and the 216→4 FC grid over 8 rows.
fn bench_tiled_matmul_rows(c: &mut Criterion) {
    let mut g = c.benchmark_group("tiled_matmul_rows");
    g.sample_size(20);
    for (name, out_dim, in_dim, batch) in [("conv_1152x9", 6, 9, 1152), ("fc_8x216", 4, 216, 8)] {
        let w = pattern_matrix(out_dim, in_dim);
        let xs = Matrix::from_fn(Shape2::new(batch, in_dim), |r, c| {
            (((r * 7 + c * 11) % 23) as f32 - 11.0) / 11.0
        });
        let mut t = TiledMatrix::program(&w, &CrossbarConfig::default());
        g.bench_function(name, |b| b.iter(|| black_box(t.matmul_rows(&xs))));
    }
    g.finish();
}

criterion_group!(
    micro,
    bench_spike_encode,
    bench_array_mvm,
    bench_tiled_program,
    bench_reprogram_full_vs_delta,
    bench_quantizer,
    bench_grid_matvec,
    bench_tiled_matmul_rows,
);
criterion_main!(micro);
