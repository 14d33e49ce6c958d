//! `bank_noisy`: inference of the `xbar_train` geometry compiled onto a PIM
//! bank (`CompiledNetwork`, the ISA path) with device variation, read
//! noise and stuck-off cells.
//!
//! A unit is one image forward; an item is one image. A round is one pass
//! over 16 images. Read-noise draws advance from round to round, so only
//! round 0 is fingerprinted; every output is checked against the
//! floating-point `forward_exact` reference (outside the unit time).

use reram_core::{CompiledNetwork, NetStage};
use reram_crossbar::CrossbarConfig;
use reram_datasets::Dataset;
use reram_nn::activations::Activation;
use reram_nn::layers::{Conv2d, Linear};
use reram_tensor::{init, Matrix, Shape2};

use crate::digest::Digest;
use crate::trace::{mean_s, Totals, Tracer};
use crate::{FirstRound, Metrics, Workload};

const IMAGES: usize = 16;
const CLASSES: usize = 4;
const WRITE_SIGMA: f64 = 0.02;
const READ_SIGMA: f64 = 0.02;
const STUCK_OFF_RATE: f64 = 0.01;
/// Largest allowed `|bank - exact|` per output, as a share of that output's
/// magnitude bound `Σ_j |W_ij|·|a_j|` (the FC dot product with every term
/// taken positive): stuck-off cells and noise remove or perturb a share of
/// those terms. The largest share seen over 90 seeds was 0.07.
pub const OUTPUT_TOLERANCE: f32 = 0.12;
/// Largest allowed `‖bank - exact‖ / ‖exact‖` over all outputs of a round.
/// One image's outputs can nearly cancel, so noise alone can move them by
/// more than their own norm; over a round of 16 images the largest error
/// seen over 90 seeds (630 rounds) was 0.35, while the same rounds with
/// their outputs zeroed, negated, top and bottom class swapped or classes
/// rotated read 0.79 or more.
pub const ROUND_TOLERANCE: f32 = 0.6;

pub struct BankNoisy {
    device: CrossbarConfig,
    net: CompiledNetwork,
    stages: Vec<NetStage>,
    images: Vec<Vec<f32>>,
    /// Per image: the exact outputs and each output's magnitude bound.
    /// Computed on the first check.
    references: Vec<(Vec<f32>, Vec<f32>)>,
    /// Outputs of the round in progress and of the last complete round.
    round: Vec<Vec<f32>>,
    last_round: Vec<Vec<f32>>,
}

/// The noisy device of this workload: variation and read-noise seeds and
/// the fault map all follow the benchmark seed.
pub fn noisy_device(seed: u64) -> CrossbarConfig {
    let s = seed ^ 0x6465_7669_6365_0000;
    CrossbarConfig::default()
        .with_noise(WRITE_SIGMA, READ_SIGMA, s)
        .with_faults(STUCK_OFF_RATE, 0.0, s)
}

impl BankNoisy {
    /// Computes the exact outputs and magnitude bounds of every image.
    fn references(&mut self) {
        if !self.references.is_empty() {
            return;
        }
        let stages = magnitude_stages(&self.stages);
        let bound = CompiledNetwork::compile((1, 12, 12), stages, &CrossbarConfig::default())
            .expect("the magnitude network compiles");
        self.references = self
            .images
            .iter()
            .map(|x| (self.net.forward_exact(x), bound.forward_exact(x)))
            .collect();
    }

    /// Every output of one image is finite and within its tolerance.
    fn valid_output(&self, image: usize, out: &[f32]) -> bool {
        let (exact, bound) = &self.references[image];
        exact.len() == out.len()
            && exact
                .iter()
                .zip(bound)
                .zip(out)
                .all(|((e, b), o)| (e - o).abs() <= OUTPUT_TOLERANCE * b)
    }

    /// `‖bank - exact‖ / ‖exact‖` over a whole round's outputs.
    fn round_error(&self, round: &[Vec<f32>]) -> f32 {
        let (mut err, mut norm) = (0.0f32, 0.0f32);
        for ((exact, _), out) in self.references.iter().zip(round) {
            for (e, o) in exact.iter().zip(out) {
                err += (e - o) * (e - o);
                norm += e * e;
            }
        }
        (err / norm).sqrt()
    }

    fn valid_round(&self, round: &[Vec<f32>]) -> bool {
        round.len() == IMAGES
            && round
                .iter()
                .enumerate()
                .all(|(image, out)| self.valid_output(image, out))
            && self.round_error(round) <= ROUND_TOLERANCE
    }
}

/// The stages with every FC weight replaced by its magnitude. The conv
/// stage ends in ReLU and max-pooling, so the FC inputs are already
/// non-negative and the FC outputs become `Σ_j |W_ij|·a_j`.
fn magnitude_stages(stages: &[NetStage]) -> Vec<NetStage> {
    stages
        .iter()
        .map(|s| match s {
            NetStage::Fc {
                weights,
                activation,
            } => {
                let abs = weights.data().iter().map(|w| w.abs()).collect();
                NetStage::Fc {
                    weights: Matrix::from_vec(Shape2::new(weights.rows(), weights.cols()), abs),
                    activation: *activation,
                }
            }
            other => other.clone(),
        })
        .collect()
}

impl Workload for BankNoisy {
    type Out = Vec<f32>;
    const ROUND: usize = IMAGES;
    const REPEATS: bool = false;
    const CROSSBAR_SPANS: &'static [&'static str] = &["core.bank_forward_s"];

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let mut rng = init::seeded_rng(seed);
        let conv = Conv2d::new(1, 6, 3, 1, 1, &mut rng);
        let fc = Linear::new(6 * 6 * 6, CLASSES, &mut rng);
        let conv_w = Matrix::from_vec(Shape2::new(6, 9), conv.weight().data().to_vec());
        let stages = vec![
            NetStage::Conv {
                weights: conv_w,
                k: 3,
                stride: 1,
                pad: 1,
                activation: Some(Activation::Relu),
            },
            NetStage::MaxPool { k: 2, stride: 2 },
            NetStage::Fc {
                weights: fc.weight().clone(),
                activation: None,
            },
        ];
        let ds = Dataset::mnist_like().with_resolution(12);
        let labels: Vec<usize> = (0..IMAGES).map(|i| i % CLASSES).collect();
        let batch = tr.span("datasets.batch_s", |_| {
            ds.batch_for_labels(&labels, &mut rng)
        });
        let images: Vec<Vec<f32>> = batch.data().chunks(144).map(<[f32]>::to_vec).collect();
        let device = noisy_device(seed);
        // The bank programs its arrays lazily on the first forward, so the
        // compile span includes one forward.
        let net = tr.span("core.compile_s", |_| {
            let mut net = CompiledNetwork::compile((1, 12, 12), stages.clone(), &device)
                .expect("the benchmark CNN compiles");
            net.forward(&images[0]);
            net
        });
        Self {
            device,
            net,
            stages,
            images,
            references: Vec::new(),
            round: Vec::with_capacity(IMAGES),
            last_round: Vec::new(),
        }
    }

    fn unit(&mut self, index: usize, tr: &mut Tracer) -> Vec<f32> {
        let (net, image) = (&mut self.net, &self.images[index % IMAGES]);
        tr.span("core.bank_forward_s", |_| net.forward(image))
    }

    fn accept(
        &mut self,
        index: usize,
        out: Vec<f32>,
        digest: &mut Digest,
        _tr: &mut Tracer,
    ) -> (u64, bool) {
        let image = index % IMAGES;
        self.references();
        let mut ok = self.valid_output(image, &out);
        for &v in &out {
            digest.f32(v);
        }
        self.round.push(out);
        if image == IMAGES - 1 {
            ok &= self.round_error(&self.round) <= ROUND_TOLERANCE;
            self.last_round = std::mem::replace(&mut self.round, Vec::with_capacity(IMAGES));
        }
        (1, ok)
    }

    /// Corrupts one output of one image (a shift just past its tolerance,
    /// a NaN) and every output of the round (zeroed, negated, top and
    /// bottom class swapped, classes rotated by one).
    fn corrupted_output_fails(&self) -> bool {
        let round = &self.last_round;
        let each = |f: fn(&mut Vec<f32>)| -> Vec<Vec<f32>> {
            let mut copy = round.clone();
            copy.iter_mut().for_each(f);
            copy
        };
        let mut shifted = round.clone();
        if let (Some(out), Some((_, bound))) = (shifted.first_mut(), self.references.first()) {
            out[0] += 2.0 * OUTPUT_TOLERANCE * bound[0];
        }
        let mut nan = round.clone();
        if let Some(out) = nan.first_mut() {
            out[0] = f32::NAN;
        }
        let corrupted = [
            shifted,
            nan,
            each(|o| o.fill(0.0)),
            each(|o| o.iter_mut().for_each(|v| *v = -*v)),
            each(|o| {
                let top = (0..o.len()).max_by(|&i, &j| o[i].total_cmp(&o[j]));
                let bottom = (0..o.len()).min_by(|&i, &j| o[i].total_cmp(&o[j]));
                if let (Some(t), Some(b)) = (top, bottom) {
                    o.swap(t, b);
                }
            }),
            each(|o| o.rotate_left(1)),
        ];
        self.valid_round(round) && corrupted.iter().all(|c| !self.valid_round(c))
    }

    fn device(&self) -> CrossbarConfig {
        self.device.clone()
    }

    fn layer_metrics(&self, spans: &Totals, _first: &FirstRound, m: &mut Metrics) {
        for name in ["core.bank_forward_s", "core.compile_s", "datasets.batch_s"] {
            m.insert(name, mean_s(spans, name));
        }
    }
}
