//! `xbar_train`: SGD training of the suite's 12×12 synthetic-MNIST CNN with
//! both weighted layers on ideal-device crossbars.
//!
//! A unit is one training step (forward, loss, backward, update) over a
//! batch of 8 images; an item is one training image. A round is 40 steps
//! from a freshly built and programmed network, followed by a held-out
//! evaluation; every round repeats the same inputs, so every round must
//! reproduce round 0's losses bit for bit.

use reram_crossbar::CrossbarConfig;
use reram_datasets::Dataset;
use reram_nn::backend::LinearEngine;
use reram_nn::layers::{ActivationLayer, Conv2d, Flatten, Linear, Pool2d};
use reram_nn::losses::{accuracy, softmax_cross_entropy};
use reram_nn::Network;
use reram_tensor::{init, Shape4, Tensor};

use crate::digest::Digest;
use crate::trace::{mean_s, Totals, Tracer};
use crate::{FirstRound, Metrics, Workload};

const BATCH: usize = 8;
const STEPS_PER_ROUND: usize = 40;
const HELD_OUT: usize = 16;
const CLASSES: usize = 4;
const LR: f32 = 0.05;
/// The suite's accuracy bar for this network (chance is 0.25).
const ACCURACY_BAR: f32 = 0.75;

pub struct XbarTrain {
    seed: u64,
    net: Network,
    batches: Vec<(Tensor, Vec<usize>)>,
    held_out: (Tensor, Vec<usize>),
    last_loss: f32,
    round0_final_loss: Option<f32>,
}

/// The CNN with freshly initialised weights, programmed onto its crossbars
/// by one inference pass.
fn programmed_net(seed: u64, probe: &Tensor, tr: &mut Tracer) -> Network {
    let mut rng = init::seeded_rng(seed ^ 0x6e65_7477_6f72_6b00);
    let engine = || LinearEngine::crossbar(CrossbarConfig::default());
    let mut net = Network::new("xbar-cnn", Shape4::new(1, 1, 12, 12))
        .push(Conv2d::new(1, 6, 3, 1, 1, &mut rng).with_engine(engine()))
        .push(ActivationLayer::relu())
        .push(Pool2d::max(2))
        .push(Flatten::new())
        .push(Linear::new(6 * 6 * 6, CLASSES, &mut rng).with_engine(engine()));
    tr.span("nn.program", |_| net.forward(probe, false));
    net
}

fn balanced_labels(n: usize, offset: usize) -> Vec<usize> {
    (0..n).map(|i| (offset + i) % CLASSES).collect()
}

impl XbarTrain {
    fn valid_loss(loss: f32) -> bool {
        loss.is_finite()
    }

    fn valid_accuracy(acc: f32) -> bool {
        acc >= ACCURACY_BAR
    }
}

impl Workload for XbarTrain {
    type Out = f32;
    const ROUND: usize = STEPS_PER_ROUND;
    const REPEATS: bool = true;
    const CROSSBAR_SPANS: &'static [&'static str] = &["nn.forward_s", "nn.eval", "nn.program"];

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let ds = Dataset::mnist_like().with_resolution(12);
        let mut rng = init::seeded_rng(seed);
        let batches: Vec<(Tensor, Vec<usize>)> = (0..STEPS_PER_ROUND)
            .map(|step| {
                let labels = balanced_labels(BATCH, step * BATCH);
                let x = tr.span("datasets.batch_s", |_| {
                    ds.batch_for_labels(&labels, &mut rng)
                });
                (x, labels)
            })
            .collect();
        let labels = balanced_labels(HELD_OUT, 0);
        let x = tr.span("datasets.batch_s", |_| {
            ds.batch_for_labels(&labels, &mut rng)
        });
        let net = programmed_net(seed, &batches[0].0, tr);
        Self {
            seed,
            net,
            batches,
            held_out: (x, labels),
            last_loss: 0.0,
            round0_final_loss: None,
        }
    }

    fn unit(&mut self, index: usize, tr: &mut Tracer) -> f32 {
        let (x, labels) = &self.batches[index % STEPS_PER_ROUND];
        let net = &mut self.net;
        let logits = tr.span("nn.forward_s", |_| net.forward(x, true));
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        tr.span("nn.backward_s", |_| net.backward(&grad));
        tr.span("nn.update_s", |_| net.apply_update(LR));
        loss
    }

    fn accept(
        &mut self,
        index: usize,
        loss: f32,
        digest: &mut Digest,
        tr: &mut Tracer,
    ) -> (u64, bool) {
        self.last_loss = loss;
        digest.f32(loss);
        let mut ok = Self::valid_loss(loss);
        if (index + 1).is_multiple_of(STEPS_PER_ROUND) {
            self.round0_final_loss.get_or_insert(loss);
            let (x, labels) = &self.held_out;
            let net = &mut self.net;
            let logits = tr.span("nn.eval", |_| net.forward(x, false));
            let acc = accuracy(&logits, labels);
            digest.f32(acc);
            ok &= Self::valid_accuracy(acc);
            self.net = programmed_net(self.seed, &self.batches[0].0, tr);
        }
        (BATCH as u64, ok)
    }

    fn corrupted_output_fails(&self) -> bool {
        Self::valid_loss(self.last_loss)
            && !Self::valid_loss(f32::NAN)
            && !Self::valid_loss(f32::INFINITY)
            && !Self::valid_accuracy(ACCURACY_BAR - 0.25)
    }

    fn layer_metrics(&self, spans: &Totals, _first: &FirstRound, m: &mut Metrics) {
        for name in [
            "nn.forward_s",
            "nn.backward_s",
            "nn.update_s",
            "datasets.batch_s",
        ] {
            m.insert(name, mean_s(spans, name));
        }
        m.insert(
            "sim.train_final_loss",
            f64::from(self.round0_final_loss.unwrap_or(0.0)),
        );
    }
}
