//! `serve_mix`: the E10 serving setup (4 chips, 70/30 LeNet/AlexNet mix)
//! cycling cells over the 3 scheduler policies × light Poisson, heavy
//! Poisson and bursty MMPP traffic. Every traffic model's stream is cut to
//! its first [`REQUESTS`] arrivals, so the cells cost alike, the unit-time
//! percentiles do not hinge on which cell lands mid-distribution, and the
//! request count does not vary with the seed.
//!
//! A unit is one cell: a fresh `ServeSim` over the prebuilt cluster and
//! the cell's prebuilt arrivals, run to completion. An item is one
//! simulated request. A round is the 9 cells; every round must reproduce
//! round 0's `ServeReport` JSON byte for byte.

use std::time::Instant;

use reram_core::{AcceleratorConfig, ExecutionPlan};
use reram_nn::{models, NetworkSpec};
use reram_serve::{
    generate_requests, BatcherConfig, Cluster, ModelMix, Policy, Request, ServeReport, ServeSim,
    TrafficModel,
};

use crate::digest::Digest;
use crate::trace::{mean_s, total_s, Totals, Tracer};
use crate::{FirstRound, Metrics, Workload};

const CHIPS: usize = 4;
const MIX: [f64; 2] = [0.7, 0.3];
/// Requests per cell.
const REQUESTS: usize = 100_000;
/// Index of the headline cell: heavy Poisson under plan-cost-aware dispatch.
const HEADLINE_CELL: usize = 5;

/// The traffic models, each with an arrival horizon (ns) that holds twice
/// [`REQUESTS`] at its mean rate.
fn traffics() -> [(TrafficModel, u64); 3] {
    [
        // E10's light and heavy rates.
        (
            TrafficModel::Poisson {
                rate_rps: 250_000.0,
            },
            800_000_000,
        ),
        (
            TrafficModel::Poisson {
                rate_rps: 2_500_000.0,
            },
            80_000_000,
        ),
        // `examples/serve_cluster.rs`: 0.5 Mrps base with 3 Mrps bursts
        // that overrun the cluster, mean rate 1 Mrps. The horizon holds
        // 80 base/burst cycles; the first REQUESTS arrivals span about 40.
        (
            TrafficModel::Bursty {
                base_rps: 500_000.0,
                burst_rps: 3_000_000.0,
                mean_base_ns: 2_000_000.0,
                mean_burst_ns: 500_000.0,
            },
            200_000_000,
        ),
    ]
}

fn catalog() -> [NetworkSpec; 2] {
    [models::lenet_spec(), models::alexnet_spec()]
}

pub struct ServeMix {
    seed: u64,
    cluster: Cluster,
    /// Arrivals per traffic model; every policy replays the same stream.
    arrivals: Vec<Vec<Request>>,
    last: Option<(usize, ServeReport)>,
    headline_p99_ns: Option<u64>,
}

fn cell(index: usize) -> (usize, Policy) {
    let c = index % 9;
    (c / 3, Policy::ALL[c % 3])
}

impl ServeMix {
    fn valid(&self, traffic: usize, r: &ServeReport) -> bool {
        let admitted = self.arrivals[traffic].len() as u64;
        let chips_completed: u64 = r.chips.iter().map(|c| c.completed_requests).sum();
        let chips_batches: u64 = r.chips.iter().map(|c| c.batches_served).sum();
        let ordered = match (r.p50_latency_ns, r.p95_latency_ns, r.p99_latency_ns) {
            (Some(p50), Some(p95), Some(p99)) => {
                p50 <= p95 && p95 <= p99 && p99 <= r.max_latency_ns
            }
            _ => false,
        };
        r.requests_admitted == admitted
            && r.requests_completed == admitted
            && chips_completed == r.requests_completed
            && chips_batches == r.batches
            && ordered
    }
}

impl Workload for ServeMix {
    type Out = ServeReport;
    const ROUND: usize = 9;
    const REPEATS: bool = true;
    const CROSSBAR_SPANS: &'static [&'static str] = &[];

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let cluster = tr.span("serve.cluster_s", |_| {
            Cluster::homogeneous(CHIPS, &catalog(), &AcceleratorConfig::default())
                .expect("the E10 catalog lowers")
        });
        let mix = ModelMix::new(&MIX).expect("valid mix");
        let arrivals = traffics()
            .iter()
            .enumerate()
            .map(|(k, (traffic, horizon_ns))| {
                let stream_seed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(k as u64);
                tr.span("serve.generate_s", |_| {
                    let mut stream = generate_requests(traffic, &mix, *horizon_ns, stream_seed)
                        .expect("valid traffic");
                    assert!(stream.len() >= REQUESTS, "the horizon holds a cell");
                    stream.truncate(REQUESTS);
                    stream
                })
            })
            .collect();
        Self {
            seed,
            cluster,
            arrivals,
            last: None,
            headline_p99_ns: None,
        }
    }

    fn unit(&mut self, index: usize, tr: &mut Tracer) -> ServeReport {
        let (traffic, policy) = cell(index);
        let cluster = self.cluster.clone();
        let arrivals = self.arrivals[traffic].clone();
        let seed = self.seed;
        tr.span("serve.run_s", |_| {
            ServeSim::new(cluster, BatcherConfig::default(), policy.scheduler(), seed)
                .expect("nonzero batch")
                .run(arrivals)
        })
    }

    fn accept(
        &mut self,
        index: usize,
        report: ServeReport,
        digest: &mut Digest,
        _tr: &mut Tracer,
    ) -> (u64, bool) {
        let (traffic, _) = cell(index);
        let ok = self.valid(traffic, &report);
        digest.bytes(report.to_json().as_bytes());
        if index == HEADLINE_CELL {
            self.headline_p99_ns = report.p99_latency_ns;
        }
        let items = report.requests_completed;
        self.last = Some((traffic, report));
        (items, ok)
    }

    fn corrupted_output_fails(&self) -> bool {
        let Some((traffic, report)) = &self.last else {
            return false;
        };
        let mut lost = report.clone();
        lost.requests_completed -= 1;
        let mut unordered = report.clone();
        unordered.p50_latency_ns = Some(report.max_latency_ns + 1);
        let mut misplaced = report.clone();
        misplaced.chips[0].completed_requests += 1;
        self.valid(*traffic, report)
            && !self.valid(*traffic, &lost)
            && !self.valid(*traffic, &unordered)
            && !self.valid(*traffic, &misplaced)
    }

    fn layer_metrics(&self, spans: &Totals, first: &FirstRound, m: &mut Metrics) {
        m.insert("serve.cluster_s", mean_s(spans, "serve.cluster_s"));
        m.insert("serve.generate_s", total_s(spans, "serve.generate_s"));
        m.insert("serve.run_s", mean_s(spans, "serve.run_s"));
        let requests = first.counts.requests_completed;
        if requests > 0 {
            m.insert(
                "serve.host_ns_per_request",
                total_s(&first.spans, "serve.run_s") * 1e9 / requests as f64,
            );
        }
        m.insert("sim.serve_p99_ns", self.headline_p99_ns.unwrap_or(0) as f64);
        // Lowering is inside `Cluster::homogeneous`; time it on its own.
        let reps = 20;
        let t = Instant::now();
        for _ in 0..reps {
            for net in &catalog() {
                let plan = ExecutionPlan::lower(net, &AcceleratorConfig::default());
                std::hint::black_box(plan.expect("the E10 catalog lowers"));
            }
        }
        let lowerings = (reps * catalog().len()) as f64;
        m.insert("core.lower_us", t.elapsed().as_secs_f64() * 1e6 / lowerings);
    }
}
