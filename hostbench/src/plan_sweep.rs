//! `plan_sweep`: a design-space grid over the verifier's 7-network zoo ×
//! replication policy × array size × batch size (1008 candidates).
//!
//! A unit (and an item) is one candidate: `ExecutionPlan::lower`, `verify`,
//! the Fig. 5 cycle-stepped `simulate_training`, the ReGAN
//! `simulate_iteration` of the DCGAN pair at the candidate's configuration,
//! and `gpu_training_cost`. A round is the whole grid in a seeded order;
//! every round must reproduce round 0's cycles, energies and MACs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reram_core::mapping::ReplicationPolicy;
use reram_core::plan::regan_pipeline;
use reram_core::regan::ReganOpt;
use reram_core::verify::{model_zoo, Violation};
use reram_core::{AcceleratorConfig, ExecutionPlan, PlanError};
use reram_crossbar::CrossbarConfig;
use reram_gpu::GpuModel;
use reram_nn::{models, LayerSpec, NetworkSpec};

use crate::digest::Digest;
use crate::trace::{mean_s, Totals, Tracer};
use crate::{FirstRound, Metrics, Workload};

const REPLICATION: [ReplicationPolicy; 6] = [
    ReplicationPolicy::Fixed(1),
    ReplicationPolicy::Fixed(2),
    ReplicationPolicy::Fixed(4),
    ReplicationPolicy::Fixed(8),
    ReplicationPolicy::ArrayBudget(8_192),
    ReplicationPolicy::ArrayBudget(131_072),
];
const ARRAY_SIZES: [usize; 3] = [64, 128, 256];
const BATCHES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
/// Inputs per simulated training run: two batches.
const BATCHES_PER_RUN: u64 = 2;

struct Candidate {
    net: usize,
    config: usize,
    batch: usize,
}

/// What one candidate produced.
#[derive(Clone)]
pub struct Evaluated {
    candidate: usize,
    plan: Result<ExecutionPlan, PlanError>,
    violations: Vec<Violation>,
    train_cycles: u64,
    regan_cycles: u64,
    gpu_time_s: f64,
}

pub struct PlanSweep {
    nets: Vec<NetworkSpec>,
    configs: Vec<AcceleratorConfig>,
    /// The DCGAN discriminator/generator plans per configuration.
    gan: Vec<Option<(ExecutionPlan, ExecutionPlan)>>,
    grid: Vec<Candidate>,
    gpu: GpuModel,
    /// The last candidate that lowered, for the corrupted-output check.
    last: Option<Evaluated>,
    round0: Round0,
}

#[derive(Default)]
struct Round0 {
    done: bool,
    lower_errors: u64,
    violations: u64,
    train_cycles: u64,
}

impl PlanSweep {
    /// Checks one candidate: no violation, and the plan's MACs match the
    /// network spec's analytic counts as a whole and per weighted layer.
    fn valid(&self, e: &Evaluated) -> bool {
        let net = &self.nets[self.grid[e.candidate].net];
        let plan = match &e.plan {
            Ok(plan) => plan,
            // A typed lowering error is a valid outcome of a design point.
            Err(_) => return true,
        };
        let layers_factor = plan.layers.iter().all(|l| {
            l.work.forward_macs == l.forward_mvms * l.work.crossbar_rows * l.work.crossbar_cols
        });
        let weighted: u64 = plan.layers.iter().map(|l| l.work.forward_macs).sum();
        let unweighted: u64 = net
            .layers
            .iter()
            .filter(|l| !l.is_weighted())
            .map(LayerSpec::forward_macs)
            .sum();
        e.violations.is_empty()
            && layers_factor
            && plan.forward_macs() == net.forward_macs()
            && plan.training_macs() == net.training_macs()
            && weighted + unweighted == net.forward_macs()
    }
}

impl Workload for PlanSweep {
    type Out = Evaluated;
    const ROUND: usize = REPLICATION.len() * ARRAY_SIZES.len() * BATCHES.len() * 7;
    const REPEATS: bool = true;
    const CROSSBAR_SPANS: &'static [&'static str] = &[];

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let nets = model_zoo();
        assert_eq!(
            nets.len() * REPLICATION.len() * ARRAY_SIZES.len() * BATCHES.len(),
            Self::ROUND
        );
        let mut configs = Vec::new();
        for &size in &ARRAY_SIZES {
            for &replication in &REPLICATION {
                configs.push(
                    AcceleratorConfig {
                        crossbar: CrossbarConfig::default().with_array_size(size, size),
                        ..AcceleratorConfig::default()
                    }
                    .with_replication(replication),
                );
            }
        }
        let (d, g) = (
            models::dcgan_discriminator_spec(3, 64),
            models::dcgan_generator_spec(100, 3, 64),
        );
        let gan = configs
            .iter()
            .map(|c| {
                tr.span("core.setup_lower", |_| {
                    Some((
                        ExecutionPlan::lower(&d, c).ok()?,
                        ExecutionPlan::lower(&g, c).ok()?,
                    ))
                })
            })
            .collect();
        let mut grid = Vec::with_capacity(Self::ROUND);
        for net in 0..nets.len() {
            for config in 0..configs.len() {
                for &batch in &BATCHES {
                    grid.push(Candidate { net, config, batch });
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..grid.len()).rev() {
            grid.swap(i, rng.gen_range(0..=i));
        }
        Self {
            nets,
            configs,
            gan,
            grid,
            gpu: GpuModel::gtx1080(),
            last: None,
            round0: Round0::default(),
        }
    }

    fn unit(&mut self, index: usize, tr: &mut Tracer) -> Evaluated {
        let candidate = index % Self::ROUND;
        let Candidate { net, config, batch } = self.grid[candidate];
        let (net, config) = (&self.nets[net], &self.configs[config]);
        let plan = tr.span("core.lower_us", |_| ExecutionPlan::lower(net, config));
        let mut e = Evaluated {
            candidate,
            plan,
            violations: Vec::new(),
            train_cycles: 0,
            regan_cycles: 0,
            gpu_time_s: 0.0,
        };
        let Ok(plan) = &e.plan else {
            return e;
        };
        e.violations = tr.span("core.verify_us", |_| plan.verify(config));
        e.train_cycles = tr.span("core.pipeline_sim_us", |_| {
            plan.pipeline_model(batch)
                .simulate_training(BATCHES_PER_RUN * batch as u64)
                .total_cycles
        });
        if let Some((d, g)) = &self.gan[self.grid[candidate].config] {
            e.regan_cycles = tr.span("core.regan_sim_us", |_| {
                regan_pipeline(d, g, batch).simulate_iteration(ReganOpt::PipelineSpCs)
            });
        }
        let gpu = &self.gpu;
        e.gpu_time_s = tr.span("gpu.training_cost_us", |_| {
            plan.gpu_training_cost(gpu, batch).time_s
        });
        e
    }

    fn accept(
        &mut self,
        index: usize,
        e: Evaluated,
        digest: &mut Digest,
        _tr: &mut Tracer,
    ) -> (u64, bool) {
        let ok = self.valid(&e);
        digest.u64(e.candidate as u64);
        match &e.plan {
            Ok(plan) => {
                digest.u64(e.train_cycles);
                digest.u64(e.regan_cycles);
                digest.f64(plan.forward_energy_pj());
                digest.f64(plan.backward_energy_pj());
                digest.u64(plan.training_macs());
                digest.f64(e.gpu_time_s);
                digest.u64(e.violations.len() as u64);
            }
            Err(err) => digest.bytes(err.to_string().as_bytes()),
        }
        if !self.round0.done {
            self.round0.lower_errors += u64::from(e.plan.is_err());
            self.round0.violations += e.violations.len() as u64;
            self.round0.train_cycles += e.train_cycles;
            self.round0.done = index + 1 == Self::ROUND;
        }
        if e.plan.is_ok() {
            self.last = Some(e);
        }
        (1, ok)
    }

    fn corrupted_output_fails(&self) -> bool {
        let Some(e) = &self.last else {
            return false;
        };
        let Ok(plan) = &e.plan else {
            return false;
        };
        let mut miscounted = plan.clone();
        miscounted.layers[0].forward_mvms += 1;
        let bad_macs = Evaluated {
            plan: Ok(miscounted),
            ..e.clone()
        };
        let flagged = Evaluated {
            violations: vec![Violation::LoweringFailed {
                error: "injected".to_owned(),
            }],
            ..e.clone()
        };
        self.valid(e) && !self.valid(&bad_macs) && !self.valid(&flagged)
    }

    fn layer_metrics(&self, spans: &Totals, _first: &FirstRound, m: &mut Metrics) {
        for (metric, span) in [
            ("core.lower_us", "core.lower_us"),
            ("core.verify_us", "core.verify_us"),
            ("core.pipeline_sim_us", "core.pipeline_sim_us"),
            ("core.regan_sim_us", "core.regan_sim_us"),
            ("gpu.training_cost_us", "gpu.training_cost_us"),
        ] {
            m.insert(metric, mean_s(spans, span) * 1e6);
        }
        m.insert("core.candidates", Self::ROUND as f64);
        m.insert("core.lower_errors", self.round0.lower_errors as f64);
        m.insert("core.violations", self.round0.violations as f64);
        m.insert("sim.plan_cycles_total", self.round0.train_cycles as f64);
    }
}
