//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p reram-bench --bin repro --release             # everything
//! cargo run -p reram-bench --bin repro --release -- table1   # one artifact
//! cargo run -p reram-bench --bin repro --release -- --json out.json
//! ```
//!
//! Artifacts: `fig3 fig4 fig5 fig7 fig8 fig9 table1 plan ablations serve`.
//!
//! The `serve` artifact additionally writes `BENCH_serve.json` next to the
//! current directory: p99 latency and throughput for every scheduling
//! policy at every swept arrival rate, for machine comparison across runs.
//!
//! With `--json <path>`, a telemetry recorder observes the whole run and a
//! structured [`reram_telemetry::RunReport`] is written to `<path>`: the
//! LeNet per-layer closed-form breakdown (cycles, ADC conversions, cell
//! writes) plus stage spans and raw event totals from the experiments
//! themselves. The human-readable tables on stdout are unchanged.

use std::sync::Arc;

use reram_bench::experiments::{
    ablations, fig3, fig4, fig5, fig7, fig8, fig9, plan_latency, serve, table1,
};
use reram_core::AcceleratorConfig;
use reram_nn::models;
use reram_telemetry::CounterRecorder;

fn section(title: &str, body: String) {
    println!("== {title} ==");
    println!("{body}");
}

fn run(artifact: &str) -> bool {
    match artifact {
        "fig3" => section(
            "Fig. 3(c): partitioned large-matrix mapping (E8)",
            fig3::run().render(),
        ),
        "fig4" => section(
            "Fig. 4: naive vs balanced data mapping, replication sweep (E1)",
            fig4::run().render(),
        ),
        "fig5" => section(
            "Fig. 5: inter-layer training pipeline, simulator vs formulas (E2)",
            fig5::run().render(),
        ),
        "fig7" => section(
            "Fig. 7: fractional-strided convolution equivalences (E3)",
            fig7::run().render(),
        ),
        "fig8" => section(
            "Fig. 8: ReGAN GAN training pipeline cycles (E4)",
            fig8::run().render(),
        ),
        "fig9" => section(
            "Fig. 9: SP and CS optimization ablation (E5)",
            fig9::run().render(),
        ),
        "table1" => section(
            "Table I: PipeLayer and ReGAN vs GTX 1080 (E6/E7)",
            table1::run().render(),
        ),
        "plan" => {
            section(
                "Analysis: uniform macro-cycles vs per-layer plan latency, AlexNet (E9)",
                plan_latency::run().render(),
            );
            // Static verification footer: the numbers above come from
            // lowered plans, so stamp the artifact with the verifier's
            // zoo-wide sweep result.
            let (plans, findings) = reram_core::verify::verify_zoo();
            println!("verified: {plans} plans, {} violations", findings.len());
            for f in &findings {
                eprintln!("plan/{}/{}: {}", f.config, f.network, f.violation);
            }
            if !findings.is_empty() {
                std::process::exit(1);
            }
        }
        "serve" => {
            let reports = serve::measure_all();
            section(
                "Serving: scheduling policies, 4 chips, LeNet+AlexNet mix (E10)",
                serve::table(&reports).render(),
            );
            let path = "BENCH_serve.json";
            match std::fs::write(path, serve::bench_json(&reports)) {
                Ok(()) => eprintln!("wrote serving benchmark to {path}"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        "ablations" => {
            section(
                "Ablation: spike-code input precision",
                ablations::spike_precision().render(),
            );
            section(
                "Ablation: crossbar array size (AlexNet)",
                ablations::array_size().render(),
            );
            section(
                "Ablation: batch size vs pipeline overhead",
                ablations::batch_size().render(),
            );
            section(
                "Ablation: replication array budget (VGG-A)",
                ablations::replication_budget().render(),
            );
            section(
                "Ablation: device variation / read noise",
                ablations::device_noise().render(),
            );
            section(
                "Ablation: stuck-at cell faults",
                ablations::stuck_faults().render(),
            );
            section(
                "Analysis: ReRAM endurance under continuous in-situ training",
                ablations::endurance().render(),
            );
            section(
                "Analysis: chip-level bank provisioning (batch 32)",
                ablations::chip_plan().render(),
            );
            section(
                "Analysis: training-energy breakdown by component",
                ablations::energy_breakdown().render(),
            );
            section(
                "Ablation: readout scheme (spike I&F vs shared ADCs)",
                ablations::readout_schemes().render(),
            );
        }
        _ => return false,
    }
    true
}

fn main() {
    const ALL: [&str; 10] = [
        "fig3",
        "fig4",
        "fig5",
        "fig7",
        "fig8",
        "fig9",
        "table1",
        "plan",
        "ablations",
        "serve",
    ];
    let mut artifacts: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires an output path");
                    std::process::exit(1);
                }
            }
        } else {
            artifacts.push(arg);
        }
    }
    if artifacts.is_empty() {
        artifacts = ALL.iter().map(|a| (*a).to_string()).collect();
    }

    let counters = json_path.as_ref().map(|_| Arc::new(CounterRecorder::new()));
    let recording = counters
        .as_ref()
        .map(|c| reram_telemetry::scoped_recorder(c.clone()));

    for a in &artifacts {
        if !run(a) {
            eprintln!("unknown artifact '{a}'; expected one of {ALL:?}");
            std::process::exit(1);
        }
    }

    drop(recording);
    if let (Some(path), Some(counters)) = (json_path, counters) {
        let net = models::lenet_spec();
        let report = match reram_core::build_run_report(
            &artifacts.join("+"),
            &net,
            &AcceleratorConfig::default(),
            &counters,
        ) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("cannot report on {}: {e}", net.name);
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("failed to write report to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote run report to {path}");
    }
}
