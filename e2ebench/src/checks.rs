//! Output checks that do not compare against a copy of earlier output.
//! Each is computed apart from the simulator (the runtime's ground
//! truth, a wire-level lower bound) or is a property the method must
//! have (positivity, agreement between two evaluation paths).

use daydream_comm::{ClusterConfig, NcclExecution};
use daydream_models::zoo;
use daydream_runtime::{baseline_plan, ground_truth, run_distributed, ExecConfig};
use daydream_sweep::{OptSpec, Scenario, ScenarioOutcome, SweepEngine};
use std::collections::HashMap;

/// Lower bound on one data-parallel iteration, in ns: a ring all-reduce
/// moves at least (m-1)/m of the fp32 gradients (4 bytes per parameter)
/// over each machine's link, at `bw_gbps` Gbit/s.
pub fn comm_floor_ns(param_count: u64, machines: u32, bw_gbps: f64) -> f64 {
    let m = machines as f64;
    let bits = (m - 1.0) / m * 4.0 * param_count as f64 * 8.0;
    bits / bw_gbps
}

/// Relative error of `pred` against `truth`.
pub fn rel_err(pred: f64, truth: f64) -> f64 {
    (pred - truth).abs() / truth
}

/// Per-scenario checks: the outcome belongs to the scenario, its
/// prediction is finite and positive, and data-parallel predictions
/// clear the wire-level floor.
pub struct Checker {
    params: HashMap<String, u64>,
}

impl Checker {
    pub fn new() -> Checker {
        Checker {
            params: zoo::all_models()
                .into_iter()
                .map(|m| {
                    let p = m.param_count();
                    (m.name, p)
                })
                .collect(),
        }
    }

    pub fn outcome(&self, s: &Scenario, o: &ScenarioOutcome) -> Result<(), String> {
        if o.label != s.label() || o.key != s.fingerprint_hex() {
            return Err(format!(
                "outcome {} answers scenario {}",
                o.label,
                s.label()
            ));
        }
        if o.predicted_ns == 0 || o.baseline_ns == 0 {
            return Err(format!("{}: zero prediction", o.label));
        }
        if !(o.speedup.is_finite() && o.speedup > 0.0) {
            return Err(format!(
                "{}: speedup {} is not finite and > 0",
                o.label, o.speedup
            ));
        }
        match &s.opt {
            OptSpec::Ddp {
                machines, bw_gbps, ..
            }
            | OptSpec::BlueConnect {
                machines, bw_gbps, ..
            } => {
                let params = *self
                    .params
                    .get(&s.model)
                    .ok_or_else(|| format!("unknown model {}", s.model))?;
                let floor = comm_floor_ns(params, *machines, *bw_gbps);
                if (o.predicted_ns as f64) < floor {
                    return Err(format!(
                        "{}: predicted {:.2} ms is below the all-reduce floor {:.3e} ms",
                        o.label,
                        o.predicted_ns as f64 / 1e6,
                        floor / 1e6
                    ));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// Baseline rows must replay the runtime's recorded iteration within 5%.
pub const BASELINE_TOLERANCE: f64 = 0.05;

/// Checks every `(model, batch)` baseline prediction against the
/// runtime's ground-truth iteration time.
pub fn baselines_match_runtime(rows: &[(String, u64, u64)]) -> Vec<String> {
    let mut errors = Vec::new();
    for (model_name, batch, predicted_ns) in rows {
        let Some(model) = zoo::by_name(model_name) else {
            errors.push(format!("unknown model {model_name}"));
            continue;
        };
        let cfg = ExecConfig::pytorch_2080ti().with_batch(*batch);
        let truth = ground_truth::run_baseline(&model, &cfg).meta.iteration_ns() as f64;
        let err = rel_err(*predicted_ns as f64, truth);
        if err > BASELINE_TOLERANCE {
            errors.push(format!(
                "{model_name} b{batch} baseline: {:.2} ms vs runtime {:.2} ms ({:.1}% > 5%)",
                *predicted_ns as f64 / 1e6,
                truth / 1e6,
                err * 100.0
            ));
        }
    }
    errors
}

/// One accuracy probe: an engine prediction against the runtime.
#[derive(Debug, Clone)]
pub struct Accuracy {
    pub label: String,
    pub predicted_ns: u64,
    pub truth_ns: u64,
    pub tolerance: f64,
}

impl Accuracy {
    pub fn error(&self) -> f64 {
        rel_err(self.predicted_ns as f64, self.truth_ns as f64)
    }
}

/// The paper's headline accuracy claims, asked through the sweep engine
/// (the path that serves answers) at each model's default batch: AMP
/// (Fig. 5) and FusedAdam (Fig. 7) within 13%, data-parallel training
/// (Fig. 8, synced NCCL ground truth) within 15%, on the models the
/// paper evaluates each optimization on.
pub fn paper_accuracy(engine: &SweepEngine) -> Result<Vec<Accuracy>, String> {
    let cfg = ExecConfig::pytorch_2080ti();
    let mut probes: Vec<(Scenario, u64, f64)> = Vec::new();
    for name in ["BERT_Base", "BERT_Large", "GNMT", "ResNet-50"] {
        let model = zoo::by_name(name).ok_or("zoo model missing")?;
        let b = model.default_batch;
        let truth = ground_truth::run_amp(&model, &cfg).meta.iteration_ns();
        probes.push((Scenario::new(name, b, OptSpec::Amp), truth, 0.13));
        if name != "ResNet-50" {
            let truth = ground_truth::run_fused_adam(&model, &cfg)
                .meta
                .iteration_ns();
            probes.push((Scenario::new(name, b, OptSpec::FusedAdam), truth, 0.13));
        }
    }
    for name in ["ResNet-50", "GNMT"] {
        let model = zoo::by_name(name).ok_or("zoo model missing")?;
        let b = model.default_batch;
        let plan = baseline_plan(&model, b);
        for (m, g, bw) in [(2, 1, 10.0), (4, 1, 20.0), (4, 2, 40.0)] {
            let cluster = ClusterConfig::new(m, g, bw);
            let truth = run_distributed(&model, &cfg, cluster, NcclExecution::Synced, &plan)
                .trace
                .meta
                .iteration_ns();
            let opt = OptSpec::Ddp {
                machines: m,
                gpus_per_machine: g,
                bw_gbps: bw,
            };
            probes.push((Scenario::new(name, b, opt), truth, 0.15));
        }
    }
    let scenarios: Vec<Scenario> = probes.iter().map(|p| p.0.clone()).collect();
    let outcomes = engine.run_scenarios(scenarios)?;
    Ok(probes
        .into_iter()
        .zip(outcomes)
        .map(|((s, truth_ns, tolerance), o)| Accuracy {
            label: s.label(),
            predicted_ns: o.predicted_ns,
            truth_ns,
            tolerance,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet_ddp(bw_gbps: f64, predicted_ns: u64) -> (Scenario, ScenarioOutcome) {
        let s = Scenario::new(
            "ResNet-50",
            4,
            OptSpec::Ddp {
                machines: 2,
                gpus_per_machine: 1,
                bw_gbps,
            },
        );
        let o = ScenarioOutcome {
            key: s.fingerprint_hex(),
            label: s.label(),
            model: s.model.clone(),
            batch: 4,
            opt: s.opt.label(),
            baseline_ns: 33_390_775,
            predicted_ns,
            speedup: 33_390_775.0 / predicted_ns as f64,
            memory_bytes: 1,
            comm_bytes: 1,
            sim_path: "full".into(),
            tasks_redispatched: 0,
            cached: false,
        };
        (s, o)
    }

    #[test]
    fn the_floor_rejects_the_wrapped_answer_and_accepts_a_sane_one() {
        let c = Checker::new();
        // ResNet-50 b4 ddp[m2x1 bw1e-12] is answered 39.38 ms, faster
        // than an infinitely fast network: the wrapped comm cost.
        let (s, o) = resnet_ddp(1e-12, 39_379_069);
        assert!(c.outcome(&s, &o).unwrap_err().contains("floor"));
        // At 10 Gbit/s the answer is 108.82 ms, 2.7x the 40.8 ms floor.
        let (s, o) = resnet_ddp(10.0, 108_820_000);
        c.outcome(&s, &o).unwrap();
        let floor = comm_floor_ns(zoo::resnet50().param_count(), 2, 10.0);
        assert!((40e6..42e6).contains(&floor), "{floor}");
    }

    #[test]
    fn positivity_and_identity() {
        let c = Checker::new();
        let (s, mut o) = resnet_ddp(10.0, 108_820_000);
        o.speedup = f64::NAN;
        assert!(c.outcome(&s, &o).is_err());
        let (s, mut o) = resnet_ddp(10.0, 108_820_000);
        o.predicted_ns = 0;
        assert!(c.outcome(&s, &o).is_err());
        let (_, o) = resnet_ddp(10.0, 108_820_000);
        let other = Scenario::new("ResNet-50", 4, OptSpec::Amp);
        assert!(c.outcome(&other, &o).is_err());
    }

    #[test]
    fn relative_error() {
        assert!((rel_err(87.0, 100.0) - 0.13).abs() < 1e-12);
        assert_eq!(rel_err(100.0, 100.0), 0.0);
    }
}
