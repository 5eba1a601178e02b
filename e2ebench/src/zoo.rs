//! `zoo-sweep`: the offline use. Alternating exhaustive passes (caches
//! cleared), cached re-runs and halving-search passes over one fixed
//! 1,624-scenario grid of all six zoo models. Nearly all host time is
//! in `core` simulation and the `sweep` engine; no HTTP, no disk.

use crate::checks::{self, Checker};
use crate::rng::Rng;
use crate::stats::median;
use crate::{layers, overhead_pct, peak_rss_mb, set_up, timed_rounds, Ctx, Metric, Report};
use daydream_sweep::scenario::fnv1a64;
use daydream_sweep::{
    run_search, OptSpec, SearchConfig, SearchReport, SweepEngine, SweepGrid, SweepReport,
};
use std::collections::HashMap;
use std::time::Instant;

pub const MODELS: [&str; 6] = [
    "VGG-19",
    "DenseNet-121",
    "ResNet-50",
    "GNMT",
    "BERT_Base",
    "BERT_Large",
];

pub const FAMILIES: [&str; 14] = [
    "baseline",
    "amp",
    "fused-adam",
    "reconstruct-bn",
    "metaflow",
    "ddp",
    "blueconnect",
    "dgc",
    "p3",
    "vdnn",
    "gist",
    "bandwidth",
    "upgrade-gpu",
    "batch-size",
];

/// Cached re-runs of the grid per round: enough samples for a steady
/// median of a ~3 ms operation.
const CACHED_RUNS_PER_ROUND: usize = 10;

/// Set-ups per run (about 0.6 s each) before and after the timed phase:
/// later ones repeat within a few percent, the first pays the process's
/// cold page faults.
const SETUPS: (usize, usize) = (4, 3);

/// The zoo grid over `batches`: every model and family, machines 2/4/8
/// x bandwidth 10/25/100 Gbit/s for the cluster families, three DGC
/// ratios, two bandwidth factors, two GPU targets, both Gist modes,
/// three vDNN lookaheads and three batch-size targets. Model order only
/// permutes the expansion; the scenario set is the same.
pub fn grid(models: &[&str], batches: &[u64]) -> SweepGrid {
    SweepGrid::builder()
        .models(models.iter().copied())
        .batches(batches.iter().copied())
        .opts(FAMILIES)
        .machines([2, 4, 8])
        .bandwidths([10.0, 25.0, 100.0])
        .dgc_ratios([0.001, 0.01, 0.1])
        .bandwidth_factors([2.0, 4.0])
        .upgrade_targets(["v100", "p4000"])
        .gist_lossy([false, true])
        .vdnn_lookaheads([1, 2, 4])
        .target_batches([16, 64, 128])
        .build()
}

/// A fresh single-worker engine with every base the grid needs built and
/// the lazy per-base state (DDP plans per cluster, P3 replicated bases)
/// warmed, result caches empty.
fn setup(grid: &SweepGrid) -> Result<SweepEngine, String> {
    let engine = SweepEngine::new(1);
    let warm: Vec<_> = grid
        .expand()?
        .into_iter()
        .filter(|s| match s.opt {
            OptSpec::Baseline | OptSpec::Ddp { .. } => true,
            OptSpec::P3 {
                machines, bw_gbps, ..
            } => machines == 2 && bw_gbps == 10.0,
            _ => false,
        })
        .collect();
    engine.run_scenarios(warm)?;
    engine.clear_result_cache();
    Ok(engine)
}

#[derive(Default)]
struct Timings {
    exhaustive_ms: Vec<f64>,
    cached_ms: Vec<f64>,
    search_ms: Vec<f64>,
}

/// What the checks need from the passes. Only the first exhaustive
/// report is kept whole; later passes are reduced to a hash of their
/// ranked predictions, so the client's bookkeeping does not grow peak
/// RSS with the number of passes.
#[derive(Default)]
struct Outputs {
    first: Option<SweepReport>,
    /// (kind, prediction hash, cache hits) of every pass.
    passes: Vec<(&'static str, u64, usize)>,
    /// (key, predicted ns) of each search's finalists.
    finalists: Vec<Vec<(String, u64)>>,
    search_evaluations: usize,
}

impl Outputs {
    fn record(&mut self, kind: &'static str, report: SweepReport) {
        let mut ranked = String::new();
        for o in &report.results {
            ranked.push_str(&format!("{}:{};", o.key, o.predicted_ns));
        }
        self.passes
            .push((kind, fnv1a64(ranked.as_bytes()), report.cache_hits));
        if self.first.is_none() {
            self.first = Some(report);
        }
    }

    fn record_search(&mut self, search: SearchReport) {
        self.search_evaluations = search.total_evaluations();
        self.finalists.push(
            search
                .report
                .results
                .into_iter()
                .map(|o| (o.key, o.predicted_ns))
                .collect(),
        );
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One round: an exhaustive pass with caches cleared, cached re-runs,
/// and a halving search with caches cleared.
fn round(
    ctx: &Ctx,
    engine: &SweepEngine,
    grid: &SweepGrid,
    timings: &mut Timings,
    out: &mut Outputs,
) -> Result<(), String> {
    let tr = &ctx.tracer;
    tr.span("bench.round", || -> Result<(), String> {
        engine.clear_result_cache();
        let t = Instant::now();
        let report = tr.span("sweep.run", || engine.run(grid))?;
        timings.exhaustive_ms.push(ms(t));
        out.record("exhaustive", report);
        for _ in 0..CACHED_RUNS_PER_ROUND {
            let t = Instant::now();
            let report = tr.span("sweep.run_cached", || engine.run(grid))?;
            timings.cached_ms.push(ms(t));
            out.record("cached", report);
        }
        engine.clear_result_cache();
        let t = Instant::now();
        let search = tr.span("sweep.run_search", || {
            run_search(engine, grid, &SearchConfig::default())
        })?;
        timings.search_ms.push(ms(t));
        out.record_search(search);
        Ok(())
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rng = Rng::new(ctx.args.seed);
    let mut models = MODELS.to_vec();
    rng.shuffle(&mut models);
    let grid = grid(&models, &[4, 8, 16, 32]);
    let scenarios = grid.expand()?;

    let (engine, mut setups) = set_up(ctx, SETUPS.0, |_| setup(&grid), |_| Ok(()))?;

    let mut timings = Timings::default();
    let mut out = Outputs::default();
    let untraced = timed_rounds(ctx, || round(ctx, &engine, &grid, &mut timings, &mut out))?;
    let peak_mb = peak_rss_mb();

    let errors = check(&engine, &scenarios, &out)?;
    // As before the timed phase, each set-up follows a dropped engine.
    drop(engine);
    setups.more(ctx, SETUPS.1, |_| setup(&grid), |_| Ok(()))?;
    let rounds = timings.exhaustive_ms.len();
    let mut report = Report {
        correct: errors.is_empty(),
        attempted: (out.passes.len() + out.finalists.len()) as u64 * scenarios.len() as u64,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    if ctx.args.trace {
        let (a, b) = timings.exhaustive_ms.split_at(untraced);
        report.metrics = layers::probe(ctx, overhead_pct(a, b), &mut report.notes)?;
    } else {
        // A run holds only a handful of passes, so pass times are
        // reported as phase means (total time over passes), which
        // repeat better between runs than a median of five samples.
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let exh: f64 = timings.exhaustive_ms.iter().sum();
        let search: f64 = timings.search_ms.iter().sum();
        let answered = (timings.exhaustive_ms.len() + timings.search_ms.len()) * scenarios.len();
        report.metrics = vec![
            Metric::new("setup_s", setups.median(), "s"),
            Metric::new("peak_rss_mb", peak_mb, "MB"),
            Metric::new(
                "scen_per_s",
                answered as f64 / ((exh + search) / 1e3),
                "1/s",
            ),
            Metric::new("hit_ms", mean(&timings.cached_ms), "ms"),
            Metric::new("miss_ms", mean(&timings.exhaustive_ms), "ms"),
        ];
    }
    let first = out.first.as_ref().expect("at least one round");
    report.notes.push(setups.note());
    report.notes.push(format!(
        "zoo-sweep: {} scenarios x {rounds} rounds; exhaustive p50 {:.0} ms, search p50 {:.0} ms, \
         cached p50 {:.2} ms; per pass {} full / {} incremental sims, {} tasks re-dispatched; \
         search {} finalists from {} evaluations",
        scenarios.len(),
        median(&timings.exhaustive_ms).unwrap_or(f64::NAN),
        median(&timings.search_ms).unwrap_or(f64::NAN),
        median(&timings.cached_ms).unwrap_or(f64::NAN),
        first.full_sims,
        first.incremental_sims,
        first.tasks_redispatched,
        out.finalists[0].len(),
        out.search_evaluations,
    ));
    report.notes.extend(
        errors
            .into_iter()
            .take(20)
            .map(|e| format!("CHECK FAILED: {e}")),
    );
    Ok(report)
}

fn check(
    engine: &SweepEngine,
    scenarios: &[daydream_sweep::Scenario],
    out: &Outputs,
) -> Result<Vec<String>, String> {
    let checker = Checker::new();
    let by_key: HashMap<String, &daydream_sweep::Scenario> =
        scenarios.iter().map(|s| (s.fingerprint_hex(), s)).collect();
    let mut errors = Vec::new();
    let first = out.first.as_ref().expect("at least one round");
    let exact: HashMap<&str, u64> = first
        .results
        .iter()
        .map(|o| (o.key.as_str(), o.predicted_ns))
        .collect();
    if first.scenario_count != scenarios.len() || exact.len() != scenarios.len() {
        errors.push(format!(
            "exhaustive pass answered {} of {} scenarios",
            exact.len(),
            scenarios.len()
        ));
    }
    for o in &first.results {
        match by_key.get(&o.key) {
            Some(s) => {
                if let Err(e) = checker.outcome(s, o) {
                    errors.push(e);
                }
            }
            None => errors.push(format!("{}: not a grid scenario", o.label)),
        }
    }
    // Every pass of the same grid gives the same ranked predictions,
    // whether evaluated cold or answered from the cache.
    let (_, reference, _) = out.passes[0];
    for &(kind, predictions, hits) in &out.passes {
        if predictions != reference {
            errors.push(format!(
                "a {kind} pass disagrees with the first exhaustive pass"
            ));
        }
        if kind == "cached" && hits != scenarios.len() {
            errors.push(format!(
                "cached re-run hit {hits} of {} scenarios",
                scenarios.len()
            ));
        }
    }
    // Halving finalists are exact: each equals its exhaustive prediction.
    for finalists in &out.finalists {
        if finalists.is_empty() {
            errors.push("search returned no finalists".into());
        }
        for (key, predicted) in finalists {
            if exact.get(key.as_str()) != Some(predicted) {
                errors.push(format!(
                    "search finalist {key} = {predicted} ns differs from exhaustive {:?}",
                    exact.get(key.as_str())
                ));
            }
        }
    }
    let baselines: Vec<(String, u64, u64)> = first
        .results
        .iter()
        .filter(|o| o.opt == "baseline")
        .map(|o| (o.model.clone(), o.batch, o.predicted_ns))
        .collect();
    errors.extend(checks::baselines_match_runtime(&baselines));
    for a in checks::paper_accuracy(engine)? {
        if a.error() > a.tolerance {
            errors.push(format!(
                "{}: predicted {:.2} ms vs runtime {:.2} ms, error {:.1}% > {:.0}%",
                a.label,
                a.predicted_ns as f64 / 1e6,
                a.truth_ns as f64 / 1e6,
                a.error() * 100.0,
                a.tolerance * 100.0
            ));
        }
    }
    Ok(errors)
}
