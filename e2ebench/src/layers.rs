//! Per-layer metrics of a traced run: timed calls into each crate's
//! public functions on fixed inputs (the six zoo models at batch 8 and
//! the zoo grid restricted to batch 8), the same in every workload, plus
//! the tracing overhead the workload measured. Every call is wrapped in
//! a span. The self time of each layer over the workload's own traced
//! rounds goes to stderr; it is taken before these probes run.

use crate::client::request_bytes;
use crate::jobs::field;
use crate::rng::Rng;
use crate::session::Session;
use crate::stats::median;
use crate::trace::LAYERS;
use crate::zoo::{self, FAMILIES, MODELS};
use crate::{Ctx, Metric};
use daydream_core::{
    simulate_compiled_with, simulate_warm, CompiledGraph, EarliestStart, GraphEdit, GraphView,
    PatchGraph, ProfiledGraph, Schedule, SimScratch, TaskKind,
};
use daydream_models::zoo as models;
use daydream_runtime::{ground_truth, ExecConfig};
use daydream_serve::http::response_bytes;
use daydream_serve::{http_request, Limits, RequestParser, WhatIfRequest};
use daydream_shard::{merge_run, write_merged, RunStore, ShardPlan};
use daydream_sweep::{run_search, OptSpec, SearchConfig, SweepEngine, SweepReport};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions of each coarse timing (the median is reported).
const REPS: usize = 3;
/// Repetitions of each micro timing.
const MICRO: usize = 300;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

/// Runs every probe and returns the per-layer metrics; `notes` gets the
/// self time per layer of the spans recorded so far, i.e. of the
/// workload's set-up and traced rounds on the client thread.
pub fn probe(ctx: &Ctx, overhead_pct: f64, notes: &mut Vec<String>) -> Result<Vec<Metric>, String> {
    let self_ms = ctx.tracer.self_ms();
    let by_layer: Vec<String> = LAYERS
        .iter()
        .map(|layer| format!("{layer} {:.1}", self_ms[layer]))
        .collect();
    notes.push(format!(
        "self time of the workload's spans by layer, ms: {}",
        by_layer.join(", ")
    ));
    let mut out = Vec::new();
    base_pipeline(ctx, &mut out)?;
    let engine = SweepEngine::new(1);
    sweep_layer(ctx, &engine, &mut out)?;
    serve_layer(ctx, &engine, &mut out)?;
    shard_layer(ctx, &engine, &mut out)?;
    out.push(Metric::new("trace.overhead_pct", overhead_pct, "%"));
    Ok(out)
}

/// Profile build (the set-up path of every workload) and raw simulation,
/// per zoo model at batch 8: the mean over models of each step's median.
fn base_pipeline(ctx: &Ctx, out: &mut Vec<Metric>) -> Result<(), String> {
    let tr = &ctx.tracer;
    let mut steps: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for name in MODELS {
        let model = models::by_name(name).ok_or("zoo model missing")?;
        let cfg = ExecConfig::pytorch_2080ti().with_batch(8);
        let mut per: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut last = None;
        for _ in 0..REPS {
            let (trace, t) = timed(|| {
                tr.span("runtime.run_baseline", || {
                    ground_truth::run_baseline(&model, &cfg)
                })
            });
            per.entry("runtime.baseline_ms").or_default().push(t / 1e3);
            let (pg, t) =
                timed(|| tr.span("core.from_trace", || ProfiledGraph::from_trace(&trace)));
            per.entry("core.construct_ms").or_default().push(t / 1e3);
            let (cg, t) = timed(|| tr.span("core.compile", || CompiledGraph::compile(&pg.graph)));
            per.entry("core.compile_ms").or_default().push(t / 1e3);
            let (schedule, t) = timed(|| tr.span("core.capture", || Schedule::capture(&cg)));
            per.entry("core.capture_ms").or_default().push(t / 1e3);
            let schedule = schedule.map_err(|e| format!("{name}: {e}"))?;
            let (sim, t) = timed(|| {
                tr.span("core.simulate", || {
                    simulate_compiled_with(&cg, &EarliestStart)
                })
            });
            sim.map_err(|e| format!("{name}: {e}"))?;
            per.entry("core.full_sim_us_per_ktask")
                .or_default()
                .push(t / (cg.len() as f64 / 1e3));
            last = Some((pg, cg, schedule));
        }
        // Warm re-simulation of a small retime: halve the last 16 GPU
        // kernels, answered from one reused scratch arena.
        let (pg, cg, schedule) = last.expect("REPS > 0");
        let mut ov = PatchGraph::new(&pg.graph);
        let kernels = pg.graph.select(|t| matches!(t.kind, TaskKind::GpuKernel));
        for &id in kernels.iter().rev().take(16) {
            let halved = ov.task(id).duration_ns / 2;
            ov.set_duration(id, halved);
        }
        let patch = ov.finish();
        let mut scratch = SimScratch::new();
        simulate_warm(&cg, &schedule, &patch, &mut scratch).map_err(|e| e.to_string())?;
        let mut warm = Vec::new();
        for _ in 0..MICRO / 10 {
            let (r, t) = timed(|| {
                tr.span("core.simulate_warm", || {
                    simulate_warm(&cg, &schedule, &patch, &mut scratch)
                })
            });
            r.map_err(|e| e.to_string())?;
            warm.push(t);
        }
        per.insert("core.warm_sim_us", warm);
        for (k, v) in per {
            steps.entry(k).or_default().push(med(&v));
        }
    }
    for (name, unit) in [
        ("runtime.baseline_ms", "ms"),
        ("core.construct_ms", "ms"),
        ("core.compile_ms", "ms"),
        ("core.capture_ms", "ms"),
        ("core.full_sim_us_per_ktask", "us"),
        ("core.warm_sim_us", "us"),
    ] {
        let v = &steps[name];
        out.push(Metric::new(
            name,
            v.iter().sum::<f64>() / v.len() as f64,
            unit,
        ));
    }
    Ok(())
}

/// Sweep engine on the zoo grid at batch 8: per-family evaluation cost
/// with caches cleared, one exhaustive pass's path counts, report
/// building, cache hits and one halving search.
fn sweep_layer(ctx: &Ctx, engine: &SweepEngine, out: &mut Vec<Metric>) -> Result<(), String> {
    let tr = &ctx.tracer;
    let grid = zoo::grid(&MODELS, &[8]);
    let scenarios = grid.expand()?;
    tr.span("sweep.run_scenarios", || {
        engine.run_scenarios(scenarios.clone())
    })?;
    for family in FAMILIES {
        // The first variant of the family on each model it applies to.
        let mut picked: BTreeMap<&str, &daydream_sweep::Scenario> = BTreeMap::new();
        for s in scenarios.iter().filter(|s| s.opt.family() == family) {
            picked.entry(s.model.as_str()).or_insert(s);
        }
        let mut us = Vec::new();
        for s in picked.values() {
            for _ in 0..REPS {
                engine.clear_result_cache();
                let (r, t) = timed(|| {
                    tr.span("sweep.run_scenarios", || {
                        engine.run_scenarios(vec![(*s).clone()])
                    })
                });
                r?;
                us.push(t);
            }
        }
        out.push(Metric::new(
            format!("sweep.eval_us.{family}"),
            med(&us),
            "us",
        ));
    }

    engine.clear_result_cache();
    let outcomes = tr.span("sweep.run_scenarios", || {
        engine.run_scenarios(scenarios.clone())
    })?;
    let stats = engine.last_stats();
    out.push(Metric::new(
        "sweep.full_sims",
        stats.full_sims as f64,
        "count",
    ));
    out.push(Metric::new(
        "sweep.incremental_sims",
        stats.incremental_sims as f64,
        "count",
    ));
    out.push(Metric::new(
        "sweep.patch_hits",
        stats.patch_hits as f64,
        "count",
    ));
    out.push(Metric::new(
        "sweep.tasks_redispatched",
        stats.tasks_redispatched as f64,
        "count",
    ));
    let mut report_ms = Vec::new();
    for _ in 0..REPS {
        let (json, t) = timed(|| {
            tr.span("sweep.report", || {
                SweepReport::from_outcomes(outcomes.clone()).to_json()
            })
        });
        json.map_err(|e| e.to_string())?;
        report_ms.push(t / 1e3);
    }
    out.push(Metric::new("sweep.report_ms", med(&report_ms), "ms"));

    let mut rng = Rng::new(ctx.args.seed);
    let mut hit_us = Vec::new();
    for _ in 0..MICRO {
        let s = scenarios[rng.below(scenarios.len())].clone();
        let (r, t) = timed(|| tr.span("sweep.run_scenarios", || engine.run_scenarios(vec![s])));
        r?;
        hit_us.push(t);
    }
    out.push(Metric::new("sweep.cache_hit_us", med(&hit_us), "us"));

    engine.clear_result_cache();
    let search = tr.span("sweep.run_search", || {
        run_search(engine, &grid, &SearchConfig::default())
    })?;
    let estimates: usize = search.rungs.iter().map(|r| r.estimate_sims).sum();
    let exact = search.rungs.last().map_or(0, |r| r.evaluated);
    out.push(Metric::new(
        "sweep.search_estimates",
        estimates as f64,
        "count",
    ));
    out.push(Metric::new(
        "sweep.search_exact_evals",
        exact as f64,
        "count",
    ));
    let cfg = SearchConfig::default();
    let mut rung_us = Vec::new();
    for _ in 0..MICRO / 6 {
        let s = scenarios[rng.below(scenarios.len())].clone();
        if matches!(s.opt, OptSpec::P3 { .. }) {
            continue;
        }
        engine.clear_result_cache();
        let (r, t) = timed(|| {
            tr.span("sweep.run_scenarios_rung", || {
                engine.run_scenarios_rung(vec![s], cfg.cone_budgets[0])
            })
        });
        r?;
        rung_us.push(t);
    }
    out.push(Metric::new("sweep.rung_us", med(&rung_us), "us"));
    Ok(())
}

/// HTTP layer pieces in isolation, then a small daemon session: the
/// keep-alive hit round trip beyond the engine's cache hit, the fresh
/// connection's extra cost, and how long a submitted job stays queued.
fn serve_layer(ctx: &Ctx, engine: &SweepEngine, out: &mut Vec<Metric>) -> Result<(), String> {
    let tr = &ctx.tracer;
    let body = "{\"model\":\"ResNet-50\",\"batch\":8,\"opt\":\"amp\"}";
    let wire = request_bytes("POST", "/whatif", body);
    let mut parse_us = Vec::new();
    for _ in 0..MICRO {
        let (req, t) = timed(|| {
            tr.span("serve.parse", || {
                let mut parser = RequestParser::new(Limits::default());
                parser.feed(&wire);
                parser.next_request()
            })
        });
        req.map_err(|e| e.message)?
            .ok_or("request did not parse whole")?;
        parse_us.push(t);
    }
    out.push(Metric::new("serve.parse_us", med(&parse_us), "us"));

    let req: WhatIfRequest = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let mut resolve_us = Vec::new();
    for _ in 0..MICRO / 3 {
        let (s, t) = timed(|| tr.span("serve.resolve", || req.scenario()));
        s?;
        resolve_us.push(t);
    }
    out.push(Metric::new("serve.resolve_us", med(&resolve_us), "us"));

    let outcome = engine.run_scenarios(vec![req.scenario()?])?.remove(0);
    let mut encode_us = Vec::new();
    for _ in 0..MICRO {
        let (wire, t) = timed(|| {
            tr.span("serve.encode", || {
                serde_json::to_string(&outcome)
                    .map(|json| response_bytes(200, "application/json", json.as_bytes(), false))
            })
        });
        wire.map_err(|e| e.to_string())?;
        encode_us.push(t);
    }
    out.push(Metric::new("serve.encode_us", med(&encode_us), "us"));

    let hit = req.scenario()?;
    let mut cache_hit_us = Vec::new();
    for _ in 0..MICRO {
        let s = hit.clone();
        let (r, t) = timed(|| tr.span("sweep.run_scenarios", || engine.run_scenarios(vec![s])));
        r?;
        cache_hit_us.push(t);
    }
    let mut session = Session::start(Some(ctx.work_dir.join("probe-store")))?;
    let warm = session.request("POST", "/whatif", body)?;
    if warm.status != 200 {
        return Err(format!("probe what-if answered {}", warm.status));
    }
    let mut keepalive_us = Vec::new();
    for _ in 0..MICRO {
        let (r, t) = timed(|| tr.span("serve.whatif", || session.request("POST", "/whatif", body)));
        r?;
        keepalive_us.push(t);
    }
    let mut fresh_us = Vec::new();
    for _ in 0..MICRO / 6 {
        let (r, t) = timed(|| {
            tr.span("serve.whatif_fresh", || {
                http_request(&session.addr, "POST", "/whatif", body)
            })
        });
        r?;
        fresh_us.push(t);
    }
    out.push(Metric::new(
        "serve.hit_overhead_us",
        med(&keepalive_us) - med(&cache_hit_us),
        "us",
    ));
    out.push(Metric::new(
        "serve.connect_us",
        med(&fresh_us) - med(&keepalive_us),
        "us",
    ));

    let mut wait_ms = Vec::new();
    for i in 0..5 {
        let grid = format!(
            "{{\"models\":[\"GNMT\"],\"batches\":[8],\"opts\":[\"amp\",\"gist\",\"bandwidth\"],\"factors\":[{}]}}",
            2 + i
        );
        let t = Instant::now();
        let r = tr.span("serve.sweep_submit", || {
            session.request("POST", "/sweep", &grid)
        })?;
        let id = field(&r.body, "job_id")
            .ok_or_else(|| format!("no job id in {}", r.body))?
            .to_string();
        let mut left_queue = None;
        loop {
            let s = tr.span("serve.job_status", || {
                session.request("GET", &format!("/jobs/{id}"), "")
            })?;
            let state = field(&s.body, "state");
            if left_queue.is_none() && state != Some("queued") {
                left_queue = Some(t.elapsed().as_secs_f64() * 1e3);
            }
            match state {
                Some("done") => break,
                Some("queued") | Some("running") => std::thread::sleep(Duration::from_micros(100)),
                _ => return Err(format!("probe job {id}: {}", s.body)),
            }
        }
        wait_ms.push(left_queue.expect("a done job has left the queue"));
    }
    out.push(Metric::new("serve.job_wait_ms", med(&wait_ms), "ms"));
    session.stop()?;
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map(|m| m.len()).unwrap_or(0),
        })
        .sum()
}

/// The shard protocol a stored job runs, step by step, on ten
/// 25-scenario single-shard runs in a fresh store.
fn shard_layer(ctx: &Ctx, engine: &SweepEngine, out: &mut Vec<Metric>) -> Result<(), String> {
    let tr = &ctx.tracer;
    let store = RunStore::open(ctx.work_dir.join("probe-shard")).map_err(|e| e.to_string())?;
    let grid = zoo::grid(&MODELS, &[8]);
    let single_gpu: Vec<_> = grid
        .expand()?
        .into_iter()
        .filter(|s| {
            !matches!(
                s.opt,
                OptSpec::Ddp { .. }
                    | OptSpec::BlueConnect { .. }
                    | OptSpec::Dgc { .. }
                    | OptSpec::P3 { .. }
            )
        })
        .collect();
    let mut rng = Rng::new(ctx.args.seed ^ 0x5A4D);
    let mut steps: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..10 {
        let mut pool = single_gpu.clone();
        rng.shuffle(&mut pool);
        pool.truncate(25);
        let (plan, t) =
            timed(|| tr.span("shard.partition", || ShardPlan::partition(pool.clone(), 1)));
        let plan = plan?;
        steps.entry("shard.partition_us").or_default().push(t);
        let (run, t) = timed(|| tr.span("shard.create_run", || store.create_run(&plan)));
        let run = run.map_err(|e| e.to_string())?;
        steps
            .entry("shard.create_run_ms")
            .or_default()
            .push(t / 1e3);
        let (claim, t) = timed(|| tr.span("shard.claim", || run.claim_any("probe", 60_000)));
        let claim = claim
            .map_err(|e| e.to_string())?
            .ok_or("a fresh run has a shard to claim")?;
        steps.entry("shard.claim_us").or_default().push(t);
        let outcomes = tr.span("sweep.run_scenarios", || {
            engine.run_scenarios(claim.scenarios.clone())
        })?;
        let (done, t) = timed(|| tr.span("shard.complete", || run.complete(&claim, outcomes)));
        done.map_err(|e| e.to_string())?;
        steps.entry("shard.complete_us").or_default().push(t);
        let (merged, t) = timed(|| {
            tr.span("shard.merge", || {
                merge_run(&run).and_then(|report| write_merged(&run, &report))
            })
        });
        merged.map_err(|e| e.to_string())?;
        steps.entry("shard.merge_ms").or_default().push(t / 1e3);
        steps
            .entry("shard.bytes_written")
            .or_default()
            .push(dir_bytes(run.path()) as f64);
    }
    let mut best_ms = Vec::new();
    for _ in 0..REPS {
        let (r, t) = timed(|| tr.span("shard.best_for", || store.best_for(None, 10)));
        r.map_err(|e| e.to_string())?;
        best_ms.push(t / 1e3);
    }
    steps.insert("shard.best_for_ms", best_ms);
    for (name, unit) in [
        ("shard.partition_us", "us"),
        ("shard.create_run_ms", "ms"),
        ("shard.claim_us", "us"),
        ("shard.complete_us", "us"),
        ("shard.merge_ms", "ms"),
        ("shard.bytes_written", "bytes"),
        ("shard.best_for_ms", "ms"),
    ] {
        out.push(Metric::new(name, med(&steps[name]), unit));
    }
    Ok(())
}
