//! `sweep-jobs`: the client submits `POST /sweep` grids one at a time to
//! an in-process daemon with a run store in the working directory,
//! polls each job over keep-alive until it is done, fetches its ranked
//! report and, every fourth job, asks `/history/best`. Every job is
//! journaled, partitioned, claimed, leased, published, merged and
//! stored, so the `shard` protocol and the job queue dominate; grids use
//! single-GPU families only, so data-parallel code paths are bypassed.
//!
//! Each grid repeats the fixed-parameter families of earlier jobs on the
//! same bases (about half its scenarios are cache hits) and adds seeded
//! batch-size targets, vDNN lookaheads and a bandwidth factor, a few
//! milliseconds of novel evaluation. That much is needed for a steady
//! measurement: the shard worker's lease heartbeat thread sleeps 25 ms
//! per step and is joined after each shard, so a job waits out that
//! sleep whenever the heartbeat starts before the evaluation ends, a
//! race that shorter jobs win or lose from run to run (see README).

use crate::checks::Checker;
use crate::rng::Rng;
use crate::session::Session;
use crate::stats::median;
use crate::zoo::MODELS;
use crate::{layers, overhead_pct, peak_rss_mb, set_up, timed_rounds, Ctx, Metric, Report};
use daydream_serve::SweepRequest;
use daydream_shard::BestEntry;
use daydream_sweep::scenario::fnv1a64;
use daydream_sweep::{SweepEngine, SweepReport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Single-GPU families: every job bypasses the DDP/DGC/P3 paths.
const OPTS: &str = "\"amp\",\"fused-adam\",\"reconstruct-bn\",\"metaflow\",\"vdnn\",\"gist\",\"bandwidth\",\"upgrade-gpu\",\"batch-size\"";

/// Pause between status polls: short against a job's ~30 ms, long
/// enough that polling does not starve the job worker of a core.
const POLL: Duration = Duration::from_micros(500);

/// Entries asked of `/history/best`.
const HISTORY_TOP: usize = 5;

/// Jobs after which `peak_rss_mb` is read (under 10 s on the reference
/// host): the daemon's caches grow with the jobs run, so it is read after
/// a fixed amount of work, not at the end of the timed phase.
const RSS_JOBS: usize = 200;

/// Set-ups per run before and after the timed phase: each takes about
/// 80 ms and varies by a fifth from one to the next, so the median needs
/// many.
const SETUPS: (usize, usize) = (8, 7);

/// One job as submitted and answered. The report is kept as a hash
/// only (see `whatif::Sent`); the checks rebuild it offline.
struct Job {
    grid: usize,
    scenarios: usize,
    ms: f64,
    fetch_ms: f64,
    hash: u64,
}

struct History {
    model: &'static str,
    /// Jobs completed before the query.
    jobs_before: usize,
    response: String,
}

/// A job's grid: two models, one batch, the single-GPU families with
/// fixed parameters, and the seeded parameters that make it novel. At
/// most 25 scenarios, so every job is one shard.
struct Grid {
    models: [&'static str; 2],
    batch: u64,
    factor: f64,
    targets: [u64; 4],
    lookaheads: [usize; 2],
}

impl Grid {
    /// The grid of job `j`: two models in rotation, the rest seeded.
    fn new(rng: &mut Rng, j: usize) -> Grid {
        let mut target = || 2 + rng.below(4095) as u64;
        let targets = [target(), target(), target(), target()];
        Grid {
            models: [MODELS[j % MODELS.len()], MODELS[(j + 1) % MODELS.len()]],
            batch: [4, 8][rng.below(2)],
            factor: (rng.uniform(1.05, 16.0) * 1e6).round() / 1e6,
            targets,
            lookaheads: [3 + rng.below(500), 3 + rng.below(500)],
        }
    }

    fn body(&self) -> String {
        let [a, b] = self.models;
        let [t1, t2, t3, t4] = self.targets;
        let [l1, l2] = self.lookaheads;
        format!(
            "{{\"models\":[\"{a}\",\"{b}\"],\"batches\":[{}],\"opts\":[{OPTS}],\
             \"factors\":[{}],\"target_batches\":[{t1},{t2},{t3},{t4}],\"lookaheads\":[{l1},{l2}]}}",
            self.batch, self.factor
        )
    }
}

fn setup(store: std::path::PathBuf) -> Result<Session, String> {
    let mut session = Session::start(Some(store))?;
    for model in MODELS {
        for batch in [4, 8] {
            let body = format!("{{\"model\":\"{model}\",\"batch\":{batch}}}");
            let r = session.request("POST", "/whatif", &body)?;
            if r.status != 200 {
                return Err(format!("warm-up {body} answered {}: {}", r.status, r.body));
            }
        }
    }
    Ok(session)
}

/// The raw value of `key` in a flat JSON object (quotes stripped).
pub(crate) fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Submits one grid, polls it to completion and fetches its report.
fn run_job(
    ctx: &Ctx,
    session: &mut Session,
    body: &str,
) -> Result<(usize, f64, f64, String), String> {
    let tr = &ctx.tracer;
    let t = Instant::now();
    let r = tr.span("serve.sweep_submit", || {
        session.request("POST", "/sweep", body)
    })?;
    if r.status != 202 {
        return Err(format!("submit answered {}: {}", r.status, r.body));
    }
    let id: u64 = field(&r.body, "job_id")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no job id in {}", r.body))?;
    let scenarios: usize = field(&r.body, "scenarios")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no scenario count in {}", r.body))?;
    tr.set_request(id);
    let path = format!("/jobs/{id}");
    loop {
        let s = tr.span("serve.job_status", || session.request("GET", &path, ""))?;
        match field(&s.body, "state") {
            Some("done") => break,
            Some("queued") | Some("running") => std::thread::sleep(POLL),
            _ => return Err(format!("job {id}: {}", s.body)),
        }
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let results = tr.span("serve.job_results", || {
        session.request("GET", &format!("/jobs/{id}/results"), "")
    })?;
    let fetch_ms = t.elapsed().as_secs_f64() * 1e3;
    if results.status != 200 {
        return Err(format!("results of job {id}: {}", results.status));
    }
    Ok((scenarios, ms, fetch_ms, results.body))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rng = Rng::new(ctx.args.seed);
    let store = |i: usize| ctx.work_dir.join(format!("store-{i}"));
    let (mut session, mut setups) = set_up(
        ctx,
        SETUPS.0,
        |i| setup(store(i)),
        |old| old.stop().map(drop),
    )?;

    let tr = &ctx.tracer;
    let mut grids: Vec<Grid> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    let mut history: Vec<History> = Vec::new();
    let mut peak_mb = None;
    let started = Instant::now();
    let untraced = timed_rounds(ctx, || {
        tr.span("bench.round", || -> Result<(), String> {
            let j = grids.len();
            grids.push(Grid::new(&mut rng, j));
            let (scenarios, ms, fetch_ms, results) = run_job(ctx, &mut session, &grids[j].body())?;
            jobs.push(Job {
                grid: j,
                scenarios,
                ms,
                fetch_ms,
                hash: fnv1a64(results.as_bytes()),
            });
            if jobs.len() == RSS_JOBS {
                peak_mb = Some(peak_rss_mb());
            }
            if j % 4 == 3 {
                let model = MODELS[j % MODELS.len()];
                let path = format!("/history/best?model={model}&top={HISTORY_TOP}");
                let h = tr.span("serve.history_best", || session.request("GET", &path, ""))?;
                if h.status != 200 {
                    return Err(format!("history answered {}: {}", h.status, h.body));
                }
                history.push(History {
                    model,
                    jobs_before: jobs.len(),
                    response: h.body,
                });
            }
            Ok(())
        })
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    // A run too slow to reach RSS_JOBS reads its (smaller) peak here.
    let peak_mb = peak_mb.unwrap_or_else(peak_rss_mb);
    session.stop()?;
    setups.more(
        ctx,
        SETUPS.1,
        |i| setup(store(i)),
        |old| old.stop().map(drop),
    )?;

    let errors = check(&grids, &jobs, &history)?;
    let mut report = Report {
        correct: errors.is_empty(),
        attempted: (jobs.len() + history.len()) as u64,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let job_ms: Vec<f64> = jobs.iter().map(|j| j.ms).collect();
    let fetch_ms: Vec<f64> = jobs.iter().map(|j| j.fetch_ms).collect();
    let scenarios: usize = jobs.iter().map(|j| j.scenarios).sum();
    if ctx.args.trace {
        let (a, b) = job_ms.split_at(untraced);
        report.metrics = layers::probe(ctx, overhead_pct(a, b), &mut report.notes)?;
    } else {
        report.metrics = vec![
            Metric::new("setup_s", setups.median(), "s"),
            Metric::new("peak_rss_mb", peak_mb, "MB"),
            Metric::new("scen_per_s", scenarios as f64 / wall_s, "1/s"),
            Metric::new("hit_ms", median(&fetch_ms).unwrap_or(f64::NAN), "ms"),
            Metric::new("miss_ms", median(&job_ms).unwrap_or(f64::NAN), "ms"),
        ];
    }
    report.notes.push(setups.note());
    report.notes.push(format!(
        "sweep-jobs: {} jobs ({scenarios} scenarios), {} history queries; job p50 {:.2} ms \
         ({} of {} over 20 ms), report fetch p50 {:.3} ms",
        jobs.len(),
        history.len(),
        median(&job_ms).unwrap_or(f64::NAN),
        job_ms.iter().filter(|&&m| m > 20.0).count(),
        jobs.len(),
        median(&fetch_ms).unwrap_or(f64::NAN),
    ));
    report.notes.extend(
        errors
            .into_iter()
            .take(20)
            .map(|e| format!("CHECK FAILED: {e}")),
    );
    Ok(report)
}

/// Each job's report is byte-identical to an offline evaluation of the
/// same grid with the cache provenance cleared, as the daemon does, and
/// its outcomes pass the per-scenario checks; the first two jobs' also
/// equal a cold `SweepEngine::run`. Each
/// `/history/best` answer equals the minimum computed here over the
/// reports of the jobs done before it.
fn check(grids: &[Grid], jobs: &[Job], history: &[History]) -> Result<Vec<String>, String> {
    let checker = Checker::new();
    let offline = SweepEngine::new(1);
    let mut errors = Vec::new();
    let mut reports: Vec<SweepReport> = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let req: SweepRequest = serde_json::from_str(&grids[job.grid].body())
            .map_err(|e| format!("grid {}: {e}", grids[job.grid].body()))?;
        let grid = req.grid()?;
        let scenarios = grid.expand()?;
        let mut outcomes = offline.run_scenarios(scenarios.clone())?;
        for (s, o) in scenarios.iter().zip(&mut outcomes) {
            if let Err(e) = checker.outcome(s, o) {
                errors.push(e);
            }
            o.cached = false;
        }
        let report = SweepReport::from_outcomes(outcomes);
        let json = report.to_json().map_err(|e| e.to_string())?;
        if fnv1a64(json.as_bytes()) != job.hash || report.scenario_count != job.scenarios {
            errors.push(format!(
                "job {}: served report differs from the offline sweep",
                i + 1
            ));
        }
        if i < 2 {
            let cold = SweepEngine::new(1)
                .run(&grid)?
                .to_json()
                .map_err(|e| e.to_string())?;
            if cold != json {
                errors.push(format!("job {}: differs from a cold offline sweep", i + 1));
            }
        }
        reports.push(report);
    }
    for h in history {
        let mut best: BTreeMap<&str, (u64, &str)> = BTreeMap::new();
        for report in &reports[..h.jobs_before] {
            for o in report.results.iter().filter(|o| o.model == h.model) {
                let e = best
                    .entry(o.key.as_str())
                    .or_insert((o.predicted_ns, &o.label));
                if o.predicted_ns < e.0 {
                    *e = (o.predicted_ns, &o.label);
                }
            }
        }
        let mut want: Vec<(u64, &str, &str)> = best
            .into_iter()
            .map(|(k, (ns, label))| (ns, label, k))
            .collect();
        want.sort();
        want.truncate(HISTORY_TOP);
        let served: Vec<BestEntry> =
            serde_json::from_str::<BTreeMap<String, Vec<BestEntry>>>(&h.response)
                .map_err(|e| format!("history answer: {e}"))?
                .remove("entries")
                .unwrap_or_default();
        let got: Vec<(u64, &str, &str)> = served
            .iter()
            .map(|e| (e.predicted_ns, e.label.as_str(), e.key.as_str()))
            .collect();
        if got != want {
            errors.push(format!(
                "/history/best?model={} after {} jobs: {got:?}, expected {want:?}",
                h.model, h.jobs_before
            ));
        }
    }
    Ok(errors)
}
