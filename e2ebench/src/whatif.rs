//! `whatif-session`: one interactive client against an in-process
//! daemon without a run store. Over one keep-alive connection it mixes
//! result-cache hits with novel scenarios drawn from the seed; one hit
//! per round goes over a fresh connection (the `daydream query` path),
//! and one request per round asks for `ddp` at `bw: 1e-12`, which the
//! program answers with a wrapped, impossibly fast prediction and so
//! fails its check every time. Most host time is in `serve` parse,
//! route, encode and connection set-up; `core` does little.
//!
//! The shares of the request kinds are an assumption (the repository
//! holds no record of real traffic), so no end-to-end metric blends the
//! kinds: hits and misses are timed apart, and the three miss families
//! are drawn equally often.

use crate::checks::Checker;
use crate::rng::Rng;
use crate::session::Session;
use crate::stats::{beyond, median, percentile};
use crate::zoo::MODELS;
use crate::{layers, overhead_pct, peak_rss_mb, set_up, timed_rounds, Ctx, Metric, Report};
use daydream_serve::{http_request, WhatIfRequest};
use daydream_sweep::scenario::fnv1a64;
use daydream_sweep::{Scenario, ScenarioOutcome, SweepEngine};
use std::collections::HashSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A scenario answered before, over keep-alive.
    Hit,
    /// A scenario never asked before, over keep-alive.
    Miss,
    /// A scenario answered before, over a fresh connection.
    Fresh,
    /// `ddp` at `bw: 1e-12`: the known wrapped-arithmetic fault.
    Fault,
}

use Kind::{Fault, Fresh, Hit, Miss};

/// One round: 12 hits, 6 misses, 1 fresh-connection hit and 1 faulty
/// request, op kinds interleaved. The shares are assumed, not taken
/// from a traffic record: mostly repeats, as when a user revisits
/// earlier answers while varying one knob, one fresh connection per
/// round for the command-line path, and one faulty request so the known
/// fault shows in every run at a fixed share.
const ROUND: [Kind; 20] = [
    Hit, Miss, Hit, Hit, Miss, Hit, Hit, Miss, Hit, Fresh, //
    Hit, Miss, Hit, Hit, Miss, Hit, Hit, Miss, Hit, Fault,
];

/// Set-ups per run before and after the timed phase: each takes about
/// 0.1 s and varies by a fifth from one to the next, so the median needs
/// many.
const SETUPS: (usize, usize) = (8, 7);

/// Rounds after which `peak_rss_mb` is read (20,000 requests, under 10 s
/// on the reference host). The daemon keeps every answer, so its memory
/// grows with the requests answered; read after a fixed amount of work,
/// a faster daemon does not look like a memory regression.
const RSS_ROUNDS: usize = 1000;

/// Bases the session touches: every zoo model at batch 4 and 8.
const BATCHES: [u64; 2] = [4, 8];

/// The data-parallel cluster novel DGC what-ifs run on; its DDP plan is
/// warmed during set-up.
const DGC_CLUSTER: &str = "\"machines\":4,\"bw\":25";

/// One request as sent and answered. The client keeps only a hash of
/// each answer in memory; the text of every miss and faulty answer goes
/// to an [`AnswerLog`] file for the checks. So the client's records stay
/// small next to the daemon's memory in `peak_rss_mb`.
struct Sent {
    kind: Kind,
    body: usize,
    status: u16,
    hash: u64,
    ms: f64,
    round: usize,
}

/// Length-prefixed answer texts, appended in the order sent.
struct AnswerLog(BufWriter<File>);

impl AnswerLog {
    fn create(path: &Path) -> Result<AnswerLog, String> {
        File::create(path)
            .map(|f| AnswerLog(BufWriter::new(f)))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn append(&mut self, answer: &str) -> Result<(), String> {
        self.0
            .write_all(&(answer.len() as u64).to_le_bytes())
            .and_then(|()| self.0.write_all(answer.as_bytes()))
            .map_err(|e| format!("answer log: {e}"))
    }

    fn finish(mut self) -> Result<(), String> {
        self.0.flush().map_err(|e| format!("answer log: {e}"))
    }
}

/// Splits a log written by [`AnswerLog`] back into its answers.
fn read_answers(bytes: &[u8]) -> Result<Vec<&str>, String> {
    let mut out = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let (len, tail) = rest
            .split_first_chunk::<8>()
            .ok_or("answer log: torn length")?;
        let len = u64::from_le_bytes(*len) as usize;
        if tail.len() < len {
            return Err("answer log: torn answer".into());
        }
        let (text, tail) = tail.split_at(len);
        out.push(std::str::from_utf8(text).map_err(|e| format!("answer log: {e}"))?);
        rest = tail;
    }
    Ok(out)
}

struct Generator {
    rng: Rng,
    bodies: Vec<String>,
    answered: Vec<usize>,
    /// Hashes of every body asked so far, so a miss is always novel.
    asked: HashSet<u64>,
    /// The body index of each model's faulty request, once asked.
    faults: [Option<usize>; MODELS.len()],
}

impl Generator {
    fn new(seed: u64) -> Generator {
        Generator {
            rng: Rng::new(seed),
            bodies: Vec::new(),
            answered: Vec::new(),
            asked: HashSet::new(),
            faults: [None; MODELS.len()],
        }
    }

    /// Adds `body` unless it was asked before; returns its index if new.
    fn add(&mut self, body: String) -> Option<usize> {
        if !self.asked.insert(fnv1a64(body.as_bytes())) {
            return None;
        }
        self.bodies.push(body);
        Some(self.bodies.len() - 1)
    }

    /// A novel scenario: slot `j` of round `r` picks the model and the
    /// family, the seed picks the batch and the parameter. Families, in
    /// equal shares: bandwidth factor, DGC ratio on the warmed cluster
    /// and batch-size target.
    fn miss(&mut self, r: usize, j: usize) -> usize {
        loop {
            let model = MODELS[(j + r) % MODELS.len()];
            let batch = BATCHES[self.rng.below(BATCHES.len())];
            let body = match j % 3 {
                0 => {
                    let f = (self.rng.uniform(1.05, 16.0) * 1e6).round() / 1e6;
                    format!("{{\"model\":\"{model}\",\"batch\":{batch},\"opt\":\"bandwidth\",\"factor\":{f}}}")
                }
                1 => {
                    let ratio = (self.rng.uniform(0.001, 0.5) * 1e6).round() / 1e6;
                    format!(
                        "{{\"model\":\"{model}\",\"batch\":{batch},\"opt\":\"dgc\",{DGC_CLUSTER},\"ratio\":{ratio}}}"
                    )
                }
                _ => {
                    let target = 2 + self.rng.below(4095);
                    format!(
                        "{{\"model\":\"{model}\",\"batch\":{batch},\"opt\":\"batch-size\",\"target_batch\":{target}}}"
                    )
                }
            };
            if let Some(i) = self.add(body) {
                return i;
            }
        }
    }

    fn hit(&mut self) -> usize {
        self.answered[self.rng.below(self.answered.len())]
    }

    /// The faulty request of round `r`: independent of the seed.
    fn fault(&mut self, r: usize) -> usize {
        let m = r % MODELS.len();
        if let Some(i) = self.faults[m] {
            return i;
        }
        let model = MODELS[m];
        let body = format!(
            "{{\"model\":\"{model}\",\"batch\":4,\"opt\":\"ddp\",\"machines\":2,\"gpus\":1,\"bw\":1e-12}}"
        );
        let i = self
            .add(body)
            .expect("a faulty request is asked once per model");
        self.faults[m] = Some(i);
        i
    }
}

/// Warm-up requests: every base's baseline, and one DGC what-if per base
/// so the cluster's DDP plan is resident.
fn warm_bodies() -> Vec<String> {
    let mut out = Vec::new();
    for model in MODELS {
        for batch in BATCHES {
            out.push(format!(
                "{{\"model\":\"{model}\",\"batch\":{batch},\"opt\":\"baseline\"}}"
            ));
            out.push(format!(
                "{{\"model\":\"{model}\",\"batch\":{batch},\"opt\":\"dgc\",{DGC_CLUSTER},\"ratio\":0.01}}"
            ));
        }
    }
    out
}

fn setup(gen: &mut Generator) -> Result<Session, String> {
    let mut session = Session::start(None)?;
    for body in warm_bodies() {
        let r = session.request("POST", "/whatif", &body)?;
        if r.status != 200 {
            return Err(format!("warm-up {body} answered {}: {}", r.status, r.body));
        }
        if let Some(i) = gen.add(body) {
            gen.answered.push(i);
        }
    }
    Ok(session)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut gen = Generator::new(ctx.args.seed);
    let (mut session, mut setups) = set_up(
        ctx,
        SETUPS.0,
        |_| setup(&mut gen),
        |old| old.stop().map(drop),
    )?;

    let tr = &ctx.tracer;
    let log_path = ctx.work_dir.join("answers.log");
    let mut log = AnswerLog::create(&log_path)?;
    let mut sent: Vec<Sent> = Vec::new();
    let mut r = 0usize;
    let mut peak_mb = None;
    let untraced = timed_rounds(ctx, || {
        let mut slot = 0;
        for &kind in &ROUND {
            let body = match kind {
                Hit | Fresh => gen.hit(),
                Miss => {
                    slot += 1;
                    gen.miss(r, slot - 1)
                }
                Fault => gen.fault(r),
            };
            tr.set_request(sent.len() as u64);
            let t = Instant::now();
            let (status, answer) = match kind {
                Fresh => tr.span("serve.whatif_fresh", || {
                    http_request(&session.addr, "POST", "/whatif", &gen.bodies[body])
                        .map(|h| (h.status, h.body))
                }),
                _ => tr.span("serve.whatif", || {
                    session
                        .request("POST", "/whatif", &gen.bodies[body])
                        .map(|h| (h.status, h.body))
                }),
            }?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if matches!(kind, Miss | Fault) && status == 200 {
                log.append(&answer)?;
                if kind == Miss {
                    gen.answered.push(body);
                }
            }
            sent.push(Sent {
                kind,
                body,
                status,
                hash: fnv1a64(answer.as_bytes()),
                ms,
                round: r,
            });
        }
        r += 1;
        if r == RSS_ROUNDS {
            peak_mb = Some(peak_rss_mb());
        }
        Ok(())
    })?;
    // A run too slow to reach RSS_ROUNDS reads its (smaller) peak here.
    let peak_mb = peak_mb.unwrap_or_else(peak_rss_mb);
    let summary = session.stop()?;
    setups.more(
        ctx,
        SETUPS.1,
        |_| setup(&mut gen),
        |old| old.stop().map(drop),
    )?;

    log.finish()?;
    let (errors, failed) = check(&gen, &sent, &log_path)?;
    let lat = |k: Kind, range: std::ops::Range<usize>| -> Vec<f64> {
        sent[range]
            .iter()
            .filter(|s| s.kind == k)
            .map(|s| s.ms)
            .collect()
    };
    let all = 0..sent.len();
    let hits = lat(Hit, all.clone());
    let misses = lat(Miss, all.clone());
    let fresh = lat(Fresh, all.clone());
    let keepalive: Vec<f64> = sent
        .iter()
        .filter(|s| matches!(s.kind, Hit | Miss))
        .map(|s| s.ms)
        .collect();
    let mut report = Report {
        correct: errors.is_empty(),
        attempted: sent.len() as u64,
        failed,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    if ctx.args.trace {
        let split = untraced * ROUND.len();
        let overhead = overhead_pct(&lat(Hit, 0..split), &lat(Hit, split..sent.len()));
        report.metrics = layers::probe(ctx, overhead, &mut report.notes)?;
    } else {
        // What-ifs per second one closed-loop client gets over fresh
        // connections (the `daydream query` path) at the median latency:
        // a rate of one kind, not weighted by the assumed shares. A mean
        // rate over the misses moved with their tail, by a fifth between
        // runs.
        let fresh_p50 = median(&fresh).unwrap_or(f64::NAN);
        report.metrics = vec![
            Metric::new("setup_s", setups.median(), "s"),
            Metric::new("peak_rss_mb", peak_mb, "MB"),
            Metric::new("scen_per_s", 1e3 / fresh_p50, "1/s"),
            Metric::new("hit_ms", median(&hits).unwrap_or(f64::NAN), "ms"),
            Metric::new("miss_ms", median(&misses).unwrap_or(f64::NAN), "ms"),
        ];
    }
    report.notes.push(setups.note());
    report.notes.push(format!(
        "whatif-session: {} requests in {r} rounds ({} served by the daemon); keep-alive p50 hit \
         {:.3} ms, miss {:.3} ms, p99 {:.3} ms ({} beyond); fresh-connection hit p50 {:.3} ms",
        sent.len(),
        summary.requests,
        median(&hits).unwrap_or(f64::NAN),
        median(&misses).unwrap_or(f64::NAN),
        percentile(&keepalive, 99.0).unwrap_or(f64::NAN),
        beyond(&keepalive, 99.0),
        median(&fresh).unwrap_or(f64::NAN),
    ));
    report.notes.extend(
        errors
            .into_iter()
            .take(20)
            .map(|e| format!("CHECK FAILED: {e}")),
    );
    Ok(report)
}

fn resolve(body: &str) -> Result<Scenario, String> {
    let req: WhatIfRequest =
        serde_json::from_str(body).map_err(|e| format!("request {body}: {e}"))?;
    req.scenario()
}

/// The hash a repeated answer has: the first answer, cache flag set.
fn as_repeat(json: &str) -> u64 {
    fnv1a64(
        json.replace("\"cached\":false", "\"cached\":true")
            .as_bytes(),
    )
}

/// Every answer is a 200. Each first answer to a scenario (a miss, or a
/// faulty request's first time) belongs to the asked scenario, passes
/// the per-scenario checks and was not served from cache; every later
/// answer to it is byte-identical with the cache flag set. The warm-up
/// answers, the faulty requests' and every miss of each tenth round are
/// byte-identical to a separate in-process engine's answers. A faulty
/// request whose answer fails the all-reduce floor is counted failed; a
/// typed 4xx rejection of it would be correct.
fn check(gen: &Generator, sent: &[Sent], log: &Path) -> Result<(Vec<String>, u64), String> {
    let checker = Checker::new();
    let mirror = SweepEngine::new(1);
    let mirror_json = |body: usize| -> Option<String> {
        let reference = mirror
            .run_scenarios(vec![resolve(&gen.bodies[body]).ok()?])
            .ok()?;
        serde_json::to_string(&reference[0]).ok()
    };
    let label = |body: usize| {
        resolve(&gen.bodies[body])
            .map(|s| s.label())
            .unwrap_or_else(|_| gen.bodies[body].clone())
    };
    let bytes = std::fs::read(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let mut answers = read_answers(&bytes)?.into_iter();
    let mut errors = Vec::new();
    let mut failed = 0u64;
    // The hash every later answer to a body must have, once answered.
    let mut repeat: Vec<Option<u64>> = vec![None; gen.bodies.len()];
    let mut fault_fails = vec![false; gen.bodies.len()];
    // Set-up answered the warm-ups.
    for &i in &gen.answered[..warm_bodies().len()] {
        match mirror_json(i) {
            Some(json) => repeat[i] = Some(as_repeat(&json)),
            None => errors.push(format!("warm-up {}: rejected", gen.bodies[i])),
        }
    }
    for s in sent {
        match (s.kind, s.status) {
            (Fault, 400..=499) => continue,
            (_, 200) => {}
            (_, status) => {
                errors.push(format!("{}: status {status}", label(s.body)));
                continue;
            }
        }
        let text = match s.kind {
            Miss | Fault => {
                let text = answers.next().ok_or("answer log: too few answers")?;
                if fnv1a64(text.as_bytes()) != s.hash {
                    return Err("answer log: an answer differs from its hash".into());
                }
                Some(text)
            }
            Hit | Fresh => None,
        };
        if let Some(want) = repeat[s.body] {
            if s.hash != want {
                errors.push(format!(
                    "{}: a repeated answer differs from the first",
                    label(s.body)
                ));
            } else if s.kind == Fault && fault_fails[s.body] {
                failed += 1;
            }
            continue;
        }
        let Some(json) = text else {
            errors.push(format!(
                "{}: a hit on an unanswered scenario",
                label(s.body)
            ));
            continue;
        };
        repeat[s.body] = Some(as_repeat(json));
        let scenario = resolve(&gen.bodies[s.body])?;
        let verdict = match serde_json::from_str::<ScenarioOutcome>(json) {
            Ok(o) if o.cached => Err(format!(
                "{}: a novel scenario was answered from cache",
                o.label
            )),
            Ok(o) => checker.outcome(&scenario, &o),
            Err(e) => Err(format!("{}: unparsable answer: {e}", scenario.label())),
        };
        match (s.kind, verdict) {
            (Fault, Err(_)) => {
                fault_fails[s.body] = true;
                failed += 1;
            }
            (_, Err(e)) => errors.push(e),
            (_, Ok(())) => {}
        }
        if (s.kind == Fault || s.round % 10 == 0) && mirror_json(s.body).as_deref() != Some(json) {
            errors.push(format!(
                "{}: served answer differs from an in-process engine's",
                scenario.label()
            ));
        }
    }
    if answers.next().is_some() {
        errors.push("answer log: more answers than requests".into());
    }
    Ok((errors, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_log_round_trips_and_rejects_torn_tails() {
        let dir = std::env::temp_dir().join(format!("e2ebench-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("answers.log");
        let mut log = AnswerLog::create(&path).unwrap();
        for a in ["{\"a\":1}", "", "{\"label\":\"x\ny\"}"] {
            log.append(a).unwrap();
        }
        log.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            read_answers(&bytes).unwrap(),
            vec!["{\"a\":1}", "", "{\"label\":\"x\ny\"}"]
        );
        assert!(read_answers(&bytes[..bytes.len() - 1]).is_err());
        assert!(read_answers(&bytes[..3]).is_err());
    }

    #[test]
    fn misses_are_novel_and_spread_evenly_over_the_families() {
        let mut gen = Generator::new(9);
        let mut families = std::collections::BTreeMap::new();
        for r in 0..50 {
            for j in 0..6 {
                let i = gen.miss(r, j);
                let opt = resolve(&gen.bodies[i]).unwrap().opt.family();
                *families.entry(opt).or_insert(0) += 1;
            }
        }
        assert_eq!(gen.bodies.len(), 300);
        assert_eq!(families.len(), 3);
        assert!(families.values().all(|&n| n == 100), "{families:?}");
        // The faulty request is asked once per model and reused after.
        let first = gen.fault(0);
        assert_eq!(gen.fault(MODELS.len()), first);
        assert_ne!(gen.fault(1), first);
    }
}
