//! End-to-end benchmark of daydream: one binary, three workloads.
//!
//! ```text
//! e2ebench --workload <zoo-sweep|whatif-session|sweep-jobs> --seed <n> \
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets the workload up several times (reporting the median
//! set-up time), drives it closed-loop from one client thread for
//! `--seconds`, reads the peak RSS, checks every output outside the timed
//! region, and prints one JSON object as its last stdout line: `correct`,
//! `attempted`, `failed` and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). See README.md for the workloads, metrics
//! and reference figures.

mod checks;
mod client;
mod jobs;
mod layers;
mod pin;
mod rng;
mod session;
mod stats;
mod trace;
mod whatif;
mod zoo;

use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 3] = ["zoo-sweep", "whatif-session", "sweep-jobs"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s}: must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Debug)]
pub struct Report {
    /// Every output check passed (failed operations excepted).
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations whose answer failed its check (the known fault).
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Human-readable notes for stderr (check failures, extra figures).
    pub notes: Vec<String>,
}

/// Everything a workload needs from the command line and the process.
pub struct Ctx {
    pub args: Args,
    /// Scratch directory inside the working directory, removed at exit.
    pub work_dir: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// The timed-phase budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.args.seconds)
    }
}

/// The set-up times of one run, in seconds; their median is `setup_s`.
/// Some are taken before the timed phase and the rest after it, so the
/// median spans the run as the throughput metrics do, not only the
/// host's speed in its first seconds.
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Sets the workload up `count` more times after the timed phase,
    /// tearing each copy down at once. `make` gets the set-up's index.
    pub fn more<T>(
        &mut self,
        ctx: &Ctx,
        count: usize,
        mut make: impl FnMut(usize) -> Result<T, String>,
        mut teardown: impl FnMut(T) -> Result<(), String>,
    ) -> Result<(), String> {
        for _ in 0..count {
            let t = std::time::Instant::now();
            let copy = ctx.tracer.span("bench.setup", || make(self.0.len()))?;
            self.0.push(t.elapsed().as_secs_f64());
            teardown(copy)?;
        }
        Ok(())
    }

    pub fn median(&self) -> f64 {
        stats::median(&self.0).unwrap_or(f64::NAN)
    }

    /// One line for stderr: every sample, so a noisy run can be told
    /// from a slow one.
    pub fn note(&self) -> String {
        let ms: Vec<String> = self.0.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
        format!(
            "set-up: median {:.1} ms of {} ({} ms)",
            self.median() * 1e3,
            self.0.len(),
            ms.join(" ")
        )
    }
}

/// Sets the workload up `count` times before the timed phase, tearing
/// each earlier copy down, and returns the last copy with every set-up
/// time.
pub fn set_up<T>(
    ctx: &Ctx,
    count: usize,
    mut make: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, SetupTimes), String> {
    let mut seconds = Vec::with_capacity(count);
    let mut last = None;
    for i in 0..count.max(1) {
        if let Some(old) = last.take() {
            teardown(old)?;
        }
        let t = std::time::Instant::now();
        last = Some(ctx.tracer.span("bench.setup", || make(i))?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("count >= 1"), SetupTimes(seconds)))
}

/// Runs whole rounds until the budget is spent and returns how many
/// ran untraced. A traced run spends the first half of the budget
/// untraced and the second half traced, so the tracing overhead is
/// measured within one process; an untraced run records nothing.
pub fn timed_rounds(
    ctx: &Ctx,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let budget = ctx.budget();
    let start = std::time::Instant::now();
    let mut untraced = 0;
    if ctx.args.trace {
        ctx.tracer.set_recording(false);
        while start.elapsed() < budget / 2 {
            round()?;
            untraced += 1;
        }
        ctx.tracer.set_recording(true);
        // At least one traced round, so the overhead is always measured.
        round()?;
        while start.elapsed() < budget {
            round()?;
        }
    } else {
        while start.elapsed() < budget {
            round()?;
            untraced += 1;
        }
    }
    Ok(untraced)
}

/// Tracing overhead in percent: the median of the traced samples over
/// the median of the untraced ones, minus one.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    match (stats::median(untraced), stats::median(traced)) {
        (Some(a), Some(b)) => (b / a - 1.0) * 100.0,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`). Read
/// right after the timed phase, before the checks allocate their own
/// engines and reports.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

fn render(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                serde_json::to_string(&m.name).expect("string serializes"),
                if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                },
                serde_json::to_string(&m.unit.to_string()).expect("string serializes"),
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cpus = pin::init();
    let work_dir = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        tracer: Tracer::new(args.trace),
        args,
        work_dir,
    };
    let result = match ctx.args.workload.as_str() {
        "zoo-sweep" => zoo::run(&ctx),
        "whatif-session" => whatif::run(&ctx),
        "sweep-jobs" => jobs::run(&ctx),
        _ => unreachable!("parse_args validated the workload"),
    };
    let result = result.and_then(|mut report| {
        if ctx.args.trace {
            let out = PathBuf::from(".bench_out").join(format!(
                "spans-{}-{}.jsonl",
                ctx.args.workload, ctx.args.seed
            ));
            ctx.tracer.write_jsonl(&out)?;
            report.notes.push(format!(
                "{} spans written to {}",
                ctx.tracer.span_count(),
                out.display()
            ));
        }
        Ok(report)
    });
    std::fs::remove_dir_all(&ctx.work_dir).ok();
    std::fs::remove_dir(".bench_tmp").ok();
    match result {
        Ok(mut report) => {
            if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
                report.correct = false;
                report
                    .notes
                    .push(format!("metric {} is not a finite number", m.name));
            }
            eprintln!("{cpus} CPUs allowed; client and daemon share the first when >= 2");
            for note in &report.notes {
                eprintln!("{note}");
            }
            println!("{}", render(&report));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload zoo-sweep --seed 7 --seconds 25 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "zoo-sweep".into(),
                seed: 7,
                seconds: 25.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload zoo-sweep --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload zoo-sweep --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload zoo-sweep --seconds 5")).is_err());
    }

    #[test]
    fn renders_one_json_object() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 1,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            notes: vec![],
        };
        let line = render(&r);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
