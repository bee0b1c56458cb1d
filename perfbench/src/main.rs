//! `oak-perfbench` — the repository benchmark harness.
//!
//! ```text
//! oak-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --oak-serve <path> [--commit <id>] [--out <dir>] [--plan-only]
//! ```
//!
//! `--trace 0` runs the end-to-end benchmark against the `oak-serve`
//! binary; `--trace 1` runs the traced per-layer breakdown in process.
//! `--plan-only` prints the request-stream hash without serving.
//! The last line of standard output is the JSON result. See README.md.

mod client;
mod e2e;
mod loadgen;
mod server;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

// Counts allocations for the traced run's per-operation figures.
#[global_allocator]
static ALLOC: oak_bench::alloc::CountingAlloc = oak_bench::alloc::CountingAlloc;

/// One named measurement.
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

/// Metrics printed and written to the run record but left out of the
/// result line (and so out of BENCHMARK.json). The open-loop SLO miss
/// fraction is exactly 0 on most runs of browse and ingest, so no bound
/// on it can be a share of its median. The server's resident set swings
/// 60–150 MiB between identical durable_ingest runs, with how much
/// freed snapshot memory the allocator's per-thread arenas keep.
const RECORD_ONLY: [&str; 2] = ["slo_miss_frac", "server_rss_mb"];

/// What a run measured, and how many requests it checked.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Worst open-loop generator lateness, µs.
    pub max_lateness_us: f64,
    /// First wrong response, for the run log.
    pub first_error: Option<String>,
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit the measurement has.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    oak_serve: Option<PathBuf>,
    commit: String,
    out: PathBuf,
    plan_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        oak_serve: None,
        commit: "unknown".into(),
        out: PathBuf::from(".bench_out"),
        plan_only: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed requires a number")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds requires a positive number")?;
            }
            "--trace" => args.trace = value()? == "1",
            "--oak-serve" => args.oak_serve = Some(PathBuf::from(value()?)),
            "--commit" => args.commit = value()?,
            "--out" => args.out = PathBuf::from(value()?),
            "--plan-only" => args.plan_only = true,

            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oak-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "oak-perfbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let plan = workload::Plan::build(spec, args.seed, args.seconds);
    if args.plan_only {
        println!(
            "{{\"workload\": {}, \"seed\": {}, \"stream_hash\": \"{:016x}\", \"requests\": {}}}",
            json_str(spec.name),
            args.seed,
            plan.stream_hash(),
            plan.request_count()
        );
        return ExitCode::SUCCESS;
    }
    let Some(bin) = args.oak_serve.clone() else {
        eprintln!("oak-perfbench: --oak-serve <path> is required");
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let run_dir = args.out.join(format!("{}-seed{}", spec.name, args.seed));
    let work = args
        .out
        .join(format!("work-{}-{}", spec.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("oak-perfbench: creating {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }

    let result = if args.trace {
        trace::run(&plan, &bin, &work, &run_dir, threads)
    } else {
        e2e::run(&plan, &bin, &work, threads)
    };
    let _ = std::fs::remove_dir_all(&work);
    let Outcome {
        metrics,
        attempted,
        failed,
        max_lateness_us,
        first_error,
    } = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("oak-perfbench: {} failed: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    if let Some(e) = &first_error {
        eprintln!("oak-perfbench: first failure: {e}");
    }

    // A generator that fell behind its own schedule by more than the
    // latency limit measured itself, not the server: flag the run.
    let behind = max_lateness_us > loadgen::SLO.as_secs_f64() * 1e6;
    if behind {
        eprintln!(
            "oak-perfbench: WARNING generator fell {:.1} ms behind schedule (limit {} ms); \
latency figures of this run are flagged",
            max_lateness_us / 1e3,
            loadgen::SLO.as_millis()
        );
    }
    let provenance = format!(
        "{{\"benchmark\": \"oak-perfbench\", \"mode\": {}, \"workload\": {}, \"seed\": {}, \
\"seconds\": {}, \"commit\": {}, \"nproc\": {threads}, \"open_rate_rps\": {}, \
\"requests\": {{\"setup\": {}, \"setup_reps\": {}, \"goodput\": {}, \"latency\": {}}}, \
\"users\": {}, \"stream_hash\": \"{:016x}\", \"max_generator_lateness_ms\": {}, \
\"generator_behind\": {behind}}}",
        json_str(if args.trace { "traced" } else { "end_to_end" }),
        json_str(spec.name),
        args.seed,
        json_num(args.seconds),
        json_str(&args.commit),
        json_num(spec.open_rate),
        plan.seed_phase.len(),
        e2e::SETUP_REPS,
        plan.goodput_phase.len(),
        plan.latency_phase.len(),
        spec.users,
        plan.stream_hash(),
        json_num(max_lateness_us / 1e3),
    );
    for m in &metrics {
        println!("{:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let metrics_json = |keep: &dyn Fn(&Metric) -> bool| {
        let body: Vec<String> = metrics
            .iter()
            .filter(|m| keep(m))
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let all_metrics = metrics_json(&|_| true);
    let result_metrics = metrics_json(&|m| !RECORD_ONLY.contains(&m.name.as_str()));
    let file = run_dir.join(if args.trace {
        "traced.json"
    } else {
        "e2e.json"
    });
    let record = format!(
        "{{\"provenance\": {provenance}, \"attempted\": {attempted}, \"failed\": {failed}, \
\"metrics\": {all_metrics}}}\n"
    );
    if let Err(e) = std::fs::write(&file, record) {
        eprintln!("oak-perfbench: writing {}: {e}", file.display());
    }
    println!("provenance {provenance}");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {result_metrics}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
