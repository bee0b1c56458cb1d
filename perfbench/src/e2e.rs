//! The end-to-end run: the real `oak-serve` binary on loopback, driven
//! through three fixed-count phases (setup, closed-loop goodput,
//! open-loop latency), tracing off.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::loadgen::{self, Tally};
use crate::server::Servers;
use crate::workload::Plan;
use crate::{median, percentile, Metric, Outcome};

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Blocks the open-loop phase is split into (fewer when it is short).
const BLOCKS: usize = 40;
/// Fewest requests in a block.
const MIN_BLOCK: usize = 500;
/// Latency percentiles pool the samples of this share of the blocks,
/// those with the lowest median latency. A neighbour on a shared host,
/// or an inline snapshot, slows whole blocks and never speeds one up;
/// with half the blocks kept, such a stall has to cover half the phase
/// to move a percentile.
const KEEP_BLOCKS: f64 = 0.5;
/// Resident-set sampling period.
const RSS_EVERY: Duration = Duration::from_millis(50);

/// Boots the node(s) and runs the setup phase: spawn, wait for
/// `/oak/health`, then one report per user, closed loop.
fn setup(
    plan: &Plan,
    bin: &Path,
    inputs: &Path,
    state: &Path,
    threads: usize,
) -> Result<(Servers, Tally, f64), String> {
    let _ = std::fs::remove_dir_all(state);
    std::fs::create_dir_all(state).map_err(|e| format!("state dir: {e}"))?;
    let started = Instant::now();
    let mut servers = Servers::spawn(bin, inputs, state, plan.spec.store, plan.spec.cluster)
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    servers.wait_ready()?;
    let (tally, _) = loadgen::closed_loop(plan, servers.addr, &plan.seed_phase, threads, None);
    Ok((servers, tally, started.elapsed().as_secs_f64()))
}

pub fn run(plan: &Plan, bin: &Path, work: &Path, threads: usize) -> Result<Outcome, String> {
    let inputs = work.join("inputs");
    plan.write_inputs(&inputs)
        .map_err(|e| format!("writing inputs: {e}"))?;
    let mut all = Tally::default();
    let mut setups = Vec::new();
    let mut servers = None;
    for rep in 0..SETUP_REPS {
        let (node, tally, secs) = setup(
            plan,
            bin,
            &inputs,
            &work.join(format!("state{rep}")),
            threads,
        )?;
        setups.push(secs);
        all.absorb(tally);
        if rep + 1 < SETUP_REPS {
            node.stop();
        } else {
            servers = Some(node);
        }
    }
    let servers = servers.expect("at least one setup");

    // The server's resident set, sampled through the measured phases.
    let stop = AtomicBool::new(false);
    let (goodput, goodput_wall, latency, rss_samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                samples.extend(servers.rss_mb());
                std::thread::sleep(RSS_EVERY);
            }
            samples
        });
        let (goodput, wall) =
            loadgen::closed_loop(plan, servers.addr, &plan.goodput_phase, threads, None);
        let latency = loadgen::open_loop(
            plan,
            servers.addr,
            &plan.latency_phase,
            plan.spec.open_rate,
            threads,
            None,
        );
        stop.store(true, Ordering::Relaxed);
        let samples = sampler.join().expect("RSS sampler panicked");
        (goodput, wall, latency, samples)
    });
    servers.stop();
    let goodput_rps = (goodput.attempted - goodput.failed) as f64 / goodput_wall.as_secs_f64();

    // Rank the open-loop phase's blocks by their median latency, keep
    // the better half, and read each class's percentiles from the
    // pooled samples of the kept blocks.
    let n = plan.latency_phase.len();
    let blocks = (n / MIN_BLOCK).clamp(1, BLOCKS);
    let per = n.div_ceil(blocks);
    let block_of = |index: u32| (index as usize / per).min(blocks - 1);
    let mut by_block: Vec<Vec<f64>> = vec![Vec::new(); blocks];
    for &(index, us) in latency.page_us.iter().chain(&latency.report_us) {
        by_block[block_of(index)].push(us);
    }
    let mut ranked: Vec<(f64, usize)> = by_block
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .map(|(i, b)| (median(b), i))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut kept = vec![false; blocks];
    let keep = (ranked.len() as f64 * KEEP_BLOCKS).ceil() as usize;
    for &(_, i) in ranked.iter().take(keep.max(1)) {
        kept[i] = true;
    }
    let pooled = |samples: &[(u32, f64)]| {
        let mut us: Vec<f64> = samples
            .iter()
            .filter(|(i, _)| kept[block_of(*i)])
            .map(|(_, us)| *us)
            .collect();
        us.sort_by(f64::total_cmp);
        us
    };
    let pages = pooled(&latency.page_us);
    let reports = pooled(&latency.report_us);

    let slo_miss_frac = latency.slo_misses as f64 / latency.attempted.max(1) as f64;
    let max_lateness_us = latency.max_lateness_us;
    all.absorb(goodput);
    all.absorb(latency);
    let ok_frac = (all.attempted - all.failed) as f64 / all.attempted.max(1) as f64;
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("goodput_rps", goodput_rps, "1/s"),
        Metric::new("page_p50_ms", percentile(&pages, 0.50) / 1e3, "ms"),
        Metric::new("page_p90_ms", percentile(&pages, 0.90) / 1e3, "ms"),
        Metric::new("report_p50_ms", percentile(&reports, 0.50) / 1e3, "ms"),
        Metric::new("report_p90_ms", percentile(&reports, 0.90) / 1e3, "ms"),
        Metric::new("slo_miss_frac", slo_miss_frac, "fraction"),
        Metric::new("ok_frac", ok_frac, "fraction"),
        Metric::new("server_rss_mb", median(&rss_samples), "MiB"),
    ];
    Ok(Outcome {
        metrics,
        attempted: all.attempted,
        failed: all.failed,
        max_lateness_us,
        first_error: all.first_error,
    })
}
