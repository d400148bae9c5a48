//! `dist_journal`: the sweep's axes at one application per cell, run
//! through `run_dist_local_opts` with two loopback workers and an
//! fsync'd write-ahead `Journal` — the only workload on the
//! lease/frame/journal path. Cheap cells make coordination a larger
//! share of the run than in `sweep`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ftes_bench::dist::protocol::checksum;
use ftes_bench::dist::{
    load_journal, matrix_fingerprint, run_dist_local_opts, DistConfig, DistStats, Frame, Journal,
    LocalWorkerSpec, RunOpts,
};
use ftes_bench::matrix::{cell_json, run_cells};
use ftes_bench::{Strategy, ENGINE_VERSION};
use ftes_gen::Scenario;
use ftes_model::Cost;
use ftes_opt::CoreBudget;

use crate::stats::{mean, median, quantile};
use crate::sweep::{self, ARC, THREADS};
use crate::trace::{Recorder, Trace};
use crate::{passes_done, peak_rss_mb, reset_peak_rss, timed_setups, Opts, Report, SETUP_REPS};

/// The tail reported as `op_tail_ms`. One application per cell makes
/// cell times heavier-tailed than the sweep's two: p95 of a pass rests on
/// 21 distinct systems and swung by 20 % between seeds, p90 rests on 43.
const TAIL_Q: f64 = 0.90;
/// Cells run locally before timing (see `sweep`).
const WARM_CELLS: usize = 12;

/// The workload's cells: the sweep's axes at one application per cell,
/// every axis point twice (432 cells, as many systems as the sweep runs),
/// each cell with its own instance seed. Half as many cells would leave
/// each figure swinging with the few hundred systems a seed draws.
fn cells(opts: &Opts) -> Vec<Scenario> {
    let mut matrix = sweep::matrix(opts);
    matrix.app_counts = vec![1, 1];
    sweep::cells_of(opts, &matrix, 0)
}

/// Coordinator settings: the defaults, with timings rendered into each
/// payload (the per-cell engine time is the workload's op latency).
fn dist_config() -> DistConfig {
    DistConfig {
        timings: true,
        ..DistConfig::default()
    }
}

/// Removes the `wall_seconds` lines a timed payload carries, leaving
/// exactly the untimed rendering of the same cell.
fn strip_timings(payload: &str) -> String {
    const KEY: &str = ",\n          \"wall_seconds\": ";
    let mut out = String::with_capacity(payload.len());
    let mut rest = payload;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at]);
        rest = &rest[at + KEY.len()..];
        rest = &rest[rest.find('\n').unwrap_or(rest.len())..];
    }
    out.push_str(rest);
    out
}

/// Summed `wall_seconds` of a timed payload, in ms.
fn payload_ms(payload: &str) -> f64 {
    payload
        .split("\"wall_seconds\": ")
        .skip(1)
        .filter_map(|tail| {
            let end = tail.find(|c: char| c != '.' && !c.is_ascii_digit())?;
            tail[..end].parse::<f64>().ok()
        })
        .sum::<f64>()
        * 1e3
}

/// How many of `emitted` differ from `reference` on a deterministic field
/// (everything but the timings), counting missing or extra cells too.
pub fn artifact_mismatches(emitted: &[String], reference: &[String]) -> usize {
    let differing = emitted
        .iter()
        .zip(reference)
        .filter(|(got, want)| strip_timings(got) != **want)
        .count();
    differing + emitted.len().abs_diff(reference.len())
}

/// The accounting errors of one finished run: every cell emitted and
/// journaled exactly once, no result rejected or dropped.
fn accounting_errors(stats: &DistStats, total: usize) -> u64 {
    let total = total as u64;
    u64::from(stats.cells_emitted != total)
        + u64::from(stats.journaled_cells != total)
        + u64::from(stats.results_ok < total - stats.local_fallback_cells.min(total))
        + stats.results_rejected
        + stats.stale_results
}

/// One distributed pass's outcome.
struct Pass {
    wall_s: f64,
    payloads: Vec<String>,
    emit_at: Vec<f64>,
    stats: DistStats,
}

/// One distributed pass: fresh journal, two loopback workers, every
/// payload collected in emission order with its emit time. With a
/// recorder, the run and each emission get a span (the sink runs on the
/// coordinator's thread, inside the run).
fn dist_pass(
    cells: &[Scenario],
    fingerprint: &str,
    journal: &Path,
    mut rec: Option<&mut Recorder>,
) -> Result<Pass, String> {
    let run_span = rec.as_deref_mut().map(|r| r.enter("dist.run", 0));
    let started = Instant::now();
    let journal = Journal::create(
        &journal.to_string_lossy(),
        fingerprint,
        ENGINE_VERSION,
        cells.len(),
    )?;
    let workers = [1, 2].map(|seed| LocalWorkerSpec {
        seed,
        ..LocalWorkerSpec::default()
    });
    let mut payloads = Vec::with_capacity(cells.len());
    let mut emit_at = Vec::with_capacity(cells.len());
    let (stats, _) = run_dist_local_opts(
        cells,
        &Strategy::ALL,
        Cost::new(ARC),
        &dist_config(),
        &workers,
        CoreBudget::new(THREADS),
        RunOpts {
            journal: Some(journal),
            ..RunOpts::default()
        },
        |i, payload| {
            let span = rec.as_deref_mut().map(|r| r.enter("dist.emit", i as u64));
            emit_at.push(started.elapsed().as_secs_f64());
            payloads.push(payload.to_string());
            if let (Some(r), Some(span)) = (rec.as_deref_mut(), span) {
                r.exit(span);
            }
        },
    )?;
    let wall_s = started.elapsed().as_secs_f64();
    if let (Some(r), Some(span)) = (rec, run_span) {
        r.exit(span);
    }
    Ok(Pass {
        wall_s,
        payloads,
        emit_at,
        stats,
    })
}

/// Checks one pass against the local reference and its journal replay,
/// counting every mismatch as a failure.
fn check_pass(
    report: &mut Report,
    pass: &Pass,
    reference: &[String],
    fingerprint: &str,
    journal: &Path,
) {
    let mismatched = artifact_mismatches(&pass.payloads, reference);
    for i in 0..reference.len().max(pass.payloads.len()) {
        report.check(i >= mismatched);
    }
    let errors = accounting_errors(&pass.stats, reference.len());
    report.attempted += errors;
    report.failed += errors;
    // The journal must replay to exactly the emitted payloads.
    let replayed = load_journal(
        &journal.to_string_lossy(),
        fingerprint,
        ENGINE_VERSION,
        reference.len(),
    );
    let durable: Vec<String> = replayed
        .map(|r| r.payloads.into_values().collect())
        .unwrap_or_default();
    report.check(durable == pass.payloads);
}

/// The local reference: the same cells through the in-process matrix
/// runner, rendered without timings.
fn local_reference(cells: &[Scenario]) -> (f64, Vec<String>, f64) {
    let started = Instant::now();
    let report = run_cells(cells, &Strategy::ALL, &sweep::run_config());
    let wall = started.elapsed().as_secs_f64();
    let accept = mean(
        &report
            .cells
            .iter()
            .map(sweep::opt_acceptance)
            .collect::<Vec<_>>(),
    );
    let payloads = report
        .cells
        .iter()
        .map(|c| cell_json(c, Cost::new(ARC), false))
        .collect();
    (wall, payloads, accept)
}

fn work_path(opts: &Opts, name: &str) -> PathBuf {
    opts.work_dir.join(format!("dist-{name}"))
}

fn set_up(opts: &Opts, rep: usize) -> Result<(Vec<Scenario>, String), String> {
    let cells = cells(opts);
    let fingerprint = matrix_fingerprint(&cells, &Strategy::ALL, Cost::new(ARC), true);
    let path = work_path(opts, &format!("setup-{rep}.journal"));
    Journal::create(
        &path.to_string_lossy(),
        &fingerprint,
        ENGINE_VERSION,
        cells.len(),
    )?;
    sweep::warm_up(&cells, WARM_CELLS);
    let _ = std::fs::remove_file(&path);
    Ok((cells, fingerprint))
}

/// Runs the workload (see the module docs).
///
/// # Errors
///
/// Returns a one-line description when the coordinator cannot bind or
/// the journal cannot be created.
pub fn run(opts: &Opts) -> Result<Report, String> {
    if opts.trace {
        return run_traced(opts);
    }
    let mut report = Report::default();
    let (setup_s, (cells, fingerprint)) = timed_setups(SETUP_REPS, |rep| set_up(opts, rep))?;
    report.put("setup_s", setup_s);

    let (_, reference, accept) = local_reference(&cells);
    let journal = work_path(opts, "run.journal");
    let deadline = opts.deadline(1.0);
    let (mut rates, mut cell_times) = (Vec::new(), Vec::new());
    reset_peak_rss();
    loop {
        let pass = dist_pass(&cells, &fingerprint, &journal, None)?;
        check_pass(&mut report, &pass, &reference, &fingerprint, &journal);
        rates.push(cells.len() as f64 / pass.wall_s);
        cell_times.extend(pass.payloads.iter().map(|p| payload_ms(p)));
        if passes_done(deadline, pass.wall_s) {
            break;
        }
    }
    report.put("ops_per_s", median(&rates));
    report.put("op_p50_ms", median(&cell_times));
    report.put("op_tail_ms", quantile(&cell_times, TAIL_Q));
    report.put("opt_accept_pct", accept);
    report.put("proc.peak_rss_mb", peak_rss_mb());
    report.note(format!(
        "dist_journal: {} cells x {} passes over 2 loopback workers; ops_per_s = median \
         over passes; op = one cell's engine time on its worker; \
         op_tail_ms = p90 of {} samples",
        cells.len(),
        rates.len(),
        cell_times.len()
    ));
    Ok(report)
}

fn run_traced(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let (cells, fingerprint) = set_up(opts, 0)?;
    let journal = work_path(opts, "run.journal");
    let (local_wall, reference, _) = local_reference(&cells);

    // Untraced pass: the dist counters, the emit gaps and the baseline
    // of the tracing overhead.
    reset_peak_rss();
    let untraced = dist_pass(&cells, &fingerprint, &journal, None)?;
    report.put("proc.peak_rss_mb", peak_rss_mb());
    check_pass(&mut report, &untraced, &reference, &fingerprint, &journal);
    let gaps: Vec<f64> = untraced
        .emit_at
        .windows(2)
        .map(|w| (w[1] - w[0]) * 1e3)
        .collect();
    report.put("dist.overhead_ratio", untraced.wall_s / local_wall);
    report.put("dist.emit_gap_ms.p50", median(&gaps));
    report.put("dist.emit_gap_ms.p95", quantile(&gaps, 0.95));
    let s = &untraced.stats;
    report.put("dist.leases_granted", s.leases_granted as f64);
    report.put("dist.leases_requeued", s.leases_requeued as f64);
    report.put("dist.results_rejected", s.results_rejected as f64);
    report.put("dist.duplicates_dropped", s.duplicates_dropped as f64);
    report.put("dist.local_fallback_cells", s.local_fallback_cells as f64);

    // Traced pass: the same run with spans.
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 0);
    let traced = dist_pass(&cells, &fingerprint, &journal, Some(&mut rec))?;
    let traced_wall = origin.elapsed().as_secs_f64();
    check_pass(&mut report, &traced, &reference, &fingerprint, &journal);
    let mut trace = Trace::default();
    trace.absorb(rec);
    report.put("trace.coverage", trace.coverage(1, traced_wall));
    report.put("trace.overhead", traced.wall_s / untraced.wall_s - 1.0);

    replay_frames_and_journal(&mut report, opts, &untraced.payloads, &fingerprint)?;
    report.note(format!(
        "dist_journal traced: {} cells; local {local_wall:.2} s, dist untraced {:.2} s, \
         traced {:.2} s",
        cells.len(),
        untraced.wall_s,
        traced.wall_s
    ));
    trace.write_jsonl(
        &opts
            .work_dir
            .join(format!("trace-dist_journal-{}.jsonl", opts.seed)),
    )?;
    Ok(report)
}

/// Replays the frame codec and the journal on the run's own payloads:
/// `Frame` render + parse per result, `Journal::append_cell` (with its
/// fsync) per cell into a fresh journal, then one `load_journal`.
fn replay_frames_and_journal(
    report: &mut Report,
    opts: &Opts,
    payloads: &[String],
    fingerprint: &str,
) -> Result<(), String> {
    let mut frame_us = Vec::with_capacity(payloads.len());
    for (cell, payload) in payloads.iter().enumerate() {
        let frame = Frame::Result {
            lease: cell as u64 + 1,
            cell,
            epoch: 1,
            crc: checksum(payload),
            payload: payload.clone(),
        };
        let started = Instant::now();
        let line = frame.render();
        let parsed = Frame::parse(line.trim_end());
        frame_us.push(started.elapsed().as_secs_f64() * 1e6);
        report.check(parsed.as_ref() == Ok(&frame));
    }
    report.put("dist.frame_us", median(&frame_us));

    let path = work_path(opts, "replay.journal");
    let path_str = path.to_string_lossy();
    let mut journal = Journal::create(&path_str, fingerprint, ENGINE_VERSION, payloads.len())?;
    let header_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let mut append_ms = Vec::with_capacity(payloads.len());
    for (cell, payload) in payloads.iter().enumerate() {
        let started = Instant::now();
        let ok = journal.append_cell(cell, payload).is_ok();
        append_ms.push(started.elapsed().as_secs_f64() * 1e3);
        report.check(ok);
    }
    drop(journal);
    let total_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let started = Instant::now();
    let replay = load_journal(&path_str, fingerprint, ENGINE_VERSION, payloads.len());
    report.put("journal.replay_ms", started.elapsed().as_secs_f64() * 1e3);
    let expected: BTreeMap<usize, String> = payloads.iter().cloned().enumerate().collect();
    report.check(replay.is_ok_and(|r| r.payloads == expected));
    report.put("journal.append_ms.p50", median(&append_ms));
    report.put("journal.append_ms.p99", quantile(&append_ms, 0.99));
    report.put(
        "journal.bytes_per_record",
        (total_bytes - header_bytes) as f64 / payloads.len().max(1) as f64,
    );
    let _ = std::fs::remove_file(&path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripping_timings_gives_the_untimed_rendering() {
        let timed = "{\n  \"best_cost\": [3],\n          \"schedule_len_us\": [9],\n          \"wall_seconds\": 0.012345\n        }";
        let untimed = "{\n  \"best_cost\": [3],\n          \"schedule_len_us\": [9]\n        }";
        assert_eq!(strip_timings(timed), untimed);
        assert!((payload_ms(timed) - 12.345).abs() < 1e-9);
    }
}
