//! `sweep`: the batch matrix sweep users run — `ScenarioMatrix::full_v2()`
//! through `run_cells_streaming` at `Threads(2)`. The engine (`gen` →
//! `opt` → `sched`/`sfp`) does almost all the work; there are no
//! sockets and no cache.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ftes_bench::matrix::{
    cell_json, run_cells, run_cells_streaming, CellResult, MatrixRunConfig, StrategyCell,
};
use ftes_bench::{sweep_opt_config, Strategy};
use ftes_gen::{Scenario, ScenarioMatrix};
use ftes_model::{Architecture, Cost, NodeId, Prob, ProcessId, System, TimeUs};
use ftes_opt::{
    design_strategy_budgeted, initial_mapping, CoreBudget, Evaluator, ExplorationStats, MemoCap,
    OptConfig, RedundancyMemo, Threads,
};
use ftes_sched::{PriorityCache, Scheduler, SlackModel};
use ftes_sfp::{Rounding, SystemSfp};

use crate::stats::{mean, median, paired_overhead, quantile, ratio};
use crate::trace::{Recorder, Trace};
use crate::{
    passes_done, peak_rss_mb, reset_peak_rss, timed_setups, Opts, Report, Rng, SETUP_REPS,
};

/// Acceptance threshold (ArC) the matrix runner evaluates cells at.
pub const ARC: u64 = 20;
/// Worker threads: the box's two cores.
pub const THREADS: usize = 2;
/// Cells run once before timing, so lazy set-up (page faults, thread
/// start, allocator growth) is paid in `setup_s`.
const WARM_CELLS: usize = 8;
/// The tail reported as `op_tail_ms`: 216 cells per pass leave 10
/// samples beyond p95.
const TAIL_Q: f64 = 0.95;
/// Generated systems the kernel replays run on.
const KERNEL_SYSTEMS: usize = 6;
/// One cell in this many of every pass is run again after the timed
/// phase and must reproduce its timed result (6 cells a pass).
const RECHECK_EVERY: usize = 36;

/// The matrix-runner configuration every matrix workload uses.
pub fn run_config() -> MatrixRunConfig {
    MatrixRunConfig {
        arc: Cost::new(ARC),
        threads: Threads(THREADS),
        shard: None,
        progress: false,
    }
}

/// The workload's matrix axes: the full v2 sweep (the CI smoke axes
/// when `small`).
pub fn matrix(opts: &Opts) -> ScenarioMatrix {
    if opts.small {
        ScenarioMatrix::smoke()
    } else {
        ScenarioMatrix::full_v2()
    }
}

/// The matrix's cells for pass `pass` (a few when `small`), each with
/// its own instance seed drawn from the workload seed and the pass. One
/// matrix-wide seed would give every cell the same few task graphs (only
/// the shape axis re-samples), so a run would measure six systems instead
/// of hundreds and every figure would swing with the seed.
pub fn cells_of(opts: &Opts, matrix: &ScenarioMatrix, pass: usize) -> Vec<Scenario> {
    let mut cells = matrix.cells();
    if opts.small {
        cells.truncate(4);
    }
    let first_stream = 10_000 + (pass * 1_000_000) as u64;
    for (i, cell) in cells.iter_mut().enumerate() {
        cell.base.seed = Rng::new(opts.seed, first_stream + i as u64).next_u64();
    }
    cells
}

/// Engine wall time of one cell (all strategies), in ms.
pub fn cell_ms(cell: &CellResult) -> f64 {
    cell.strategies.iter().map(|s| s.wall_seconds).sum::<f64>() * 1e3
}

/// The ArC thresholds `opt_accept_pct` averages over (the serve loads
/// draw their requests' ArC from the same grid).
pub const ARC_GRID: [u64; 16] = [
    10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40,
];

/// OPT acceptance of a list of best costs, in percent, averaged over
/// [`ARC_GRID`]: per application the share of grid thresholds its cost
/// fits under (none when infeasible). This is the area under Fig. 6's
/// acceptance-versus-ArC curve; at a single threshold every application
/// counts 0 or 1 and the figure swings with the seed.
pub fn opt_accept_area(best_cost: &[Option<u64>]) -> f64 {
    let fits = |cost: u64| ARC_GRID.iter().filter(|&&arc| cost <= arc).count();
    let total: usize = best_cost.iter().flatten().map(|&c| fits(c)).sum();
    100.0 * total as f64 / (ARC_GRID.len() * best_cost.len().max(1)) as f64
}

/// OPT acceptance of a cell (see [`opt_accept_area`]).
pub fn opt_acceptance(cell: &CellResult) -> f64 {
    cell.strategies
        .iter()
        .find(|s| s.strategy == Strategy::Opt)
        .map_or(0.0, |s| opt_accept_area(&s.best_cost))
}

/// Whether two runs of a cell agree on every deterministic field: costs,
/// schedule lengths and acceptance (the untimed rendering).
pub fn same_results(a: &CellResult, b: &CellResult) -> bool {
    cell_json(a, Cost::new(ARC), false) == cell_json(b, Cost::new(ARC), false)
}

/// Whether a cell carries one row per strategy with one entry per
/// application.
fn well_formed(cell: &CellResult) -> bool {
    cell.strategies.len() == Strategy::ALL.len()
        && cell.strategies.iter().all(|s| {
            s.best_cost.len() == cell.scenario.apps && s.schedule_len_us.len() == cell.scenario.apps
        })
}

/// One untraced pass over `cells`: the deterministic payload of each cell
/// (costs, schedule lengths and acceptance, no timings) plus the cells.
fn pass(cells: &[Scenario]) -> (f64, Vec<CellResult>) {
    let started = Instant::now();
    let mut out = Vec::with_capacity(cells.len());
    run_cells_streaming(cells, &Strategy::ALL, &run_config(), |_, cell| {
        out.push(cell)
    });
    (started.elapsed().as_secs_f64(), out)
}

/// `count` cells spread evenly over `cells`.
fn warm_cells(cells: &[Scenario], count: usize) -> Vec<Scenario> {
    let step = (cells.len() / count.max(1)).max(1);
    cells.iter().step_by(step).take(count).cloned().collect()
}

/// Runs [`WARM_CELLS`] cells spread over the matrix at the generator's
/// default seed: warm-up is not measured work, so it does not vary with
/// the workload seed.
pub fn warm_up(cells: &[Scenario], count: usize) {
    let mut warm = warm_cells(cells, count);
    for cell in &mut warm {
        cell.base.seed = ftes_gen::ExperimentConfig::default().seed;
    }
    run_cells(&warm, &Strategy::ALL, &run_config());
}

fn set_up(opts: &Opts) -> Vec<Scenario> {
    let cells = cells_of(opts, &matrix(opts), 0);
    warm_up(&cells, WARM_CELLS);
    cells
}

/// Runs the workload (see the module docs).
///
/// # Errors
///
/// Propagates scratch-file errors from the traced variant.
pub fn run(opts: &Opts) -> Result<Report, String> {
    if opts.trace {
        return run_traced(opts);
    }
    let mut report = Report::default();
    let (setup_s, cells) = timed_setups(SETUP_REPS, |_| Ok(set_up(opts)))?;
    report.put("setup_s", setup_s);

    // Every pass draws fresh instances of the matrix's cells, so a run
    // measures a few hundred systems per pass rather than the same ones
    // again, and its figures follow the seed less.
    let matrix = matrix(opts);
    let deadline = opts.deadline(1.0);
    let mut cells = cells;
    let (mut cell_times, mut accept, mut recheck) = (Vec::new(), Vec::new(), Vec::new());
    let (mut passes, mut wall_s) = (0, 0.0);
    reset_peak_rss();
    loop {
        let (wall, results) = pass(&cells);
        wall_s += wall;
        for (i, cell) in results.into_iter().enumerate() {
            cell_times.push(cell_ms(&cell));
            accept.push(opt_acceptance(&cell));
            report.check(well_formed(&cell));
            if i % RECHECK_EVERY == passes % RECHECK_EVERY {
                recheck.push(cell);
            }
        }
        passes += 1;
        if passes_done(deadline, wall) {
            break;
        }
        cells = cells_of(opts, &matrix, passes);
    }
    report.put("ops_per_s", cell_times.len() as f64 / wall_s);
    report.put("op_p50_ms", median(&cell_times));
    report.put("op_tail_ms", quantile(&cell_times, TAIL_Q));
    report.put("opt_accept_pct", mean(&accept));
    report.put("proc.peak_rss_mb", peak_rss_mb());

    // Cells run again, untimed, must reproduce their timed results.
    let scenarios: Vec<Scenario> = recheck.iter().map(|c| c.scenario.clone()).collect();
    let again = run_cells(&scenarios, &Strategy::ALL, &run_config()).cells;
    report.check(again.len() == recheck.len());
    for (timed, again) in recheck.iter().zip(&again) {
        report.check(same_results(timed, again));
    }
    report.note(format!(
        "sweep: {} cells x {passes} passes, fresh instances each pass; ops_per_s = cells \
         over the passes' summed wall; op = one cell's engine time; op_tail_ms = p95 of \
         {} samples; {} cells re-run and compared",
        cells.len(),
        cell_times.len(),
        recheck.len()
    ));
    Ok(report)
}

/// The span name of one strategy's design call.
fn design_span(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Max => "opt.design.max",
        Strategy::Min => "opt.design.min",
        Strategy::Opt => "opt.design.opt",
    }
}

/// One cell driven call by call with spans: `Scenario::generate` and
/// `design_strategy_budgeted` per (strategy, application), in the same
/// order and with the same configuration as the matrix runner at one
/// core per cell. Returns `None` when the engine reports an error.
fn traced_cell(
    scenario: &Scenario,
    id: u64,
    rec: &mut Recorder,
) -> Option<(CellResult, Vec<ExplorationStats>)> {
    let mut rows = Vec::with_capacity(Strategy::ALL.len());
    let mut stats = Vec::new();
    for strategy in Strategy::ALL {
        let config = OptConfig {
            threads: Threads(0),
            ..sweep_opt_config(strategy)
        };
        let mut best_cost = Vec::with_capacity(scenario.apps);
        let mut schedule_len_us = Vec::with_capacity(scenario.apps);
        for app in 0..scenario.apps {
            let system = rec.span("gen.generate", id, |_| scenario.generate(app as u64));
            let outcome = rec
                .span(design_span(strategy), id, |_| {
                    design_strategy_budgeted(&system, &config, CoreBudget::new(1))
                })
                .ok()?;
            best_cost.push(outcome.as_ref().map(|o| o.solution.cost.units()));
            schedule_len_us.push(
                outcome
                    .as_ref()
                    .map(|o| o.solution.schedule_length().as_us()),
            );
            if let Some(o) = outcome {
                stats.push(o.stats);
            }
        }
        rows.push(StrategyCell {
            strategy,
            best_cost,
            schedule_len_us,
            wall_seconds: 0.0,
        });
    }
    Some((
        CellResult {
            scenario: scenario.clone(),
            strategies: rows,
        },
        stats,
    ))
}

/// One call-by-call cell: its result and exploration counters (`None`
/// when the engine reported an error) and its wall time in ms.
type TracedCell = (Option<(CellResult, Vec<ExplorationStats>)>, f64);

/// Cells per block of the call-by-call passes (see [`run_traced`]).
const OVERHEAD_BLOCK: usize = 24;

/// A call-by-call pass over `cells`, whose ids start at `first_id`: a
/// pool of [`THREADS`] workers claiming cells off a shared cursor, each
/// recording its own spans into `trace` when one is given (without, the
/// same pool runs with recorders that record nothing). Returns the wall
/// time in seconds and the cells.
fn traced_pass(
    cells: &[Scenario],
    first_id: usize,
    origin: Instant,
    trace: Option<&mut Trace>,
) -> (f64, Vec<TracedCell>) {
    let started = Instant::now();
    let record = trace.is_some();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<TracedCell>> = cells.iter().map(|_| Mutex::new((None, 0.0))).collect();
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (next, slots) = (&next, &slots);
                scope.spawn(move || {
                    let mut rec = if record {
                        Recorder::new(origin, t as u32)
                    } else {
                        Recorder::off()
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cells.len() {
                            break rec;
                        }
                        let id = (first_id + i) as u64;
                        let cell_started = Instant::now();
                        let out =
                            rec.span("matrix.cell", id, |rec| traced_cell(&cells[i], id, rec));
                        let ms = cell_started.elapsed().as_secs_f64() * 1e3;
                        *slots[i].lock().expect("slot poisoned") = (out, ms);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    if let Some(trace) = trace {
        for rec in recorders {
            trace.absorb(rec);
        }
    }
    let results = slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot poisoned"))
        .collect();
    (wall, results)
}

fn run_traced(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let cells = set_up(opts);

    // Untraced pass through the matrix runner: the reference results and
    // the pool metrics.
    reset_peak_rss();
    let (wall_u, untraced) = pass(&cells);
    report.put("proc.peak_rss_mb", peak_rss_mb());
    let cell_times: Vec<f64> = untraced.iter().map(cell_ms).collect();
    report.put("matrix.cell_ms.p50", median(&cell_times));
    report.put("matrix.cell_ms.p95", quantile(&cell_times, 0.95));
    report.put(
        "matrix.pool_utilization",
        cell_times.iter().sum::<f64>() / 1e3 / (THREADS as f64 * wall_u),
    );

    // The same cells driven call by call, block by block: each block once
    // without spans (the baseline of the tracing overhead) and once with
    // them, in alternating order, so the machine's drift over the run
    // falls on both alike. The overhead pairs each cell's two times. The
    // costs and schedule lengths of both must equal the untraced pass's.
    let origin = Instant::now();
    let mut trace = Trace::default();
    let (mut wall_b, mut wall_t) = (0.0, 0.0);
    let (mut baseline, mut traced) = (Vec::new(), Vec::new());
    for (b, block) in cells.chunks(OVERHEAD_BLOCK).enumerate() {
        let order = if b % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for record in order {
            let first_id = b * OVERHEAD_BLOCK;
            if record {
                let (wall, cells) = traced_pass(block, first_id, origin, Some(&mut trace));
                wall_t += wall;
                traced.extend(cells);
            } else {
                let (wall, cells) = traced_pass(block, first_id, origin, None);
                wall_b += wall;
                baseline.extend(cells);
            }
        }
    }
    let mut all_stats = Vec::new();
    for ((reference, (baseline, _)), (traced, _)) in untraced.iter().zip(&baseline).zip(&traced) {
        for cell in [baseline, traced] {
            report.check(
                cell.as_ref()
                    .is_some_and(|(cell, _)| same_results(cell, reference)),
            );
        }
        if let Some((_, stats)) = traced {
            all_stats.extend(stats.iter().copied());
        }
    }
    put_opt_counters(&mut report, &all_stats);

    let by_name = trace.self_ms_by_name();
    let spans = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    report.put("gen.generate_ms", median(&spans("gen.generate")));
    for (strategy, label) in [
        (Strategy::Max, "max"),
        (Strategy::Min, "min"),
        (Strategy::Opt, "opt"),
    ] {
        let times = spans(design_span(strategy));
        report.put(&format!("opt.design_ms.{label}.p50"), median(&times));
        report.put(
            &format!("opt.design_ms.{label}.p95"),
            quantile(&times, 0.95),
        );
    }
    report.put("trace.coverage", trace.coverage(THREADS, wall_t));
    let times = |cells: &[TracedCell]| cells.iter().map(|(_, ms)| *ms).collect::<Vec<_>>();
    report.put(
        "trace.overhead",
        paired_overhead(&times(&baseline), &times(&traced)),
    );
    report.note(format!(
        "sweep traced: {} cells; matrix-runner pass {wall_u:.2} s, call-by-call pass \
         {wall_b:.2} s untraced and {wall_t:.2} s traced (alternating blocks of \
         {OVERHEAD_BLOCK} cells); {} design calls",
        cells.len(),
        spans("opt.design.opt").len() * 3
    ));

    replay_kernels(&mut report, &cells);
    trace.write_jsonl(
        &opts
            .work_dir
            .join(format!("trace-sweep-{}.jsonl", opts.seed)),
    )?;
    Ok(report)
}

/// Sums the exploration counters of every design call of the traced pass.
fn put_opt_counters(report: &mut Report, stats: &[ExplorationStats]) {
    let sum = |f: &dyn Fn(&ExplorationStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let evals = sum(&|s| s.eval.evaluations);
    report.put(
        "opt.archs_evaluated",
        sum(&|s| u64::from(s.architectures_evaluated)),
    );
    report.put(
        "opt.archs_pruned",
        sum(&|s| u64::from(s.architectures_pruned)),
    );
    report.put("opt.evals", evals);
    report.put(
        "opt.evals_executed",
        sum(&|s| s.eval.evaluations_executed()),
    );
    report.put(
        "opt.eval_hit_ratio",
        ratio(sum(&|s| s.eval.cache_hits), evals),
    );
    let memo_hits = sum(&|s| s.eval.mapping_memo_hits);
    report.put(
        "opt.mapping_memo_hit_ratio",
        ratio(memo_hits, memo_hits + sum(&|s| s.eval.mapping_memo_misses)),
    );
    let reused = sum(&|s| s.eval.sfp_nodes_reused);
    report.put(
        "opt.sfp_reuse_ratio",
        ratio(reused, reused + sum(&|s| s.eval.sfp_nodes_computed)),
    );
    let prio_reused = sum(&|s| s.eval.priority_reused);
    report.put(
        "opt.priority_reuse_ratio",
        ratio(
            prio_reused,
            prio_reused + sum(&|s| s.eval.priority_recomputed),
        ),
    );
    report.put("opt.batched_probes", sum(&|s| s.eval.batched_probes));
    report.put("opt.warm_seeded", sum(&|s| u64::from(s.warm_seeded)));
}

/// Mean µs per call of `f`: the median over five batches, each at least
/// 2 ms long, after three warm-up calls.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut batches = Vec::with_capacity(5);
    for _ in 0..5 {
        let started = Instant::now();
        let mut calls = 0u32;
        while calls < 5 || started.elapsed().as_micros() < 2_000 {
            f();
            calls += 1;
        }
        batches.push(started.elapsed().as_secs_f64() * 1e6 / f64::from(calls));
    }
    median(&batches)
}

/// Replays the evaluation kernels on systems the sweep generated, at the
/// design point the hot-kernel benches use: the two fastest node types at
/// minimum hardening with the greedy initial mapping.
fn replay_kernels(report: &mut Report, cells: &[Scenario]) {
    let step = (cells.len() / KERNEL_SYSTEMS).max(1);
    let (mut flat, mut delta, mut splice, mut neighborhood) = (vec![], vec![], vec![], vec![]);
    for scenario in cells.iter().step_by(step).take(KERNEL_SYSTEMS) {
        let system = scenario.generate(0);
        let Some(k) = kernel_times(&system) else {
            continue;
        };
        flat.push(k[0]);
        delta.push(k[1]);
        if k[2] > 0.0 {
            splice.push(k[2]);
        }
        neighborhood.push(k[3]);
    }
    report.put("sched.run_light_flat_us", median(&flat));
    report.put("sched.priority_delta_us", median(&delta));
    report.put("sfp.splice_us", median(&splice));
    report.put("opt.score_neighborhood_us", median(&neighborhood));
    report.note(format!(
        "kernels replayed on {} generated systems",
        flat.len()
    ));
}

/// `[run_light_flat, priority delta sync, SFP splice, score_neighborhood]`
/// µs per call on one system (splice is 0 when node 0 holds fewer than
/// two processes).
fn kernel_times(system: &System) -> Option<[f64; 4]> {
    let app = system.application();
    let timing = system.timing();
    let ids = system.platform().ids_fastest_first();
    if ids.len() < 2 {
        return None;
    }
    let arch = Architecture::with_min_hardening(&[ids[0], ids[1]]);
    let mut mapping = initial_mapping(system, &arch).ok()?;

    let mut cache = PriorityCache::new();
    let priorities = cache.sync(app, timing, &arch, &mapping).ok()?.to_vec();
    let wcets: Vec<TimeUs> = app
        .process_ids()
        .map(|p| {
            let inst = arch.node(mapping.node_of(p));
            timing.wcet(p, inst.node_type, inst.hardening)
        })
        .collect::<Result<_, _>>()
        .ok()?;
    let preds: Vec<usize> = app.process_ids().map(|p| app.incoming(p).len()).collect();
    let ks = vec![1u32; arch.node_count()];
    let mut scheduler = Scheduler::new();
    let flat = per_call_us(|| {
        black_box(
            scheduler
                .run_light_flat(
                    app,
                    &mapping,
                    black_box(&ks),
                    system.bus(),
                    SlackModel::Shared,
                    &priorities,
                    &wcets,
                    &preds,
                )
                .expect("consistent inputs"),
        );
    });

    // Priority delta: re-map one process away and back, each followed
    // by a delta sync (the tabu move pattern).
    let (p, home, away) = app.process_ids().find_map(|p| {
        let home = mapping.node_of(p);
        let away = NodeId::new(u32::from(home.index() == 0));
        timing
            .supports(p, arch.node_type(away))
            .then_some((p, home, away))
    })?;
    let delta = per_call_us(|| {
        mapping.assign(p, away);
        black_box(
            cache
                .sync(app, timing, &arch, &mapping)
                .expect("supported move"),
        );
        mapping.assign(p, home);
        black_box(
            cache
                .sync(app, timing, &arch, &mapping)
                .expect("supported move"),
        );
    }) / 2.0;

    // SFP splice: node 0's failure probabilities flipped between its full
    // member set and the set minus its first process (both memoized).
    let inst = arch.node(NodeId::new(0));
    let members: Vec<Prob> = app
        .process_ids()
        .filter(|&q| mapping.node_of(q) == NodeId::new(0))
        .map(|q| timing.pfail(q, inst.node_type, inst.hardening))
        .collect::<Result<_, _>>()
        .ok()?;
    let splice = if members.len() >= 2 {
        let mut sfp = SystemSfp::new(arch.node_count(), 16, Rounding::Exact);
        sfp.set_node_probs(1, &members[1..]);
        let (full, cut) = (&members[..], &members[1..]);
        per_call_us(|| {
            sfp.set_node_probs(0, black_box(full));
            sfp.set_node_probs(0, black_box(cut));
        }) / 2.0
    } else {
        0.0
    };

    // One batched neighborhood scoring over every single-process re-map.
    let config = sweep_opt_config(Strategy::Opt);
    let probes: Vec<(ProcessId, NodeId)> = app
        .process_ids()
        .flat_map(|q| {
            let from = mapping.node_of(q);
            arch.node_ids()
                .filter(|&n| n != from && timing.supports(q, arch.node_type(n)))
                .map(move |n| (q, n))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut evaluator = Evaluator::new(system, &config);
    let mut memo = RedundancyMemo::new(MemoCap(0));
    let mut outcomes = Vec::new();
    let neighborhood = per_call_us(|| {
        evaluator
            .score_neighborhood(
                &mut memo,
                &arch,
                &mut mapping,
                black_box(&probes),
                &mut outcomes,
            )
            .expect("valid probes");
        black_box(outcomes.len());
    });
    Some([flat, delta, splice, neighborhood])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_cost_or_schedule_length_is_a_mismatch() {
        let cell = CellResult {
            scenario: Scenario::new(
                ftes_gen::BusProfile::Ideal,
                ftes_gen::Heterogeneity::Mild,
                ftes_gen::Utilization::Relaxed,
                1,
            ),
            strategies: vec![StrategyCell {
                strategy: Strategy::Opt,
                best_cost: vec![Some(12)],
                schedule_len_us: vec![Some(900)],
                wall_seconds: 0.5,
            }],
        };
        let mut timed = cell.clone();
        timed.strategies[0].wall_seconds = 9.0;
        assert!(same_results(&cell, &timed), "timings are not compared");
        let mut cost = cell.clone();
        cost.strategies[0].best_cost[0] = Some(13);
        assert!(!same_results(&cell, &cost));
        assert_eq!(opt_acceptance(&cell), 100.0 * 15.0 / 16.0);
        assert_eq!(opt_accept_area(&[Some(10), None]), 50.0);
        let mut len = cell.clone();
        len.strategies[0].schedule_len_us[0] = None;
        assert!(!same_results(&cell, &len));
    }
}
