//! `DesignStrategy` — the top-level exploration of Fig. 5.
//!
//! The strategy walks candidate architectures from one node upwards,
//! fastest architectures first. For every architecture it
//!
//! 1. sets minimum hardening and prunes by cost against the best-so-far
//!    (`Cbest`, Fig. 5 line 6);
//! 2. runs `MappingAlgorithm` minimizing **schedule length**; if the result
//!    misses the deadline, the node count is increased (line 15);
//! 3. otherwise runs `MappingAlgorithm` minimizing **architecture cost**
//!    and updates `Cbest` (lines 9–13).
//!
//! The paper's MIN and MAX baselines are the same exploration with the
//! hardening policy pinned (Section 7).
//!
//! ## Parallel exploration
//!
//! With [`Threads`](crate::config::Threads) ≠ 1, the architectures of each
//! node count are fanned out across a `std::thread::scope` worker pool
//! pulling indices from a shared queue, with `Cbest` in an `AtomicU64` so
//! every worker prunes against the globally best cost found so far. The
//! result is **bit-identical to the sequential walk** for any thread
//! count: workers produce per-architecture *hints*, and a deterministic
//! single-threaded reduce replays the sequential accept/prune/stop walk of
//! Fig. 5 over them in enumeration order — candidates are ranked by (cost,
//! walk order), never by arrival order. A worker skips an architecture
//! only when the skip is provably order-independent (its minimum cost is
//! at least the batch-start `Cbest`, or strictly above the live atomic);
//! if the replay nevertheless needs a skipped slot, it evaluates it on the
//! spot. Evaluation itself is stateless-deterministic, so a hint computed
//! by any worker equals what the replay would compute inline.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ftes_model::{Architecture, Cost, Mapping, ModelError, NodeTypeId, System};
use serde::{Deserialize, Serialize};

use crate::arch_iter::architectures_with_n_nodes;
use crate::config::{CoreBudget, Objective, OptConfig, WarmStart};
use crate::evaluation::Solution;
use crate::incremental::{Candidate, EvalStats, Evaluator};
use crate::mapping_opt::mapping_algorithm_with;
use crate::redundancy::RedundancyMemo;

/// Statistics of one design-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExplorationStats {
    /// Architectures whose mapping optimization was run.
    pub architectures_evaluated: u32,
    /// Architectures skipped by the `Cbest` cost pruning.
    pub architectures_pruned: u32,
    /// Worker threads the exploration actually ran on — the peak
    /// architecture-level concurrency (regression anchor for the
    /// `Threads(0)`-inside-a-`CoreBudget` over-claim).
    pub worker_threads: u32,
    /// Architectures whose tabu search was seeded from a validated
    /// [`WarmStart`] donor (0 on cold runs and when the seed failed
    /// validation or its architecture was never walked).
    pub warm_seeded: u32,
    /// Candidate-evaluation counters of the incremental engine, summed
    /// over all workers (these depend on worker timing, unlike the
    /// architecture counters, which replay the sequential walk exactly).
    pub eval: EvalStats,
}

/// One worker's private search state: the incremental candidate evaluator
/// plus the cross-iteration mapping-outcome memo. Kept together so both
/// memo layers persist across every probe the worker runs.
#[derive(Debug)]
struct SearchState<'a> {
    evaluator: Evaluator<'a>,
    memo: RedundancyMemo,
}

/// Outcome of [`design_strategy`]: the cheapest schedulable, reliable
/// solution plus exploration statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignOutcome {
    /// The best solution (`AR_best` in Fig. 5).
    pub solution: Solution,
    /// Exploration statistics.
    pub stats: ExplorationStats,
}

/// Result of the Fig. 5 inner loop (lines 7–13) for one architecture.
enum ArchOutcome {
    /// Mapping optimization ran; `None` = reliability goal unreachable on
    /// this architecture (Fig. 5 discards it silently).
    Evaluated(Option<Arc<Candidate>>),
    /// Not schedulable even at the best schedule-length mapping: Fig. 5
    /// line 15 — the walk of this node count stops and `n` grows.
    Unschedulable,
}

/// Runs the full design strategy on a system: selects node types,
/// hardening levels, mapping and re-execution budgets minimizing the
/// architecture cost subject to deadlines and the reliability goal.
///
/// Architectures are explored with `config.threads` workers — the result
/// is independent of the thread count — and candidates are evaluated
/// through the incremental engine unless `config.eval_mode` opts into the
/// from-scratch specification path.
///
/// Returns `Ok(None)` when no explored architecture yields a schedulable
/// solution that meets the reliability goal.
///
/// # Errors
///
/// Propagates model errors (inconsistent system specifications).
///
/// # Examples
///
/// On the paper's Fig. 1 example the strategy finds a two-node solution at
/// least as cheap as the paper's Fig. 4a optimum (72 units; with the
/// reconstructed tables the search finds an even cheaper mixed-hardening
/// alternative):
///
/// ```
/// use ftes_model::{paper, Cost};
/// use ftes_opt::{design_strategy, OptConfig};
///
/// let sys = paper::fig1_system();
/// let best = design_strategy(&sys, &OptConfig::default())?
///     .expect("a feasible architecture exists");
/// assert!(best.solution.cost <= Cost::new(72));
/// # Ok::<(), ftes_model::ModelError>(())
/// ```
pub fn design_strategy(
    system: &System,
    config: &OptConfig,
) -> Result<Option<DesignOutcome>, ModelError> {
    design_strategy_budgeted(system, config, CoreBudget::available())
}

/// [`design_strategy`] under an explicit [`CoreBudget`]: `Threads(0)` in
/// `config` resolves to the **budget's** share instead of the whole
/// machine, so a design run nested inside an enclosing worker pool (a
/// matrix cell, an application fan-out) can request "all available
/// parallelism" without over-claiming past its slice. A pinned
/// `Threads(n)` is honoured as an explicit override. Results are
/// bit-identical for any budget.
///
/// # Errors
///
/// Same as [`design_strategy`].
pub fn design_strategy_budgeted(
    system: &System,
    config: &OptConfig,
    budget: CoreBudget,
) -> Result<Option<DesignOutcome>, ModelError> {
    let platform = system.platform();
    let max_nodes = config
        .max_nodes
        .unwrap_or_else(|| platform.node_type_count())
        .max(1);
    let threads = config.threads.resolve_within(budget).max(1);
    let warm = config
        .warm_start
        .as_ref()
        .and_then(|seed| validated_warm_start(system, seed));

    let mut best: Option<Arc<Candidate>> = None;
    let mut stats = ExplorationStats {
        worker_threads: threads as u32,
        ..ExplorationStats::default()
    };
    let mut workers: Vec<SearchState<'_>> = (0..threads)
        .map(|_| SearchState {
            evaluator: Evaluator::new(system, config),
            memo: RedundancyMemo::from_config(config),
        })
        .collect();

    let mut n = 1usize;
    loop {
        let archs = architectures_with_n_nodes(platform, n);
        if archs.is_empty() {
            break; // more slots than node types: nothing left to enumerate
        }
        let min_costs: Vec<Cost> = archs
            .iter()
            .map(|types| Architecture::with_min_hardening(types).cost(platform))
            .collect::<Result<_, _>>()?;
        let cbest_start = best.as_ref().map_or(Cost::MAX, |s| s.cost);
        // The donor seed redirects exactly one tabu start: the slot of
        // this node count whose types equal the donor architecture's (the
        // walk itself — order, pruning, acceptance — is unchanged).
        let seeded_slot = warm.as_ref().and_then(|(types, mapping)| {
            (types.len() == n).then(|| {
                archs
                    .iter()
                    .position(|a| a == types)
                    .map(|i| (i, mapping.clone()))
            })?
        });

        let mut hints: Vec<Option<ArchOutcome>> = if threads > 1 && archs.len() > 1 {
            explore_batch_parallel(
                &archs,
                &min_costs,
                cbest_start,
                seeded_slot.as_ref().map(|(i, m)| (*i, m)),
                &mut workers,
            )?
        } else {
            (0..archs.len()).map(|_| None).collect()
        };

        // Deterministic reduce: replay the sequential walk of Fig. 5 over
        // the hints, in enumeration order, evaluating any slot the workers
        // skipped but the sequential walk needs.
        let mut advance_n = false;
        let mut evaluated_this_n = 0u32;
        for i in 0..archs.len() {
            let cbest = best.as_ref().map_or(Cost::MAX, |s| s.cost);
            // Fig. 5 line 6: prune if even the min-hardening cost cannot
            // beat the best-so-far.
            if min_costs[i] >= cbest {
                stats.architectures_pruned += 1;
                continue;
            }
            stats.architectures_evaluated += 1;
            evaluated_this_n += 1;
            let seed = match &seeded_slot {
                Some((si, mapping)) if *si == i => Some(mapping),
                _ => None,
            };
            if seed.is_some() {
                stats.warm_seeded += 1;
            }
            let outcome = match hints[i].take() {
                Some(outcome) => outcome,
                None => explore_one(&mut workers[0], &archs[i], seed)?,
            };
            match outcome {
                ArchOutcome::Unschedulable => {
                    // Line 15: not schedulable even at the best mapping —
                    // more computation nodes are needed. The remaining
                    // (slower) same-n architectures are not walked.
                    advance_n = true;
                    break;
                }
                ArchOutcome::Evaluated(Some(candidate)) => {
                    if candidate.is_schedulable()
                        && best.as_ref().map_or(true, |b| candidate.cost < b.cost)
                    {
                        best = Some(candidate);
                    }
                }
                ArchOutcome::Evaluated(None) => {}
            }
        }

        n += 1;
        if n > max_nodes {
            break;
        }
        // Fig. 5 line 15, made explicit: grow `n` when some architecture
        // demanded more nodes (`advance_n`) or when this node count still
        // had affordable architectures to walk. If every architecture was
        // cost-pruned and none asked for more nodes, every larger
        // architecture is a superset of a pruned one and costs at least as
        // much — the exploration is exhausted.
        if !advance_n && evaluated_this_n == 0 {
            break;
        }
    }

    for worker in &workers {
        stats.eval.merge(worker.evaluator.stats());
        stats.eval.mapping_memo_hits += worker.memo.hits();
        stats.eval.mapping_memo_misses += worker.memo.misses();
    }
    // Materialize the winning candidate's full schedule once, at the very
    // end — probe evaluations only ever carried the schedulability verdict.
    let best = match best {
        Some(candidate) => Some(workers[0].evaluator.materialize(&candidate)?),
        None => None,
    };
    Ok(best.map(|solution| DesignOutcome { solution, stats }))
}

/// Fans one node-count batch out across a worker pool. Returns one hint
/// per architecture in enumeration order; `None` marks slots a worker
/// skipped (cost-pruned or past a discovered line-15 stop), which the
/// reduce re-derives or evaluates inline as needed.
fn explore_batch_parallel(
    archs: &[Vec<NodeTypeId>],
    min_costs: &[Cost],
    cbest_start: Cost,
    seeded_slot: Option<(usize, &Mapping)>,
    workers: &mut [SearchState<'_>],
) -> Result<Vec<Option<ArchOutcome>>, ModelError> {
    // Fig. 5 line 6 across threads: the shared best-so-far cost. Workers
    // lower it as candidates complete and prune against it.
    let cbest_atomic = AtomicU64::new(cbest_start.units());
    let next = AtomicUsize::new(0);
    // Lowest index seen unschedulable so far: the sequential walk stops
    // there, so later slots are (heuristically) not worth exploring.
    let truncate_at = AtomicUsize::new(usize::MAX);
    let slots: Vec<Mutex<Option<Result<ArchOutcome, ModelError>>>> =
        (0..archs.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for worker in workers.iter_mut() {
            let slots = &slots;
            let next = &next;
            let truncate_at = &truncate_at;
            let cbest_atomic = &cbest_atomic;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= archs.len() {
                    break;
                }
                if i > truncate_at.load(Ordering::Acquire) {
                    continue;
                }
                // Skip only when order-independent: at or above the
                // batch-start bound (the sequential walk prunes against a
                // Cbest at least this good), or strictly above the live
                // atomic (any candidate would be strictly worse than the
                // final best). Indices are handed out in order, so the
                // live bound only ever reflects earlier slots — exactly
                // what the sequential walk would have seen.
                let live = Cost::new(cbest_atomic.load(Ordering::Relaxed));
                if min_costs[i] >= cbest_start || min_costs[i] > live {
                    continue;
                }
                let seed = match seeded_slot {
                    Some((si, mapping)) if si == i => Some(mapping),
                    _ => None,
                };
                let outcome = explore_one(worker, &archs[i], seed);
                match &outcome {
                    Ok(ArchOutcome::Unschedulable) => {
                        truncate_at.fetch_min(i, Ordering::Release);
                    }
                    Ok(ArchOutcome::Evaluated(Some(candidate))) if candidate.is_schedulable() => {
                        cbest_atomic.fetch_min(candidate.cost.units(), Ordering::Relaxed);
                    }
                    _ => {}
                }
                *slots[i].lock().unwrap() = Some(outcome);
            });
        }
    });

    slots
        .iter()
        .map(|slot| slot.lock().unwrap().take().transpose())
        .collect()
}

/// Validates a [`WarmStart`] against the system the exploration runs on:
/// the donor types must exist on the platform, the mapping must cover
/// every process, point into the donor's slots and respect the support
/// sets. Seeds that do not fit are silently ignored — a warm start is an
/// accelerator, never a correctness input.
fn validated_warm_start(system: &System, seed: &WarmStart) -> Option<(Vec<NodeTypeId>, Mapping)> {
    let platform = system.platform();
    let timing = system.timing();
    let app = system.application();
    if seed.types.is_empty()
        || seed.mapping.len() != app.process_count()
        || seed
            .types
            .iter()
            .any(|ty| ty.index() >= platform.node_type_count())
    {
        return None;
    }
    for (p_idx, node) in seed.mapping.iter().enumerate() {
        let ty = *seed.types.get(node.index())?;
        if !timing.supports(ftes_model::ProcessId::new(p_idx as u32), ty) {
            return None;
        }
    }
    Some((seed.types.clone(), Mapping::new(seed.mapping.clone())))
}

/// Runs the Fig. 5 inner loop (lines 7–13) for one architecture. `seed`,
/// when present, replaces the greedy initial mapping of the
/// schedule-length tabu pass with a validated warm-start donor mapping.
fn explore_one(
    worker: &mut SearchState<'_>,
    types: &[NodeTypeId],
    seed: Option<&Mapping>,
) -> Result<ArchOutcome, ModelError> {
    let SearchState { evaluator, memo } = worker;
    let base = Architecture::with_min_hardening(types);
    // Line 7: shortest schedule for the best mapping.
    let Some(sl_out) = mapping_algorithm_with(
        evaluator,
        memo,
        &base,
        Objective::ScheduleLength,
        seed.cloned(),
    )?
    else {
        return Ok(ArchOutcome::Evaluated(None)); // reliability goal unreachable
    };
    if !sl_out.schedulable {
        return Ok(ArchOutcome::Unschedulable);
    }
    // Line 9: optimize cost starting from the schedulable mapping. The
    // shared memo makes this pass's re-probes of the first pass's
    // neighbourhood single-hash lookups.
    let seed = sl_out.solution.mapping.clone();
    let cost_out = mapping_algorithm_with(evaluator, memo, &base, Objective::Cost, Some(seed))?;
    let candidate = match cost_out {
        Some(out) if out.schedulable => out.solution,
        _ => sl_out.solution,
    };
    Ok(ArchOutcome::Evaluated(Some(candidate)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Threads;
    use ftes_model::{paper, HLevel, NodeId, TimeUs};

    #[test]
    fn fig1_example_beats_or_matches_the_fig4a_solution() {
        // The paper's Fig. 4 walkthrough compares five alternatives and
        // declares the 72-unit N1²+N2² split the cheapest. Under the
        // reconstructed tables the full search additionally finds a valid
        // mixed-hardening solution at cost 52 (N1² + N2¹ with k = (1, 3)),
        // which satisfies the same SFP analysis and deadline — so we assert
        // "at least as good as the paper's optimum".
        let sys = paper::fig1_system();
        let out = design_strategy(&sys, &OptConfig::default())
            .unwrap()
            .expect("feasible");
        let sol = &out.solution;
        assert!(sol.is_schedulable());
        assert!(
            sol.cost <= Cost::new(72),
            "cost {} worse than paper",
            sol.cost
        );
        assert_eq!(sol.architecture.node_count(), 2);
        assert!(sol.schedule_length() <= TimeUs::from_ms(360));
        assert!(out.stats.architectures_evaluated >= 1);
        // The found solution must itself pass the SFP analysis.
        let sfp = ftes_sfp::analyze(
            sys.application(),
            sys.timing(),
            &sol.architecture,
            &sol.mapping,
            &sol.ks,
            sys.goal(),
            ftes_sfp::Rounding::Pessimistic,
        )
        .unwrap();
        assert!(sfp.meets_goal);
    }

    #[test]
    fn fig1_restricted_to_uniform_h2_reproduces_fig4a_exactly() {
        // When evaluated at the paper's own configuration (Fig. 4a), the
        // pipeline reproduces the published numbers exactly.
        let sys = paper::fig1_system();
        let (arch, mapping) = paper::fig4_alternative('a');
        let sol = crate::evaluation::evaluate_fixed(&sys, &arch, &mapping, &OptConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(sol.cost, Cost::new(72));
        assert_eq!(sol.ks, vec![1, 1]);
        assert!(sol.is_schedulable());
    }

    #[test]
    fn fig3_example_picks_h2_with_two_reexecutions() {
        // The Fig. 3 discussion: N1^2 with k = 2 (cost 20) beats N1^3 with
        // k = 1 (cost 40); N1^1 misses the deadline.
        let sys = paper::fig3_system();
        let out = design_strategy(&sys, &OptConfig::default())
            .unwrap()
            .expect("feasible");
        let sol = &out.solution;
        assert_eq!(sol.cost, Cost::new(20));
        assert_eq!(
            sol.architecture.hardening(NodeId::new(0)),
            HLevel::new(2).unwrap()
        );
        assert_eq!(sol.ks, vec![2]);
        assert_eq!(sol.schedule_length(), TimeUs::from_ms(340));
    }

    #[test]
    fn min_policy_on_fig3_finds_nothing() {
        // With minimum hardening only, Fig. 3a needs k = 6 → SL = 680 > 360:
        // the MIN strategy must fail on this system.
        use crate::config::HardeningPolicy;
        let sys = paper::fig3_system();
        let config = OptConfig {
            policy: HardeningPolicy::FixedMin,
            ..OptConfig::default()
        };
        assert_eq!(design_strategy(&sys, &config).unwrap(), None);
    }

    #[test]
    fn max_policy_on_fig3_costs_double() {
        use crate::config::HardeningPolicy;
        let sys = paper::fig3_system();
        let config = OptConfig {
            policy: HardeningPolicy::FixedMax,
            ..OptConfig::default()
        };
        let out = design_strategy(&sys, &config).unwrap().expect("feasible");
        // Fig. 3c: most hardened version, cost 40 (twice the OPT's 20).
        assert_eq!(out.solution.cost, Cost::new(40));
        assert_eq!(out.solution.ks, vec![1]);
    }

    #[test]
    fn pruning_skips_expensive_architectures() {
        let sys = paper::fig1_system();
        let out = design_strategy(&sys, &OptConfig::default())
            .unwrap()
            .expect("feasible");
        // With Cbest = 72 found on two nodes, the pure-N2 pair (min cost
        // 2×20 = 40) is still evaluated but nothing above 72 is.
        assert!(out.stats.architectures_evaluated + out.stats.architectures_pruned >= 3);
    }

    #[test]
    fn max_nodes_caps_exploration() {
        let sys = paper::fig1_system();
        let config = OptConfig {
            max_nodes: Some(1),
            ..OptConfig::default()
        };
        let out = design_strategy(&sys, &config).unwrap().expect("feasible");
        // Restricted to one node, the best is Fig. 4e: N2^3 at cost 80.
        assert_eq!(out.solution.cost, Cost::new(80));
        assert_eq!(out.solution.architecture.node_count(), 1);
    }

    #[test]
    fn threads_zero_under_a_core_budget_never_overclaims() {
        // The Threads(0) over-claim regression: "all cores" inside a
        // 2-core budget must spawn at most 2 architecture workers (peak
        // concurrency == worker_threads: workers are the only source of
        // parallelism in the exploration), regardless of how many cores
        // the machine has. The result stays bit-identical.
        use crate::config::CoreBudget;
        let sys = paper::fig1_system();
        let config = OptConfig {
            threads: Threads(0),
            ..OptConfig::default()
        };
        let budgeted = design_strategy_budgeted(&sys, &config, CoreBudget::new(2))
            .unwrap()
            .expect("feasible");
        assert!(
            budgeted.stats.worker_threads <= 2,
            "claimed {} workers under a 2-core budget",
            budgeted.stats.worker_threads
        );
        let sequential = design_strategy(&sys, &OptConfig::default())
            .unwrap()
            .expect("feasible");
        assert_eq!(budgeted.solution, sequential.solution);
        // A pinned thread count is an explicit override and is honoured.
        let pinned = OptConfig {
            threads: Threads(3),
            ..OptConfig::default()
        };
        let out = design_strategy_budgeted(&sys, &pinned, CoreBudget::new(1))
            .unwrap()
            .expect("feasible");
        assert_eq!(out.stats.worker_threads, 3);
    }

    #[test]
    fn parallel_exploration_matches_sequential_exactly() {
        for system in [paper::fig1_system(), paper::fig3_system()] {
            let seq = design_strategy(&system, &OptConfig::default()).unwrap();
            for threads in [2, 4, 0] {
                let config = OptConfig {
                    threads: Threads(threads),
                    ..OptConfig::default()
                };
                let par = design_strategy(&system, &config).unwrap();
                match (&seq, &par) {
                    (Some(s), Some(p)) => {
                        assert_eq!(s.solution, p.solution, "threads={threads}");
                        assert_eq!(
                            s.stats.architectures_evaluated, p.stats.architectures_evaluated,
                            "threads={threads}"
                        );
                        assert_eq!(
                            s.stats.architectures_pruned, p.stats.architectures_pruned,
                            "threads={threads}"
                        );
                    }
                    (None, None) => {}
                    other => panic!("divergent feasibility: {other:?}"),
                }
            }
        }
    }

    /// The donor design point of a finished run, as the server's cache
    /// would record it.
    fn warm_start_of(sol: &Solution) -> WarmStart {
        WarmStart {
            types: sol
                .architecture
                .node_ids()
                .map(|n| sol.architecture.node_type(n))
                .collect(),
            mapping: sol.mapping.as_slice().to_vec(),
        }
    }

    #[test]
    fn warm_started_search_seeds_the_donor_and_stays_verified() {
        let sys = paper::fig1_system();
        let cold = design_strategy(&sys, &OptConfig::default())
            .unwrap()
            .expect("feasible");
        assert_eq!(cold.stats.warm_seeded, 0, "cold runs never seed");
        let config = OptConfig {
            warm_start: Some(warm_start_of(&cold.solution)),
            ..OptConfig::default()
        };
        let warm = design_strategy(&sys, &config).unwrap().expect("feasible");
        assert_eq!(
            warm.stats.warm_seeded, 1,
            "the donor architecture's tabu search must be seeded once"
        );
        // The warm-started winner passes the same analytic verification
        // as a cold one — seeding only moves the search's start.
        let sol = &warm.solution;
        assert!(sol.is_schedulable());
        assert!(sol.cost <= Cost::new(72));
        let sfp = ftes_sfp::analyze(
            sys.application(),
            sys.timing(),
            &sol.architecture,
            &sol.mapping,
            &sol.ks,
            sys.goal(),
            ftes_sfp::Rounding::Pessimistic,
        )
        .unwrap();
        assert!(sfp.meets_goal);
        // Seeding with the run's own winner reproduces it exactly.
        assert_eq!(warm.solution, cold.solution);
    }

    #[test]
    fn warm_start_is_deterministic_across_thread_counts() {
        let sys = paper::fig1_system();
        let cold = design_strategy(&sys, &OptConfig::default())
            .unwrap()
            .expect("feasible");
        let seed = warm_start_of(&cold.solution);
        let seq = design_strategy(
            &sys,
            &OptConfig {
                warm_start: Some(seed.clone()),
                ..OptConfig::default()
            },
        )
        .unwrap()
        .expect("feasible");
        for threads in [2, 4, 0] {
            let par = design_strategy(
                &sys,
                &OptConfig {
                    warm_start: Some(seed.clone()),
                    threads: Threads(threads),
                    ..OptConfig::default()
                },
            )
            .unwrap()
            .expect("feasible");
            assert_eq!(par.solution, seq.solution, "threads={threads}");
            assert_eq!(par.stats.warm_seeded, seq.stats.warm_seeded);
        }
    }

    #[test]
    fn invalid_warm_starts_are_ignored_not_applied() {
        let sys = paper::fig1_system();
        let cold = design_strategy(&sys, &OptConfig::default())
            .unwrap()
            .expect("feasible");
        let good = warm_start_of(&cold.solution);
        let broken = [
            // Mapping shorter than the process count.
            WarmStart {
                mapping: good.mapping[..good.mapping.len() - 1].to_vec(),
                ..good.clone()
            },
            // Node-type id past the platform.
            WarmStart {
                types: vec![ftes_model::NodeTypeId::new(99); good.types.len()],
                ..good.clone()
            },
            // Mapping pointing past the donor's slots.
            WarmStart {
                mapping: vec![NodeId::new(17); good.mapping.len()],
                ..good.clone()
            },
            // No slots at all.
            WarmStart {
                types: Vec::new(),
                mapping: Vec::new(),
            },
        ];
        for seed in broken {
            let out = design_strategy(
                &sys,
                &OptConfig {
                    warm_start: Some(seed.clone()),
                    ..OptConfig::default()
                },
            )
            .unwrap()
            .expect("feasible");
            assert_eq!(out.stats.warm_seeded, 0, "seed {seed:?} applied");
            assert_eq!(
                out.solution, cold.solution,
                "seed {seed:?} changed the result"
            );
        }
    }

    #[test]
    fn scratch_mode_matches_incremental_exactly() {
        use crate::config::EvalMode;
        for system in [paper::fig1_system(), paper::fig3_system()] {
            let incr = design_strategy(&system, &OptConfig::default()).unwrap();
            let config = OptConfig {
                eval_mode: EvalMode::Scratch,
                ..OptConfig::default()
            };
            let scratch = design_strategy(&system, &config).unwrap();
            match (&incr, &scratch) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.solution, b.solution);
                    assert_eq!(
                        a.stats.architectures_evaluated,
                        b.stats.architectures_evaluated
                    );
                    assert_eq!(a.stats.architectures_pruned, b.stats.architectures_pruned);
                }
                (None, None) => {}
                other => panic!("divergent feasibility: {other:?}"),
            }
        }
    }
}
