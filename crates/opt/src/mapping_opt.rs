//! `MappingAlgorithm` — tabu-search mapping optimization (Section 6.2).
//!
//! The heuristic investigates the processes on the critical path: at each
//! iteration the critical processes are candidates for re-mapping onto
//! other nodes. Recently re-mapped processes are *tabu*; processes that
//! have waited long are preferred (waiting priorities). A move is taken if
//! it (1) beats the best-so-far solution (even if tabu — aspiration), or
//! (2) is the best of the evaluated non-tabu moves. The search stops after
//! a number of non-improving steps.
//!
//! Every evaluated mapping runs the full hardening/re-execution trade-off
//! ([`redundancy_opt`]), exactly as in the paper ("the change of the
//! mapping immediately triggers the change of the hardening levels").

use ftes_model::{Architecture, Mapping, ModelError, NodeId, ProcessId, System, TimeUs};
use ftes_sched::{critical_processes_into, CriticalScratch};

use crate::config::{Objective, OptConfig};
use crate::incremental::Evaluator;
use crate::redundancy::{redundancy_opt_memo, RedundancyMemo, RedundancyOutcome};

/// Ordering key for candidate solutions under a given objective. Lower is
/// better; the leading tier makes schedulable solutions always beat
/// unschedulable ones in `Cost` mode.
fn score(outcome: &RedundancyOutcome, objective: Objective) -> (u8, u128) {
    match objective {
        Objective::ScheduleLength => (0, outcome.solution.schedule_length().as_us().max(0) as u128),
        Objective::Cost => {
            if outcome.schedulable {
                (0, outcome.solution.cost.units() as u128)
            } else {
                (1, outcome.solution.schedule_length().as_us().max(0) as u128)
            }
        }
    }
}

/// A greedy initial mapping: processes in topological order are placed on
/// the supporting node with the earliest estimated finish (WCETs taken at
/// minimum hardening).
///
/// # Errors
///
/// Returns [`ModelError::UnmappableProcess`] if some process runs on none
/// of the architecture's node types.
pub fn initial_mapping(system: &System, arch: &Architecture) -> Result<Mapping, ModelError> {
    let app = system.application();
    let timing = system.timing();
    let mut assignment = vec![NodeId::new(0); app.process_count()];
    let mut node_free = vec![TimeUs::ZERO; arch.node_count()];
    let mut finish = vec![TimeUs::ZERO; app.process_count()];

    for &p in app.topological_order() {
        let mut best: Option<(NodeId, TimeUs, TimeUs)> = None; // (node, start_bound, finish)
        for node in arch.node_ids() {
            let ty = arch.node_type(node);
            if !timing.supports(p, ty) {
                continue;
            }
            let wcet = timing.wcet(p, ty, ftes_model::HLevel::MIN)?;
            let mut ready = node_free[node.index()];
            for &m in app.incoming(p) {
                let msg = app.message(m);
                let src_node = assignment[msg.src().index()];
                let arrival = if src_node == node {
                    finish[msg.src().index()]
                } else {
                    finish[msg.src().index()] + msg.tx_time()
                };
                ready = ready.max(arrival);
            }
            let f = ready + wcet;
            if best.map_or(true, |(_, _, bf)| f < bf) {
                best = Some((node, ready, f));
            }
        }
        let Some((node, _, f)) = best else {
            return Err(ModelError::UnmappableProcess {
                process: p.index(),
                node_type: usize::MAX,
            });
        };
        assignment[p.index()] = node;
        node_free[node.index()] = f;
        finish[p.index()] = f;
    }
    Ok(Mapping::new(assignment))
}

/// Runs the tabu-search mapping optimization for the node slots of `base`
/// under the given objective. Hardening levels are (re-)optimized for
/// every evaluated mapping according to `config.policy`.
///
/// `start` optionally seeds the search (e.g. with the mapping found by a
/// previous `ScheduleLength` pass, as the design strategy does for the
/// `Cost` pass); otherwise a greedy initial mapping is constructed.
///
/// Returns `Ok(None)` when no evaluated mapping reaches the reliability
/// goal at any hardening level.
///
/// # Errors
///
/// Propagates model errors from evaluation.
pub fn mapping_algorithm(
    system: &System,
    base: &Architecture,
    objective: Objective,
    config: &OptConfig,
    start: Option<Mapping>,
) -> Result<Option<RedundancyOutcome>, ModelError> {
    let mut evaluator = Evaluator::new(system, config);
    let mut memo = RedundancyMemo::from_config(config);
    mapping_algorithm_with(&mut evaluator, &mut memo, base, objective, start)
}

/// [`mapping_algorithm`] on a caller-provided [`Evaluator`] and
/// [`RedundancyMemo`], sharing both memo layers across the tabu
/// iterations — and, when the caller reuses them for both the
/// `ScheduleLength` and `Cost` passes (as the design strategy does),
/// across passes: the redundancy optimization of a mapping is
/// objective-independent, so the second pass's re-probes of the first
/// pass's neighbourhood resolve from the mapping memo without re-walking
/// a single hardening phase.
pub fn mapping_algorithm_with(
    evaluator: &mut Evaluator<'_>,
    memo: &mut RedundancyMemo,
    base: &Architecture,
    objective: Objective,
    start: Option<Mapping>,
) -> Result<Option<RedundancyOutcome>, ModelError> {
    mapping_algorithm_traced(evaluator, memo, base, objective, start, None)
}

/// One accepted tabu move: the re-mapped process and its new node.
pub type TabuMove = (ProcessId, NodeId);

impl<'a> Evaluator<'a> {
    /// Scores one tabu iteration's whole neighborhood in a single batched
    /// walk: for each probe `(p, node)` the mapping is re-pointed, the
    /// full redundancy optimization runs, and the mapping is restored —
    /// with all shared state (the incremental SFP series, the priority
    /// cache, the budget scratch and the candidate arena) resolved once
    /// underneath the walk instead of per probe.
    ///
    /// `outcomes` is cleared and filled positionally: `outcomes[i]` is the
    /// redundancy outcome of `probes[i]` (`None` = reliability goal
    /// unreachable). Probes are evaluated in slice order against the same
    /// evolving evaluator state a sequential per-probe loop would see, so
    /// scores are **bit-identical** to calling
    /// [`redundancy_opt_memo`] once per probe — the hot-kernel
    /// differential suite pins this. Both the memoized and the unmemoized
    /// (`MemoCap(0)`) paths flow through here.
    ///
    /// # Errors
    ///
    /// Propagates model errors; `mapping` is restored to its entry state
    /// before the error is returned.
    pub fn score_neighborhood(
        &mut self,
        memo: &mut RedundancyMemo,
        base: &Architecture,
        mapping: &mut Mapping,
        probes: &[TabuMove],
        outcomes: &mut Vec<Option<RedundancyOutcome>>,
    ) -> Result<(), ModelError> {
        self.note_batched_probes(probes.len() as u64);
        outcomes.clear();
        for &(p, node) in probes {
            // Mutate + undo instead of cloning the mapping per trial (the
            // evaluator's priority cache delta-syncs both ways).
            let from = mapping.node_of(p);
            mapping.assign(p, node);
            let out = redundancy_opt_memo(self, memo, base, mapping);
            mapping.assign(p, from);
            outcomes.push(out?);
        }
        Ok(())
    }
}

/// [`mapping_algorithm_with`] recording every accepted move into `trace`
/// (when provided) — the hot-kernel differential suite replays memoized
/// and unmemoized searches and compares the traces step by step, pinning
/// that memoization never alters the search trajectory.
pub fn mapping_algorithm_traced(
    evaluator: &mut Evaluator<'_>,
    memo: &mut RedundancyMemo,
    base: &Architecture,
    objective: Objective,
    start: Option<Mapping>,
    mut trace: Option<&mut Vec<TabuMove>>,
) -> Result<Option<RedundancyOutcome>, ModelError> {
    let system = evaluator.system();
    let config = evaluator.config();
    let app = system.application();
    let timing = system.timing();
    let n = app.process_count();

    let initial = match start {
        Some(m) => m,
        None => initial_mapping(system, base)?,
    };
    let mut current = initial.clone();
    let Some(mut current_out) = redundancy_opt_memo(evaluator, memo, base, &current)? else {
        return Ok(None);
    };
    let mut best_out = current_out.clone();
    let mut best_mapping = current.clone();

    // Single-node architectures have no alternative mappings.
    if base.node_count() <= 1 {
        return Ok(Some(best_out));
    }

    let mut tabu = vec![0u32; n];
    let mut waiting = vec![0u32; n];
    let mut no_improve = 0u32;
    let mut crit_scratch = CriticalScratch::default();
    let mut candidates: Vec<ProcessId> = Vec::new();
    // Reused across iterations: the probe list handed to the batched
    // neighborhood kernel and its positional outcomes.
    let mut probes: Vec<TabuMove> = Vec::new();
    let mut outcomes: Vec<Option<RedundancyOutcome>> = Vec::new();

    for _iter in 0..config.tabu.max_iterations {
        if no_improve >= config.tabu.max_no_improve {
            break;
        }
        // Candidates: critical-path processes of the *current* solution
        // (using its optimized hardening levels for the WCETs), ordered by
        // waiting priority. Analyzed over the evaluator's flat timing
        // snapshot into reused buffers — one allocation-free pass per
        // iteration.
        critical_processes_into(
            app,
            evaluator.flat_timing(),
            &current_out.solution.architecture,
            &current,
            &mut crit_scratch,
            &mut candidates,
        )?;
        candidates.sort_by_key(|p| std::cmp::Reverse(waiting[p.index()]));
        candidates.truncate(config.tabu.max_candidates);

        // Collect the iteration's whole neighborhood, score it in one
        // batched walk, then pick the winning slots — same probe order
        // and selection rule as a per-probe loop, bit for bit.
        probes.clear();
        for &p in &candidates {
            let from = current.node_of(p);
            for node in base.node_ids() {
                if node == from || !timing.supports(p, base.node_type(node)) {
                    continue;
                }
                probes.push((p, node));
            }
        }
        evaluator.score_neighborhood(memo, base, &mut current, &probes, &mut outcomes)?;

        let mut best_move: Option<(ftes_model::ProcessId, NodeId, RedundancyOutcome)> = None;
        let mut best_move_tabu: Option<(ftes_model::ProcessId, NodeId, RedundancyOutcome)> = None;
        for (&(p, node), outcome) in probes.iter().zip(&outcomes) {
            let Some(out) = outcome else {
                continue;
            };
            let slot = if tabu[p.index()] > 0 {
                &mut best_move_tabu
            } else {
                &mut best_move
            };
            if slot.as_ref().map_or(true, |(_, _, b)| {
                score(out, objective) < score(b, objective)
            }) {
                *slot = Some((p, node, out.clone()));
            }
        }

        // Aspiration: a tabu move better than the best-so-far overrides.
        let chosen = match (&best_move, &best_move_tabu) {
            (_, Some(t)) if score(&t.2, objective) < score(&best_out, objective) => {
                best_move_tabu.clone()
            }
            (Some(_), _) => best_move.clone(),
            (None, t) => t.clone(),
        };
        let Some((p, node, out)) = chosen else {
            break; // neighbourhood empty or nothing reachable
        };

        current.assign(p, node);
        current_out = out;
        if let Some(t) = trace.as_deref_mut() {
            t.push((p, node));
        }
        for w in waiting.iter_mut() {
            *w += 1;
        }
        waiting[p.index()] = 0;
        for t in tabu.iter_mut() {
            *t = t.saturating_sub(1);
        }
        tabu[p.index()] = config.tabu.tenure;

        if score(&current_out, objective) < score(&best_out, objective) {
            best_out = current_out.clone();
            best_mapping = current.clone();
            no_improve = 0;
        } else {
            no_improve += 1;
        }
    }

    debug_assert_eq!(best_out.solution.mapping, best_mapping);
    Ok(Some(best_out))
}

/// Exposed for tests: the ordering key used to compare candidate solutions.
pub fn solution_score(outcome: &RedundancyOutcome, objective: Objective) -> (u8, u128) {
    score(outcome, objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redundancy::redundancy_opt;
    use ftes_model::{paper, HLevel, NodeTypeId, ProcessId};

    #[test]
    fn initial_mapping_spreads_load() {
        let sys = paper::fig1_system();
        let (base, _) = paper::fig4_alternative('a');
        let m = initial_mapping(&sys, &base).unwrap();
        // P1 goes to the fastest node; its successors split across nodes.
        let nodes: std::collections::BTreeSet<_> = m.as_slice().iter().collect();
        assert_eq!(nodes.len(), 2, "both nodes used: {m}");
        m.validate(sys.application(), &base, sys.timing()).unwrap();
    }

    #[test]
    fn two_node_search_beats_or_matches_the_paper_optimum() {
        // The paper declares the Fig. 4a split (h = (2,2), cost 72) the
        // cheapest two-processor solution; with the reconstructed tables
        // the tabu search finds a valid mixed-hardening solution at 52,
        // so assert "at least as good" plus validity.
        let sys = paper::fig1_system();
        let (base, _) = paper::fig4_alternative('a');
        let out = mapping_algorithm(&sys, &base, Objective::Cost, &OptConfig::default(), None)
            .unwrap()
            .expect("reachable");
        assert!(out.schedulable);
        assert!(
            out.solution.cost <= ftes_model::Cost::new(72),
            "{}",
            out.solution.cost
        );
        assert!(out.solution.schedule_length() <= TimeUs::from_ms(360));
        // The result must satisfy the reliability goal per the SFP analysis.
        let sol = &out.solution;
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
        let _ = HLevel::MIN;
        let _ = NodeId::new(0);
    }

    #[test]
    fn schedule_length_objective_minimizes_sl() {
        let sys = paper::fig1_system();
        let (base, _) = paper::fig4_alternative('a');
        let out = mapping_algorithm(
            &sys,
            &base,
            Objective::ScheduleLength,
            &OptConfig::default(),
            None,
        )
        .unwrap()
        .expect("reachable");
        // The best SL over two nodes is at most the mono-node optimum 330.
        assert!(out.solution.schedule_length() <= TimeUs::from_ms(330));
        assert!(out.schedulable);
    }

    #[test]
    fn single_node_architecture_returns_directly() {
        let sys = paper::fig1_system();
        let base = Architecture::with_min_hardening(&[NodeTypeId::new(1)]);
        let out = mapping_algorithm(&sys, &base, Objective::Cost, &OptConfig::default(), None)
            .unwrap()
            .expect("reachable");
        // All processes on N2; the redundancy opt must land on h3 (Fig. 4e).
        assert!(out.schedulable);
        assert_eq!(out.solution.cost, ftes_model::Cost::new(80));
    }

    #[test]
    fn seeded_start_is_respected() {
        let sys = paper::fig1_system();
        let (base, good) = paper::fig4_alternative('a');
        let out = mapping_algorithm(
            &sys,
            &base,
            Objective::Cost,
            &OptConfig::default(),
            Some(good.clone()),
        )
        .unwrap()
        .expect("reachable");
        assert!(out.schedulable);
        assert!(out.solution.cost <= ftes_model::Cost::new(72));
    }

    #[test]
    fn score_orders_schedulable_before_unschedulable_in_cost_mode() {
        let sys = paper::fig1_system();
        let (base_a, map_a) = paper::fig4_alternative('a');
        let good = redundancy_opt(&sys, &base_a, &map_a, &OptConfig::default())
            .unwrap()
            .unwrap();
        let (base_d, map_d) = paper::fig4_alternative('d');
        let cfg_min = OptConfig {
            policy: crate::config::HardeningPolicy::FixedMax,
            ..OptConfig::default()
        };
        let bad = redundancy_opt(&sys, &base_d, &map_d, &cfg_min)
            .unwrap()
            .unwrap();
        assert!(!bad.schedulable);
        assert!(solution_score(&good, Objective::Cost) < solution_score(&bad, Objective::Cost));
    }

    #[test]
    fn unmappable_process_is_reported() {
        use ftes_model::{
            ApplicationBuilder, BusSpec, Cost, NodeType, Platform, ReliabilityGoal, System,
            TimingDb,
        };
        let mut b = ApplicationBuilder::new("A");
        let g = b.add_graph("G1", TimeUs::from_ms(100));
        b.add_process(g, TimeUs::ZERO);
        let app = b.build().unwrap();
        let platform =
            Platform::new(vec![NodeType::new("N1", vec![Cost::new(1)], 1.0).unwrap()]).unwrap();
        let timing = TimingDb::new(1, &platform); // empty: P1 unsupported
        let sys = System::new(
            app,
            platform,
            timing,
            ReliabilityGoal::per_hour(1e-5).unwrap(),
            BusSpec::ideal(),
        )
        .unwrap();
        let base = Architecture::with_min_hardening(&[NodeTypeId::new(0)]);
        assert!(matches!(
            initial_mapping(&sys, &base).unwrap_err(),
            ModelError::UnmappableProcess { process: 0, .. }
        ));
        let _ = ProcessId::new(0);
    }
}
