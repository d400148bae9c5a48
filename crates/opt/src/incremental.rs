//! The incremental candidate-evaluation engine.
//!
//! Every probe of the Section 6 heuristics — a hardening step in
//! `RedundancyOpt`, a tabu re-mapping move, an aspiration re-probe — runs
//! the same pipeline: derive per-node process failure probabilities, find
//! the re-execution budgets, build the schedule, read the cost. The
//! from-scratch pipeline ([`evaluate_fixed`]) redoes all of it per probe,
//! although consecutive probes differ in a single node's hardening level
//! or a single process re-mapping.
//!
//! [`Evaluator`] exploits that structure on two levels:
//!
//! 1. **Incremental SFP.** The per-node `Pr(f > k)` series are
//!    delta-synced through [`SystemSfp`]: the candidate is diffed against
//!    the previously synced one and only the touched nodes are updated —
//!    `O(changed)` instead of `O(all nodes × max_k)` — where `SystemSfp`'s
//!    own configuration memo and lazy series extension make even a touched
//!    node cheap when its configuration was seen before or its budget
//!    stays small.
//! 2. **The flat scheduling kernel.** One merged `ExecSpec` pass per
//!    probe resolves every process's WCET and failure probability
//!    together; the WCETs feed a
//!    [`PriorityCache`](ftes_sched::PriorityCache) (longest-path
//!    priorities delta-maintained across probes) and
//!    [`Scheduler::run_light_flat`] — the list-scheduling walk with no
//!    architecture or timing-table lookups left in the loop.
//!
//! Every probe runs this executed path; there is no per-candidate result
//! memo. Whole-mapping revisits — the only repeats frequent enough to pay
//! for a lookup — are absorbed one level up by
//! [`RedundancyMemo`](crate::RedundancyMemo), and an exact repeat of the
//! last synced candidate touches no node, so it skips the SFP delta and
//! re-prices no priority.
//!
//! Mapping validation is hoisted out of the inner loops: a (node-types,
//! mapping) pair is validated once, not once per hardening probe.
//!
//! Results are **bit-identical** to [`evaluate_fixed`], which stays
//! available (via [`EvalMode::Scratch`]) as the executable specification;
//! `tests/incremental_differential.rs` pins the equivalence.

use std::sync::Arc;

use ftes_model::{
    Architecture, Cost, FlatTiming, Mapping, ModelError, NodeId, NodeInstance, Prob, ProcessId,
    System, TimeUs, TimingSource,
};
use ftes_sched::{PriorityCache, ReadyPolicy, Scheduler, SlackModel};
use ftes_sfp::SystemSfp;
use serde::{Deserialize, Serialize};

use crate::config::{EvalMode, OptConfig};
use crate::evaluation::{evaluate_fixed, Solution};

/// Candidates tracked by the [`ProbeArena`] for recycling.
const ARENA_CAP: usize = 32;

/// Pooled scratch architectures handed to the redundancy walk.
const ARCH_POOL_CAP: usize = 8;

/// A scored candidate: everything the search ranks solutions by, without
/// the materialized schedule.
///
/// Candidate probes only ever consume the worst-case length, the
/// schedulability verdict, the budgets and the cost; the full
/// [`Schedule`](ftes_sched::Schedule) is expensive to materialize and is
/// only needed for solutions that survive the search — call
/// [`Evaluator::materialize`] (or [`evaluate_fixed`]) to obtain the
/// corresponding [`Solution`]. Field names mirror [`Solution`] so
/// consumers read `candidate.cost`, `candidate.ks`, … identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Selected architecture with hardening levels.
    pub architecture: Architecture,
    /// Process-to-node mapping.
    pub mapping: Mapping,
    /// Re-execution budgets `k_j` per architecture node.
    pub ks: Vec<u32>,
    /// Worst-case schedule length `SL`.
    pub wc_length: TimeUs,
    /// Whether all deadlines are met in the worst case.
    pub schedulable: bool,
    /// Total architecture cost.
    pub cost: Cost,
}

impl Candidate {
    /// Worst-case schedule length `SL` (mirrors
    /// [`Solution::schedule_length`]).
    pub fn schedule_length(&self) -> TimeUs {
        self.wc_length
    }

    /// `true` if all deadlines are met in the worst case (mirrors
    /// [`Solution::is_schedulable`]).
    pub fn is_schedulable(&self) -> bool {
        self.schedulable
    }

    /// Materializes the full [`Solution`] (including the static schedule)
    /// for this candidate, through the from-scratch specification
    /// scheduler — bit-identical to what [`evaluate_fixed`] returns for
    /// the same candidate.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn materialize(&self, system: &System) -> Result<Solution, ModelError> {
        let schedule = ftes_sched::schedule(
            system.application(),
            system.timing(),
            &self.architecture,
            &self.mapping,
            &self.ks,
            system.bus(),
        )?;
        Ok(Solution {
            architecture: self.architecture.clone(),
            mapping: self.mapping.clone(),
            ks: self.ks.clone(),
            schedule,
            cost: self.cost,
        })
    }

    /// Extracts the scored fields from a fully materialized solution.
    pub fn of_solution(solution: Solution) -> Self {
        Candidate {
            wc_length: solution.schedule_length(),
            schedulable: solution.is_schedulable(),
            architecture: solution.architecture,
            mapping: solution.mapping,
            ks: solution.ks,
            cost: solution.cost,
        }
    }
}

/// Counters of the incremental engine, aggregated per [`Evaluator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EvalStats {
    /// Candidate evaluations requested.
    pub evaluations: u64,
    /// Always 0: the evaluator keeps no per-candidate result memo, so
    /// every request is executed. Kept so that readers of the counters
    /// (and [`evaluations_executed`](EvalStats::evaluations_executed))
    /// stay source-compatible.
    pub cache_hits: u64,
    /// Node deltas applied (a probe touches only its changed nodes).
    pub sfp_nodes_computed: u64,
    /// Node series reused unchanged across consecutive probes.
    pub sfp_nodes_reused: u64,
    /// Node deltas resolved from the SFP configuration memo.
    pub series_memo_hits: u64,
    /// Node series prefixes actually computed or extended.
    pub series_computed: u64,
    /// Per-process scheduling priorities recomputed (the delta-updated
    /// ancestor cones of the probes).
    pub priority_recomputed: u64,
    /// Per-process priority recomputes avoided by the delta updates.
    pub priority_reused: u64,
    /// Tabu probes resolved from the cross-iteration mapping-outcome
    /// memo (whole redundancy-phase walks skipped).
    pub mapping_memo_hits: u64,
    /// Tabu probes that ran the full redundancy optimization.
    pub mapping_memo_misses: u64,
    /// Probes scored through the batched neighborhood kernel
    /// ([`Evaluator::score_neighborhood`]).
    pub batched_probes: u64,
    /// Executed evaluations whose `Candidate` was recycled from the probe
    /// arena instead of freshly allocated.
    pub arena_reuses: u64,
}

impl EvalStats {
    /// Merges another evaluator's counters (used when several workers each
    /// own an evaluator).
    pub fn merge(&mut self, other: EvalStats) {
        self.evaluations += other.evaluations;
        self.cache_hits += other.cache_hits;
        self.sfp_nodes_computed += other.sfp_nodes_computed;
        self.sfp_nodes_reused += other.sfp_nodes_reused;
        self.series_memo_hits += other.series_memo_hits;
        self.series_computed += other.series_computed;
        self.priority_recomputed += other.priority_recomputed;
        self.priority_reused += other.priority_reused;
        self.mapping_memo_hits += other.mapping_memo_hits;
        self.mapping_memo_misses += other.mapping_memo_misses;
        self.batched_probes += other.batched_probes;
        self.arena_reuses += other.arena_reuses;
    }

    /// Full evaluations actually executed (requests minus
    /// [`cache_hits`](EvalStats::cache_hits), which is 0).
    pub fn evaluations_executed(&self) -> u64 {
        self.evaluations - self.cache_hits
    }
}

/// Stateful candidate evaluator shared across the probes of one search.
///
/// Construct once per search (or per worker thread) and feed every
/// candidate through [`evaluate`](Evaluator::evaluate); the evaluator
/// carries the incremental SFP, priority and WCET state across probes. In
/// [`EvalMode::Scratch`] it degrades to calling [`evaluate_fixed`] per
/// probe, bit-identically but without any reuse.
#[derive(Debug)]
pub struct Evaluator<'a> {
    system: &'a System,
    config: &'a OptConfig,
    /// Contiguous timing snapshot for the hot lookups.
    flat: FlatTiming,
    /// Incremental per-node SFP series, synced to the candidate described
    /// by `synced_nodes`/`synced_map`.
    sfp: SystemSfp,
    synced: bool,
    synced_nodes: Vec<NodeInstance>,
    synced_map: Vec<NodeId>,
    /// The last (node types, mapping) pair that passed validation.
    validated: bool,
    validated_types: Vec<ftes_model::NodeTypeId>,
    validated_map: Vec<NodeId>,
    /// Reusable per-probe scratch buffers.
    touched: Vec<bool>,
    per_node: Vec<Vec<Prob>>,
    scheduler: Scheduler,
    /// Longest-path priorities maintained incrementally across probes:
    /// they depend only on `(mapping, timing, architecture)`, so a
    /// hardening step or re-mapping move re-prices an ancestor cone
    /// instead of the whole DAG (see [`PriorityCache`]).
    priorities: PriorityCache,
    /// App-constant predecessor counts, precomputed for the flat walk.
    preds: Vec<usize>,
    /// Per-candidate WCETs resolved by the merged spec pass, persistent
    /// across probes: entries for processes on untouched nodes carry over
    /// (their `(type, hardening)` spec is unchanged by definition of
    /// "untouched"), so the pass is `O(processes on touched nodes)`.
    wcet_buf: Vec<TimeUs>,
    /// Per-node member lists (process ids in ascending order), matching
    /// `synced_map`: the delta spec pass walks only the touched nodes'
    /// members instead of every process.
    members: Vec<Vec<ProcessId>>,
    /// Reusable budget buffer for `SystemSfp::optimize_into`.
    ks_scratch: Vec<u32>,
    /// Pooled candidates and scratch architectures — see [`ProbeArena`].
    arena: ProbeArena,
    stats: EvalStats,
}

/// A freelist of `Arc<Candidate>`s (plus scratch [`Architecture`]s for
/// the redundancy walk) so steady-state probes allocate nothing.
///
/// Every evaluation *tracks* its candidate here; `take` scans the tracked
/// entries back to front for one whose other owners (the caller, the
/// redundancy walk's best-so-far, the mapping memo) have dropped their
/// references (`strong_count == 1`) and recycles it by overwriting its
/// fields in place — the `Architecture`/`Mapping`/`ks` rewrites reuse the
/// existing allocations via `clone_from`. A candidate that is still
/// referenced stays in the pool untouched, so recycling can never alias a
/// live result; a pool overflow just drops the oldest tracking reference
/// (harmless — the candidate itself lives on with its other owners).
#[derive(Debug, Default)]
struct ProbeArena {
    pool: Vec<Arc<Candidate>>,
    archs: Vec<Architecture>,
    reuses: u64,
}

impl ProbeArena {
    /// Recycles a uniquely-owned tracked candidate, if any.
    fn take(&mut self) -> Option<Arc<Candidate>> {
        // Back to front: the most recently released candidate sits near
        // the end, so the steady-state scan stops after a step or two.
        for i in (0..self.pool.len()).rev() {
            if Arc::strong_count(&self.pool[i]) == 1 {
                self.reuses += 1;
                return Some(self.pool.swap_remove(i));
            }
        }
        None
    }

    /// Registers a freshly filled candidate for future recycling.
    fn track(&mut self, candidate: &Arc<Candidate>) {
        if self.pool.len() >= ARENA_CAP {
            self.pool.swap_remove(0);
        }
        self.pool.push(Arc::clone(candidate));
    }

    /// An empty candidate shell for the cold path (fields are overwritten
    /// by the caller).
    fn fresh() -> Arc<Candidate> {
        Arc::new(Candidate {
            architecture: Architecture::new(Vec::new()),
            mapping: Mapping::new(Vec::new()),
            ks: Vec::new(),
            wc_length: TimeUs::ZERO,
            schedulable: false,
            cost: Cost::new(0),
        })
    }
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for one system under one configuration.
    pub fn new(system: &'a System, config: &'a OptConfig) -> Self {
        Evaluator {
            system,
            config,
            flat: FlatTiming::new(system.timing()),
            sfp: SystemSfp::new(0, config.max_k.0, config.rounding),
            synced: false,
            synced_nodes: Vec::new(),
            synced_map: Vec::new(),
            validated: false,
            validated_types: Vec::new(),
            validated_map: Vec::new(),
            touched: Vec::new(),
            per_node: Vec::new(),
            scheduler: Scheduler::with_ready_policy(ReadyPolicy::auto_for(
                system.application().process_count(),
            )),
            priorities: PriorityCache::new(),
            preds: system
                .application()
                .process_ids()
                .map(|p| system.application().incoming(p).len())
                .collect(),
            wcet_buf: Vec::new(),
            members: Vec::new(),
            ks_scratch: Vec::new(),
            arena: ProbeArena::default(),
            stats: EvalStats::default(),
        }
    }

    /// The system under evaluation.
    pub fn system(&self) -> &'a System {
        self.system
    }

    /// The active configuration.
    pub fn config(&self) -> &'a OptConfig {
        self.config
    }

    /// The evaluator's contiguous timing snapshot — enclosing search
    /// loops (the tabu candidate analysis) reuse it instead of chasing
    /// the three-level [`TimingDb`](ftes_model::TimingDb) per lookup.
    pub fn flat_timing(&self) -> &FlatTiming {
        &self.flat
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        let mut stats = self.stats;
        stats.series_memo_hits = self.sfp.memo_hits();
        stats.series_computed = self.sfp.series_computed();
        let prio = self.priorities.stats();
        stats.priority_recomputed = prio.recomputed;
        stats.priority_reused = prio.reused;
        stats.arena_reuses = self.arena.reuses;
        stats
    }

    /// Borrows a pooled scratch [`Architecture`] initialized to a copy of
    /// `src` (the redundancy walk's working copy). Return it with
    /// [`put_arch`](Evaluator::put_arch) when the walk is done so the
    /// allocation is reused by the next probe.
    pub(crate) fn take_arch(&mut self, src: &Architecture) -> Architecture {
        let mut arch = self
            .arena
            .archs
            .pop()
            .unwrap_or_else(|| Architecture::new(Vec::new()));
        arch.clone_from(src);
        arch
    }

    /// Returns a scratch architecture to the pool.
    pub(crate) fn put_arch(&mut self, arch: Architecture) {
        if self.arena.archs.len() < ARCH_POOL_CAP {
            self.arena.archs.push(arch);
        }
    }

    /// Counts probes routed through the batched neighborhood kernel.
    pub(crate) fn note_batched_probes(&mut self, n: u64) {
        self.stats.batched_probes += n;
    }

    /// Evaluates one fully-specified candidate — the drop-in equivalent of
    /// [`evaluate_fixed`] (same results bit for bit), with incremental SFP
    /// re-analysis, delta-maintained priorities and the flat scheduling
    /// walk in [`EvalMode::Incremental`].
    ///
    /// # Errors
    ///
    /// Propagates model errors (invalid mapping, missing timing entries).
    pub fn evaluate(
        &mut self,
        arch: &Architecture,
        mapping: &Mapping,
    ) -> Result<Option<Arc<Candidate>>, ModelError> {
        self.stats.evaluations += 1;
        if self.config.eval_mode == EvalMode::Scratch {
            return Ok(evaluate_fixed(self.system, arch, mapping, self.config)?
                .map(|solution| Arc::new(Candidate::of_solution(solution))));
        }
        self.compute(arch, mapping)
    }

    /// The executed evaluation path of [`EvalMode::Incremental`].
    fn compute(
        &mut self,
        arch: &Architecture,
        mapping: &Mapping,
    ) -> Result<Option<Arc<Candidate>>, ModelError> {
        let app = self.system.application();
        let timing = self.system.timing();

        // Validation depends only on the node *types* and the mapping, not
        // on hardening levels — hoist it out of the hardening probes.
        let types_match = self.validated
            && self
                .validated_types
                .iter()
                .eq(arch.nodes().iter().map(|n| &n.node_type))
            && self.validated_map == mapping.as_slice();
        if !types_match {
            mapping.validate(app, arch, timing)?;
            self.validated_types.clear();
            self.validated_types
                .extend(arch.nodes().iter().map(|n| n.node_type));
            self.validated_map
                .clone_from_slice_reusing(mapping.as_slice());
            self.validated = true;
        }

        // Delta-sync the SFP state: diff this candidate against the last
        // synced one and recompute only the touched nodes (a hardening
        // step touches one node, a re-mapping move two). The per-node
        // member lists and the WCET buffer persist alongside, so the spec
        // pass below is `O(processes on touched nodes)` too.
        let node_count = arch.node_count();
        let process_count = mapping.process_count();
        let can_delta = self.synced
            && self.synced_nodes.len() == node_count
            && self.synced_map.len() == process_count
            && self.wcet_buf.len() == app.process_count();
        if self.members.len() < node_count {
            self.members.resize_with(node_count, Vec::new);
        }
        if self.per_node.len() < node_count {
            self.per_node.resize_with(node_count, Vec::new);
        }
        self.touched.clear();
        self.touched.resize(node_count, !can_delta);
        if can_delta {
            for (j, flag) in self.touched.iter_mut().enumerate() {
                *flag = self.synced_nodes[j] != arch.node(NodeId::new(j as u32));
            }
            for (i, &old) in self.synced_map.iter().enumerate() {
                let p = ProcessId::new(i as u32);
                let new = mapping.node_of(p);
                if old != new {
                    self.touched[old.index()] = true;
                    self.touched[new.index()] = true;
                    // Keep the member lists sorted by process id so the
                    // delta pass pushes probabilities in exactly the order
                    // `node_process_probs` produces.
                    let on_old = &mut self.members[old.index()];
                    if let Ok(pos) = on_old.binary_search(&p) {
                        on_old.remove(pos);
                    }
                    let on_new = &mut self.members[new.index()];
                    if let Err(pos) = on_new.binary_search(&p) {
                        on_new.insert(pos, p);
                    }
                }
            }
        }
        self.sfp.set_node_count(node_count);

        // One merged spec pass: a single `ExecSpec` load per process
        // serves both halves of the probe — the WCETs feed the priority
        // sync and the flat scheduling walk, the failure probabilities
        // (touched nodes only, in process-id order — the exact grouping
        // `node_process_probs` produces) feed the SFP delta. On the delta
        // path only the touched nodes' members are visited: WCETs of
        // processes on untouched nodes carry over from the last sync
        // (their `(type, hardening)` spec is unchanged by definition).
        let spec_result: Result<(), ModelError> = if can_delta {
            (0..node_count).try_for_each(|j| {
                if !self.touched[j] {
                    return Ok(());
                }
                let inst = arch.node(NodeId::new(j as u32));
                self.per_node[j].clear();
                for idx in 0..self.members[j].len() {
                    let p = self.members[j][idx];
                    let spec = self.flat.spec(p, inst.node_type, inst.hardening)?;
                    self.wcet_buf[p.index()] = spec.wcet;
                    self.per_node[j].push(spec.pfail);
                }
                Ok(())
            })
        } else {
            for m in self.members.iter_mut() {
                m.clear();
            }
            for probs in self.per_node.iter_mut() {
                probs.clear();
            }
            self.wcet_buf.clear();
            app.process_ids().try_for_each(|p| {
                let n = mapping.node_of(p);
                let inst = arch.node(n);
                let spec = self.flat.spec(p, inst.node_type, inst.hardening)?;
                self.wcet_buf.push(spec.wcet);
                self.members[n.index()].push(p);
                self.per_node[n.index()].push(spec.pfail);
                Ok(())
            })
        };
        if let Err(e) = spec_result {
            // The member lists may already reflect this candidate while
            // `synced_map` still describes the previous one — force a full
            // rebuild on the next probe.
            self.synced = false;
            return Err(e);
        }
        for j in 0..node_count {
            if self.touched[j] {
                self.sfp.set_node_probs(j, &self.per_node[j]);
                self.stats.sfp_nodes_computed += 1;
            } else {
                self.stats.sfp_nodes_reused += 1;
            }
        }
        self.synced_nodes.clone_from_slice_reusing(arch.nodes());
        self.synced_map.clone_from_slice_reusing(mapping.as_slice());
        self.synced = true;

        let reachable =
            self.sfp
                .optimize_into(self.system.goal(), app.period(), &mut self.ks_scratch);
        let candidate = if !reachable {
            None
        } else {
            // Priorities are maintained incrementally over the
            // already-resolved WCETs: the cache diffs this candidate
            // against the last synced one and re-prices only what
            // changed.
            self.priorities
                .sync_flat(app, arch, mapping, &self.wcet_buf);
            let verdict = self.scheduler.run_light_flat(
                app,
                mapping,
                &self.ks_scratch,
                self.system.bus(),
                SlackModel::Shared,
                self.priorities.priorities(),
                &self.wcet_buf,
                &self.preds,
            )?;
            let cost = arch.cost(self.system.platform())?;
            // Steady state allocates nothing here: the arena hands back a
            // released candidate and every field rewrite reuses its
            // buffers via `clone_from`.
            let mut cand = self.arena.take().unwrap_or_else(ProbeArena::fresh);
            {
                let c = Arc::get_mut(&mut cand).expect("taken candidates are uniquely referenced");
                c.architecture.clone_from(arch);
                c.mapping.clone_from(mapping);
                c.ks.clone_from_slice_reusing(&self.ks_scratch);
                c.wc_length = verdict.wc_length;
                c.schedulable = verdict.schedulable;
                c.cost = cost;
            }
            self.arena.track(&cand);
            Some(cand)
        };
        Ok(candidate)
    }

    /// Materializes a surviving candidate's [`Solution`] — see
    /// [`Candidate::materialize`].
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn materialize(&self, candidate: &Candidate) -> Result<Solution, ModelError> {
        candidate.materialize(self.system)
    }
}

/// `clone_from`-style buffer reuse for plain-old-data slices.
trait CloneFromSliceReusing<T: Copy> {
    fn clone_from_slice_reusing(&mut self, src: &[T]);
}

impl<T: Copy> CloneFromSliceReusing<T> for Vec<T> {
    fn clone_from_slice_reusing(&mut self, src: &[T]) {
        self.clear();
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_model::{paper, HLevel};

    #[test]
    fn matches_evaluate_fixed_on_all_fig4_variants() {
        let sys = paper::fig1_system();
        let config = OptConfig::default();
        let mut ev = Evaluator::new(&sys, &config);
        for v in ['a', 'b', 'c', 'd', 'e'] {
            let (arch, mapping) = paper::fig4_alternative(v);
            let incr = ev.evaluate(&arch, &mapping).unwrap();
            let scratch = evaluate_fixed(&sys, &arch, &mapping, &config).unwrap();
            assert_eq!(
                incr.as_deref().cloned(),
                scratch
                    .clone()
                    .map(Candidate::of_solution)
                    .as_ref()
                    .cloned(),
                "variant {v}"
            );
            // The materialized solution must equal the from-scratch one.
            if let (Some(candidate), Some(solution)) = (&incr, &scratch) {
                assert_eq!(&ev.materialize(candidate).unwrap(), solution, "variant {v}");
            }
        }
    }

    #[test]
    fn repeated_probes_are_executed_and_identical() {
        let sys = paper::fig1_system();
        let config = OptConfig::default();
        let mut ev = Evaluator::new(&sys, &config);
        let (arch, mapping) = paper::fig4_alternative('a');
        let first = ev.evaluate(&arch, &mapping).unwrap();
        let second = ev.evaluate(&arch, &mapping).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            first.as_deref().cloned(),
            evaluate_fixed(&sys, &arch, &mapping, &config)
                .unwrap()
                .map(Candidate::of_solution)
        );
        let stats = ev.stats();
        assert_eq!(stats.evaluations, 2);
        assert_eq!(stats.evaluations_executed(), 2);
    }

    #[test]
    fn one_node_hardening_delta_recomputes_one_node() {
        let sys = paper::fig1_system();
        let config = OptConfig::default();
        let mut ev = Evaluator::new(&sys, &config);
        let (mut arch, mapping) = paper::fig4_alternative('a');
        ev.evaluate(&arch, &mapping).unwrap();
        let after_first = ev.stats();
        assert_eq!(
            after_first.sfp_nodes_computed, 2,
            "cold start computes both"
        );

        arch.set_hardening(NodeId::new(0), HLevel::new(3).unwrap());
        let incr = ev.evaluate(&arch, &mapping).unwrap();
        let stats = ev.stats();
        assert_eq!(stats.sfp_nodes_computed, 3, "only node 0 recomputed");
        assert_eq!(stats.sfp_nodes_reused, 1, "node 1 reused");
        let scratch = evaluate_fixed(&sys, &arch, &mapping, &config).unwrap();
        assert_eq!(
            incr.as_deref().cloned(),
            scratch.map(Candidate::of_solution)
        );
    }

    #[test]
    fn scratch_mode_bypasses_the_cache() {
        let sys = paper::fig1_system();
        let config = OptConfig {
            eval_mode: EvalMode::Scratch,
            ..OptConfig::default()
        };
        let mut ev = Evaluator::new(&sys, &config);
        let (arch, mapping) = paper::fig4_alternative('a');
        ev.evaluate(&arch, &mapping).unwrap();
        ev.evaluate(&arch, &mapping).unwrap();
        assert_eq!(ev.stats().cache_hits, 0);
        assert_eq!(ev.stats().evaluations, 2);
    }

    #[test]
    fn matches_evaluate_fixed_under_tdma_bus_with_real_tx_times() {
        // The bus-aware path of the incremental engine: on a system whose
        // messages have genuine transmission times and a TDMA bus, every
        // probe of a search-shaped sequence (hardening bumps + re-mapping
        // moves) must equal the from-scratch pipeline bit for bit.
        use ftes_model::{
            ApplicationBuilder, BusSpec, Cost as MCost, ExecSpec, NodeType, NodeTypeId, Platform,
            Prob, ProcessId, ReliabilityGoal, TimingDb,
        };
        let mut b = ApplicationBuilder::new("tdma");
        let g = b.add_graph("G1", TimeUs::from_ms(120));
        let p: Vec<ProcessId> = (0..4)
            .map(|_| b.add_process(g, TimeUs::from_ms(1)))
            .collect();
        b.add_message(p[0], p[1], TimeUs::from_ms(2)).unwrap();
        b.add_message(p[0], p[2], TimeUs::from_ms(3)).unwrap();
        b.add_message(p[1], p[3], TimeUs::from_ms(1)).unwrap();
        b.add_message(p[2], p[3], TimeUs::from_ms(2)).unwrap();
        let app = b.build().unwrap();
        let platform = Platform::new(vec![
            NodeType::new("N1", vec![MCost::new(4), MCost::new(8)], 1.0).unwrap(),
            NodeType::new("N2", vec![MCost::new(2), MCost::new(4)], 1.5).unwrap(),
        ])
        .unwrap();
        let mut timing = TimingDb::new(4, &platform);
        for (pi, &pid) in p.iter().enumerate() {
            for (ji, speed) in [(0usize, 1.0f64), (1, 1.5)] {
                for (hi, pf) in [(1u8, 4e-4), (2, 4e-6)] {
                    let wcet = TimeUs::from_ms(8 + 3 * pi as i64).scale(speed * f64::from(hi));
                    timing
                        .set(
                            pid,
                            NodeTypeId::new(ji as u32),
                            HLevel::new(hi).unwrap(),
                            ExecSpec::new(wcet, Prob::new(pf).unwrap()).unwrap(),
                        )
                        .unwrap();
                }
            }
        }
        let system = System::new(
            app,
            platform,
            timing,
            ReliabilityGoal::per_hour(1e-5).unwrap(),
            BusSpec::tdma(TimeUs::from_ms(2)),
        )
        .unwrap();

        let config = OptConfig::default();
        let mut ev = Evaluator::new(&system, &config);
        let mut arch = Architecture::with_min_hardening(&[NodeTypeId::new(0), NodeTypeId::new(1)]);
        let mut mapping = ftes_model::Mapping::all_on(4, NodeId::new(0));
        // A probe walk that exercises re-mapping (bus traffic appears and
        // disappears) and hardening deltas on both nodes.
        let moves: [(u32, u32, u8); 6] = [
            (1, 1, 1),
            (2, 1, 2),
            (1, 0, 2),
            (3, 1, 1),
            (2, 0, 1),
            (0, 1, 2),
        ];
        for (proc_i, node_i, level) in moves {
            mapping.assign(ProcessId::new(proc_i), NodeId::new(node_i));
            arch.set_hardening(NodeId::new(node_i), HLevel::new(level).unwrap());
            let incr = ev.evaluate(&arch, &mapping).unwrap();
            let scratch = evaluate_fixed(&system, &arch, &mapping, &config).unwrap();
            assert_eq!(
                incr.as_deref().cloned(),
                scratch.clone().map(Candidate::of_solution),
                "probe ({proc_i},{node_i},{level})"
            );
            if let (Some(candidate), Some(solution)) = (&incr, &scratch) {
                assert_eq!(&ev.materialize(candidate).unwrap(), solution);
            }
        }
    }

    #[test]
    fn invalid_mapping_is_still_rejected() {
        let sys = paper::fig1_system();
        let config = OptConfig::default();
        let mut ev = Evaluator::new(&sys, &config);
        let (arch, _) = paper::fig4_alternative('a');
        let short = Mapping::new(vec![NodeId::new(0)]);
        assert!(ev.evaluate(&arch, &short).is_err());
    }
}
