//! Configuration of the design optimization heuristics.

use ftes_model::{NodeId, NodeTypeId};
use ftes_sfp::Rounding;
use serde::{Deserialize, Serialize};

/// Which hardening levels the exploration may use — this is how the
/// paper's three compared strategies differ (Section 7):
///
/// * `Optimize` — the proposed **OPT**: hardening levels are chosen per
///   node by the `RedundancyOpt` trade-off heuristic;
/// * `FixedMin` — the **MIN** baseline: only minimum hardening, fault
///   tolerance purely in software;
/// * `FixedMax` — the **MAX** baseline: only maximum hardening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum HardeningPolicy {
    /// Trade off hardening against re-execution (the paper's OPT).
    #[default]
    Optimize,
    /// Always use the minimum hardening level (the paper's MIN).
    FixedMin,
    /// Always use the maximum hardening level (the paper's MAX).
    FixedMax,
}

/// The two cost functions of `MappingAlgorithm` (Section 6, Fig. 5 lines
/// 7 and 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize the worst-case schedule length `SL`.
    ScheduleLength,
    /// Minimize the architecture cost while staying schedulable.
    Cost,
}

/// Tabu-search parameters for the mapping heuristic (Section 6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TabuConfig {
    /// How many iterations a re-mapped process stays "tabu".
    pub tenure: u32,
    /// Iterations a process must wait before its waiting priority lets it
    /// be re-mapped preferentially.
    pub waiting_boost: u32,
    /// Stop after this many consecutive iterations without improvement.
    pub max_no_improve: u32,
    /// Hard cap on tabu iterations.
    pub max_iterations: u32,
    /// At most this many critical-path processes are considered for
    /// re-mapping per iteration (keeps the neighbourhood small on large
    /// graphs).
    pub max_candidates: usize,
}

impl Default for TabuConfig {
    fn default() -> Self {
        TabuConfig {
            tenure: 3,
            waiting_boost: 8,
            max_no_improve: 6,
            max_iterations: 40,
            max_candidates: 8,
        }
    }
}

/// Which candidate-evaluation pipeline the heuristics run on.
///
/// Both modes return **bit-identical** results; `Scratch` exists as the
/// executable specification (and perf baseline) of the incremental engine,
/// mirroring the `complete_homogeneous_naive` pattern in `ftes-sfp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EvalMode {
    /// The incremental engine: per-node SFP series caches with one-node
    /// delta updates, delta-maintained scheduling priorities and the flat
    /// scheduling walk.
    #[default]
    Incremental,
    /// Evaluate every candidate from scratch (the pre-optimization
    /// pipeline): full SFP re-analysis and schedule rebuild per probe.
    Scratch,
}

/// Worker-thread count for the architecture exploration of
/// [`design_strategy`](crate::design_strategy).
///
/// `Threads(1)` (the default) explores sequentially; `Threads(0)` uses all
/// available parallelism; any other value pins the pool size. The parallel
/// exploration reduces candidates deterministically (by cost with the
/// sequential walk order as tie-break), so the chosen solution does not
/// depend on thread scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Threads(pub usize);

impl Default for Threads {
    fn default() -> Self {
        Threads(1)
    }
}

impl Threads {
    /// The effective worker count (resolves `0` to the machine's available
    /// parallelism).
    ///
    /// Only correct at the **top** of a fan-out hierarchy: inside a
    /// nested pool, resolving `0` to the whole machine over-claims past
    /// the enclosing budget — use
    /// [`resolve_within`](Threads::resolve_within) there.
    pub fn resolve(self) -> usize {
        match self.0 {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }

    /// The effective worker count under a [`CoreBudget`]: `Threads(0)`
    /// means "whatever the budget affords" instead of "the whole
    /// machine", so a `Threads(0)` configuration nested inside a matrix
    /// cell claims only the cell's share. A pinned `Threads(n)` stays
    /// `n` (an explicit override is honoured).
    pub fn resolve_within(self, budget: CoreBudget) -> usize {
        match self.0 {
            0 => budget.get(),
            n => n,
        }
    }
}

/// A core budget shared between nested worker pools.
///
/// Fan-outs nest throughout the stack: the scenario-matrix runner fans
/// out over cells, each cell fans out over applications
/// (`run_strategy_over`), and each design run may fan out over
/// architectures ([`Threads`] in [`OptConfig`]). Naively sizing every
/// level at `available_parallelism` oversubscribes the machine
/// quadratically (the `threads²` hazard). A `CoreBudget` is threaded
/// down instead: every level claims a fan-out with [`fan_out`] and hands
/// the per-worker remainder to the level below, so the **product** of
/// live workers across all levels never exceeds the budget.
///
/// [`fan_out`]: CoreBudget::fan_out
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreBudget(usize);

impl CoreBudget {
    /// A budget of `cores` (clamped to at least one).
    pub fn new(cores: usize) -> Self {
        CoreBudget(cores.max(1))
    }

    /// The machine's full available parallelism.
    pub fn available() -> Self {
        CoreBudget::new(Threads(0).resolve())
    }

    /// Cores in this budget.
    pub fn get(self) -> usize {
        self.0
    }

    /// Splits the budget over a fan-out of (at most) `tasks` parallel
    /// workers: returns the worker count to spawn and the budget **each**
    /// worker may consume in nested fan-outs. The invariant
    /// `workers × inner.get() ≤ self.get()` holds for every input, and
    /// composes: chaining `fan_out` through any nesting keeps the product
    /// of all live workers within the original budget.
    pub fn fan_out(self, tasks: usize) -> (usize, CoreBudget) {
        let workers = self.0.min(tasks.max(1));
        (workers, CoreBudget::new(self.0 / workers))
    }

    /// The [`Threads`] knob this budget affords a single nested
    /// `design_strategy` run.
    pub fn threads(self) -> Threads {
        Threads(self.0)
    }
}

impl Default for CoreBudget {
    /// Defaults to a single core (sequential), mirroring `Threads(1)`.
    fn default() -> Self {
        CoreBudget(1)
    }
}

/// A donor design point seeding a warm-started exploration: the node
/// types of the winning architecture plus its process-to-node mapping,
/// as produced by an earlier run on the *same* application (e.g. a
/// cached near-miss result in `ftes-server`).
///
/// Hardening levels and re-execution budgets are deliberately absent:
/// the exploration re-derives both under its own policy, so a seed from
/// any strategy (MIN/MAX/OPT) is valid for any other — a mapping is a
/// mapping. The seed is validated against the actual system before use
/// ([`design_strategy`](crate::design_strategy) ignores seeds whose
/// mapping length, node-type ids or support sets do not fit) and only
/// redirects the tabu search's *start*: the architecture walk itself is
/// unchanged, so a warm-started run explores the same design space and
/// its solution passes the same analytic verification as a cold one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmStart {
    /// Node types of the donor architecture, in slot order.
    pub types: Vec<NodeTypeId>,
    /// Donor process-to-node mapping (index = process index).
    pub mapping: Vec<NodeId>,
}

/// Configuration shared by all optimization entry points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct OptConfig {
    /// Hardening policy (OPT / MIN / MAX).
    pub policy: HardeningPolicy,
    /// Rounding mode of the SFP analysis.
    pub rounding: Rounding,
    /// Re-execution search space bound, forwarded to
    /// [`ReExecutionOpt`](ftes_sfp::ReExecutionOpt).
    pub max_k: MaxK,
    /// Tabu-search parameters.
    pub tabu: TabuConfig,
    /// Cap on the number of nodes of explored architectures
    /// (`None` = up to the number of platform node types, the paper's
    /// `|N|`).
    pub max_nodes: Option<usize>,
    /// Candidate-evaluation pipeline (incremental vs from-scratch).
    pub eval_mode: EvalMode,
    /// Worker threads for the architecture exploration (1 = sequential).
    pub threads: Threads,
    /// Capacity of the cross-iteration mapping-outcome memo (entries;
    /// `MemoCap(0)` disables memoization — the unmemoized reference
    /// path).
    pub mapping_memo: MemoCap,
    /// Optional donor design point: when it validates against the
    /// system, the tabu search of the matching architecture seeds from
    /// the donor's mapping instead of the greedy heuristic start (see
    /// [`WarmStart`]). `None` (the default) is the cold path.
    pub warm_start: Option<WarmStart>,
}

/// Newtype holding the re-execution cap with a sensible default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxK(pub u32);

impl Default for MaxK {
    fn default() -> Self {
        MaxK(30)
    }
}

/// Capacity bound (entries) of the cross-iteration mapping-outcome memo
/// used by the tabu search — `MemoCap(0)` disables it. The memo is
/// LRU-bounded (segmented LRU), so long explorations hold at most this
/// many `(node types, mapping) → outcome` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoCap(pub usize);

impl Default for MemoCap {
    fn default() -> Self {
        MemoCap(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let cfg = OptConfig::default();
        assert_eq!(cfg.policy, HardeningPolicy::Optimize);
        assert_eq!(cfg.rounding, Rounding::Pessimistic);
        assert_eq!(cfg.max_k.0, 30);
        assert!(cfg.tabu.max_iterations >= cfg.tabu.max_no_improve);
        assert_eq!(cfg.max_nodes, None);
        assert_eq!(cfg.eval_mode, EvalMode::Incremental);
        assert_eq!(cfg.threads, Threads(1));
        assert_eq!(cfg.mapping_memo, MemoCap(4096));
        assert_eq!(cfg.warm_start, None);
    }

    #[test]
    fn threads_resolve() {
        assert_eq!(Threads(1).resolve(), 1);
        assert_eq!(Threads(7).resolve(), 7);
        assert!(Threads(0).resolve() >= 1);
    }

    #[test]
    fn threads_resolve_within_respects_the_budget() {
        // The Threads(0) over-claim regression: inside a CoreBudget,
        // "all cores" means the budget's share, never the machine.
        assert_eq!(Threads(0).resolve_within(CoreBudget::new(2)), 2);
        assert_eq!(Threads(0).resolve_within(CoreBudget::new(1)), 1);
        // A pinned count is an explicit override and stays pinned.
        assert_eq!(Threads(3).resolve_within(CoreBudget::new(1)), 3);
        // Composition: fan-out remainders resolve to their own share.
        let (workers, inner) = CoreBudget::new(4).fan_out(2);
        assert_eq!(workers * Threads(0).resolve_within(inner), 4);
    }

    #[test]
    fn core_budget_fan_out_never_oversubscribes() {
        for total in 1..=64usize {
            for tasks in [1usize, 2, 3, 5, 8, 64, 1000] {
                let (workers, inner) = CoreBudget::new(total).fan_out(tasks);
                assert!(workers >= 1 && workers <= tasks);
                assert!(
                    workers * inner.get() <= total,
                    "{total} cores, {tasks} tasks -> {workers} x {}",
                    inner.get()
                );
            }
        }
    }

    #[test]
    fn core_budget_composes_across_nesting() {
        // The threads² hazard: an outer pool (matrix cells) times an inner
        // pool (apps per cell) times design_strategy threads must stay
        // within the original budget for ANY nesting depth.
        for total in [1usize, 2, 3, 4, 7, 8, 16, 48] {
            for outer_tasks in [1usize, 2, 4, 36, 216] {
                for inner_tasks in [1usize, 2, 4, 8] {
                    let budget = CoreBudget::new(total);
                    let (cell_workers, per_cell) = budget.fan_out(outer_tasks);
                    let (app_workers, per_app) = per_cell.fan_out(inner_tasks);
                    let design_threads = per_app.threads().resolve();
                    assert!(
                        cell_workers * app_workers * design_threads <= total,
                        "{total} cores: {cell_workers} x {app_workers} x {design_threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn core_budget_basics() {
        assert_eq!(CoreBudget::new(0).get(), 1);
        assert_eq!(CoreBudget::default().get(), 1);
        assert!(CoreBudget::available().get() >= 1);
        let (w, inner) = CoreBudget::new(8).fan_out(3);
        assert_eq!(w, 3);
        assert_eq!(inner.get(), 2);
        let (w, inner) = CoreBudget::new(2).fan_out(16);
        assert_eq!(w, 2);
        assert_eq!(inner.get(), 1);
        assert_eq!(CoreBudget::new(4).threads(), Threads(4));
    }

    #[test]
    fn policies_are_distinct() {
        assert_ne!(HardeningPolicy::Optimize, HardeningPolicy::FixedMin);
        assert_ne!(HardeningPolicy::FixedMin, HardeningPolicy::FixedMax);
    }
}
