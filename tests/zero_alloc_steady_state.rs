//! Allocation regression test for the PR 6 candidate arena: steady-state
//! probe evaluation must not touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator; each test
//! warms the engine (memo caches filled, SoA buffers at their working
//! capacity, arena stocked with recyclable candidates) and then pins
//! steady-state probe patterns at **zero allocations**:
//!
//! 1. an alternating executed-probe walk through `evaluate`
//!    (hardening flip — delta SFP splice, priority delta, flat schedule,
//!    arena-recycled candidate);
//! 2. repeated evaluation of one candidate through `evaluate`;
//! 3. whole memoized redundancy-walk revisits through
//!    `redundancy_opt_memo` (both the mapping-memo hit and, with the memo
//!    disabled, the pooled-architecture walk over executed probes);
//! 4. a second pass over a set of distinct candidates, every one of which
//!    is executed again and recycles an arena candidate.
//!
//! The counter is per thread, so tests running concurrently in this
//! binary (and the harness's own threads) cannot pollute each other's
//! counts.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use ftes::model::{paper, HLevel, Mapping, NodeId, ProcessId};
use ftes::opt::{redundancy_opt_memo, Evaluator, MemoCap, OptConfig, RedundancyMemo};

/// Counts every allocation (and reallocation — a growing `Vec` must not
/// hide behind `realloc`) on top of the system allocator.
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. `const`-initialized and
    /// drop-free, so reading it from inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed on the
/// calling thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    let after = ALLOCS.with(Cell::get);
    (after - before, result)
}

#[test]
fn steady_state_probes_allocate_nothing() {
    let system = paper::fig1_system();
    let config = OptConfig::default();
    let (arch_lo, mapping) = paper::fig4_alternative('a');
    let mut arch_hi = arch_lo.clone();
    arch_hi.set_hardening(NodeId::new(0), HLevel::new(3).unwrap());

    // --- 1. executed alternating probes through the arena ---------------
    let mut ev = Evaluator::new(&system, &config);
    for _ in 0..8 {
        // Results dropped immediately: the tracked candidates become
        // uniquely referenced and recyclable.
        ev.evaluate(&arch_lo, &mapping).unwrap();
        ev.evaluate(&arch_hi, &mapping).unwrap();
    }
    let reuses_before = ev.stats().arena_reuses;
    let (allocs, _) = allocations_in(|| {
        for _ in 0..32 {
            let a = ev.evaluate(&arch_lo, &mapping).unwrap();
            drop(a);
            let b = ev.evaluate(&arch_hi, &mapping).unwrap();
            drop(b);
        }
    });
    assert_eq!(
        allocs, 0,
        "warmed alternating executed probes must be allocation-free"
    );
    let reuses = ev.stats().arena_reuses - reuses_before;
    assert_eq!(reuses, 64, "every executed probe must recycle a candidate");

    // --- 2. repeated evaluation of one candidate ------------------------
    ev.evaluate(&arch_lo, &mapping).unwrap();
    ev.evaluate(&arch_lo, &mapping).unwrap();
    let (allocs, _) = allocations_in(|| {
        for _ in 0..32 {
            let repeat = ev.evaluate(&arch_lo, &mapping).unwrap();
            drop(repeat);
        }
    });
    assert_eq!(
        allocs, 0,
        "repeated evaluation of one candidate must be allocation-free"
    );

    // --- 3a. mapping-memo revisits --------------------------------------
    let mut memo_ev = Evaluator::new(&system, &config);
    let mut memo = RedundancyMemo::from_config(&config);
    redundancy_opt_memo(&mut memo_ev, &mut memo, &arch_lo, &mapping).unwrap();
    redundancy_opt_memo(&mut memo_ev, &mut memo, &arch_lo, &mapping).unwrap();
    let (allocs, _) = allocations_in(|| {
        for _ in 0..32 {
            let out = redundancy_opt_memo(&mut memo_ev, &mut memo, &arch_lo, &mapping).unwrap();
            drop(out);
        }
    });
    assert_eq!(allocs, 0, "mapping-memo revisits must be allocation-free");

    // --- 3b. unmemoized revisits: the full pooled hardening walk --------
    let mut plain_ev = Evaluator::new(&system, &config);
    let mut no_memo = RedundancyMemo::new(MemoCap(0));
    redundancy_opt_memo(&mut plain_ev, &mut no_memo, &arch_lo, &mapping).unwrap();
    redundancy_opt_memo(&mut plain_ev, &mut no_memo, &arch_lo, &mapping).unwrap();
    let (allocs, _) = allocations_in(|| {
        for _ in 0..32 {
            let out = redundancy_opt_memo(&mut plain_ev, &mut no_memo, &arch_lo, &mapping).unwrap();
            drop(out);
        }
    });
    assert_eq!(
        allocs, 0,
        "unmemoized redundancy revisits (pooled arch + executed probes) must be allocation-free"
    );
}

#[test]
fn second_pass_over_distinct_candidates_recycles_every_probe() {
    let system = paper::fig1_system();
    let config = OptConfig::default();
    let (base, _) = paper::fig4_alternative('a');
    let levels = [HLevel::new(2).unwrap(), HLevel::new(3).unwrap()];

    // Every mapping of the four processes onto N1/N2, at both hardening
    // levels on both nodes.
    let mut set = Vec::new();
    for bits in 0u32..16 {
        let mut mapping = Mapping::all_on(4, NodeId::new(0));
        for p in 0..4 {
            if bits & (1 << p) != 0 {
                mapping.assign(ProcessId::new(p), NodeId::new(1));
            }
        }
        for &h0 in &levels {
            for &h1 in &levels {
                let mut arch = base.clone();
                arch.set_hardening(NodeId::new(0), h0);
                arch.set_hardening(NodeId::new(1), h1);
                set.push((arch, mapping.clone()));
            }
        }
    }

    // Warm-up pass. Every candidate must reach the goal: an unreachable
    // one returns no candidate, so it would not go through the arena.
    let mut ev = Evaluator::new(&system, &config);
    for (arch, mapping) in &set {
        assert!(ev.evaluate(arch, mapping).unwrap().is_some());
    }

    let before = ev.stats();
    let (allocs, _) = allocations_in(|| {
        for (arch, mapping) in &set {
            let candidate = ev.evaluate(arch, mapping).unwrap();
            drop(candidate);
        }
    });
    let after = ev.stats();
    let n = set.len() as u64;
    assert_eq!(
        after.evaluations_executed() - before.evaluations_executed(),
        n,
        "every repeated candidate must be executed again"
    );
    assert_eq!(
        after.arena_reuses - before.arena_reuses,
        n,
        "every repeated candidate must recycle an arena candidate"
    );
    assert_eq!(allocs, 0, "the second pass must be allocation-free");
}
