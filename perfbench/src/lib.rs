//! End-to-end and per-layer benchmark of the ftes workspace.
//!
//! One binary runs one named workload for a fixed time and prints every
//! end-to-end metric by name with its unit; `--trace 1` runs the same
//! workload again with spans recorded around each call into a layer and
//! prints the per-layer metrics instead. Every layer is measured from
//! outside, by timing calls into that crate's public functions.
//!
//! Workloads (all generated from the `--seed` argument):
//!
//! * [`sweep`] — `ScenarioMatrix::full_v2()` (216 cells, MAX/MIN/OPT)
//!   through `run_cells_streaming` at `Threads(2)`: the engine
//!   (`gen` → `opt` → `sched`/`sfp`) and the matrix pool, no sockets.
//! * [`dist`] — the same axes at one application per cell through
//!   `run_dist_local_opts` with two loopback workers and an fsync'd
//!   `Journal`: the lease/frame/journal path.
//! * [`serve`] `serve_cold` — an in-process `Server` with a small disk
//!   cap, one connection per request and mostly new keys: protocol,
//!   cache stores, evictions, warm starts, coalescing and accept waits.

pub mod dist;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads [`run`] accepts, in `BENCHMARK.json`'s order.
pub const WORKLOADS: [&str; 3] = ["sweep", "dist_journal", "serve_cold"];

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The label `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric every workload prints in untraced runs:
/// `(name, unit, better)`. Each workload defines "operation" as its unit
/// of work — a matrix cell on `sweep` and `dist_journal`, an `optimize`
/// request on `serve_cold`.
pub const END_TO_END: [(&str, &str, Better); 5] = [
    ("setup_s", "s", Better::Lower),
    ("ops_per_s", "1/s", Better::Higher),
    ("op_p50_ms", "ms", Better::Lower),
    ("op_tail_ms", "ms", Better::Lower),
    ("opt_accept_pct", "%", Better::Higher),
];

/// A metric every workload prints in traced runs, with the end-to-end
/// metric and workload it should move (`README.md` lists the same
/// predictions). A layer a workload does not exercise reads 0 there.
/// `proc.peak_rss_mb` is measured by every run, traced or not (stderr
/// shows it); it carries no bound because the same inputs moved it by
/// 15–25 % between runs.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("proc.peak_rss_mb", "MB", Better::Lower),
    ("gen.generate_ms", "ms", Better::Lower),
    ("opt.design_ms.max.p50", "ms", Better::Lower),
    ("opt.design_ms.max.p95", "ms", Better::Lower),
    ("opt.design_ms.min.p50", "ms", Better::Lower),
    ("opt.design_ms.min.p95", "ms", Better::Lower),
    ("opt.design_ms.opt.p50", "ms", Better::Lower),
    ("opt.design_ms.opt.p95", "ms", Better::Lower),
    ("opt.archs_evaluated", "count", Better::Lower),
    ("opt.archs_pruned", "count", Better::Higher),
    ("opt.evals", "count", Better::Lower),
    ("opt.evals_executed", "count", Better::Lower),
    ("opt.eval_hit_ratio", "ratio", Better::Higher),
    ("opt.mapping_memo_hit_ratio", "ratio", Better::Higher),
    ("opt.sfp_reuse_ratio", "ratio", Better::Higher),
    ("opt.priority_reuse_ratio", "ratio", Better::Higher),
    ("opt.batched_probes", "count", Better::Lower),
    ("opt.warm_seeded", "count", Better::Higher),
    ("sched.run_light_flat_us", "us", Better::Lower),
    ("sched.priority_delta_us", "us", Better::Lower),
    ("sfp.splice_us", "us", Better::Lower),
    ("opt.score_neighborhood_us", "us", Better::Lower),
    ("matrix.cell_ms.p50", "ms", Better::Lower),
    ("matrix.cell_ms.p95", "ms", Better::Lower),
    ("matrix.pool_utilization", "ratio", Better::Higher),
    ("dist.overhead_ratio", "ratio", Better::Lower),
    ("dist.emit_gap_ms.p50", "ms", Better::Lower),
    ("dist.emit_gap_ms.p95", "ms", Better::Lower),
    ("dist.frame_us", "us", Better::Lower),
    ("dist.leases_granted", "count", Better::Lower),
    ("dist.leases_requeued", "count", Better::Lower),
    ("dist.results_rejected", "count", Better::Lower),
    ("dist.duplicates_dropped", "count", Better::Lower),
    ("dist.local_fallback_cells", "count", Better::Lower),
    ("journal.append_ms.p50", "ms", Better::Lower),
    ("journal.append_ms.p99", "ms", Better::Lower),
    ("journal.replay_ms", "ms", Better::Lower),
    ("journal.bytes_per_record", "B", Better::Lower),
    ("server.parse_us", "us", Better::Lower),
    ("server.render_us", "us", Better::Lower),
    ("cache.lookup_us.mem", "us", Better::Lower),
    ("cache.lookup_us.disk", "us", Better::Lower),
    ("cache.store_us", "us", Better::Lower),
    ("cache.find_warm_us", "us", Better::Lower),
    ("cache.mem_hits", "count", Better::Higher),
    ("cache.disk_hits", "count", Better::Higher),
    ("cache.misses", "count", Better::Lower),
    ("cache.coalesced", "count", Better::Higher),
    ("cache.warm_starts", "count", Better::Higher),
    ("cache.mem_evictions", "count", Better::Lower),
    ("cache.disk_evictions", "count", Better::Lower),
    ("cache.disk_writes", "count", Better::Lower),
    ("cache.errors", "count", Better::Lower),
    ("cache.hit_ratio", "ratio", Better::Higher),
    ("server.latency_ms.mem.p50", "ms", Better::Lower),
    ("server.latency_ms.mem.p99", "ms", Better::Lower),
    ("server.latency_ms.disk.p50", "ms", Better::Lower),
    ("server.latency_ms.disk.p99", "ms", Better::Lower),
    ("server.latency_ms.miss.p50", "ms", Better::Lower),
    ("server.latency_ms.miss.p99", "ms", Better::Lower),
    ("server.latency_ms.warm.p50", "ms", Better::Lower),
    ("server.latency_ms.warm.p99", "ms", Better::Lower),
    ("server.latency_ms.coalesced.p50", "ms", Better::Lower),
    ("server.latency_ms.coalesced.p99", "ms", Better::Lower),
    ("server.connect_ms", "ms", Better::Lower),
    ("server.socket_ms", "ms", Better::Lower),
    ("server.engine_share", "ratio", Better::Higher),
    ("trace.coverage", "ratio", Better::Higher),
    ("trace.overhead", "ratio", Better::Lower),
];

/// Looks up the unit of a named end-to-end or per-layer metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
}

/// How one run is set up.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// Shrink every input to a few seconds of work (the benchmark's own
    /// tests use this; the published numbers never do).
    pub small: bool,
    /// Scratch directory for cache directories, journals and the span
    /// dump; created if absent, emptied of this workload's files first.
    pub work_dir: PathBuf,
}

impl Opts {
    /// The deadline of a timed phase starting now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64((self.seconds * share).max(0.0))
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (cells or requests), plus checked items.
    pub attempted: u64,
    /// Operations that failed: error responses, failed output checks and
    /// dist accounting errors.
    pub failed: u64,
    /// `(name, value)` of every metric measured, in print order.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines (sample counts, percentile choices) printed
    /// to stderr next to the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn put(&mut self, name: &str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unlisted metric {name}");
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Records a human-readable note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked item and whether it failed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The share of attempted operations that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object carrying every metric of the
    /// requested kind (end-to-end or per-layer) with its unit. A
    /// per-layer metric the workload did not exercise prints as 0.
    pub fn json_line(&self, trace: bool) -> String {
        let names: Vec<&str> = if trace {
            PER_LAYER.iter().map(|(n, _, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _, _)| *n).collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let value = self.get(name).unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(value),
                    unit_of(name).expect("listed metric")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Renders a finite number with all its digits (`{:?}` is the shortest
/// round-trip form, and a valid JSON number for finite values).
fn json_number(value: f64) -> String {
    format!("{value:?}")
}

/// A small deterministic generator (SplitMix64): the benchmark's inputs
/// depend only on the seed, never on the platform's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One element of `items`, uniformly.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Restarts the process's peak-resident-set (`VmHWM`) counter, so the
/// next [`peak_rss_mb`] covers only what runs after this call (set-up
/// work is reported by `setup_s`, not here). Free heap pages are handed
/// back first: glibc keeps freed memory in whichever per-thread arena
/// freed it, so without the trim the peak mostly measures how earlier
/// work happened to spread over arenas, which swung it by 20–30 %
/// between runs. Linux ≥ 4.0; elsewhere the peak covers the process.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns free memory to the kernel;
        // it takes the allocator's own locks and has no preconditions.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `setup` `reps` times and returns the median seconds plus the
/// last set-up's product (the one the timed phase uses). Earlier
/// products are dropped before the next set-up starts.
pub fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        drop(last.take());
        let started = Instant::now();
        let product = setup(rep)?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(product);
    }
    Ok((
        stats::median(&times),
        last.expect("at least one set-up ran"),
    ))
}

/// How many times each run repeats its set-up to report the median.
pub const SETUP_REPS: usize = 5;

/// Whether a timed phase made of whole passes should stop: when another
/// pass of the last pass's length would end further past `deadline`
/// than stopping now falls short of it. The pass count then rounds
/// `--seconds / pass length` to the nearest whole number (at least one).
pub fn passes_done(deadline: Instant, last_pass_s: f64) -> bool {
    let now = Instant::now();
    now >= deadline || (deadline - now).as_secs_f64() < last_pass_s / 2.0
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a one-line description when the workload cannot run at all
/// (unknown name, a socket that cannot be bound, an unwritable scratch
/// directory). Failed output checks are not errors: they are counted in
/// [`Report::failed`].
pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let report = match workload {
        "sweep" => sweep::run(opts)?,
        "dist_journal" => dist::run(opts)?,
        "serve_cold" => serve::run(opts)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(report)
}
