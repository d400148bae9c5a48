//! In-memory spans recorded by the benchmark around calls into each
//! layer: name, start, end, parent span and a shared id per cell or
//! request. Spans stay in memory until the run ends, then go to one
//! JSON-lines file.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `opt.design.opt`.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    /// The cell or request this span belongs to.
    pub id: u64,
    /// Recording thread (0-based, per trace).
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Spans nest strictly (enter/exit pairs on
/// one thread), so a stack of open span indices gives each new span its
/// parent.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Whether spans are recorded at all (see [`Recorder::off`]).
    on: bool,
}

impl Recorder {
    /// A recorder for `thread`, timing relative to `origin`.
    pub fn new(origin: Instant, thread: u32) -> Recorder {
        Recorder {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            on: true,
        }
    }

    /// A recorder that records nothing: the same code path runs with and
    /// without spans, so their difference is the cost of tracing alone.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::new(Instant::now(), 0)
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`exit`](Recorder::exit).
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        if !self.on {
            return 0;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
            thread: self.thread,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans must nest");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.enter(name, id);
        let out = f(self);
        self.exit(index);
        out
    }
}

/// Whether a span times a call into a layer. The wrappers around a
/// whole operation — a matrix cell, a distributed run, a client request
/// and its connect and exchange — are not layer calls: their self time
/// is the benchmark's own glue, or, on the client side, everything the
/// server does.
pub fn is_layer(name: &str) -> bool {
    !(name == "matrix.cell" || name == "dist.run" || name.starts_with("client."))
}

/// All spans of one traced phase.
#[derive(Debug, Default)]
pub struct Trace {
    /// Every span, parents before children within one thread's block.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Moves a finished recorder's spans in, rebasing parent indices.
    pub fn absorb(&mut self, recorder: Recorder) {
        debug_assert!(recorder.open.is_empty(), "unclosed span");
        let base = self.spans.len();
        self.spans
            .extend(recorder.spans.into_iter().map(|mut span| {
                span.parent = span.parent.map(|p| p + base);
                span
            }));
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children nest inside their parent, so their
    /// durations simply subtract).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, children)| span.dur_ns().saturating_sub(children))
            .collect()
    }

    /// Self times in milliseconds, grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            by_name
                .entry(span.name)
                .or_default()
                .push(self_ns as f64 / 1e6);
        }
        by_name
    }

    /// The share of `threads × wall` that layer spans cover: the summed
    /// self times of every span but the wrappers (see [`is_layer`]) over
    /// the traced capacity. 0 when no layer span ran.
    pub fn coverage(&self, threads: usize, wall_s: f64) -> f64 {
        let covered: u64 = self
            .spans
            .iter()
            .zip(self.self_ns())
            .filter(|(span, _)| is_layer(span.name))
            .map(|(_, self_ns)| self_ns)
            .sum();
        covered as f64 / 1e9 / (threads.max(1) as f64 * wall_s).max(f64::MIN_POSITIVE)
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// Returns a one-line description when the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
        );
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"thread\":{}}}",
                span.name, span.start_ns, span.end_ns, span.id, span.thread
            )
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        out.flush()
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_layer_spans() {
        let mut trace = Trace::default();
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
            thread: 0,
        };
        trace.spans.push(mk("matrix.cell", 0, 100, None));
        trace.spans.push(mk("gen.generate", 10, 30, Some(0)));
        trace.spans.push(mk("opt.design.opt", 30, 90, Some(0)));
        assert_eq!(trace.self_ns(), vec![20, 20, 60]);
        let covered = trace.coverage(1, 200e-9);
        assert!((covered - 0.4).abs() < 1e-9, "{covered}");

        // Client-side wrappers alone cover no layer.
        let mut client = Trace::default();
        client.spans.push(mk("client.request", 0, 100, None));
        client.spans.push(mk("client.exchange", 10, 90, Some(0)));
        assert_eq!(client.coverage(1, 100e-9), 0.0);
    }

    #[test]
    fn recorder_nests_spans_under_their_parent() {
        let mut rec = Recorder::new(Instant::now(), 3);
        rec.span("outer", 7, |rec| rec.span("inner", 7, |_| ()));
        let mut trace = Trace::default();
        trace.absorb(Recorder::new(Instant::now(), 0));
        trace.absorb(rec);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[1].thread, 3);

        let mut off = Recorder::off();
        assert_eq!(off.span("outer", 1, |rec| rec.span("inner", 1, |_| 5)), 5);
        let mut trace = Trace::default();
        trace.absorb(off);
        assert!(trace.spans.is_empty());
    }
}
