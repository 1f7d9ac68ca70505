//! The traced run's spans. The benchmark records spans around its own
//! calls into each layer's public functions — nothing inside the program
//! is instrumented — keeps them in memory as (name, start, end, parent,
//! statement id, work units) and writes them out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `cb.counter_based`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// The statement the span belongs to.
    pub stmt: usize,
    /// Units of work the call did (events, windows, postings, cells, …).
    pub work: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, stmt: usize) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            stmt,
            work: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span, recording the work it did.
    pub fn end(&mut self, id: usize, work: u64) {
        let end = self.now();
        if let Some(s) = self.spans.get_mut(id) {
            s.end = end;
            s.work = work;
        }
    }

    /// Records a span timed elsewhere (ns on that caller's clock).
    pub fn record(&mut self, name: &'static str, stmt: usize, start: u64, end: u64, work: u64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: None,
            stmt,
            work,
        });
    }

    /// Times `f` as one span whose work is the second value `f` returns.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        stmt: usize,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let id = self.begin(name, parent, stmt);
        let (out, work) = f();
        self.end(id, work);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines:
    /// `id name start_ns end_ns parent stmt work`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tstmt\twork")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start, s.end, s.stmt, s.work
            )?;
        }
        out.flush()
    }

    /// Per-name totals: calls, summed self time (ns) and summed work.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            let dur = s.end.saturating_sub(s.start);
            t.calls += 1;
            t.ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
            t.work += s.work;
            t.durations.push(dur as f64);
        }
        out
    }
}

/// Aggregates of one span name.
#[derive(Debug, Default, Clone)]
pub struct LayerTotal {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, ns.
    pub ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
    /// Summed work units.
    pub work: u64,
    /// Every span's duration, ns.
    pub durations: Vec<f64>,
}

impl LayerTotal {
    /// Nanoseconds per unit of work (0 when no work was recorded).
    pub fn ns_per_unit(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.work as f64
        }
    }

    /// Median span duration in microseconds (0 when no span was recorded).
    pub fn median_us(&self) -> f64 {
        crate::stats::median(&self.durations).map_or(0.0, |ns| ns / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.begin("stmt", None, 7);
        let child = t.span("child", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            (1, 10)
        });
        assert_eq!(child, 1);
        t.end(root, 0);
        let totals = t.totals();
        let (r, c) = (&totals["stmt"], &totals["child"]);
        assert_eq!(c.work, 10);
        assert!(r.ns >= c.ns);
        assert_eq!(r.self_ns, r.ns - c.ns);
        assert!(c.ns_per_unit() > 0.0);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].stmt, 7);
    }
}
