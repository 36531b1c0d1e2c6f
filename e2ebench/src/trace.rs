//! Span recording for the traced run.
//!
//! The benchmark wraps each call into a layer's public function in a
//! span. Spans stay in memory and are written out when the run ends; a
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover. With tracing off, [`Tracer::span`]
//! only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans a trace file holds at most; the metrics use every span.
pub const WRITTEN_SPANS: usize = 200_000;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer and function, e.g. `opt.optimize`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    /// Nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub op: u64,
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Self time, ns.
    pub self_ns: u64,
    /// Spans recorded.
    pub calls: u64,
    /// Distinct operations that entered the span.
    pub ops: u64,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Sets the operation id that later spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        r
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the first [`WRITTEN_SPANS`] spans as tab-separated lines
    /// with their self times.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = format!(
            "# {} spans recorded, the first {} written\n\
             id\tname\tstart_ns\tend_ns\tparent\top\tself_ns\n",
            self.spans.len(),
            self.spans.len().min(WRITTEN_SPANS)
        );
        let written = self.spans.iter().zip(&selfs).take(WRITTEN_SPANS);
        for (i, (s, own)) in written.enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
                s.name, s.start, s.end, s.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Each span's self time: its duration minus the union of its direct
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self time, call count and operation count per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let mut seen: BTreeMap<&'static str, std::collections::BTreeSet<u64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.self_ns += own;
        t.calls += 1;
        if seen.entry(s.name).or_default().insert(s.op) {
            t.ops += 1;
        }
    }
    out
}

/// Self time of every span below a root called `root`, excluding the
/// roots' own self time: the part of the operations' time the layers
/// account for.
pub fn layer_self_under(spans: &[Span], root: &str) -> u64 {
    let selfs = self_times(spans);
    let mut top = Vec::with_capacity(spans.len());
    let mut sum = 0;
    for (i, s) in spans.iter().enumerate() {
        let r = s.parent.map_or(i, |p| top[p]);
        top.push(r);
        if r != i && spans[r].name == root {
            sum += selfs[i];
        }
    }
    sum
}

/// Self ns per operation that entered span `name` (0 if none did).
pub fn per_op_ns(t: &BTreeMap<&'static str, LayerTotals>, name: &str) -> f64 {
    t.get(name)
        .filter(|l| l.ops > 0)
        .map_or(0.0, |l| l.self_ns as f64 / l.ops as f64)
}

/// Self ns per call of span `name` (0 if it was never called).
pub fn per_call_ns(t: &BTreeMap<&'static str, LayerTotals>, name: &str) -> f64 {
    t.get(name)
        .filter(|l| l.calls > 0)
        .map_or(0.0, |l| l.self_ns as f64 / l.calls as f64)
}

/// Calls of span `name` per operation that entered it (0 if none did).
pub fn calls_per_op(t: &BTreeMap<&'static str, LayerTotals>, name: &str) -> f64 {
    t.get(name)
        .filter(|l| l.ops > 0)
        .map_or(0.0, |l| l.calls as f64 / l.ops as f64)
}

/// Operation time of the untraced and the traced rounds of a traced
/// run, which alternate so that drift in machine speed reaches both.
#[derive(Clone, Copy, Debug, Default)]
pub struct Overhead {
    plain_ns: u64,
    plain_ops: u64,
    traced_ns: u64,
    traced_ops: u64,
}

impl Overhead {
    /// Adds `ops` operations that took `ns` in all.
    pub fn add(&mut self, traced: bool, ns: u64, ops: u64) {
        if traced {
            self.traced_ns += ns;
            self.traced_ops += ops;
        } else {
            self.plain_ns += ns;
            self.plain_ops += ops;
        }
    }

    fn plain_per_op(&self) -> f64 {
        self.plain_ns as f64 / self.plain_ops.max(1) as f64
    }

    /// `trace.overhead`: traced time per operation over untraced, less
    /// one; and `trace.accounted`: the layers' self time per traced
    /// operation over the untraced time per operation.
    pub fn metrics(&self, layer_self_ns: u64, out: &mut BTreeMap<&'static str, f64>) {
        let traced = self.traced_ns as f64 / self.traced_ops.max(1) as f64;
        out.insert("trace.overhead", traced / self.plain_per_op() - 1.0);
        out.insert(
            "trace.accounted",
            layer_self_ns as f64 / self.traced_ops.max(1) as f64 / self.plain_per_op(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_of_nested_spans() {
        // op [0,100] ⊃ a [10,40] ⊃ b [20,30]; op ⊃ c [50,90].
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let t = totals(&spans);
        assert_eq!(
            t["op"].self_ns + t["a"].self_ns + t["b"].self_ns + t["c"].self_ns,
            100
        );
    }

    #[test]
    fn layer_time_under_operation_roots_only() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("check", 100, 150, None),
            span("a", 110, 140, Some(3)),
        ];
        assert_eq!(layer_self_under(&spans, "op"), 30);
        let mut m = BTreeMap::new();
        let mut o = Overhead::default();
        o.add(false, 1000, 10);
        o.add(true, 1100, 10);
        o.metrics(95, &mut m);
        assert!((m["trace.overhead"] - 0.1).abs() < 1e-12);
        assert!((m["trace.accounted"] - 0.095).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("p", 10, 50, None),
            span("x", 5, 20, Some(0)),
            span("y", 15, 30, Some(0)),
            span("z", 45, 60, Some(0)),
        ];
        // Covered: [10,30] and [45,50] = 25 of 40.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn recorder_nests_and_counts_operations() {
        let mut t = Tracer::new(true);
        for op in 0..3 {
            t.set_op(op);
            t.span("op", |t| {
                t.span("layer", |t| t.span("inner", |_| ()));
                t.span("layer", |_| ());
            });
        }
        let s = t.spans();
        assert_eq!(s.len(), 12);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|x| x.end >= x.start));
        let tot = totals(s);
        assert_eq!((tot["layer"].calls, tot["layer"].ops), (6, 3));
        let sum: u64 = tot.values().map(|l| l.self_ns).sum();
        let roots: u64 = s
            .iter()
            .filter(|x| x.parent.is_none())
            .map(|x| x.end - x.start)
            .sum();
        assert_eq!(sum, roots, "self times partition the root spans");

        let mut off = Tracer::new(false);
        assert_eq!(off.span("op", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
