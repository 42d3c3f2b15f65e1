//! Spans recorded by the benchmark's own code around calls into the
//! workspace crates. Nothing inside `crates/` is instrumented for this;
//! every layer is timed from outside, at its public boundary.
//!
//! Spans are kept in memory and written out once, at the end. The
//! recorder is single-threaded by design: the decomposed passes run
//! serially on one lane, so a span's time is the layer's own time, not a
//! share of a contended pool.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to (spans of one operation share it).
    pub op: u64,
    /// Items the call processed (poses in a batch, rows in a GEMM); 1 for
    /// per-item calls. Per-item times divide by this.
    pub items: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and item count of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub items: u64,
    pub self_ns: u64,
}

impl NameTotal {
    pub fn us_per_item(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.items.max(1) as f64
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span of `items` items under the currently open
    /// span; `f` gets the recorder back so it can record children.
    pub fn span_of<R>(
        &mut self,
        name: &'static str,
        op: u64,
        items: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op, items });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// A structural span (a pass, a stage) with children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        self.span_of(name, op, 1, f)
    }

    /// A leaf: one call into a crate, processing `items` items.
    pub fn call<R>(&mut self, name: &'static str, op: u64, items: u64, f: impl FnOnce() -> R) -> R {
        self.span_of(name, op, items, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time of each span's direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        child_ns
    }

    /// Which spans are, or lie beneath, a root span named `root`.
    fn under(&self, root: &str) -> Vec<bool> {
        let mut under = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are always recorded before their children.
            under[i] = match s.parent {
                Some(p) => under[p],
                None => s.name == root,
            };
        }
        under
    }

    /// Self time (span time minus the time of its child spans) summed per
    /// span name, over every span.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        self.totals_where(|_| true)
    }

    /// [`totals`](Self::totals) over the spans beneath roots named `root`.
    pub fn totals_under(&self, root: &str) -> BTreeMap<&'static str, NameTotal> {
        let under = self.under(root);
        self.totals_where(|i| under[i])
    }

    fn totals_where(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, NameTotal> {
        let child_ns = self.child_ns();
        let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (i, (s, children)) in self.spans.iter().zip(child_ns).enumerate() {
            if !keep(i) {
                continue;
            }
            let t = totals.entry(s.name).or_default();
            t.calls += 1;
            t.items += s.items;
            t.self_ns += s.ns().saturating_sub(children);
        }
        totals
    }

    /// Total time of the root spans named `root`, and the share of it
    /// spent inside leaf spans (spans with no children) beneath them.
    pub fn leaf_coverage(&self, root: &str) -> (u64, f64) {
        let mut has_child = vec![false; self.spans.len()];
        for p in self.spans.iter().filter_map(|s| s.parent) {
            has_child[p] = true;
        }
        let under_root = self.under(root);
        let (mut root_ns, mut leaf_ns) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if !under_root[i] {
                continue;
            }
            if s.parent.is_none() {
                root_ns += s.ns();
            } else if !has_child[i] {
                leaf_ns += s.ns();
            }
        }
        (root_ns, if root_ns == 0 { 0.0 } else { leaf_ns as f64 / root_ns as f64 })
    }

    /// Writes every span as JSON: a name table, then one
    /// `[name, start_ns, end_ns, parent, op, items]` row per span (`parent`
    /// is a row index, or -1 for a root).
    pub fn write_json(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        use std::io::Write;
        let mut names: Vec<&'static str> = Vec::new();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                let parent = s.parent.map_or(-1, |p| p as i64);
                format!("[{name},{},{},{parent},{},{}]", s.start_ns, s.end_ns, s.op, s.items)
            })
            .collect();
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(out, "{{{header},")?;
        writeln!(
            out,
            "\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\",\"items\"],"
        )?;
        writeln!(out, "\"names\":[{}],", names.join(","))?;
        writeln!(out, "\"spans\":[\n{}\n]}}", rows.join(",\n"))?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_time_minus_child_spans() {
        let mut rec = Recorder::new();
        rec.span("decomposed", 7, |rec| {
            spin(300); // glue, belongs to "decomposed" itself
            rec.call("leaf.a", 7, 1, || spin(500));
            rec.call("leaf.b", 7, 4, || spin(700));
        });
        let totals = rec.totals();
        let (root, a, b) = (totals["decomposed"], totals["leaf.a"], totals["leaf.b"]);
        assert_eq!((a.calls, a.items, b.calls, b.items), (1, 1, 1, 4));
        assert!(a.self_ns >= 500_000 && b.self_ns >= 700_000);
        assert!(root.self_ns >= 300_000, "glue was {} ns", root.self_ns);
        assert_eq!(root.self_ns, rec.spans()[0].ns() - a.self_ns - b.self_ns);
        assert_eq!(rec.totals_under("decomposed"), totals);
        assert!(rec.totals_under("entry").is_empty());
        assert!((b.us_per_item() - b.self_ns as f64 / 4e3).abs() < 1e-9);

        let (root_ns, coverage) = rec.leaf_coverage("decomposed");
        assert_eq!(root_ns, rec.spans()[0].ns());
        let want = (a.self_ns + b.self_ns) as f64 / root_ns as f64;
        assert!((coverage - want).abs() < 1e-9 && coverage < 0.9, "coverage {coverage}");
    }

    #[test]
    fn parents_and_operations_are_recorded() {
        let mut rec = Recorder::new();
        rec.span("entry", 1, |rec| rec.call("x", 1, 1, || ()));
        rec.span("other", 2, |_| ());
        let parents: Vec<Option<usize>> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None]);
        assert_eq!(rec.spans()[2].op, 2);
        // A root of another name does not count toward this root's coverage.
        assert_eq!(rec.leaf_coverage("missing"), (0, 0.0));
    }
}
