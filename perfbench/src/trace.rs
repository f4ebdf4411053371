//! In-memory spans recorded around calls into the program's crates.
//!
//! A span has a name, a start and end, the span that was open when it began
//! (its parent) and the id of the op it belongs to. Spans are kept in memory
//! while the benchmark runs and written out when it ends; a layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `merge.generate_schedule_table`.
    pub name: &'static str,
    /// Op the span belongs to (every span of one op shares it).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans; nesting follows the call structure of [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with no spans, timing from now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `body` inside a span named `name` of op `op`; spans opened by
    /// `body` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, body: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.now_ns();
        let result = body(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        result
    }

    /// The spans recorded so far, in the order they were opened.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`, in order.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Tab-separated dump of every span with its self time.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let selves = self_times_ns(&self.spans);
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (span, self_ns)) in self.spans.iter().zip(&selves).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                span.op, span.name, span.start_ns, span.end_ns
            );
        }
        out
    }

    /// Total self time in milliseconds per span name.
    #[must_use]
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *totals.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        totals
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own interval.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a` by 10 and runs past the parent's end.
            span("b", Some(0), 20, 120),
            span("c", Some(1), 12, 18),
            span("other", None, 200, 250),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 14, 100, 6, 50]);
    }

    #[test]
    fn nesting_follows_the_calls() {
        let mut tracer = Tracer::new();
        let value = tracer.span("op", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| 3)
        });
        tracer.span("beside", 7, |_| ());
        assert_eq!(value, 3);
        let parents: Vec<Option<usize>> = tracer.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(tracer
            .spans()
            .iter()
            .all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(tracer.durations_ms("inner").len(), 2);
        assert_eq!(tracer.to_tsv().lines().count(), 5);
        let selves = self_times_ns(tracer.spans());
        let op = &tracer.spans()[0];
        let inner: u64 = tracer.spans()[1..3].iter().map(Span::duration_ns).sum();
        assert_eq!(selves[0], op.duration_ns() - inner);
    }
}
