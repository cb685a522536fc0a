//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer crate; the program itself is not instrumented. A span has a
//! name, a start and end (nanoseconds since the recorder was created), the
//! span that caused it and the request it belongs to. Spans are kept in
//! memory and written as JSON lines when the run ends.

use cmc_store::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    /// Layer boundary the span covers, e.g. `smv.parse`.
    pub(crate) name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub(crate) parent: Option<usize>,
    /// Request (job) the span belongs to.
    pub(crate) req: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub(crate) start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub(crate) end_ns: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a top-level span of request `req`.
    pub(crate) fn root<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        assert!(self.open.is_empty(), "root span opened inside {name}");
        self.record(name, req, f)
    }

    /// Run `f` inside a span nested in the innermost open span.
    pub(crate) fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let parent = *self.open.last().expect("span outside a root span");
        let req = self.spans[parent].req;
        self.record(name, req, f)
    }

    fn record<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            req,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Total self time in nanoseconds per span name: each span's duration
    /// minus the part of it its child spans cover.
    pub(crate) fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *totals.entry(span.name).or_insert(0) += span.end_ns - span.start_ns - children;
        }
        totals
    }

    /// The spans as JSON lines tagged with `workload`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(Json::Null, |p| Json::int(p as u64));
            let line = Json::Obj(vec![
                ("workload".into(), Json::Str(workload.to_string())),
                ("id".into(), Json::int(id as u64)),
                ("parent".into(), parent),
                ("req".into(), Json::int(span.req)),
                ("name".into(), Json::Str(span.name.to_string())),
                ("start_ns".into(), Json::int(span.start_ns)),
                ("end_ns".into(), Json::int(span.end_ns)),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.root("job", 7, |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.req == 7));
        let totals = t.self_time_ns();
        let sum: u64 = totals.values().sum();
        assert_eq!(sum, spans[0].end_ns - spans[0].start_ns);
        assert!(totals["b"] >= 2_000_000);
    }
}
