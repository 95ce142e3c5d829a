//! In-memory spans recorded around calls into each layer, written as
//! Chrome-trace JSON when the run ends. Spans live in the harness only:
//! the program under test is not instrumented here.

use std::path::Path;
use std::time::Instant;

use overlap_json::Json;

/// One closed interval of work, in microseconds since the tracer began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op share its identifier (0 = set-up, not an op).
    pub op: u64,
}

/// Span sink; a disabled tracer drops everything, so call sites need no
/// branches of their own.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn micros(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span; returns its index for use as a parent.
    pub fn add(
        &mut self,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span { name: name.to_string(), start_us, end_us, parent, op });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let (start, end) = (self.micros(t0), self.micros(Instant::now()));
        self.add(name, start, end, None, op);
        out
    }

    /// Lays `children` (name, seconds) end to end inside `parent`,
    /// starting at the parent's start — how phase timings a layer
    /// publishes as durations become spans.
    pub fn lay_out(&mut self, parent: Option<usize>, children: &[(String, f64)]) {
        let Some(p) = parent else { return };
        let (mut cursor, op) = (self.spans[p].start_us, self.spans[p].op);
        for (name, seconds) in children {
            let end = cursor + seconds * 1e6;
            self.add(name, cursor, end, Some(p), op);
            cursor = end;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> Vec<(String, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut totals: Vec<(String, f64)> = Vec::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let ms = uncovered_us(s, kids) / 1e3;
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += ms,
                None => totals.push((s.name.clone(), ms)),
            }
        }
        totals
    }

    /// Writes the Chrome trace-event file (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("name", s.name.as_str())
                    .with("ph", "X")
                    .with("ts", s.start_us)
                    .with("dur", s.end_us - s.start_us)
                    .with("pid", 1u64)
                    // One row per nesting depth keeps parents above children.
                    .with("tid", depth(&self.spans, s) as u64)
                    .with(
                        "args",
                        Json::obj()
                            .with("op", s.op)
                            .with("parent", s.parent.map_or(Json::Null, |p| (p as u64).into())),
                    )
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::obj().with("traceEvents", events).to_string())
    }
}

fn depth(spans: &[Span], s: &Span) -> usize {
    let mut d = 0;
    let mut cur = s.parent;
    while let Some(p) = cur {
        d += 1;
        cur = spans[p].parent;
    }
    d
}

/// A span's duration minus the part of it that `kids` — its direct
/// children's intervals — cover. Children may overlap each other and
/// stick out of the parent; covered time counts once, and only inside.
fn uncovered_us(me: &Span, kids: Vec<(f64, f64)>) -> f64 {
    let mut kids: Vec<(f64, f64)> = kids
        .into_iter()
        .map(|(a, b)| (a.max(me.start_us), b.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut covered, mut reach) = (0.0, me.start_us);
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    (me.end_us - me.start_us) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: "s".into(), start_us: start, end_us: end, parent, op: 1 }
    }

    fn self_time_us(spans: &[Span], index: usize) -> f64 {
        let kids = spans.iter().filter(|s| s.parent == Some(index)).map(|s| (s.start_us, s.end_us));
        uncovered_us(&spans[index], kids.collect())
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 30.0, Some(0)),
            span(20.0, 50.0, Some(0)),  // overlaps the first child
            span(90.0, 120.0, Some(0)), // clipped to the parent's end
            span(12.0, 18.0, Some(1)),  // grandchild: not the parent's concern
        ];
        // Covered: [10,50) = 40 and [90,100) = 10.
        assert_eq!(self_time_us(&spans, 0), 50.0);
        assert_eq!(self_time_us(&spans, 1), 14.0);
        assert_eq!(self_time_us(&spans, 4), 6.0);

        let mut t = Tracer::new(true);
        for s in &spans {
            t.add(&s.name, s.start_us, s.end_us, s.parent, s.op);
        }
        // 50 + 14 + 30 + 30 + 6 microseconds under the one name.
        assert_eq!(t.self_ms_by_name(), vec![("s".to_string(), 0.13)]);
    }

    #[test]
    fn laid_out_children_close_the_parent_exactly() {
        let mut t = Tracer::new(true);
        let p = t.add("run", 100.0, 400.0, None, 7);
        t.lay_out(p, &[("a".into(), 100e-6), ("b".into(), 150e-6), ("other".into(), 50e-6)]);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[3].end_us, 400.0);
        assert!(t.spans().iter().all(|s| s.op == 7));
        assert_eq!(self_time_us(t.spans(), 0), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", 1, || 5), 5);
        assert!(t.add("y", 0.0, 1.0, None, 1).is_none());
        assert!(t.spans().is_empty());
    }
}
