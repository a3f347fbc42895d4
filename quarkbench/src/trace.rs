//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! The traced run is single-threaded, so one stack gives the parent links.
//! Spans stay in a pre-sized vector and are written out after the run; a
//! layer's self time is its span minus the part its children cover.

use std::time::Instant;

/// One timed call into a layer. `stmt` ties the spans of one statement
/// together; `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub stmt: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for the single-threaded traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// `capacity` spans are reserved up front so recording never
    /// reallocates inside a timed statement.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        stmt: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            stmt,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, indexed like `spans`: duration minus the
/// durations of its direct children (children of one parent never overlap
/// in a single-threaded trace).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            stmt: 0,
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // root 0..100 { a 10..40 { c 15..25 }, b 50..90 }
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root span.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_links_children_to_the_enclosing_span() {
        let mut t = Tracer::with_capacity(4);
        t.span(7, "client", "statement", |t| {
            t.span(7, "relational", "sql_parse", |_| ());
            t.span(7, "core", "session_execute", |_| ());
        });
        t.span(8, "client", "statement", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!(s[3].stmt, 8);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let own = self_times_ns(s);
        let children = s[1].duration_ns() + s[2].duration_ns();
        assert_eq!(own[0], s[0].duration_ns() - children);
    }
}
