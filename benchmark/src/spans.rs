//! Host-time spans recorded from outside the program: one around every
//! call the harness makes into a layer's public functions.
//!
//! A span has a name (`<layer>.<call>`), a start and an end in nanoseconds
//! since the run began, and the span that was open when it started. Spans
//! are kept in memory and written out once, when the run ends. A layer's
//! self time is its span minus the part its child spans cover.

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `simnet.run_until`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// The span recorder of one run.
pub struct Spans {
    origin: Instant,
    run_id: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Starts the clock. `run_id` is shared by every span of the run.
    pub fn new(run_id: String) -> Self {
        Spans {
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let idx = self.open.pop().expect("exit without a matching enter");
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span; returns its result and the span's seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    /// Summed self time, in seconds, of every closed span called `name`:
    /// duration minus the duration of its direct children.
    pub fn self_time_s(&self, name: &str) -> f64 {
        let mut total = 0i128;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                total += i128::from(s.end_ns - s.start_ns);
            }
            if let Some(p) = s.parent {
                if self.spans[p].name == name && p != i {
                    total -= i128::from(s.end_ns - s.start_ns);
                }
            }
        }
        total as f64 / 1e9
    }

    /// The span file: `{"run_id":..,"spans":[{"id","name","start_ns","end_ns","parent"}]}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"run_id\":\"{}\",\"spans\":[", self.run_id);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run_id\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, self.run_id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new("t".into());
        s.spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "b",
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
            },
            Span {
                name: "c",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
            },
        ];
        assert_eq!(s.self_time_s("a"), 50e-9);
        assert_eq!(s.self_time_s("b"), 40e-9);
        assert_eq!(s.self_time_s("c"), 10e-9);
    }
}
