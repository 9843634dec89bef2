//! The benchmark's own spans: one around every call into a layer's
//! public function, kept in memory and written out at exit. Spans inside
//! the crates are a later issue (ROADMAP item 5).

use std::io::Write;
use std::time::Instant;

/// One finished span. `parent` indexes the span that was open when this
/// one started; `run_id` groups the spans of one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run_id: u64,
}

/// Span recorder. Disabled (the end-to-end pass) it never reads the
/// clock, so timed code is the same with tracing off.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        }
    }

    /// Switches recording on or off between rounds, so traced and
    /// untraced rounds can alternate inside one process.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle only between spans");
        self.enabled = on;
    }

    pub fn next_run(&mut self) {
        self.run_id += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let w = shard_obs::ObjWriter::new()
                .u64("id", id as u64)
                .str("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .i64("parent", s.parent.map_or(-1, |p| p as i64))
                .u64("run_id", s.run_id);
            writeln!(out, "{}", w.finish())?;
        }
        out.flush()
    }
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("round", 0, 100, None),
            span("ingest", 10, 50, Some(0)),
            span("merge", 20, 30, Some(1)),
            span("merge", 30, 45, Some(1)),
            span("check", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 15, 10, 15, 30]);
    }

    #[test]
    fn tracer_nests_and_skips_when_disabled() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| ());
        });
        t.set_enabled(false);
        t.span("dropped", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
