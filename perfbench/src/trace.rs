//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer (system build,
//! `run_for`, a campaign, a daemon request, a row render) in a span:
//! name, start, end, parent, and the id of the op it belongs to. Spans
//! stay in memory; [`Tracer::write_chrome`] writes them out once, at
//! exit, as a Chrome trace-event document Perfetto opens. A disabled
//! tracer records nothing and costs one branch per call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span ([`SpanId::NONE`] when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// No span: the root of a tree, or any id from a disabled tracer.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Id shared by every span of one op.
    pub op: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Thread (lane) that recorded the span.
    pub lane: usize,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

/// A span recorder for one thread; merge per-thread recorders with
/// [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    lane: usize,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            lane: 0,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's epoch.
    pub fn lane(&self, lane: usize) -> Tracer {
        Tracer {
            on: self.on,
            lane,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// Is this recorder recording?
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.ns(Instant::now());
        self.push(name, op, parent, start_ns, start_ns)
    }

    /// Close a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.ns(Instant::now());
            self.spans[id.0].end_ns = now;
        }
    }

    /// Record a span whose interval was timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, op, parent, s, e)
    }

    fn push(&mut self, name: &'static str, op: u64, parent: SpanId, s: u64, e: u64) -> SpanId {
        self.spans.push(Span {
            name,
            op,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            lane: self.lane,
            start_ns: s,
            end_ns: e,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Move another recorder's spans into this one (parent links are
    /// re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in seconds: its duration minus the part
    /// of its interval that its child spans cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 * 1e-9
            })
            .collect()
    }

    /// Write every span as a Chrome trace-event JSON document.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"span\": {}, \"parent\": {}, \"op\": {}}}}}{}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        let mut t = Tracer::new(true, epoch);
        let root = t.record("op", 1, SpanId::NONE, at(0), at(1000));
        // Two overlapping children covering [100, 400) and one more
        // covering [600, 700): 400 ns covered in all.
        t.record("a", 1, root, at(100), at(300));
        t.record("b", 1, root, at(200), at(400));
        t.record("c", 1, root, at(600), at(700));
        let self_ns: Vec<u64> = t
            .self_times()
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(self_ns, vec![600, 200, 200, 100]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        let id = off.begin("x", 0, SpanId::NONE);
        off.end(id);
        assert_eq!(id, SpanId::NONE);
        assert!(off.spans().is_empty());

        let mut main = Tracer::new(true, epoch);
        main.record("m", 0, SpanId::NONE, epoch, epoch);
        let mut lane = main.lane(1);
        let p = lane.record("p", 7, SpanId::NONE, epoch, epoch);
        lane.record("c", 7, p, epoch, epoch);
        main.absorb(lane);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].lane, 1);
    }
}
