//! In-memory span recorder for the traced replays.
//!
//! A span is one call into a layer: its name, start and end (nanoseconds
//! since the recorder's origin), the span that caused it and the id of the
//! traced op it belongs to. Spans are only appended to a `Vec` while an op
//! runs and are written out once, when the benchmark ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `coresets.compose`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    /// Id of the traced op the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A clock shared with worker threads: `Copy`, so a parallel closure can take
/// its own timestamps and hand them back with its result.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` and returns its result with its start and end timestamps.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, u64, u64) {
        let start = self.now_ns();
        let out = f();
        (out, start, self.now_ns())
    }
}

/// The span sink of one benchmark run.
#[derive(Debug)]
pub struct Trace {
    clock: Clock,
    spans: Vec<Span>,
    run: u32,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty recorder whose origin is now.
    pub fn new() -> Self {
        Trace {
            clock: Clock {
                origin: Instant::now(),
            },
            spans: Vec::new(),
            run: 0,
        }
    }

    /// The recorder's clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Starts the next traced op: opens its root span `op` and returns it.
    pub fn begin_op(&mut self) -> usize {
        self.run += 1;
        self.open("op", None)
    }

    /// Opens a span now; [`Trace::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.clock.now_ns();
        self.record(name, parent, now, now)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.clock.now_ns();
    }

    /// Records a span measured elsewhere (a worker thread, a merge closure).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: self.run,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span: its duration minus the part of its interval
    /// covered by its children (overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns() - covered.min(s.dur_ns())
            })
            .collect()
    }

    /// Writes the spans as a JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}{sep}",
                s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Trace::new();
        let root = t.record("op", None, 0, 100);
        t.record("a", Some(root), 10, 40);
        t.record("b", Some(root), 30, 50);
        t.record("c", Some(root), 90, 120);
        let own = t.self_times_ns();
        assert_eq!(own[root], 100 - 40 - 10);
        assert_eq!(own[1], 30);
    }
}
