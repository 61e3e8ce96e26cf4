//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer. Kept in memory and written out as JSONL when the
//! run ends; nothing is recorded on the untraced (end-to-end) run.

use crate::stats::Samples;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one flush share `flush_id`; `parent` is
/// the id of the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub flush_id: u64,
}

/// A span recorder. Each recording thread owns one (ids are made unique
/// by a per-recorder `lane` in the high bits) and they are merged at the
/// end, so recording takes no lock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Tracer {
            epoch,
            lane,
            spans: Vec::new(),
        }
    }

    fn stamp(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        flush_id: u64,
    ) -> u64 {
        let id = (self.lane << 40) | self.spans.len() as u64;
        self.spans.push(Span {
            id,
            name,
            start_ns: self.stamp(start),
            end_ns: self.stamp(end),
            parent,
            flush_id,
        });
        id
    }

    /// Reserves a span slot (so children can name it as parent) that is
    /// closed later with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, flush_id: u64) -> u64 {
        self.record(name, start, start, None, flush_id)
    }

    pub fn close(&mut self, id: u64, end: Instant) {
        let end_ns = self.stamp(end);
        let idx = (id & ((1 << 40) - 1)) as usize;
        self.spans[idx].end_ns = end_ns;
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Samples {
        let mut s = Samples::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push((span.end_ns - span.start_ns) as f64 / 1e3);
        }
        s
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"flush_id\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.flush_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_parent_and_duration() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 1);
        let at = |us: u64| epoch + Duration::from_micros(us);
        let root = t.open("flush", at(0), 7);
        t.record("send", at(0), at(30), Some(root), 7);
        t.record("rtt", at(30), at(90), Some(root), 7);
        t.close(root, at(100));
        assert_eq!(t.durations_us("flush").median(), Some(100.0));
        assert_eq!(t.durations_us("rtt").median(), Some(60.0));
        assert!(t.spans()[1..].iter().all(|s| s.parent == Some(root)));
    }
}
