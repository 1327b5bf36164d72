//! In-memory span recorder for the traced run.
//!
//! A span is one timed call across a layer boundary: name, start, end,
//! the span that caused it, and the request it belongs to. Spans stay in
//! memory and are written out once, when the run ends. A span's self
//! time is its duration minus the durations of its child spans; for the
//! service, the children of a TCP request are the same request replayed
//! one layer lower, so self time is exactly that layer's cost.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// Records spans when enabled; when disabled it only times, so the
/// timed and traced runs execute the same code.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A tracer that keeps nothing.
    pub fn off() -> Self {
        Tracer::new(Instant::now(), false)
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        if !self.enabled {
            return SpanId::MAX;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends, so children can
    /// name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end;
        }
    }

    /// Runs `f` inside a span; returns its value and duration in ms.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Duration of span `id` in nanoseconds.
    pub fn dur_ns(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.dur_ns(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.dur_ns(i);
            }
        }
        own
    }

    /// Self times in µs of the spans called `name`.
    pub fn self_us_of(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns / 1e3)
            .collect()
    }

    /// Durations in µs of the spans called `name`.
    pub fn dur_us_of(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.dur_ns(i) / 1e3)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
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
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut tr = Tracer::new(t0, true);
        let root = tr.record("tcp", None, 1, at(0), at(100));
        let mid = tr.record("queue", Some(root), 1, at(10), at(40));
        tr.record("handle", Some(mid), 1, at(20), at(30));
        assert_eq!(tr.self_us_of("tcp"), vec![70.0]);
        assert_eq!(tr.self_us_of("queue"), vec![20.0]);
        assert_eq!(tr.self_us_of("handle"), vec![10.0]);
        let total: f64 = ["tcp", "queue", "handle"]
            .iter()
            .map(|n| tr.self_us_of(n)[0])
            .sum();
        assert_eq!(total, tr.dur_us_of("tcp")[0]);
    }
}
