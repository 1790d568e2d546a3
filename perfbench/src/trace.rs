//! An in-memory span recorder for the traced replay.
//!
//! A span is a named interval at a layer boundary, with the span that
//! caused it and the request (series push, alarm, window) it belongs to.
//! Spans stay in memory while the replay runs and are written out once at
//! exit; the per-layer metrics are derived from them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, parent, req, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, parent, req, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Durations of every span named `name`, in ns.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Each span's self time: its duration minus the part its children
    /// cover (children of one span never overlap here: the replay is
    /// single-threaded).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// Self times of every span named `name`, in ns.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// Writes every span as a tab-separated line: section, id, parent
    /// (`-` for none), request id, name, start and end in ns since the
    /// replay began, and self time.
    pub fn write_tsv(&self, section: &str, out: &mut dyn Write) -> std::io::Result<()> {
        for ((id, span), self_ns) in self.spans.iter().enumerate().zip(self.self_times_ns()) {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{section}\t{id}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                span.req, span.name, span.start_ns, span.end_ns
            )?;
        }
        Ok(())
    }
}

/// Writes the spans of every section to `path`, with a header line.
pub fn write_all(path: &Path, sections: &[(&str, &Tracer)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "section\tid\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
    for (section, tracer) in sections {
        tracer.write_tsv(section, &mut out)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut t = Tracer::new(epoch);
        let parent = t.record("explain", None, 7, at(0), at(10));
        t.record("splice", Some(parent), 7, at(0), at(2));
        t.record("phase1", Some(parent), 7, at(2), at(6));
        t.record("explain", None, 8, at(20), at(25));
        assert_eq!(t.count("explain"), 2);
        assert_eq!(t.durations_ns("explain"), vec![10e6, 5e6]);
        assert_eq!(t.self_ns("explain"), vec![4e6, 5e6]);
        assert_eq!(t.self_ns("phase1"), vec![4e6]);

        let mut tsv = Vec::new();
        t.write_tsv("batch", &mut tsv).unwrap();
        let tsv = String::from_utf8(tsv).unwrap();
        assert_eq!(tsv.lines().count(), 4);
        assert_eq!(tsv.lines().nth(1), Some("batch\t1\t0\t7\tsplice\t0\t2000000\t2000000"));
    }

    #[test]
    fn timed_spans_nest_and_close() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.open("outer", None, 1);
        let v = t.time("inner", Some(outer), 1, || {
            std::thread::sleep(Duration::from_millis(2));
            5
        });
        t.close(outer);
        assert_eq!(v, 5);
        let spans = t.spans();
        assert!(spans[1].duration_ns() >= 2_000_000);
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());
        assert_eq!(spans[1].parent, Some(outer));
    }
}
