//! In-memory span recorder for the traced run. Spans nest by call
//! structure: a span opened while another is open is its child. They are
//! recorded from the benchmark's own code around calls into the layers and
//! written out once, when the benchmark ends.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

pub struct Spans {
    epoch: Instant,
    workload: &'static str,
    inner: Mutex<Inner>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Self {
        Spans {
            epoch: Instant::now(),
            workload,
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("span recorder poisoned by a panic")
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&self, name: &'static str) -> SpanId {
        let start_ns = self.ns(Instant::now());
        let mut g = self.lock();
        let id = g.spans.len();
        let parent = g.open.last().copied();
        g.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        g.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&self, id: SpanId) {
        let end_ns = self.ns(Instant::now());
        let mut g = self.lock();
        assert_eq!(g.open.pop(), Some(id), "spans must close innermost first");
        g.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Record an already-timed leaf span under the innermost open span.
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut g = self.lock();
        let parent = g.open.last().copied();
        g.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
    }

    /// Durations (ns) of the spans named `name` whose parent is `parent`.
    pub fn durations(&self, name: &str, parent: SpanId) -> Vec<u64> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Write every span as one JSON object per line, after a header line.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.lock().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, self.workload
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_call_structure() {
        let sp = Spans::new("w");
        let outer = sp.begin("run");
        let t = Instant::now();
        sp.leaf("send_frame", t, t);
        sp.scope("inner", || ());
        sp.end(outer);
        assert_eq!(sp.durations("send_frame", outer), vec![0]);
        assert_eq!(sp.durations("inner", outer).len(), 1);
        assert!(sp.durations("run", outer).is_empty());
    }
}
