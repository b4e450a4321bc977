//! The traced run's span log: spans (name, start, end, parent, request id)
//! recorded around the calls into each layer, kept in memory and written
//! once at the end. A layer is the span name up to its first `.`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            request,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in nanoseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, parent, request);
        let out = f();
        let ns = self.close(id);
        (out, ns)
    }

    /// Self time per layer: each span's duration minus the part of its
    /// interval its children cover, summed by layer. A child that starts
    /// after its parent ended is a replay of one of the parent's stages
    /// (the replay runs after the served call); its whole duration is
    /// taken out of the parent's self time, down to zero.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let (replays, inside): (Vec<usize>, Vec<usize>) =
                children[i].iter().partition(|&&c| self.spans[c].start_ns >= s.end_ns);
            let replayed: u64 =
                replays.iter().map(|&c| self.spans[c].end_ns - self.spans[c].start_ns).sum();
            let mut covered: Vec<(u64, u64)> = inside
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = s.start_ns;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) +=
                (s.end_ns - s.start_ns - union).saturating_sub(replayed);
        }
        out
    }

    /// Writes the summary and every span as one JSON document.
    pub fn write(&self, path: &Path, summary: &str) -> std::io::Result<()> {
        let mut doc = String::with_capacity(64 * self.spans.len() + summary.len() + 64);
        doc.push_str("{\"summary\":");
        doc.push_str(summary);
        doc.push_str(",\"span_fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"]");
        doc.push_str(",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if i + 1 == self.spans.len() { "" } else { ",\n" };
            let _ = write!(
                doc,
                "[\"{}\",{},{},{},{}]{sep}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            );
        }
        doc.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new();
        let root =
            |s, e| Span { name: "serve.x", start_ns: s, end_ns: e, parent: None, request: 0 };
        t.spans.push(root(0, 100));
        t.spans.push(Span {
            name: "block.a",
            start_ns: 10,
            end_ns: 30,
            parent: Some(0),
            request: 0,
        });
        t.spans.push(Span { name: "ann.b", start_ns: 20, end_ns: 50, parent: Some(0), request: 0 });
        let by = t.self_ns_by_layer();
        assert_eq!(by["serve"], 60);
        assert_eq!(by["block"], 20);
        assert_eq!(by["ann"], 30);
    }

    #[test]
    fn self_time_subtracts_replayed_children() {
        let mut t = Tracer::new();
        t.spans.push(Span { name: "serve.x", start_ns: 0, end_ns: 100, parent: None, request: 0 });
        let replay =
            |s, e| Span { name: "matcher.a", start_ns: s, end_ns: e, parent: Some(0), request: 0 };
        t.spans.push(replay(100, 130));
        t.spans.push(replay(130, 170));
        let by = t.self_ns_by_layer();
        assert_eq!(by["serve"], 30);
        assert_eq!(by["matcher"], 70);
    }
}
