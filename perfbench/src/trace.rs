//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, op)`: spans of one operation
//! share an op id, and a span's parent is the span open around it. Spans
//! stay in memory and are written out once, when the run ends. A span's
//! *self time* is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans in a `Vec`; `enter`/`exit` must nest.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new operation; its root span is the returned id.
    pub fn begin_op(&mut self, name: &str) -> usize {
        self.op += 1;
        self.enter(name)
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Rename a recorded span (when its layer is known only afterwards).
    pub fn rename(&mut self, id: usize, name: &str) {
        self.spans[id].name = name.to_string();
    }

    /// Duration of a closed span, in ms.
    pub fn duration_ms(&self, id: usize) -> f64 {
        self.spans[id].ms()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append spans recorded by another process (one line each, as
    /// written by [`Tracer::lines`]), renumbering parents and ops.
    pub fn absorb_lines<'a>(&mut self, lines: impl Iterator<Item = &'a str>) {
        let base = self.spans.len();
        let op_base = self.op;
        for line in lines {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 6 || f[0] != "SPAN" {
                continue;
            }
            let parse = |s: &str| s.parse::<u64>().unwrap_or(0);
            let op = op_base + parse(f[5]);
            self.op = self.op.max(op);
            self.spans.push(Span {
                name: f[1].to_string(),
                start_ns: parse(f[2]),
                end_ns: parse(f[3]),
                parent: f[4].parse::<usize>().ok().map(|p| p + base),
                op,
            });
        }
    }

    /// One `SPAN` line per span: name, start, end, parent, op.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.spans.iter().map(|s| {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            format!(
                "SPAN\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )
        })
    }

    /// Write every span to `path`, one line each.
    pub fn write_out(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind\tname\tstart_ns\tend_ns\tparent\top")?;
        for line in self.lines() {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }

    /// Self time of every span, in ms, by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<String, Vec<f64>> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ms();
            }
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            out.entry(s.name.clone()).or_default().push(s.ms() - c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_lines_round_trip() {
        let mut t = Tracer::new();
        let root = t.begin_op("op");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let by = t.self_ms_by_name();
        assert!(by["child"][0] >= 2.0);
        assert!(by["op"][0] < by["child"][0]);
        let lines: Vec<String> = t.lines().collect();
        let mut back = Tracer::new();
        back.absorb_lines(lines.iter().map(String::as_str));
        assert_eq!(back.spans(), t.spans());
    }
}
