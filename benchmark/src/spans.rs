//! The benchmark's own span recorder: name, start, end, parent and op
//! id around every call the traced pass makes into a layer, kept in
//! memory and written out as JSON lines when the pass ends.

use crate::stats::median;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span this one ran inside.
    pub parent: Option<u32>,
    /// The benchmark op this span belongs to; spans of one op share it.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Nanoseconds of `span` that none of `children` covers. Children may
/// nest, overlap each other or stick out of the parent: the covered
/// part is the union of their intervals, clipped to the parent.
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start) - covered
}

/// What is left of `total` once `parts` are taken out - signed, because
/// the parts were replayed apart from the total and may add up to more.
pub fn unattributed(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    /// Spans recorded from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans `f` records through
    /// the recorder it is handed become this span's children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per op, the summed duration (µs) of its spans named `name`.
    pub fn per_op_us(&self, name: &str) -> Vec<f64> {
        let mut by_op: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.us();
        }
        by_op.into_values().collect()
    }

    /// Median over ops of [`Recorder::per_op_us`]; 0 if `name` never ran.
    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.per_op_us(name))
    }

    /// Median self time (µs) of the spans named `name`: each one's
    /// duration minus what its direct children cover.
    pub fn median_self_us(&self, name: &str) -> f64 {
        let selves: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let children: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start_ns, c.end_ns))
                    .collect();
                self_time_ns((s.start_ns, s.end_ns), &children) as f64 / 1e3
            })
            .collect();
        median(&selves)
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        // child 20..60 holds a grandchild 30..40: only direct children
        // are passed, and the grandchild lies inside one anyway
        assert_eq!(self_time_ns((0, 100), &[(20, 60)]), 60);
        assert_eq!(self_time_ns((0, 100), &[(20, 60), (30, 40)]), 60);
        assert_eq!(self_time_ns((0, 100), &[]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        assert_eq!(self_time_ns((0, 100), &[(10, 50), (40, 70)]), 40);
        assert_eq!(self_time_ns((0, 100), &[(40, 70), (10, 50), (60, 65)]), 40);
        // children sticking out of the parent are clipped to it
        assert_eq!(self_time_ns((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time_ns((50, 100), &[(0, 200)]), 0);
        assert_eq!(self_time_ns((50, 100), &[(0, 10), (200, 300)]), 50);
    }

    #[test]
    fn unattributed_is_signed() {
        assert_eq!(unattributed(55.0, &[5.0, 10.0, 15.0]), 25.0);
        assert_eq!(unattributed(30.0, &[20.0, 15.0]), -5.0);
        assert_eq!(unattributed(30.0, &[]), 30.0);
    }

    #[test]
    fn recorder_nests_spans_and_sums_them_per_op() {
        let mut rec = Recorder::default();
        for op in 1..=2 {
            rec.set_op(op);
            rec.span("op", |rec| {
                rec.span("part", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                rec.span("part", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("op", None, 1)
        );
        assert_eq!(
            (spans[2].name, spans[2].parent, spans[5].parent),
            ("part", Some(0), Some(3))
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.per_op_us("part").len(), 2);
        assert!(rec.median_us("part") >= 4_000.0);
        assert!(rec.median_self_us("op") < rec.median_us("op") - 4_000.0 + 1.0);
        assert_eq!(rec.median_us("absent"), 0.0);
    }
}
