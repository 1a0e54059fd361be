//! Spans recorded by the harness around each call into a layer. They are
//! kept in memory and written out when the workload ends; nothing inside
//! the program is instrumented.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Job or request number the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    /// `t` on the recorder's clock (0 for instants before it was made).
    pub fn at_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span and return its id.
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
        });
        id
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.add(name, start, end, parent, op);
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Median self time per span name, in first-seen order, for a note.
    pub fn self_time_summary(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let parts: Vec<String> = names
            .iter()
            .map(|name| {
                let of_name: Vec<f64> = self
                    .spans
                    .iter()
                    .filter(|s| s.name == *name)
                    .map(|s| selfs[s.id] as f64 / 1e6)
                    .collect();
                format!("{name} {:.3} ms", crate::stats::median(&of_name))
            })
            .collect();
        format!("median self time per span: {}", parts.join(", "))
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        w.flush()
    }
}

/// Self time of every span, indexed by span id: its duration minus the
/// part of its interval that its children cover. Overlapping children are
/// counted once and a child is clipped to its parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            id,
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root 0..100 › a 10..40 › b 20..30; root › c 50..70
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 10, 40, Some(0)),
            span(2, 20, 30, Some(1)),
            span(3, 50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // children 10..60 and 40..80 overlap; 90..130 sticks out of the parent.
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 10, 60, Some(0)),
            span(2, 40, 80, Some(0)),
            span(3, 90, 130, Some(0)),
            span(4, 200, 300, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 70 - 10);
        assert_eq!(selfs[4], 100);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut r = Recorder::new();
        let job = r.add("job", 0, 10, None, 3);
        r.add("load", 1, 4, Some(job), 3);
        assert_eq!(r.durations_s("load"), vec![3e-9]);
        assert_eq!(
            r.self_time_summary(),
            "median self time per span: job 0.000 ms, load 0.000 ms"
        );
        let dir = crate::config::out_dir().join(format!("test-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        r.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with(
            "{\"id\":0,\"name\":\"job\",\"start_ns\":0,\"end_ns\":10,\"parent\":null,\"op\":3}"
        ));
    }
}
