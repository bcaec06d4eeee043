//! Harness-side spans: recorded around the benchmark's own calls into
//! each layer, kept in memory, written out when the pass ends.
//!
//! Spans inside the program are a later change; these only bracket the
//! public calls the harness makes (`submit`, `wait`, `ingest`, `sync`,
//! `apply_batch`, `WalkEngine::run`).

use std::io::Write;
use std::path::Path;

/// One span. `parent` is the index of the enclosing span in the same log
/// (`None` for a root); `id` ties the spans of one ticket or one update
/// batch together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub id: u64,
}

/// A per-thread span log. Disabled logs record nothing, so the timed pass
/// pays one predictable branch per call site.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Record a span and return its index, for use as a child's `parent`.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        id: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Fix up a span whose end was not known when it was pushed.
    pub fn close(&mut self, index: Option<u32>, end_ns: u64) {
        if let Some(i) = index {
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    /// Append another thread's log, re-basing its parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration of all spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean duration of the spans called `name` (0 when there are none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_ns(name) as f64 / n as f64,
        }
    }

    /// One JSON object per line: `name, start_ns, end_ns, parent, id`.
    /// A span's self time is its duration minus its children's.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        assert_eq!(log.push("ticket", 0, 10, None, 1), None);
        assert!(log.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_totals_add_up() {
        let mut a = SpanLog::new(true);
        let root = a.push("ticket", 0, 100, None, 1);
        a.push("service.submit", 0, 30, root, 1);
        let mut b = SpanLog::new(true);
        let update = b.push("update", 5, 0, None, 9);
        b.push("service.ingest", 5, 25, update, 9);
        b.close(update, 45);
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[2].end_ns, 45);
        assert_eq!(a.total_ns("ticket"), 100);
        assert_eq!(a.mean_ns("service.ingest"), 20.0);
        assert_eq!(a.mean_ns("missing"), 0.0);
    }
}
