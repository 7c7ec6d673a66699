//! Spans recorded from outside the program, and the layer ladder.
//!
//! The benchmark wraps a span around each call it makes into a layer's
//! public functions; nothing is recorded inside the program. Spans stay in
//! memory and are written to `benchmark/out/trace-<workload>.json` when
//! the traced run ends.

use std::path::Path;
use std::time::Instant;

use storm_store::Value;

use crate::report::{num, obj};

/// Spans beyond this many are counted but not written out, so a traced
/// run cannot fill the disk.
const MAX_WRITTEN: usize = 20_000;

/// One timed call into a layer. `parent` is the index of the span that
/// caused this one (for ladder rungs: the same query one rung up).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub op: &'static str,
    pub query_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store. With recording off, `begin`/`end` do nothing, so
/// the same generator code serves the untraced and the traced run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A second recorder on the same clock, for another thread; merge it
    /// back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// Takes over a fork's spans (parent indices shifted to their new
    /// positions).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Start time of a span, or 0 when recording is off.
    pub fn begin(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Closes a span opened by [`Tracer::begin`]; returns its index.
    pub fn end(
        &mut self,
        layer: &'static str,
        op: &'static str,
        query_id: u64,
        parent: Option<usize>,
        start_ns: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            op,
            query_id,
            parent,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that other spans can name as their parent before it
    /// ends; [`Tracer::close_span`] stamps its end.
    pub fn open_span(
        &mut self,
        layer: &'static str,
        op: &'static str,
        query_id: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            op,
            query_id,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close_span(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total time covered by spans of `layer`/`op`, in seconds, and how
    /// many there were.
    pub fn total(&self, layer: &str, op: &str) -> (f64, usize) {
        let mut ns = 0u64;
        let mut count = 0usize;
        for s in &self.spans {
            if s.layer == layer && s.op == op {
                ns += s.end_ns - s.start_ns;
                count += 1;
            }
        }
        (ns as f64 / 1e9, count)
    }

    /// Writes the spans (at most [`MAX_WRITTEN`]) and `summary` to `path`.
    pub fn write(&self, path: &Path, workload: &str, summary: Value) -> std::io::Result<()> {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .take(MAX_WRITTEN)
            .map(|s| {
                obj([
                    ("workload", Value::Str(workload.to_owned())),
                    ("layer", Value::Str(s.layer.to_owned())),
                    ("op", Value::Str(s.op.to_owned())),
                    ("query_id", Value::Int(s.query_id as i64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                    ),
                    ("start_ns", Value::Int(s.start_ns as i64)),
                    ("end_ns", Value::Int(s.end_ns as i64)),
                ])
            })
            .collect();
        let doc = obj([
            ("workload", Value::Str(workload.to_owned())),
            ("spans_recorded", num(self.spans.len() as f64)),
            ("spans_written", num(spans.len() as f64)),
            ("summary", summary),
            ("spans", Value::Array(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, storm_store::json::to_string(&doc))
    }
}

/// One rung of the ladder: the same seeded query list replayed at one
/// entry point, top (outermost) first.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// The layer whose entry point was called.
    pub layer: &'static str,
    /// Total seconds for the whole query list at this entry point.
    pub total_s: f64,
}

impl Rung {
    pub fn new(layer: &'static str, total_s: f64) -> Self {
        Rung { layer, total_s }
    }
}

/// A layer's self time is its rung minus the rung below it (the last rung
/// keeps all of its time). A lower rung that measured *slower* than the
/// one above — noise, or work the upper path avoids — yields a negative
/// difference, reported as zero here.
pub fn ladder_self(rungs: &[Rung]) -> Vec<(&'static str, f64)> {
    rungs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let below = rungs.get(i + 1).map_or(0.0, |b| b.total_s);
            (r.layer, (r.total_s - below).max(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_rung_minus_rung_below() {
        let selfs = ladder_self(&[
            Rung::new("wire", 10.0),
            Rung::new("scheduler", 7.0),
            Rung::new("parallel", 4.5),
            Rung::new("frozen", 1.5),
            Rung::new("estimators", 0.5),
        ]);
        assert_eq!(
            selfs,
            vec![
                ("wire", 3.0),
                ("scheduler", 2.5),
                ("parallel", 3.0),
                ("frozen", 1.0),
                ("estimators", 0.5),
            ]
        );
        let total: f64 = selfs.iter().map(|s| s.1).sum();
        assert_eq!(total, 10.0, "self times add back up to the top rung");
    }

    #[test]
    fn an_inverted_rung_reads_zero_not_negative() {
        let selfs = ladder_self(&[Rung::new("parallel", 2.0), Rung::new("frozen", 2.4)]);
        assert_eq!(selfs, vec![("parallel", 0.0), ("frozen", 2.4)]);
        assert!(ladder_self(&[]).is_empty());
    }

    #[test]
    fn recording_off_keeps_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin();
        assert_eq!(t.end("wire", "open", 1, None, s), None);
        assert_eq!(t.len(), 0);
        let mut t = Tracer::new(true);
        let s = t.begin();
        let parent = t.end("wire", "session", 7, None, s);
        let s = t.begin();
        t.end("wire", "poll", 7, parent, s);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total("wire", "poll").1, 1);
        assert_eq!(t.spans[1].parent, Some(0));
        let mut other = t.fork();
        let s = other.begin();
        let p = other.end("ingest", "insert_batch", 0, None, s);
        let s = other.begin();
        other.end("ingest", "freeze", 0, p, s);
        t.absorb(other);
        assert_eq!(t.len(), 4);
        assert_eq!(t.spans[3].parent, Some(2));
    }
}
