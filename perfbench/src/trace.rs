//! The benchmark's own span recorder.
//!
//! Spans are opened and closed by the benchmark around each call into a
//! layer's public API (plus the per-rule prep spans that
//! `parvc_prep::preprocess_traced` reports into [`PrepSink`]). Each span
//! has a name, a start, an end, the span that caused it, and the id of
//! the job it belongs to. Spans stay in memory until the run ends; then
//! [`Recorder::write_jsonl`] writes them out and [`Recorder::self_times`]
//! derives each span name's self time.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use parvc_obs::{Sink, SpanRecord};

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span, closed by [`Recorder::close`].
#[must_use = "an open span records nothing until closed"]
pub struct Open {
    id: u64,
    parent: u64,
    job: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// This span's id, the parent to pass to its children.
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, job: u64, parent: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            job,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        self.push(Span {
            id: open.id,
            parent: open.parent,
            job: open.job,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
        (end_ns - open.start_ns) as f64 * 1e-9
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking recorder thread")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking recorder thread")
            .clone()
    }

    /// Per span name: every span's duration in seconds.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.spans() {
            out.entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns) as f64 * 1e-9);
        }
        out
    }

    /// Per span name: the summed self time in seconds, i.e. each span's
    /// duration minus the part of it that its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *out.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// The telemetry sink handed to `parvc_prep::preprocess_traced`: turns
/// its per-rule and split spans into benchmark spans under `parent`.
pub struct PrepSink<'a> {
    pub rec: &'a Recorder,
    pub job: u64,
    pub parent: u64,
}

impl Sink for PrepSink<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn now_us(&self) -> u64 {
        self.rec.now_ns() / 1000
    }

    fn span(&self, r: &SpanRecord) {
        let name = match (r.cat, r.name) {
            ("prep", "degree-0/1/2") => "prep.rule.d012",
            ("prep", "crown (LP/NT)") => "prep.rule.crown",
            ("prep", "high-degree") => "prep.rule.highdeg",
            ("split", _) => "prep.split",
            // The whole-pipeline span duplicates the benchmark's own
            // span around the call.
            _ => return,
        };
        self.rec.push(Span {
            id: self.rec.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.parent,
            job: self.job,
            name,
            start_ns: r.start_us * 1000,
            end_ns: (r.start_us + r.dur_us) * 1000,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_children() {
        let mut iv = vec![(5, 8), (0, 3), (2, 4), (9, 20)];
        assert_eq!(covered_ns(&mut iv, 1, 10), 3 + 3 + 1);
    }

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder::default();
        let parent = rec.open("outer", 1, 0);
        let child = rec.open("inner", 1, parent.id());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = rec.close(child);
        let outer = rec.close(parent);
        let st = rec.self_times();
        assert!((st["inner"] - inner).abs() < 1e-9);
        assert!(st["outer"] < outer - inner + 1e-6);
    }
}
