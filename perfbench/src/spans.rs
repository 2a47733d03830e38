//! In-memory span recorder for the traced run.
//!
//! Every layer call a pass makes goes through [`Spans::time`], which
//! always measures the call's wall time (the end-to-end metrics need it)
//! and, when recording is on, also keeps a span: name, start, end,
//! parent span and pass id. Spans stay in memory until the run ends and
//! are then written out as one Chrome trace (open in Perfetto).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::metrics;

/// One recorded layer call. Times are seconds since the recorder was
/// created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub pass: u32,
}

/// Per pass id, a span name's total `(duration, self time)` in that pass.
pub type PerPass = BTreeMap<u32, (f64, f64)>;

/// The recorder. Recording can be switched on and off between passes,
/// so traced and untraced passes run the same code.
pub struct Spans {
    origin: Instant,
    recording: bool,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            recording: false,
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts or stops recording for the calls that follow.
    pub fn record(&mut self, on: bool) {
        self.recording = on;
    }

    /// Stamps subsequent spans with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f`, returning its result and wall time in seconds; records
    /// a span named `name` around it when recording is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let index = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start: 0.0,
                end: 0.0,
                parent: self.open.last().copied(),
                pass: self.pass,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = index {
            self.open.pop();
            let span = &mut self.spans[i];
            span.start = start.duration_since(self.origin).as_secs_f64();
            span.end = end.duration_since(self.origin).as_secs_f64();
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every recorded span, index-aligned with
    /// [`Spans::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| metrics::self_time(s.start, s.end, c))
            .collect()
    }

    /// Per span name and pass id, the total `(duration, self time)` over
    /// the passes in `passes`.
    pub fn per_pass_totals(&self, passes: &[u32]) -> BTreeMap<&'static str, PerPass> {
        let self_times = self.self_times();
        let mut by_name: BTreeMap<&'static str, PerPass> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self_times) {
            if passes.contains(&s.pass) {
                let slot = by_name
                    .entry(s.name)
                    .or_default()
                    .entry(s.pass)
                    .or_default();
                slot.0 += s.end - s.start;
                slot.1 += st;
            }
        }
        by_name
    }

    /// Writes the spans as a Chrome trace: one complete event per span,
    /// one thread row per pass, parent index and self time in `args`.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let self_times = self.self_times();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, (s, st)) in self.spans.iter().zip(&self_times).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"pass\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.pass,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.pass,
                st * 1e6
            ));
        }
        out.push_str("\n]}\n");
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut s = Spans::new();
        s.record(true);
        s.set_pass(3);
        let (v, total) = s.time("pass", |s| {
            let (a, _) = s.time("child", |_| 1);
            let (b, _) = s.time("child", |s| s.time("leaf", |_| 2).0);
            a + b
        });
        assert_eq!(v, 3);
        assert!(total >= 0.0);
        let spans = s.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|x| x.pass == 3 && x.end >= x.start));
        // Self times add back up to the root's duration.
        let sum: f64 = s.self_times().iter().sum();
        let root = spans[0].end - spans[0].start;
        assert!((sum - root).abs() < 1e-9, "{sum} vs {root}");
        let totals = s.per_pass_totals(&[3]);
        assert_eq!(totals["child"].len(), 1, "two spans, one pass");
        assert!(s.per_pass_totals(&[4]).is_empty());
    }

    #[test]
    fn not_recording_still_times() {
        let mut s = Spans::new();
        let (_, t) = s.time("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(t >= 0.002);
        assert!(s.spans().is_empty());
    }
}
