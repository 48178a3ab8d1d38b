//! The traced run's span recorder: spans around every call the benchmark
//! makes, self-time folding, and Chrome-trace export in the format of the
//! `tmac-trace` dumps (Perfetto opens both).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Category (the layer or module the call belongs to).
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Track the span is drawn on.
    pub tid: u32,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the parent span. A replayed layer call names the measured
    /// step it re-executes as its parent even though it ran later, so the
    /// step's self time is what the layer calls do not explain.
    pub parent: Option<usize>,
    /// Free tag (request index, step index, rows).
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span store; recording is a no-op when disabled.
pub struct Recorder {
    origin: Instant,
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(on: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its index (`None` when disabled).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        cat: &'static str,
        name: &'static str,
        tid: u32,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut v = self.spans.lock().expect("a recording thread panicked");
        v.push(Span {
            cat,
            name,
            tid,
            start_ns,
            end_ns,
            parent,
            id,
        });
        Some(v.len() - 1)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a recording thread panicked")
            .clone()
    }
}

/// Self time of every span: its duration minus its direct children's
/// durations (negative when replayed children outlast the measured parent).
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_ns() as i64;
        }
    }
    out
}

/// Self time summed per `cat` over the spans selected by `keep`.
pub fn fold_by_cat(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, i64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        if keep(s) {
            *out.entry(s.cat).or_insert(0) += t;
        }
    }
    out
}

/// Chrome Trace Event Format document: a `thread_name` metadata event per
/// track, then complete events (`"ph":"X"`, µs `ts`/`dur`) with the same
/// fields the `tmac-trace` export writes.
pub fn chrome_json(spans: &[Span], track_names: &[(u32, &str)]) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    for (tid, label) in track_names {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{label}\"}}}}"
        );
    }
    for s in spans {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"cat\":\"{}\",\"name\":\"{}\",\"args\":{{\"id\":{},\"arg\":{}}}}}",
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.cat,
            s.name,
            s.id,
            s.parent.map_or(-1, |p| p as i64)
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            cat,
            name: cat,
            tid: 1,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("step", 0, 100, None),
            span("gemv", 0, 60, Some(0)),
            span("table", 0, 20, Some(1)),
            span("attention", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 40, 20, 30]);
        let folded = fold_by_cat(&spans, |_| true);
        assert_eq!(folded["step"], 10);
        assert_eq!(folded["gemv"], 40);
        assert_eq!(
            folded.values().sum::<i64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn replayed_children_may_outlast_the_parent() {
        // Children timed in a later replay can sum past the measured step.
        let spans = vec![span("step", 0, 50, None), span("gemv", 900, 960, Some(0))];
        assert_eq!(self_times(&spans)[0], -10);
    }

    #[test]
    fn chrome_export_is_valid_json_with_tmac_trace_fields() {
        let spans = vec![
            span("step", 1000, 3500, None),
            span("gemv", 1000, 2000, Some(0)),
        ];
        let doc = chrome_json(&spans, &[(1, "bench")]);
        let parsed = tmac_serve::Json::parse(&doc).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("M"));
        let x = &events[1];
        assert_eq!(x.get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(x.get("ts").and_then(|p| p.as_f64()), Some(1.0));
        assert_eq!(x.get("dur").and_then(|p| p.as_f64()), Some(2.5));
        assert_eq!(
            parsed.get("displayTimeUnit").and_then(|p| p.as_str()),
            Some("ms")
        );
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = Recorder::new(false);
        assert_eq!(r.record("a", "a", 1, 0, 1, None, 0), None);
        assert!(r.spans().is_empty());
    }
}
