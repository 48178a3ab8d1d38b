//! `tmac-trace` — always-on observability primitives for the serving stack.
//!
//! Two halves, deliberately decoupled:
//!
//! * [`Histogram`] — a fixed-bucket, atomic latency histogram (Prometheus
//!   cumulative-`le` exposition plus sum/count/max). **Always compiled**:
//!   the serving layer's `/metrics` histograms and per-request timing
//!   breakdowns exist in every build.
//! * The span/event recorder ([`span`], [`instant`], [`complete`],
//!   [`chrome_trace_json`]) — per-thread fixed-capacity ring buffers of
//!   timestamped events, exported as Chrome Trace Event Format JSON that
//!   Perfetto / `chrome://tracing` loads directly. **Feature-gated**:
//!   without the `trace` cargo feature every entry point is an
//!   `#[inline(always)]` no-op that folds away, so the hot paths carry no
//!   registry, no lock, and no timestamp reads (the same idiom as
//!   `tmac_core::failpoint`). With the feature on there is no runtime
//!   toggle — recording is always on and costs two monotonic timestamp
//!   reads plus one ring store per span, with no steady-state allocation.
//!
//! ## Ring layout
//!
//! Each thread lazily registers one ring (capacity from
//! `TMAC_TRACE_EVENTS`, default 16384 events) in a process-global registry
//! the first time it records. Events are 6 machine words
//! (`start_ns`, `dur_ns`, two `&'static str` tags, `id`, `arg`); when the
//! ring is full the oldest event is overwritten, so a long-running server
//! always holds the *most recent* window of activity. Timestamps are
//! nanoseconds since a process-wide epoch ([`now_ns`]), so spans from
//! different threads line up on one timeline.
//!
//! ## Span identity
//!
//! Spans carry a category (`cat`, coarse subsystem: `"sched"`, `"gemm"`,
//! ...), a site name (`name`), and two free `u64`s: `id` (sequence id,
//! layer index, ...) and `arg` (batch size, matched positions, ...).
//! Nesting needs no parent pointers — Chrome's trace viewer nests
//! same-thread complete events by timestamp containment.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Histograms (always compiled)
// ---------------------------------------------------------------------------

/// Bucket upper bounds (seconds) for request-scale latencies: TTFT,
/// end-to-end latency, queue wait. Spans four decades around typical
/// CPU-serving latencies.
pub const LATENCY_BOUNDS_S: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
];

/// Bucket upper bounds (seconds) for scheduler step durations (one batched
/// decode / admission round — much shorter than a request).
pub const STEP_BOUNDS_S: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
];

/// Bucket upper bounds for batch occupancy (active sequences per step; a
/// unitless count).
pub const OCCUPANCY_BOUNDS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// A fixed-bucket histogram with atomic counters: lock-free `observe` and
/// cumulative-`le` Prometheus rendering with `_sum`/`_count` aggregates.
///
/// Values are recorded in micro-units internally (`v * 1e6`, saturating),
/// which keeps sums exact enough for latencies while staying a single
/// `u64` atomic.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    /// One counter per bound plus the overflow (`+Inf`) bucket.
    counts: Box<[AtomicU64]>,
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over `bounds` (must be sorted ascending; an implicit
    /// `+Inf` bucket is appended).
    pub fn new(bounds: &'static [f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_micros: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation (negative values clamp to zero).
    pub fn observe(&self, v: f64) {
        let v = v.max(0.0);
        // `le` semantics: the first bucket whose bound is >= v.
        let idx = self.bounds.partition_point(|b| v > *b);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let micros = (v * 1e6).round() as u64;
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// The bucket bounds this histogram was built with.
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket *cumulative* counts aligned with [`Histogram::bounds`],
    /// with the final entry being the total (`+Inf`) count.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|c| {
                acc += c.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }

    /// Appends the Prometheus exposition of this histogram to `out`:
    /// `name_bucket{le="..."}` lines (cumulative, ending with `+Inf`),
    /// then `name_sum` and `name_count`. Every line is `key value` with a
    /// single space, matching the rest of the `/metrics` page.
    pub fn render_prometheus(&self, name: &str, out: &mut String) {
        use std::fmt::Write;
        let cum = self.cumulative();
        for (b, c) in self.bounds.iter().zip(&cum) {
            let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {c}");
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"+Inf\"}} {}",
            cum.last().copied().unwrap_or(0)
        );
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

// ---------------------------------------------------------------------------
// Span recorder: no-op stubs (feature off)
// ---------------------------------------------------------------------------

#[cfg(not(feature = "trace"))]
mod imp {
    /// Recording is compiled out: a zero-sized guard with no `Drop`.
    #[must_use = "a span measures the scope it is bound to"]
    pub struct SpanGuard;

    /// Recording is compiled out: returns the zero-sized guard.
    #[inline(always)]
    pub fn span(_cat: &'static str, _name: &'static str, _id: u64, _arg: u64) -> SpanGuard {
        SpanGuard
    }

    /// Recording is compiled out: does nothing.
    #[inline(always)]
    pub fn instant(_cat: &'static str, _name: &'static str, _id: u64, _arg: u64) {}

    /// Recording is compiled out: does nothing.
    #[inline(always)]
    pub fn complete(
        _cat: &'static str,
        _name: &'static str,
        _id: u64,
        _arg: u64,
        _start_ns: u64,
        _end_ns: u64,
    ) {
    }

    /// Recording is compiled out: always 0.
    #[inline(always)]
    pub fn now_ns() -> u64 {
        0
    }

    /// Recording is compiled out: a valid, empty Chrome-trace document.
    #[inline(always)]
    pub fn chrome_trace_json() -> String {
        "{\"traceEvents\":[]}".to_string()
    }

    /// Recording is compiled out: does nothing.
    #[inline(always)]
    pub fn reset() {}
}

// ---------------------------------------------------------------------------
// Span recorder: real implementation (feature on)
// ---------------------------------------------------------------------------

#[cfg(feature = "trace")]
mod imp {
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    /// `dur_ns` sentinel marking an instant event.
    const INSTANT_DUR: u64 = u64::MAX;

    /// One recorded event (a completed span or an instant).
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        /// Nanoseconds since the process trace epoch.
        pub start_ns: u64,
        /// Span duration in nanoseconds; `u64::MAX` marks an instant.
        pub dur_ns: u64,
        /// Coarse subsystem tag (`"sched"`, `"gemm"`, ...).
        pub cat: &'static str,
        /// Site name within the category.
        pub name: &'static str,
        /// Free identifier: sequence id, layer index, panel index, ...
        pub id: u64,
        /// Free argument: batch size, matched positions, byte count, ...
        pub arg: u64,
    }

    impl Event {
        /// Whether this event is an instant (no duration).
        pub fn is_instant(&self) -> bool {
            self.dur_ns == INSTANT_DUR
        }
    }

    struct RingBuf {
        events: Vec<Event>,
        /// Oldest index once the ring has wrapped (next overwrite target).
        head: usize,
        /// Events ever recorded on this ring (monotonic).
        total: u64,
        cap: usize,
    }

    impl RingBuf {
        fn push(&mut self, ev: Event) {
            self.total += 1;
            if self.events.len() < self.cap {
                self.events.push(ev);
            } else {
                self.events[self.head] = ev;
                self.head = (self.head + 1) % self.cap;
            }
        }

        /// Events oldest-first.
        fn ordered(&self) -> Vec<Event> {
            let mut out = Vec::with_capacity(self.events.len());
            out.extend_from_slice(&self.events[self.head..]);
            out.extend_from_slice(&self.events[..self.head]);
            out
        }
    }

    struct Ring {
        tid: u64,
        label: String,
        buf: Mutex<RingBuf>,
    }

    /// Everything one thread recorded, oldest event first.
    #[derive(Debug)]
    pub struct ThreadSnapshot {
        /// Stable small integer assigned at ring registration.
        pub tid: u64,
        /// The thread's name at registration time.
        pub label: String,
        /// Events still held by the ring, oldest first.
        pub events: Vec<Event>,
        /// Events ever recorded (`> events.len()` once the ring wrapped).
        pub total: u64,
    }

    fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
        static REG: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
        REG.get_or_init(|| Mutex::new(Vec::new()))
    }

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    /// Per-thread ring capacity: `TMAC_TRACE_EVENTS`, default 16384.
    fn ring_capacity() -> usize {
        static CAP: OnceLock<usize> = OnceLock::new();
        *CAP.get_or_init(|| {
            std::env::var("TMAC_TRACE_EVENTS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(16384)
                .max(8)
        })
    }

    thread_local! {
        static RING: Arc<Ring> = {
            let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
            let cap = ring_capacity();
            let ring = Arc::new(Ring {
                tid: reg.len() as u64 + 1,
                label: std::thread::current().name().unwrap_or("worker").to_string(),
                buf: Mutex::new(RingBuf {
                    events: Vec::with_capacity(cap),
                    head: 0,
                    total: 0,
                    cap,
                }),
            });
            reg.push(Arc::clone(&ring));
            ring
        };
    }

    fn record(ev: Event) {
        // `try_with`: a drop running during thread teardown must not panic.
        let _ = RING.try_with(|r| {
            r.buf.lock().unwrap_or_else(|p| p.into_inner()).push(ev);
        });
    }

    /// Nanoseconds since the process trace epoch (monotonic, shared by
    /// every thread, so cross-thread spans line up on one timeline).
    pub fn now_ns() -> u64 {
        epoch().elapsed().as_nanos() as u64
    }

    /// RAII span: records one complete event covering its lifetime when
    /// dropped.
    #[must_use = "a span measures the scope it is bound to"]
    pub struct SpanGuard {
        cat: &'static str,
        name: &'static str,
        id: u64,
        arg: u64,
        start_ns: u64,
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            record(Event {
                start_ns: self.start_ns,
                dur_ns: now_ns().saturating_sub(self.start_ns),
                cat: self.cat,
                name: self.name,
                id: self.id,
                arg: self.arg,
            });
        }
    }

    /// Opens a span on the current thread; the returned guard records it
    /// when dropped. `id`/`arg` are free tags (see [`Event`]).
    pub fn span(cat: &'static str, name: &'static str, id: u64, arg: u64) -> SpanGuard {
        SpanGuard {
            cat,
            name,
            id,
            arg,
            start_ns: now_ns(),
        }
    }

    /// Records an instant event (a point in time, no duration).
    pub fn instant(cat: &'static str, name: &'static str, id: u64, arg: u64) {
        record(Event {
            start_ns: now_ns(),
            dur_ns: INSTANT_DUR,
            cat,
            name,
            id,
            arg,
        });
    }

    /// Records a complete span retroactively from explicit timestamps
    /// (both from [`now_ns`]) — for durations whose start lives on another
    /// thread or in non-`'static` state, like a request's queue wait.
    pub fn complete(
        cat: &'static str,
        name: &'static str,
        id: u64,
        arg: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        record(Event {
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            cat,
            name,
            id,
            arg,
        });
    }

    /// Non-destructive snapshot of every thread's ring, oldest first.
    pub fn snapshot() -> Vec<ThreadSnapshot> {
        let rings: Vec<Arc<Ring>> = registry().lock().unwrap_or_else(|p| p.into_inner()).clone();
        rings
            .iter()
            .map(|r| {
                let buf = r.buf.lock().unwrap_or_else(|p| p.into_inner());
                ThreadSnapshot {
                    tid: r.tid,
                    label: r.label.clone(),
                    events: buf.ordered(),
                    total: buf.total,
                }
            })
            .collect()
    }

    /// Clears every ring (registrations survive). Tests use this to
    /// isolate assertions; a server never needs it.
    pub fn reset() {
        for r in registry().lock().unwrap_or_else(|p| p.into_inner()).iter() {
            let mut buf = r.buf.lock().unwrap_or_else(|p| p.into_inner());
            buf.events.clear();
            buf.head = 0;
            buf.total = 0;
        }
    }

    fn escape_json(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
    }

    /// Serializes every ring as a Chrome Trace Event Format document
    /// (Perfetto / `chrome://tracing` load it directly): one metadata
    /// event naming each thread, then its spans (`"ph":"X"`, microsecond
    /// `ts`/`dur`) and instants (`"ph":"i"`) on that thread's track.
    pub fn chrome_trace_json() -> String {
        use std::fmt::Write;
        let snap = snapshot();
        let mut out = String::with_capacity(1024);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let sep = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
        };
        for t in &snap {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"",
                t.tid
            );
            escape_json(&t.label, &mut out);
            out.push_str("\"}}");
            for ev in &t.events {
                sep(&mut out, &mut first);
                let ts = ev.start_ns as f64 / 1e3;
                if ev.is_instant() {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"s\":\"t\",\"cat\":\"{}\",\"name\":\"{}\",\"args\":{{\"id\":{},\"arg\":{}}}}}",
                        t.tid, ev.cat, ev.name, ev.id, ev.arg
                    );
                } else {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{:.3},\"cat\":\"{}\",\"name\":\"{}\",\"args\":{{\"id\":{},\"arg\":{}}}}}",
                        t.tid,
                        ev.dur_ns as f64 / 1e3,
                        ev.cat,
                        ev.name,
                        ev.id,
                        ev.arg
                    );
                }
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

pub use imp::{chrome_trace_json, complete, instant, now_ns, reset, span, SpanGuard};
#[cfg(feature = "trace")]
pub use imp::{snapshot, Event, ThreadSnapshot};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_edges_use_le_semantics() {
        static BOUNDS: &[f64] = &[0.001, 0.01, 0.1];
        let h = Histogram::new(BOUNDS);
        // Exactly on a bound lands in that bound's bucket (le = <=).
        h.observe(0.001);
        h.observe(0.01);
        h.observe(0.1);
        // Just above a bound spills to the next.
        h.observe(0.0010001);
        // Overflow bucket.
        h.observe(5.0);
        // Negative clamps to zero (first bucket).
        h.observe(-1.0);
        let cum = h.cumulative();
        assert_eq!(cum, vec![2, 4, 5, 6]); // le 0.001, 0.01, 0.1, +Inf
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 5.112_000_1).abs() < 1e-4, "sum {}", h.sum());
    }

    #[test]
    fn histogram_renders_cumulative_prometheus_lines() {
        static BOUNDS: &[f64] = &[0.25, 2.5];
        let h = Histogram::new(BOUNDS);
        h.observe(0.1);
        h.observe(1.0);
        h.observe(100.0);
        let mut out = String::new();
        h.render_prometheus("tmac_test_seconds", &mut out);
        let want = "tmac_test_seconds_bucket{le=\"0.25\"} 1\n\
                    tmac_test_seconds_bucket{le=\"2.5\"} 2\n\
                    tmac_test_seconds_bucket{le=\"+Inf\"} 3\n\
                    tmac_test_seconds_sum 101.1\n\
                    tmac_test_seconds_count 3\n";
        assert_eq!(out, want);
        // Every line is `key value` with one space — the contract the
        // serving `/metrics` renderer and its tests rely on.
        for line in out.lines() {
            let (k, v) = line.rsplit_once(' ').unwrap();
            assert!(!k.is_empty() && v.parse::<f64>().is_ok(), "line {line:?}");
        }
    }

    #[test]
    fn histogram_is_safe_under_concurrent_observers() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new(LATENCY_BOUNDS_S));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.observe((w * 1000 + i) as f64 * 1e-5);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(*h.cumulative().last().unwrap(), 4000);
    }

    #[cfg(feature = "trace")]
    mod recorder {
        use super::super::*;
        use std::sync::{Mutex, MutexGuard, OnceLock};

        /// The ring registry is process-global; recorder tests serialize on
        /// this lock so reset/snapshot pairs don't interleave.
        fn serial() -> MutexGuard<'static, ()> {
            static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
            LOCK.get_or_init(|| Mutex::new(()))
                .lock()
                .unwrap_or_else(|p| p.into_inner())
        }

        fn my_events() -> Vec<Event> {
            // This thread records everything these tests emit; other
            // threads' rings may hold unrelated events.
            let all = snapshot();
            all.into_iter()
                .flat_map(|t| t.events)
                .filter(|e| e.cat == "test")
                .collect()
        }

        #[test]
        fn spans_nest_by_timestamp_containment() {
            let _guard = serial();
            reset();
            {
                let _outer = span("test", "outer", 1, 0);
                {
                    let _inner = span("test", "inner", 2, 0);
                }
                instant("test", "mark", 3, 7);
            }
            let evs = my_events();
            let find = |n: &str| *evs.iter().find(|e| e.name == n).unwrap();
            let (outer, inner, mark) = (find("outer"), find("inner"), find("mark"));
            // Inner drops first, so it records first; both nest inside
            // outer's [start, start+dur] window, as Chrome's viewer infers.
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
            assert!(mark.is_instant());
            assert!(mark.start_ns >= inner.start_ns + inner.dur_ns);
            assert!((outer.id, inner.id, mark.id) == (1, 2, 3) && mark.arg == 7);
        }

        #[test]
        fn ring_wraps_keeping_the_newest_events() {
            let _guard = serial();
            reset();
            // The per-ring capacity, replicating the recorder's own
            // resolution (env override, default 16384, floor 8).
            let cap: usize = std::env::var("TMAC_TRACE_EVENTS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(16384)
                .max(8);
            let n = cap + cap / 2;
            for i in 0..n {
                instant("test", "tick", i as u64, 0);
            }
            let t = snapshot()
                .into_iter()
                .find(|t| t.events.iter().any(|e| e.name == "tick"))
                .unwrap();
            assert_eq!(t.total as usize, n, "every record is counted");
            assert_eq!(t.events.len(), cap, "ring holds exactly its capacity");
            // Oldest-first order, ending at the newest event.
            let ids: Vec<u64> = t.events.iter().map(|e| e.id).collect();
            assert_eq!(ids[0], (n - cap) as u64, "oldest surviving event");
            assert_eq!(*ids.last().unwrap(), (n - 1) as u64, "newest event");
            assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "in order");
        }

        #[test]
        fn chrome_trace_json_is_well_formed() {
            let _guard = serial();
            reset();
            {
                let _s = span("test", "chrome_span", 42, 3);
            }
            instant("test", "chrome_instant", 7, 0);
            let json = chrome_trace_json();
            assert!(json.starts_with("{\"traceEvents\":["));
            assert!(json.contains("\"ph\":\"M\""), "thread metadata present");
            assert!(json.contains("\"name\":\"chrome_span\""));
            assert!(json.contains("\"ph\":\"X\""), "complete event present");
            assert!(json.contains("\"ph\":\"i\""), "instant event present");
            assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
            // Balanced braces/brackets outside of strings — cheap sanity
            // that the hand-rolled writer didn't mis-nest.
            let (mut depth, mut in_str, mut prev_escape) = (0i64, false, false);
            for c in json.chars() {
                if in_str {
                    if prev_escape {
                        prev_escape = false;
                    } else if c == '\\' {
                        prev_escape = true;
                    } else if c == '"' {
                        in_str = false;
                    }
                    continue;
                }
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0);
            }
            assert_eq!(depth, 0, "balanced JSON");
        }

        #[test]
        fn retroactive_complete_records_the_given_window() {
            let _guard = serial();
            reset();
            let t0 = now_ns();
            let t1 = t0 + 1_500_000; // 1.5ms later
            complete("test", "retro", 9, 2, t0, t1);
            let evs = my_events();
            let e = evs.iter().find(|e| e.name == "retro").unwrap();
            assert_eq!((e.start_ns, e.dur_ns, e.id, e.arg), (t0, 1_500_000, 9, 2));
        }
    }
}
