//! Serving metrics: lock-free counters/gauges the step loop and event loop
//! update, rendered as a Prometheus-style text exposition at
//! `GET /metrics`.
//!
//! Counters are monotonically increasing totals; gauges are
//! point-in-time values the step loop refreshes every iteration. Latency
//! distributions (TTFT, end-to-end latency, queue wait, step duration,
//! batch occupancy) are fixed-bucket [`Histogram`]s from `tmac-trace`,
//! one implementation shared with the tracing layer, rendered as
//! `_bucket`/`_sum`/`_count` series: `tmac_ttft_seconds` and
//! `tmac_e2e_latency_seconds` are the latency surface.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tmac_trace::{Histogram, LATENCY_BOUNDS_S, OCCUPANCY_BOUNDS, STEP_BOUNDS_S};

/// One monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value (stored as `u64`).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds 1 (for up/down tracking like open connections).
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts 1, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// All serving metrics, shared (behind an `Arc`) between the event loop
/// and the scheduler step loop.
#[derive(Debug)]
pub struct Metrics {
    /// Process start (uptime base for tok/s).
    start: Instant,
    /// `POST /v1/completions` requests received (any outcome).
    pub req_completions: Counter,
    /// `GET /metrics` requests.
    pub req_metrics: Counter,
    /// `GET /healthz` requests.
    pub req_healthz: Counter,
    /// Requests to any other route (404/405 paths).
    pub req_other: Counter,
    /// Responses by status class.
    pub resp_2xx: Counter,
    /// 4xx responses, except 429 (counted separately as sheds).
    pub resp_4xx: Counter,
    /// 429 admission rejections (queue-full backpressure).
    pub resp_429: Counter,
    /// 5xx responses (includes 503 drain refusals and 504 deadlines).
    pub resp_5xx: Counter,
    /// Completion tokens streamed/returned to clients.
    pub tokens_out: Counter,
    /// Sequences finished with `finish_reason = length`.
    pub finished_length: Counter,
    /// Sequences ended by a stop sequence (`finish_reason = stop`).
    pub finished_stop: Counter,
    /// Sequences cancelled (client disconnect or explicit cancel).
    pub finished_cancelled: Counter,
    /// Sequences past their deadline (subset of cancellations, reported
    /// separately).
    pub finished_deadline: Counter,
    /// Sequences retired by model errors.
    pub finished_error: Counter,
    /// Submitted-but-not-yet-active requests (queue depth).
    pub queue_depth: Gauge,
    /// Sequences currently decoding (batch occupancy).
    pub active_seqs: Gauge,
    /// KV slots in use (== active sequences; kept separate so the slot
    /// capacity pairing below always reads together).
    pub kv_slots_used: Gauge,
    /// KV slot capacity (`SchedulerConfig::max_batch`).
    pub kv_slots_total: Gauge,
    /// KV pages currently referenced by sequences or the prefix index.
    pub kv_pages_used: Gauge,
    /// KV pages allocated in the pool arena (used + free-listed).
    pub kv_pages_total: Gauge,
    /// Bytes resident in allocated KV pages.
    pub kv_resident_bytes: Gauge,
    /// Cumulative radix prompt-cache hits (submits that reused pages);
    /// mirrors `KvStats::prefix_hits`, refreshed per step.
    pub prefix_hits: Gauge,
    /// Cumulative positions whose prefill was skipped via prefix reuse.
    pub prefix_hit_positions: Gauge,
    /// Cumulative copy-on-write page forks.
    pub kv_cow_forks: Gauge,
    /// Cumulative prefix-cache page evictions under budget pressure.
    pub kv_evictions: Gauge,
    /// Open client connections.
    pub connections: Gauge,
    /// Step-loop restarts performed by the bridge supervisor (each one
    /// means a panic escaped the scheduler's quarantine).
    pub step_loop_restarts: Counter,
    /// Sequences error-retired by the scheduler's fault quarantine
    /// (mirror of `Scheduler::quarantined_total`, refreshed per step).
    pub quarantined: Gauge,
    /// Micros since `start` at the step loop's last heartbeat; rendered
    /// as `tmac_last_step_age_seconds` (uptime minus this).
    pub heartbeat_us: Gauge,
    /// Time from admission request to first token (prefill + queueing),
    /// seconds.
    pub ttft: Histogram,
    /// Time from admission request to completion, seconds.
    pub request_latency: Histogram,
    /// Time a request waited for a KV slot (scheduler submit → admit),
    /// seconds.
    pub queue_wait: Histogram,
    /// Duration of one step-loop iteration (admission + batched decode),
    /// seconds.
    pub step_duration: Histogram,
    /// Active sequences per scheduler step (batch occupancy; unitless).
    pub batch_occupancy: Histogram,
}

impl Metrics {
    /// Fresh zeroed metrics with the uptime clock started.
    pub fn new() -> Self {
        Metrics {
            start: Instant::now(),
            req_completions: Counter::default(),
            req_metrics: Counter::default(),
            req_healthz: Counter::default(),
            req_other: Counter::default(),
            resp_2xx: Counter::default(),
            resp_4xx: Counter::default(),
            resp_429: Counter::default(),
            resp_5xx: Counter::default(),
            tokens_out: Counter::default(),
            finished_length: Counter::default(),
            finished_stop: Counter::default(),
            finished_cancelled: Counter::default(),
            finished_deadline: Counter::default(),
            finished_error: Counter::default(),
            queue_depth: Gauge::default(),
            active_seqs: Gauge::default(),
            kv_slots_used: Gauge::default(),
            kv_slots_total: Gauge::default(),
            kv_pages_used: Gauge::default(),
            kv_pages_total: Gauge::default(),
            kv_resident_bytes: Gauge::default(),
            prefix_hits: Gauge::default(),
            prefix_hit_positions: Gauge::default(),
            kv_cow_forks: Gauge::default(),
            kv_evictions: Gauge::default(),
            connections: Gauge::default(),
            step_loop_restarts: Counter::default(),
            quarantined: Gauge::default(),
            heartbeat_us: Gauge::default(),
            ttft: Histogram::new(LATENCY_BOUNDS_S),
            request_latency: Histogram::new(LATENCY_BOUNDS_S),
            queue_wait: Histogram::new(LATENCY_BOUNDS_S),
            step_duration: Histogram::new(STEP_BOUNDS_S),
            batch_occupancy: Histogram::new(OCCUPANCY_BOUNDS),
        }
    }

    /// Stamps the step-loop heartbeat at "now" on the uptime clock.
    pub fn mark_heartbeat(&self) {
        self.heartbeat_us
            .set(self.start.elapsed().as_micros() as u64);
    }

    /// Seconds since the step loop's last heartbeat.
    pub fn last_step_age_seconds(&self) -> f64 {
        (self.start.elapsed().as_secs_f64() - self.heartbeat_us.get() as f64 / 1e6).max(0.0)
    }

    /// Internal-consistency check over a quiesced snapshot: every
    /// completions request must have produced exactly one response, and
    /// in-flight gauges must have drained to zero. Only meaningful once
    /// all connections are closed (mid-flight requests legitimately break
    /// the equality). Returns the violations found (empty == consistent).
    pub fn consistency_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let responses =
            self.resp_2xx.get() + self.resp_4xx.get() + self.resp_429.get() + self.resp_5xx.get();
        let requests = self.req_completions.get()
            + self.req_metrics.get()
            + self.req_healthz.get()
            + self.req_other.get();
        if responses != requests {
            v.push(format!(
                "responses by class ({responses}) != requests received ({requests})"
            ));
        }
        for (name, g) in [
            ("queue_depth", &self.queue_depth),
            ("active_seqs", &self.active_seqs),
            ("kv_slots_used", &self.kv_slots_used),
            ("connections", &self.connections),
        ] {
            if g.get() != 0 {
                v.push(format!("gauge {name} = {} after quiesce", g.get()));
            }
        }
        v
    }

    /// Counts a response status into its class counter.
    pub fn count_status(&self, status: u16) {
        match status {
            429 => self.resp_429.inc(),
            200..=299 => self.resp_2xx.inc(),
            400..=499 => self.resp_4xx.inc(),
            _ => self.resp_5xx.inc(),
        }
    }

    /// Renders the Prometheus-style text exposition.
    pub fn render(&self) -> String {
        let uptime = self.start.elapsed().as_secs_f64().max(1e-9);
        let toks = self.tokens_out.get();
        let mut s = String::with_capacity(1024);
        let mut line = |k: &str, v: f64| {
            s.push_str(k);
            s.push(' ');
            if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
                s.push_str(&format!("{}\n", v as i64));
            } else {
                s.push_str(&format!("{v:.3}\n"));
            }
        };
        line("tmac_uptime_seconds", uptime);
        line(
            "tmac_requests_total{route=\"completions\"}",
            self.req_completions.get() as f64,
        );
        line(
            "tmac_requests_total{route=\"metrics\"}",
            self.req_metrics.get() as f64,
        );
        line(
            "tmac_requests_total{route=\"healthz\"}",
            self.req_healthz.get() as f64,
        );
        line(
            "tmac_requests_total{route=\"other\"}",
            self.req_other.get() as f64,
        );
        line(
            "tmac_responses_total{class=\"2xx\"}",
            self.resp_2xx.get() as f64,
        );
        line(
            "tmac_responses_total{class=\"4xx\"}",
            self.resp_4xx.get() as f64,
        );
        line(
            "tmac_responses_total{class=\"429\"}",
            self.resp_429.get() as f64,
        );
        line(
            "tmac_responses_total{class=\"5xx\"}",
            self.resp_5xx.get() as f64,
        );
        line("tmac_tokens_generated_total", toks as f64);
        line("tmac_tokens_per_second", toks as f64 / uptime);
        line(
            "tmac_finished_total{reason=\"length\"}",
            self.finished_length.get() as f64,
        );
        line(
            "tmac_finished_total{reason=\"stop\"}",
            self.finished_stop.get() as f64,
        );
        line(
            "tmac_finished_total{reason=\"cancelled\"}",
            self.finished_cancelled.get() as f64,
        );
        line(
            "tmac_finished_total{reason=\"deadline\"}",
            self.finished_deadline.get() as f64,
        );
        line(
            "tmac_finished_total{reason=\"error\"}",
            self.finished_error.get() as f64,
        );
        line("tmac_queue_depth", self.queue_depth.get() as f64);
        line("tmac_active_sequences", self.active_seqs.get() as f64);
        line("tmac_kv_slots_used", self.kv_slots_used.get() as f64);
        line("tmac_kv_slots_total", self.kv_slots_total.get() as f64);
        line("tmac_kv_pages_used", self.kv_pages_used.get() as f64);
        line("tmac_kv_pages_total", self.kv_pages_total.get() as f64);
        line(
            "tmac_kv_resident_bytes",
            self.kv_resident_bytes.get() as f64,
        );
        line("tmac_prefix_hits_total", self.prefix_hits.get() as f64);
        line(
            "tmac_prefix_hit_positions_total",
            self.prefix_hit_positions.get() as f64,
        );
        line("tmac_kv_cow_forks_total", self.kv_cow_forks.get() as f64);
        line("tmac_kv_evictions_total", self.kv_evictions.get() as f64);
        line("tmac_connections_open", self.connections.get() as f64);
        line(
            "tmac_step_loop_restarts_total",
            self.step_loop_restarts.get() as f64,
        );
        line("tmac_quarantined_total", self.quarantined.get() as f64);
        line("tmac_last_step_age_seconds", self.last_step_age_seconds());
        self.ttft.render_prometheus("tmac_ttft_seconds", &mut s);
        self.request_latency
            .render_prometheus("tmac_e2e_latency_seconds", &mut s);
        self.queue_wait
            .render_prometheus("tmac_queue_wait_seconds", &mut s);
        self.step_duration
            .render_prometheus("tmac_step_duration_seconds", &mut s);
        self.batch_occupancy
            .render_prometheus("tmac_batch_occupancy", &mut s);
        s
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_every_family_and_parses_as_key_value() {
        let m = Metrics::new();
        m.req_completions.inc();
        m.tokens_out.add(42);
        m.count_status(200);
        m.count_status(429);
        m.count_status(404);
        m.count_status(503);
        m.ttft.observe(0.0015);
        m.queue_wait.observe(0.004);
        m.step_duration.observe(0.0002);
        m.batch_occupancy.observe(3.0);
        m.kv_slots_total.set(16);
        let text = m.render();
        for key in [
            "tmac_uptime_seconds",
            "tmac_requests_total{route=\"completions\"} 1",
            "tmac_tokens_generated_total 42",
            "tmac_responses_total{class=\"2xx\"} 1",
            "tmac_responses_total{class=\"429\"} 1",
            "tmac_responses_total{class=\"4xx\"} 1",
            "tmac_responses_total{class=\"5xx\"} 1",
            "tmac_kv_slots_total 16",
            // The five histogram families, cumulative-le with +Inf closing.
            "tmac_ttft_seconds_bucket{le=\"0.0025\"} 1",
            "tmac_ttft_seconds_bucket{le=\"+Inf\"} 1",
            "tmac_ttft_seconds_sum 0.0015",
            "tmac_ttft_seconds_count 1",
            "tmac_e2e_latency_seconds_bucket{le=\"+Inf\"} 0",
            "tmac_queue_wait_seconds_bucket{le=\"0.005\"} 1",
            "tmac_step_duration_seconds_bucket{le=\"0.00025\"} 1",
            "tmac_batch_occupancy_bucket{le=\"4\"} 1",
            "tmac_batch_occupancy_bucket{le=\"2\"} 0",
        ] {
            assert!(text.contains(key), "missing {key:?} in:\n{text}");
        }
        for l in text.lines() {
            let (_, v) = l.rsplit_once(' ').unwrap();
            v.parse::<f64>().unwrap();
        }
    }

    #[test]
    fn supervision_metrics_render_and_age_follows_heartbeat() {
        let m = Metrics::new();
        m.step_loop_restarts.inc();
        m.quarantined.set(3);
        m.mark_heartbeat();
        let text = m.render();
        for key in [
            "tmac_step_loop_restarts_total 1",
            "tmac_quarantined_total 3",
            "tmac_last_step_age_seconds",
        ] {
            assert!(text.contains(key), "missing {key:?} in:\n{text}");
        }
        assert!(
            m.last_step_age_seconds() < 1.0,
            "age must be ~0 right after a heartbeat"
        );
    }

    #[test]
    fn consistency_violations_flag_imbalance_and_stuck_gauges() {
        let m = Metrics::new();
        assert!(m.consistency_violations().is_empty(), "fresh is consistent");
        m.req_completions.inc();
        m.queue_depth.set(2);
        let v = m.consistency_violations();
        assert_eq!(v.len(), 2, "got {v:?}");
        assert!(v[0].contains("responses by class"));
        assert!(v[1].contains("queue_depth"));
        m.count_status(200);
        m.queue_depth.set(0);
        assert!(m.consistency_violations().is_empty());
    }
}
