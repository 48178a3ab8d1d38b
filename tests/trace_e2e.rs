//! End-to-end observability tests: per-request `timings` breakdowns, the
//! `/debug/trace` Chrome-trace endpoint, and the `/metrics` latency
//! histograms, exercised over real TCP against the epoll event loop.
//!
//! Span *contents* (scheduler steps, request lifecycles, per-layer
//! attention, mpGEMM panels) are only recorded under `--features trace`;
//! those assertions are feature-gated. The timings breakdown and the
//! histograms are always on.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use tmac::core::ExecCtx;
use tmac::llm::{BackendKind, Model, ModelConfig, Scheduler, SchedulerConfig, WeightQuant};
use tmac::serve::{Json, ServerConfig, ServerHandle};

fn tiny_model() -> Model {
    Model::synthetic(
        &ModelConfig::tiny(),
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        42,
    )
    .unwrap()
}

/// Tiny-shaped model with a long context, so prompts can span KV pages
/// (the prefix cache matches page-granular).
fn long_model() -> Model {
    Model::synthetic(
        &ModelConfig::tiny().scaled(2, 96, 512),
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        42,
    )
    .unwrap()
}

fn start_server_with(model: Model) -> ServerHandle {
    let sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch: 2,
            max_pending: 16,
            ..SchedulerConfig::default()
        },
    );
    tmac::serve::start(
        sched,
        ExecCtx::new(1),
        ServerConfig {
            idle_conn_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn http_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    (status, head.to_string(), body.to_string())
}

fn prompt_json(prompt: &[u32], max_tokens: usize, stream: bool) -> String {
    let ids: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
    format!(
        "{{\"prompt\":[{}],\"max_tokens\":{max_tokens},\"stream\":{stream}}}",
        ids.join(",")
    )
}

/// Pulls the `timings` object out of a completion body (or final SSE
/// frame) as (queue_ms, prefill_ms, decode_ms, tokens_per_s, prefix_hits).
fn timings_of(doc: &Json) -> (f64, f64, f64, f64, u64) {
    let t = doc.get("timings").expect("timings object");
    let f = |k: &str| {
        t.get(k)
            .unwrap_or_else(|| panic!("timings.{k}"))
            .as_f64()
            .unwrap_or_else(|| panic!("timings.{k} must be a number"))
    };
    (
        f("queue_ms"),
        f("prefill_ms"),
        f("decode_ms"),
        f("tokens_per_s"),
        f("prefix_hit_positions") as u64,
    )
}

#[test]
fn timings_ride_responses() {
    let server = start_server_with(tiny_model());
    let addr = server.addr();

    // Non-streaming: the 200 body carries the breakdown.
    let (status, _, body) = http_request(
        addr,
        "POST",
        "/v1/completions",
        &prompt_json(&[1, 2, 3], 8, false),
    );
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    let (queue_ms, prefill_ms, decode_ms, tok_s, _) = timings_of(&doc);
    assert!(queue_ms >= 0.0, "queue {queue_ms}");
    assert!(prefill_ms >= 0.0, "prefill {prefill_ms}");
    // Eight decode steps on a real model take measurable time, and the
    // throughput figure must be finite and positive.
    assert!(decode_ms > 0.0, "decode {decode_ms}");
    assert!(tok_s > 0.0 && tok_s.is_finite(), "tokens_per_s {tok_s}");

    // Streaming: the final frame (the one with finish_reason) carries
    // the same breakdown.
    let (status, _, text) = http_request(
        addr,
        "POST",
        "/v1/completions",
        &prompt_json(&[4, 5], 6, true),
    );
    assert_eq!(status, 200);
    let tail = text
        .lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .rfind(|p| *p != "[DONE]")
        .expect("final SSE frame");
    let doc = Json::parse(tail).unwrap();
    let (_, _, decode_ms, tok_s, _) = timings_of(&doc);
    assert!(decode_ms > 0.0, "SSE: decode {decode_ms}");
    assert!(tok_s > 0.0, "SSE: tokens_per_s {tok_s}");
    server.shutdown();
}

#[test]
fn timings_report_prefix_hits_consistently_with_gauges() {
    // Two prompts sharing a page-spanning prefix: the second must report
    // its prefix hit in the response timings, and the number must agree
    // with the server's prefix gauges.
    let prefix: Vec<u32> = (0..70u32).map(|i| (i * 7 + 3) % 90).collect();
    let mut a = prefix.clone();
    a.extend_from_slice(&[1, 2]);
    let mut b = prefix;
    b.extend_from_slice(&[3, 4]);

    let server = start_server_with(long_model());
    let addr = server.addr();
    let (status, _, body) =
        http_request(addr, "POST", "/v1/completions", &prompt_json(&a, 2, false));
    assert_eq!(status, 200, "{body}");
    let first_hits = timings_of(&Json::parse(&body).unwrap()).4;

    let (status, _, body) =
        http_request(addr, "POST", "/v1/completions", &prompt_json(&b, 2, false));
    assert_eq!(status, 200, "{body}");
    let second_hits = timings_of(&Json::parse(&body).unwrap()).4;
    // The shared prefix spans one full KV page (64 positions); the second
    // request must reuse at least that page.
    assert!(
        second_hits >= 64,
        "second request must hit the cached prefix: {second_hits}"
    );

    // The step loop refreshes the gauges on its own cadence.
    let metrics = server.metrics();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while metrics.prefix_hit_positions.get() < second_hits && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        metrics.prefix_hit_positions.get() >= first_hits + second_hits,
        "gauge {} must cover the per-request reports {first_hits}+{second_hits}",
        metrics.prefix_hit_positions.get()
    );
    server.shutdown();
}

#[test]
fn debug_trace_serves_chrome_trace_json() {
    let server = start_server_with(tiny_model());
    let addr = server.addr();
    // Generate some work first so (feature-on) the rings hold spans.
    let (status, _, body) = http_request(
        addr,
        "POST",
        "/v1/completions",
        &prompt_json(&[1, 2, 3], 6, false),
    );
    assert_eq!(status, 200, "{body}");

    let (status, head, body) = http_request(addr, "GET", "/debug/trace", "");
    assert_eq!(status, 200);
    assert!(head.contains("application/json"), "{head}");
    // Valid JSON in Chrome Trace Event Format shape.
    let doc = Json::parse(&body).unwrap_or_else(|e| panic!("trace is not valid JSON: {e}"));
    assert!(
        doc.get("traceEvents").and_then(|v| v.as_arr()).is_some(),
        "missing traceEvents array"
    );

    // With recording compiled in, the dump must hold the span taxonomy
    // the issue promises: scheduler steps, the request lifecycle, and
    // the model layers under it down to mpGEMM panels.
    #[cfg(feature = "trace")]
    for (cat, name) in [
        ("sched", "step"),
        ("sched", "queue_wait"),
        ("serve", "request"),
        ("llm", "prefill_chunk"),
        ("llm", "attention"),
        ("gemm", "panel"),
    ] {
        assert!(
            body.contains(&format!("\"name\":\"{name}\"")),
            "no {cat}/{name} span in trace dump"
        );
    }
    // The GET / HTTP wrong-method contract holds for the new route too.
    let (status, head, _) = http_request(addr, "POST", "/debug/trace", "");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: GET"), "{head}");
    server.shutdown();
}

#[test]
fn metrics_expose_latency_histograms() {
    let server = start_server_with(tiny_model());
    let addr = server.addr();
    // One streaming completion touches every histogram: TTFT and e2e on
    // the request path, queue wait at admission, step duration and batch
    // occupancy on every scheduler step.
    let (status, _, _) = http_request(
        addr,
        "POST",
        "/v1/completions",
        &prompt_json(&[1, 2], 5, true),
    );
    assert_eq!(status, 200);

    let (status, _, text) = http_request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for family in [
        "tmac_ttft_seconds",
        "tmac_e2e_latency_seconds",
        "tmac_queue_wait_seconds",
        "tmac_step_duration_seconds",
        "tmac_batch_occupancy",
    ] {
        assert!(
            text.contains(&format!("{family}_bucket{{le=\"")),
            "missing {family} buckets in:\n{text}"
        );
        assert!(
            text.contains(&format!("{family}_bucket{{le=\"+Inf\"}}")),
            "missing {family} +Inf bucket"
        );
        assert!(
            text.contains(&format!("{family}_sum ")),
            "missing {family}_sum"
        );
        assert!(
            text.contains(&format!("{family}_count ")),
            "missing {family}_count"
        );
    }
    // Each histogram saw the request: every +Inf cumulative count >= 1.
    for family in ["tmac_ttft_seconds", "tmac_e2e_latency_seconds"] {
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("{family}_count")))
            .unwrap();
        let n: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(n >= 1, "{family}_count is {n}");
    }
    server.shutdown();
}
