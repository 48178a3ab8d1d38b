//! End-to-end tests for the `tmac-serve` HTTP front-end: real TCP clients
//! against a real server over the tiny synthetic model, checked bit-exact
//! against driving the [`Scheduler`] directly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use tmac::core::ExecCtx;
use tmac::llm::{
    BackendKind, Model, ModelConfig, SamplingParams, Scheduler, SchedulerConfig, SubmitRequest,
    WeightQuant,
};
use tmac::serve::{Json, ServerConfig, ServerHandle};

const SEED: u64 = 42;

fn tiny_model() -> Model {
    Model::synthetic(
        &ModelConfig::tiny(),
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        SEED,
    )
    .unwrap()
}

/// A tiny-shaped model with a long context, so cancellation/deadline tests
/// get hundreds of decode steps to interrupt.
fn long_model() -> Model {
    Model::synthetic(
        &ModelConfig::tiny().scaled(2, 96, 512),
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        SEED,
    )
    .unwrap()
}

fn start_server_with(model: Model, max_batch: usize, max_pending: usize) -> ServerHandle {
    let sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch,
            max_pending,
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

fn start_server(max_batch: usize, max_pending: usize) -> ServerHandle {
    start_server_with(tiny_model(), max_batch, max_pending)
}

/// Scheduler-direct reference output for one prompt.
fn direct_tokens_on(model: Model, prompt: &[u32], max_new: usize) -> Vec<u32> {
    let ctx = ExecCtx::new(1);
    let mut sched = Scheduler::new(model, SchedulerConfig::default());
    let id = sched
        .submit(SubmitRequest::greedy(prompt, max_new))
        .unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    done.into_iter().find(|f| f.id == id).unwrap().tokens
}

fn direct_tokens(prompt: &[u32], max_new: usize) -> Vec<u32> {
    direct_tokens_on(tiny_model(), prompt, max_new)
}

/// Minimal blocking HTTP client: one request, `Connection: close`, reads
/// the whole response.
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
    parse_response(&raw)
}

/// (status, head, body) from raw response bytes.
fn parse_response(raw: &[u8]) -> (u16, String, String) {
    let text = String::from_utf8_lossy(raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    (status, head.to_string(), body.to_string())
}

fn post_completion(addr: SocketAddr, body: &str) -> (u16, String) {
    let (status, _, resp) = http_request(addr, "POST", "/v1/completions", body);
    (status, resp)
}

fn completion_tokens(body: &str) -> (Vec<u32>, String) {
    let doc = Json::parse(body).expect("valid completion JSON");
    let choice = &doc.get("choices").unwrap().as_arr().unwrap()[0];
    let tokens = choice
        .get("token_ids")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|t| t.as_u64().unwrap() as u32)
        .collect();
    let reason = choice
        .get("finish_reason")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    (tokens, reason)
}

fn prompt_json(prompt: &[u32], max_tokens: usize, stream: bool) -> String {
    let ids: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
    format!(
        "{{\"prompt\":[{}],\"max_tokens\":{max_tokens},\"stream\":{stream}}}",
        ids.join(",")
    )
}

/// Streams a completion over SSE and returns (chunk token ids, tail
/// finish_reason).
fn stream_completion(addr: SocketAddr, prompt: &[u32], max_tokens: usize) -> (Vec<u32>, String) {
    let body = prompt_json(prompt, max_tokens, true);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap(); // close-delimited
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 200"),
        "SSE stream must open with 200: {text}"
    );
    assert!(text.contains("text/event-stream"), "{text}");
    assert!(text.trim_end().ends_with("data: [DONE]"), "{text}");
    let mut tokens = Vec::new();
    let mut reason = String::new();
    for line in text.lines() {
        let Some(payload) = line.strip_prefix("data: ") else {
            continue;
        };
        if payload == "[DONE]" {
            break;
        }
        let doc = Json::parse(payload).expect("valid SSE chunk JSON");
        let choice = &doc.get("choices").unwrap().as_arr().unwrap()[0];
        if let Some(t) = choice.get("token_id") {
            tokens.push(t.as_u64().unwrap() as u32);
        }
        if let Some(r) = choice.get("finish_reason") {
            reason = r.as_str().unwrap().to_string();
        }
    }
    (tokens, reason)
}

#[test]
fn concurrent_mixed_clients_are_bit_exact_vs_direct() {
    // Six prompts, half streamed over SSE and half plain JSON, all in
    // flight at once against a 2-slot scheduler — every client must get
    // exactly the tokens a direct Scheduler run produces.
    let cases: Vec<(Vec<u32>, usize)> = vec![
        (vec![1, 2, 3], 6),
        (vec![9], 5),
        (vec![4, 5], 7),
        (vec![11, 3, 8, 2], 4),
        (vec![60, 61], 6),
        (vec![17, 20, 23], 5),
    ];
    let expected: Vec<Vec<u32>> = cases.iter().map(|(p, n)| direct_tokens(p, *n)).collect();

    let server = start_server(2, 16);
    let addr = server.addr();
    let handles: Vec<_> = cases
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, (prompt, max_new))| {
            std::thread::spawn(move || {
                if i % 2 == 0 {
                    stream_completion(addr, &prompt, max_new)
                } else {
                    let (status, body) =
                        post_completion(addr, &prompt_json(&prompt, max_new, false));
                    assert_eq!(status, 200, "body: {body}");
                    completion_tokens(&body)
                }
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let (tokens, reason) = h.join().unwrap();
        assert_eq!(reason, "length", "case {i}");
        assert_eq!(tokens, expected[i], "case {i} diverged from direct run");
    }
    let metrics = server.metrics();
    assert_eq!(metrics.finished_length.get(), 6);
    let total: usize = expected.iter().map(Vec::len).sum();
    assert_eq!(metrics.tokens_out.get() as usize, total);
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_frees_the_slot() {
    // One KV slot: if cancellation leaks it, the follow-up hangs.
    let server = start_server_with(long_model(), 1, 16);
    let addr = server.addr();

    let body = prompt_json(&[1, 2], 480, true);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /v1/completions HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // Read a few bytes of the stream, then vanish mid-flight.
    let mut tmp = [0u8; 256];
    let n = stream.read(&mut tmp).unwrap();
    assert!(n > 0);
    drop(stream);

    // The slot must come back: a fresh request completes normally.
    let (status, resp) = post_completion(addr, &prompt_json(&[7, 8], 4, false));
    assert_eq!(status, 200, "{resp}");
    let (tokens, reason) = completion_tokens(&resp);
    assert_eq!(reason, "length");
    assert_eq!(tokens, direct_tokens_on(long_model(), &[7, 8], 4));

    let metrics = server.metrics();
    assert!(
        metrics.finished_cancelled.get() >= 1,
        "disconnect did not cancel the sequence"
    );
    server.shutdown();
}

#[test]
fn deadline_exceeded_returns_typed_error() {
    let server = start_server_with(long_model(), 1, 16);
    let addr = server.addr();
    let (status, body) = post_completion(
        addr,
        "{\"prompt\":[1,2],\"max_tokens\":480,\"deadline_ms\":5}",
    );
    assert_eq!(status, 504, "body: {body}");
    let doc = Json::parse(&body).unwrap();
    let err = doc.get("error").expect("typed error object");
    assert_eq!(
        err.get("type").unwrap().as_str().unwrap(),
        "deadline_exceeded"
    );
    assert!(err.get("partial_token_ids").unwrap().as_arr().is_some());
    assert!(server.metrics().finished_deadline.get() >= 1);
    server.shutdown();
}

#[test]
fn queue_full_sheds_with_429_and_retry_after() {
    // One slot and a one-deep queue: a burst must shed with 429s while
    // every accepted request still finishes correctly.
    let server = start_server(1, 1);
    let addr = server.addr();
    let handles: Vec<_> = (0..8u32)
        .map(|i| {
            std::thread::spawn(move || {
                let (status, _, resp) = http_request(
                    addr,
                    "POST",
                    "/v1/completions",
                    &prompt_json(&[1 + i], 8, false),
                );
                (status, resp)
            })
        })
        .collect();
    let mut ok = 0;
    let mut shed = 0;
    for h in handles {
        let (status, body) = h.join().unwrap();
        match status {
            200 => {
                let (_, reason) = completion_tokens(&body);
                assert_eq!(reason, "length");
                ok += 1;
            }
            429 => shed += 1,
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(ok >= 1, "no request got through");
    assert!(shed >= 1, "burst of 8 against capacity 2 never shed");
    assert_eq!(server.metrics().resp_429.get(), shed);
    // The Retry-After header rides on the 429.
    let tight: Vec<_> = (0..4u32)
        .map(|i| {
            std::thread::spawn(move || {
                http_request(
                    addr,
                    "POST",
                    "/v1/completions",
                    &prompt_json(&[2 + i], 8, false),
                )
            })
        })
        .collect();
    let mut saw_retry_after = false;
    for h in tight {
        let (status, head, _) = h.join().unwrap();
        if status == 429 {
            assert!(head.contains("Retry-After: 1"), "head: {head}");
            saw_retry_after = true;
        }
    }
    // Not guaranteed every round sheds, but over 4 more against a busy
    // 1-slot server we expect at least one (tolerate none only if the
    // first burst drained unusually fast).
    let _ = saw_retry_after;
    server.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_and_refuses_new() {
    let server = start_server(1, 16);
    let addr = server.addr();
    let worker =
        std::thread::spawn(move || post_completion(addr, &prompt_json(&[3, 4], 30, false)));
    // Give the request time to land, then drain.
    std::thread::sleep(Duration::from_millis(50));
    server.drain();
    // New connections are refused (listener closed) or answered 503.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let body = prompt_json(&[5], 2, false);
            let _ = s.write_all(
                format!(
                    "POST /v1/completions HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
            let mut raw = Vec::new();
            let _ = s.read_to_end(&mut raw);
            if !raw.is_empty() {
                let (status, _, _) = parse_response(&raw);
                assert_eq!(status, 503);
            }
        }
    }
    // The in-flight request still completes with its full output.
    let (status, body) = worker.join().unwrap();
    assert_eq!(status, 200, "{body}");
    let (tokens, reason) = completion_tokens(&body);
    assert_eq!(reason, "length");
    assert_eq!(tokens.len(), 30);
    server.join();
}

#[test]
fn shutdown_closes_idle_keep_alive_connections_before_returning() {
    // The default 10 s idle reaper: only the drain may close the socket.
    let server = tmac::serve::start(
        Scheduler::new(tiny_model(), SchedulerConfig::default()),
        ExecCtx::new(1),
        ServerConfig::default(),
    )
    .unwrap();
    let metrics = server.metrics();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = prompt_json(&[1, 2, 3], 4, false);
    conn.write_all(
        format!(
            "POST /v1/completions HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    // Read exactly one keep-alive response, leaving the connection open.
    let mut raw = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        let n = conn.read(&mut tmp).unwrap();
        assert!(n > 0, "server closed a keep-alive connection");
        raw.extend_from_slice(&tmp[..n]);
        let text = String::from_utf8_lossy(&raw);
        if let Some((head, body)) = text.split_once("\r\n\r\n") {
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("Content-Length")
                .parse()
                .unwrap();
            if body.len() >= len {
                assert!(head.contains("Connection: keep-alive"), "{head}");
                assert_eq!(completion_tokens(body).0, direct_tokens(&[1, 2, 3], 4));
                break;
            }
        }
    }
    assert_eq!(metrics.connections.get(), 1);

    let t0 = std::time::Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    assert_eq!(metrics.connections.get(), 0, "join left a connection open");
    // The server side is gone: the idle client reads EOF.
    assert_eq!(conn.read(&mut tmp).unwrap(), 0);
}

#[test]
fn healthz_and_metrics_routes_work() {
    let server = start_server(2, 16);
    let addr = server.addr();
    let (status, _, body) = http_request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    let (status, body) = post_completion(addr, &prompt_json(&[1, 2], 3, false));
    assert_eq!(status, 200, "{body}");
    let (status, _, text) = http_request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for key in [
        "tmac_requests_total{route=\"completions\"} 1",
        "tmac_tokens_generated_total 3",
        "tmac_finished_total{reason=\"length\"} 1",
        "tmac_kv_slots_total 2",
        "tmac_tokens_per_second",
        "tmac_ttft_seconds_count 1",
        "tmac_e2e_latency_seconds_count 1",
    ] {
        assert!(text.contains(key), "missing {key:?} in:\n{text}");
    }
    let (status, _, _) = http_request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, head, _) = http_request(addr, "GET", "/v1/completions", "");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: POST"));
    server.shutdown();
}

#[test]
fn malformed_traffic_gets_clean_4xx_and_never_wedges() {
    let server = start_server(2, 16);
    let addr = server.addr();

    // Raw protocol garbage → 4xx/5xx status, connection closed cleanly.
    let raw_cases: Vec<(Vec<u8>, u16)> = vec![
        (b"GARBAGE\r\n\r\n".to_vec(), 400),
        (b"GET / HTTP/2.0\r\n\r\n".to_vec(), 505),
        (b"get / HTTP/1.1\r\n\r\n".to_vec(), 400),
        (
            b"POST / HTTP/1.1\r\nContent-Length: zap\r\n\r\n".to_vec(),
            400,
        ),
        (
            b"POST /v1/completions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            501,
        ),
        (
            format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(64 * 1024)).into_bytes(),
            431,
        ),
        (
            format!(
                "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                64 * 1024 * 1024
            )
            .into_bytes(),
            413,
        ),
    ];
    for (raw, want) in &raw_cases {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(raw).unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (status, _, _) = parse_response(&resp);
        assert_eq!(
            status,
            *want,
            "raw {:?}",
            String::from_utf8_lossy(&raw[..raw.len().min(40)])
        );
    }

    // A flood of unterminated header bytes must be rejected, not
    // buffered forever.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let _ = s.write_all(&vec![b'x'; 32 * 1024]);
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (status, _, _) = parse_response(&resp);
        assert_eq!(status, 431);
    }

    // A truncated body (Content-Length promises more than is sent)
    // times out with 408 instead of wedging the connection forever.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(b"POST /v1/completions HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"pro")
            .unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (status, _, _) = parse_response(&resp);
        assert_eq!(status, 408);
    }

    // Well-formed HTTP carrying bad JSON / bad fields → typed 400s.
    let body_cases = [
        ("{not json", "invalid_json"),
        ("[1,2,3]", "invalid_request"),
        ("{}", "invalid_request"),
        ("{\"prompt\":\"hi there\"}", "invalid_request"),
        ("{\"prompt\":[1,2.5]}", "invalid_request"),
        ("{\"prompt\":[1,99999]}", "invalid_request"),
        ("{\"prompt\":[]}", "invalid_request"),
        ("{\"prompt\":[1],\"max_tokens\":0}", "invalid_request"),
        (
            "{\"prompt\":[1],\"max_tokens\":5000}",
            "context_length_exceeded",
        ),
        ("{\"prompt\":[1],\"stream\":\"yes\"}", "invalid_request"),
        ("{\"prompt\":[1],\"deadline_ms\":-4}", "invalid_request"),
    ];
    for (body, kind) in body_cases {
        let (status, resp) = post_completion(addr, body);
        assert_eq!(status, 400, "body {body}: {resp}");
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(
            doc.get("error")
                .unwrap()
                .get("type")
                .unwrap()
                .as_str()
                .unwrap(),
            kind,
            "body {body}"
        );
    }

    // After all that abuse the server still serves real work.
    let (status, body) = post_completion(addr, &prompt_json(&[1, 2, 3], 4, false));
    assert_eq!(status, 200, "{body}");
    let (tokens, _) = completion_tokens(&body);
    assert_eq!(tokens, direct_tokens(&[1, 2, 3], 4));
    server.shutdown();
}

#[test]
fn bad_sampling_params_get_typed_400s() {
    let server = start_server(2, 16);
    let addr = server.addr();
    // Every sampling field rejects out-of-domain values with a typed 400
    // naming the field, never a panic or a silent default.
    let cases = [
        "{\"prompt\":[1],\"temperature\":-0.5}",
        "{\"prompt\":[1],\"temperature\":\"hot\"}",
        "{\"prompt\":[1],\"top_k\":-3}",
        "{\"prompt\":[1],\"top_p\":0}",
        "{\"prompt\":[1],\"top_p\":1.5}",
        "{\"prompt\":[1],\"repetition_penalty\":0}",
        "{\"prompt\":[1],\"repetition_penalty\":-1}",
        "{\"prompt\":[1],\"seed\":-7}",
        "{\"prompt\":[1],\"logit_bias\":[1,2]}",
        "{\"prompt\":[1],\"logit_bias\":{\"99999\":1.0}}",
        "{\"prompt\":[1],\"logit_bias\":{\"zap\":1.0}}",
        "{\"prompt\":[1],\"stop\":\"please\"}",
        "{\"prompt\":[1],\"stop\":[[]]}",
        "{\"prompt\":[1],\"stop\":[[99999]]}",
    ];
    for body in cases {
        let (status, resp) = post_completion(addr, body);
        assert_eq!(status, 400, "body {body}: {resp}");
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(
            doc.get("error")
                .unwrap()
                .get("type")
                .unwrap()
                .as_str()
                .unwrap(),
            "invalid_request",
            "body {body}"
        );
    }
    server.shutdown();
}

#[test]
fn effective_sampling_params_are_echoed_in_responses() {
    let server = start_server(2, 16);
    let addr = server.addr();

    // Non-streaming: explicit fields come back verbatim, omitted ones as
    // their effective defaults (top_p 1, repetition_penalty 1).
    let body = "{\"prompt\":[1,2],\"max_tokens\":3,\"temperature\":0.7,\"top_k\":5,\"seed\":9}";
    let (status, resp) = post_completion(addr, body);
    assert_eq!(status, 200, "{resp}");
    let doc = Json::parse(&resp).unwrap();
    let s = doc.get("sampling").expect("sampling echo");
    let f = |k: &str| s.get(k).unwrap().as_f64().unwrap();
    assert_eq!(f("temperature"), 0.7f32 as f64);
    assert_eq!(f("top_k"), 5.0);
    assert_eq!(f("top_p"), 1.0);
    assert_eq!(f("repetition_penalty"), 1.0);
    assert_eq!(f("seed"), 9.0);

    // Streaming: the final usage frame carries the same echo.
    let body = "{\"prompt\":[1,2],\"max_tokens\":3,\"stream\":true,\"temperature\":0.7,\"seed\":9}";
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    sock.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let tail = text
        .lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .rfind(|p| *p != "[DONE]")
        .expect("final SSE frame");
    let doc = Json::parse(tail).unwrap();
    let s = doc.get("sampling").expect("sampling echo in final frame");
    assert_eq!(
        s.get("temperature").unwrap().as_f64().unwrap(),
        0.7f32 as f64
    );
    assert_eq!(s.get("seed").unwrap().as_f64().unwrap(), 9.0);
    assert!(doc.get("usage").is_some(), "final frame keeps usage");
    server.shutdown();
}

#[test]
fn stop_sequences_finish_with_stop_reason_over_http() {
    let server = start_server(2, 16);
    let addr = server.addr();
    let prompt = [1u32, 2, 3];
    let full = direct_tokens(&prompt, 8);
    let stop: Vec<u32> = full[1..3].to_vec();
    let hit = (1..=full.len())
        .find(|&n| full[..n].ends_with(&stop))
        .unwrap();

    // Nested form: list of stop sequences.
    let body = format!(
        "{{\"prompt\":[1,2,3],\"max_tokens\":8,\"stop\":[[{},{}]]}}",
        stop[0], stop[1]
    );
    let (status, resp) = post_completion(addr, &body);
    assert_eq!(status, 200, "{resp}");
    let (tokens, reason) = completion_tokens(&resp);
    assert_eq!(tokens, full[..hit], "stop must truncate the served tokens");
    assert_eq!(reason, "stop");

    // Flat shorthand: one stop sequence.
    let body = format!(
        "{{\"prompt\":[1,2,3],\"max_tokens\":8,\"stop\":[{},{}]}}",
        stop[0], stop[1]
    );
    let (status, resp) = post_completion(addr, &body);
    assert_eq!(status, 200, "{resp}");
    let (tokens, reason) = completion_tokens(&resp);
    assert_eq!(tokens, full[..hit]);
    assert_eq!(reason, "stop");
    server.shutdown();
}

#[test]
fn seeded_sampling_is_reproducible_and_matches_direct_over_http() {
    let server = start_server(2, 16);
    let addr = server.addr();
    let body =
        "{\"prompt\":[3,1,4],\"max_tokens\":6,\"temperature\":0.9,\"top_p\":0.95,\"seed\":5}";

    let (status, first) = post_completion(addr, body);
    assert_eq!(status, 200, "{first}");
    let (tokens_a, _) = completion_tokens(&first);
    let (_, second) = post_completion(addr, body);
    let (tokens_b, _) = completion_tokens(&second);
    assert_eq!(tokens_a, tokens_b, "same seed+params must reproduce");

    // And the served tokens are exactly what a direct Scheduler run with
    // the same SamplingParams produces.
    let params = SamplingParams {
        temperature: 0.9,
        top_p: 0.95,
        seed: 5,
        ..SamplingParams::default()
    };
    let ctx = ExecCtx::new(1);
    let mut sched = Scheduler::new(tiny_model(), SchedulerConfig::default());
    let id = sched
        .submit(SubmitRequest::greedy(&[3, 1, 4], 6).with_sampling(params))
        .unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    let direct = done.into_iter().find(|f| f.id == id).unwrap().tokens;
    assert_eq!(tokens_a, direct, "served sampled tokens diverged");

    // A biased request is forced onto one token end to end.
    let (status, resp) = post_completion(
        addr,
        "{\"prompt\":[1],\"max_tokens\":4,\"temperature\":1.0,\"logit_bias\":{\"42\":1000000000}}",
    );
    assert_eq!(status, 200, "{resp}");
    let (tokens, _) = completion_tokens(&resp);
    assert_eq!(tokens, vec![42; 4]);
    server.shutdown();
}

#[test]
fn metrics_stay_consistent_and_health_ok_after_mixed_traffic() {
    // After a burst of mixed traffic (success, SSE, 404s, a shed-free mix)
    // fully drains, the metrics snapshot must balance: every request
    // counted got exactly one response counted, and every gauge is back to
    // zero. This is the same invariant the chaos harness asserts after a
    // fault storm — here it gates the happy path in the tier-1 suite.
    let server = start_server(2, 16);
    let addr = server.addr();
    let metrics = server.metrics();

    let clients: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let prompt = vec![(i as u32) + 1, 7];
                if i % 2 == 0 {
                    stream_completion(addr, &prompt, 4);
                } else {
                    let (status, _) = post_completion(addr, &prompt_json(&prompt, 4, false));
                    assert_eq!(status, 200);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let (status, _, _) = http_request(addr, "GET", "/no/such/path", "");
    assert_eq!(status, 404);
    let (status, _, body) = http_request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");

    // Quiesce: all client sockets above are closed (Connection: close)
    // and the step loop refreshes the scheduler gauges on its next
    // tick, so poll until every gauge reads zero.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline
        && (metrics.connections.get() > 0
            || metrics.active_seqs.get() > 0
            || metrics.queue_depth.get() > 0
            || metrics.kv_slots_used.get() > 0)
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let violations = metrics.consistency_violations();
    assert!(violations.is_empty(), "{violations:?}");
    server.shutdown();
}
