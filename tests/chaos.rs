//! Failpoint-driven fault-injection e2e tests (`--features failpoints`).
//!
//! These tests arm *real* failpoint sites (`scheduler/forward`,
//! `bridge/loop`, `io/*`), and the registry is process-global — so they
//! live in their own test binary, serialized by [`fp_lock`], instead of
//! riding in `tests/serve_http.rs` where Rust's parallel test runner
//! would let one test's triggers fire inside another. Without the
//! `failpoints` feature this whole binary compiles to nothing.

#![cfg(feature = "failpoints")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tmac::core::failpoint;
use tmac::core::ExecCtx;
use tmac::io::{IoError, LoadMode, Mapping, TmacContainer};
use tmac::llm::{
    BackendKind, Model, ModelConfig, Scheduler, SchedulerConfig, SubmitRequest, WeightQuant,
};
use tmac::serve::{Json, Metrics, ServerConfig, ServerHandle, SupervisorOpts};

/// Serializes tests in this binary and clears the registry on both entry
/// and exit, so a panicking test cannot leak armed sites into the next.
fn fp_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    failpoint::clear();
    g
}

/// Clears armed failpoints when a test body finishes or panics.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

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

fn start_server(supervisor: SupervisorOpts) -> ServerHandle {
    let sched = Scheduler::new(
        tiny_model(),
        SchedulerConfig {
            max_batch: 4,
            max_pending: 16,
            ..SchedulerConfig::default()
        },
    );
    tmac::serve::start(
        sched,
        ExecCtx::new(1),
        ServerConfig {
            supervisor,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Scheduler-direct reference output. Must run with no scheduler sites
/// armed — callers compute references *before* configuring failpoints.
fn direct_tokens(prompt: &[u32], max_new: usize) -> Vec<u32> {
    let ctx = ExecCtx::new(1);
    let mut sched = Scheduler::new(tiny_model(), SchedulerConfig::default());
    let id = sched
        .submit(SubmitRequest::greedy(prompt, max_new))
        .unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    done.into_iter().find(|f| f.id == id).unwrap().tokens
}

fn prompt_json(prompt: &[u32], max_tokens: usize, stream: bool) -> String {
    let ids: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
    format!(
        "{{\"prompt\":[{}],\"max_tokens\":{max_tokens},\"stream\":{stream}}}",
        ids.join(",")
    )
}

fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    String::from_utf8_lossy(&raw).into_owned()
}

fn status_of(response: &str) -> u16 {
    response.split_whitespace().nth(1).unwrap().parse().unwrap()
}

fn healthz(addr: SocketAddr) -> (u16, String) {
    let text = raw_request(addr, "GET", "/healthz", "");
    let status = status_of(&text);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// One client's terminal outcome: the emitted tokens plus whether the
/// request ended in a fault (HTTP 500 or an SSE `finish_reason: error`).
struct ClientOutcome {
    tokens: Vec<u32>,
    errored: bool,
}

fn run_client(addr: SocketAddr, prompt: &[u32], max_new: usize, stream: bool) -> ClientOutcome {
    let text = raw_request(
        addr,
        "POST",
        "/v1/completions",
        &prompt_json(prompt, max_new, stream),
    );
    let status = status_of(&text);
    if stream {
        assert_eq!(status, 200, "SSE must open with 200: {text}");
        let mut tokens = Vec::new();
        let mut reason = String::new();
        for line in text.lines() {
            let Some(payload) = line.strip_prefix("data: ") else {
                continue;
            };
            if payload == "[DONE]" {
                break;
            }
            let doc = Json::parse(payload).expect("valid SSE chunk");
            let choice = &doc.get("choices").unwrap().as_arr().unwrap()[0];
            if let Some(t) = choice.get("token_id") {
                tokens.push(t.as_u64().unwrap() as u32);
            }
            if let Some(r) = choice.get("finish_reason") {
                reason = r.as_str().unwrap().to_string();
            }
        }
        ClientOutcome {
            tokens,
            errored: reason == "error",
        }
    } else if status == 200 {
        let (_, body) = text.split_once("\r\n\r\n").unwrap();
        let doc = Json::parse(body).expect("valid completion JSON");
        let tokens = doc.get("choices").unwrap().as_arr().unwrap()[0]
            .get("token_ids")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|t| t.as_u64().unwrap() as u32)
            .collect();
        ClientOutcome {
            tokens,
            errored: false,
        }
    } else {
        assert_eq!(status, 500, "non-victim failures must not happen: {text}");
        ClientOutcome {
            tokens: Vec::new(),
            errored: true,
        }
    }
}

/// Polls until the serving gauges all read zero.
fn wait_quiesce(metrics: &Metrics) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if metrics.queue_depth.get() == 0
            && metrics.active_seqs.get() == 0
            && metrics.kv_slots_used.get() == 0
            && metrics.connections.get() == 0
        {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

#[test]
fn forward_panic_mid_stream_quarantines_only_the_victim() {
    let _g = fp_lock();
    let _d = Disarm;
    // Four concurrent requests (2 SSE, 2 plain). `n6x2` makes decode
    // forward #6 panic the whole batch and #7 panic the first per-row
    // probe: exactly one sequence is quarantined, the rest are exonerated
    // and must finish bit-exact.
    let cases: Vec<(Vec<u32>, usize)> = vec![
        (vec![1, 2, 3], 8),
        (vec![9, 4], 8),
        (vec![4, 5, 6], 8),
        (vec![11, 3, 8], 8),
    ];
    let expected: Vec<Vec<u32>> = cases.iter().map(|(p, n)| direct_tokens(p, *n)).collect();

    failpoint::clear();
    let server = start_server(SupervisorOpts::default());
    let addr = server.addr();
    let metrics = server.metrics();
    failpoint::configure("scheduler/forward=panic:n6x2", SEED).unwrap();

    let clients: Vec<_> = cases
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, (prompt, n))| {
            std::thread::spawn(move || run_client(addr, &prompt, n, i % 2 == 0))
        })
        .collect();
    let outcomes: Vec<ClientOutcome> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    failpoint::clear();

    let victims = outcomes.iter().filter(|o| o.errored).count();
    assert_eq!(victims, 1, "exactly one request must be quarantined");
    for (i, o) in outcomes.iter().enumerate() {
        if !o.errored {
            assert_eq!(o.tokens, expected[i], "survivor {i} must be bit-exact");
        }
    }

    // The fault must not leak capacity, skew the counters, or mark the
    // server unhealthy.
    assert!(wait_quiesce(&metrics), "gauges must drain");
    assert!(metrics.quarantined.get() >= 1);
    assert_eq!(healthz(addr).0, 200);
    let violations = metrics.consistency_violations();
    assert!(violations.is_empty(), "{violations:?}");
    // With span recording compiled in, the quarantine leaves an
    // instant event in the trace — panics are observable after the
    // fact, not just counted.
    #[cfg(feature = "trace")]
    {
        let dump = tmac::trace::chrome_trace_json();
        assert!(
            dump.contains("\"name\":\"quarantine\""),
            "no sched/quarantine instant in the trace dump"
        );
    }
    server.shutdown();
}

#[test]
fn bridge_panic_restarts_the_loop_and_serving_recovers() {
    let _g = fp_lock();
    let _d = Disarm;
    let expected = direct_tokens(&[5, 6, 7], 6);
    // The loop's second iteration panics once (nothing in flight yet);
    // the supervisor must restart it and serving must carry on.
    failpoint::configure("bridge/loop=panic:n2", SEED).unwrap();
    let server = start_server(SupervisorOpts::default());
    let addr = server.addr();
    let metrics = server.metrics();

    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.step_loop_restarts.get() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(metrics.step_loop_restarts.get(), 1, "one restart expected");

    let out = run_client(addr, &[5, 6, 7], 6, false);
    assert!(!out.errored, "post-restart serving must work");
    assert_eq!(
        out.tokens, expected,
        "post-restart output must be bit-exact"
    );
    assert_eq!(healthz(addr).0, 200);
    server.shutdown();
}

#[test]
fn supervisor_exhaustion_degrades_healthz_and_rejects_work() {
    let _g = fp_lock();
    let _d = Disarm;
    // Every loop iteration panics: the supervisor burns its restart budget
    // and declares the bridge dead instead of spinning forever.
    failpoint::configure("bridge/loop=panic", SEED).unwrap();
    let server = start_server(SupervisorOpts {
        max_restarts: 2,
        backoff: Duration::from_millis(1),
        ..SupervisorOpts::default()
    });
    let addr = server.addr();
    let metrics = server.metrics();

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut dead = (0, String::new());
    while Instant::now() < deadline {
        dead = healthz(addr);
        if dead.0 == 503 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(dead.0, 503, "healthz must degrade once the loop is dead");
    assert!(dead.1.contains("dead"), "body: {}", dead.1);
    assert!(metrics.step_loop_restarts.get() >= 2);

    let text = raw_request(
        addr,
        "POST",
        "/v1/completions",
        &prompt_json(&[1, 2], 4, false),
    );
    assert_eq!(status_of(&text), 503, "submits must fail fast: {text}");
    failpoint::clear();
    server.abort();
}

#[test]
fn kv_page_alloc_fault_errors_the_request_and_serving_recovers() {
    let _g = fp_lock();
    let _d = Disarm;
    let expected = direct_tokens(&[3, 1, 4], 6);

    let server = start_server(SupervisorOpts::default());
    let addr = server.addr();
    let metrics = server.metrics();

    // Every page allocation fails: the victim's prefill cannot attach a
    // page and must retire through the quarantine as an error, without
    // taking the server down.
    failpoint::configure("kv/page_alloc=error", SEED).unwrap();
    let out = run_client(addr, &[3, 1, 4], 6, false);
    assert!(out.errored, "prefill without pages must surface an error");
    failpoint::clear();

    // Disarmed, the same request must serve bit-exact — the fault leaked
    // no pages and left no partial radix state behind.
    let out = run_client(addr, &[3, 1, 4], 6, false);
    assert!(!out.errored, "post-fault serving must recover");
    assert_eq!(out.tokens, expected, "post-fault output must be bit-exact");

    // Snapshot consistency before the healthz probe: its own connection
    // would otherwise race the `connections` gauge back to non-zero.
    assert!(wait_quiesce(&metrics), "gauges must drain");
    assert!(metrics.quarantined.get() >= 1);
    let violations = metrics.consistency_violations();
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(healthz(addr).0, 200);
    server.shutdown();
}

#[test]
fn kv_cow_fault_quarantines_the_cached_rerun_only() {
    let _g = fp_lock();
    let _d = Disarm;
    let ctx = ExecCtx::new(1);
    let prompt = [5u32, 6, 7];
    let expected = direct_tokens(&prompt, 4);

    let mut sched = Scheduler::new(tiny_model(), SchedulerConfig::default());
    // Round 1 (cold) publishes the prompt into the radix index.
    let id = sched.submit(SubmitRequest::greedy(&prompt, 4)).unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    let first = done.into_iter().find(|f| f.id == id).unwrap();
    assert!(!first.reason.is_error());
    assert_eq!(first.tokens, expected);

    // Round 2 hits the cached prefix; its first divergent store forks the
    // shared tail page, which the failpoint turns into an error the
    // quarantine must contain.
    failpoint::configure("kv/cow=error", SEED).unwrap();
    let id = sched.submit(SubmitRequest::greedy(&prompt, 4)).unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    let second = done.into_iter().find(|f| f.id == id).unwrap();
    assert!(
        second.reason.is_error(),
        "injected COW failure must error the victim: {:?}",
        second.reason
    );
    failpoint::clear();

    // Disarmed, the cached prefix is still intact and serves bit-exact.
    let id = sched.submit(SubmitRequest::greedy(&prompt, 4)).unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    let third = done.into_iter().find(|f| f.id == id).unwrap();
    assert!(!third.reason.is_error());
    assert_eq!(third.tokens, expected, "cached rerun must be bit-exact");
    assert!(sched.kv_stats().prefix_hits >= 2);
}

#[test]
fn io_failpoints_surface_as_typed_errors() {
    let _g = fp_lock();
    let _d = Disarm;
    let dir = std::env::temp_dir().join(format!("tmac-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("blob.bin");
    std::fs::write(&bin, [7u8; 64]).unwrap();

    failpoint::configure("io/read=error", SEED).unwrap();
    let err = Mapping::open(&bin, LoadMode::Copy);
    assert!(
        matches!(&err, Err(IoError::Io(m)) if m.contains("injected")),
        "{err:?}"
    );

    failpoint::configure("io/mmap=error", SEED).unwrap();
    let err = Mapping::open(&bin, LoadMode::Mmap);
    assert!(
        matches!(&err, Err(IoError::Io(m)) if m.contains("injected")),
        "{err:?}"
    );

    // A real container round-trip: clean save/open, then a checksum fault
    // must surface as the typed corruption error, not a panic.
    failpoint::clear();
    let path = dir.join("chaos.tmac");
    tiny_model().save_tmac(&path).unwrap();
    assert!(TmacContainer::open(&path, LoadMode::Mmap).is_ok());
    failpoint::configure("io/checksum=error", SEED).unwrap();
    let err = TmacContainer::open(&path, LoadMode::Mmap);
    assert!(matches!(&err, Err(IoError::Checksum { .. })), "{err:?}");

    failpoint::clear();
    assert!(TmacContainer::open(&path, LoadMode::Mmap).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}
