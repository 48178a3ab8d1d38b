//! `serve-shared`: the in-process HTTP server (`tmac_serve::start`) driven
//! open-loop by two generator threads over at most two connections, then
//! checked token-for-token against `Scheduler`-direct.

use crate::direct::Runner;
use crate::gen::{self, Decode, Request};
use crate::spans::Recorder;
use crate::stats::{self, median, Outcomes};
use crate::{Metric, Outcome, Run, SeqTimes, Spec, SETUP_REPS};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tmac_core::ExecCtx;
use tmac_llm::batch::{Scheduler, SchedulerConfig};
use tmac_serve::{Json, ServerConfig, ServerHandle};

/// Arrival rate of the open loop, requests/s.
pub const RATE_RPS: f64 = 2.0;

/// Generator threads (= connections), at most the host's `nproc`.
const GENERATORS: usize = 2;

/// What the client saw of one request.
#[derive(Debug, Clone, Default)]
struct Seen {
    status: u16,
    sent_s: f64,
    /// Arrival time of every SSE token frame.
    frame_s: Vec<f64>,
    end_s: f64,
    tokens: Vec<u32>,
    /// Sum of the response's `timings` phases, ms.
    inside_ms: f64,
    /// The response's `timings.queue_ms`.
    queue_ms: f64,
}

/// A keep-alive HTTP/1.1 client holding at most one socket.
struct Client {
    addr: SocketAddr,
    sock: Option<TcpStream>,
}

fn find(h: &[u8], needle: &[u8]) -> Option<usize> {
    h.windows(needle.len()).position(|w| w == needle)
}

/// The response's `timings`: (queue + prefill + decode, queue), ms.
fn timings_ms(doc: &Json) -> (f64, f64) {
    let t = doc.get("timings");
    let get = |k: &str| t.and_then(|t| t.get(k)?.as_f64()).unwrap_or(0.0);
    let queue = get("queue_ms");
    (queue + get("prefill_ms") + get("decode_ms"), queue)
}

fn body_of(r: &Request, cache_prompt: bool) -> String {
    let ids: Vec<String> = r.prompt.iter().map(u32::to_string).collect();
    let mut b = format!(
        "{{\"prompt\":[{}],\"max_tokens\":{},\"stream\":{}",
        ids.join(","),
        r.max_new,
        r.stream
    );
    if let Decode::TopP { seed } = r.decode {
        b.push_str(&format!(
            ",\"temperature\":0.8,\"top_p\":0.9,\"seed\":{seed}"
        ));
    }
    if !cache_prompt {
        b.push_str(",\"cache_prompt\":false");
    }
    b.push('}');
    b
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client { addr, sock: None }
    }

    fn connect(&self) -> Option<TcpStream> {
        let s = TcpStream::connect(self.addr).ok()?;
        s.set_read_timeout(Some(Duration::from_secs(60))).ok()?;
        s.set_nodelay(true).ok()?;
        Some(s)
    }

    /// Sends one completion and reads the whole response, stamping SSE
    /// frames on the window clock `origin`.
    fn send(&mut self, body: &str, stream: bool, origin: Instant) -> Seen {
        let mut seen = Seen {
            sent_s: origin.elapsed().as_secs_f64(),
            ..Seen::default()
        };
        let req = format!(
            "POST /v1/completions HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        // SSE is close-delimited: it takes the connection; a reused
        // keep-alive socket may have been closed by the server meanwhile,
        // so a JSON request retries once on a fresh one.
        for attempt in 0..2 {
            let reused = self.sock.is_some();
            let Some(mut sock) = self.sock.take().or_else(|| self.connect()) else {
                break;
            };
            if sock.write_all(req.as_bytes()).is_err() {
                if reused && attempt == 0 {
                    continue;
                }
                break;
            }
            let r = if stream {
                Self::read_sse(sock, origin, &mut seen)
            } else {
                self.read_json(sock, &mut seen)
            };
            if r.is_ok() || !reused {
                break;
            }
        }
        seen.end_s = origin.elapsed().as_secs_f64();
        seen
    }

    fn read_head(sock: &mut TcpStream, raw: &mut Vec<u8>) -> Result<(u16, String, usize), ()> {
        let mut tmp = [0u8; 8192];
        let end = loop {
            if let Some(at) = find(raw, b"\r\n\r\n") {
                break at + 4;
            }
            match sock.read(&mut tmp) {
                Ok(0) | Err(_) => return Err(()),
                Ok(n) => raw.extend_from_slice(&tmp[..n]),
            }
        };
        let head = String::from_utf8_lossy(&raw[..end]).to_string();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(())?;
        Ok((status, head, end))
    }

    fn read_json(&mut self, mut sock: TcpStream, seen: &mut Seen) -> Result<(), ()> {
        let mut raw = Vec::new();
        let (status, head, end) = Self::read_head(&mut sock, &mut raw)?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or(())?;
        let mut tmp = [0u8; 8192];
        while raw.len() < end + len {
            match sock.read(&mut tmp) {
                Ok(0) | Err(_) => return Err(()),
                Ok(n) => raw.extend_from_slice(&tmp[..n]),
            }
        }
        seen.status = status;
        if let Ok(doc) = Json::parse(&String::from_utf8_lossy(&raw[end..end + len])) {
            (seen.inside_ms, seen.queue_ms) = timings_ms(&doc);
            let ids = doc.get("choices").and_then(|c| {
                c.as_arr()?
                    .first()?
                    .get("token_ids")?
                    .as_arr()
                    .map(<[Json]>::to_vec)
            });
            seen.tokens = ids
                .unwrap_or_default()
                .iter()
                .filter_map(|t| t.as_u64().map(|v| v as u32))
                .collect();
        }
        if !head.to_ascii_lowercase().contains("connection: close") {
            self.sock = Some(sock);
        }
        Ok(())
    }

    fn read_sse(mut sock: TcpStream, origin: Instant, seen: &mut Seen) -> Result<(), ()> {
        let mut raw = Vec::new();
        let (status, _, end) = Self::read_head(&mut sock, &mut raw)?;
        seen.status = status;
        if status != 200 {
            // Refusals arrive as plain JSON errors; the socket is dropped.
            return Ok(());
        }
        raw.drain(..end);
        let mut tmp = [0u8; 8192];
        loop {
            while let Some(at) = find(&raw, b"\n\n") {
                let ev: Vec<u8> = raw.drain(..at + 2).collect();
                let text = String::from_utf8_lossy(&ev);
                let Some(data) = text.trim().strip_prefix("data:") else {
                    continue;
                };
                let data = data.trim();
                if data == "[DONE]" {
                    return Ok(());
                }
                let Ok(doc) = Json::parse(data) else { continue };
                let tok = doc
                    .get("choices")
                    .and_then(|c| c.as_arr()?.first()?.get("token_id")?.as_u64());
                if let Some(t) = tok {
                    seen.frame_s.push(origin.elapsed().as_secs_f64());
                    seen.tokens.push(t as u32);
                }
                if doc.get("timings").is_some() {
                    (seen.inside_ms, seen.queue_ms) = timings_ms(&doc);
                }
            }
            match sock.read(&mut tmp) {
                Ok(0) | Err(_) => return Err(()),
                Ok(n) => raw.extend_from_slice(&tmp[..n]),
            }
        }
    }
}

/// Loads, builds the scheduler, starts the server and serves one warm-up
/// token over HTTP, `SETUP_REPS` times; keeps the last server.
fn setup(spec: &Spec) -> (ServerHandle, Vec<f64>, Vec<f64>) {
    let (mut setup, mut load) = (Vec::new(), Vec::new());
    let mut last: Option<ServerHandle> = None;
    let warm = Request {
        prompt: vec![1],
        max_new: 1,
        decode: Decode::Greedy,
        stream: false,
        due_s: 0.0,
        shared: false,
    };
    for _ in 0..SETUP_REPS {
        if let Some(h) = last.take() {
            h.shutdown();
        }
        let t0 = Instant::now();
        let model = spec.load();
        load.push(t0.elapsed().as_secs_f64());
        let sched = Scheduler::new(model, spec.sched_cfg());
        let handle = tmac_serve::start(sched, ExecCtx::new(spec.threads), ServerConfig::default())
            .expect("start server");
        let seen = Client::new(handle.addr()).send(&body_of(&warm, false), false, t0);
        assert_eq!(seen.status, 200, "warm-up request failed");
        setup.push(t0.elapsed().as_secs_f64());
        last = Some(handle);
    }
    (last.expect("at least one setup"), setup, load)
}

pub fn run(run: &Run, rec: &Recorder) -> Outcome {
    let spec = run.workload.spec();
    let (handle, setup_s, load_s) = setup(&spec);
    let addr = handle.addr();
    let metrics = handle.metrics();
    let reqs = gen::serve_shared(run.seed, RATE_RPS, run.seconds);
    let next = AtomicUsize::new(0);
    let pages_peak = AtomicUsize::new(0);
    let seen: Mutex<Vec<Option<Seen>>> = Mutex::new(vec![None; reqs.len()]);
    let origin = Instant::now();
    std::thread::scope(|s| {
        for g in 0..GENERATORS {
            let (reqs, next, seen, metrics, pages_peak) =
                (&reqs, &next, &seen, &metrics, &pages_peak);
            s.spawn(move || {
                let mut client = Client::new(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(r) = reqs.get(i) else { break };
                    let wait = r.due_s - origin.elapsed().as_secs_f64();
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait));
                    }
                    let t0 = rec.now_ns();
                    let got = client.send(&body_of(r, true), r.stream, origin);
                    rec.record(
                        "http",
                        "request",
                        10 + g as u32,
                        t0,
                        rec.now_ns(),
                        None,
                        i as u64,
                    );
                    pages_peak.fetch_max(metrics.kv_pages_used.get() as usize, Ordering::Relaxed);
                    seen.lock().expect("a generator thread panicked")[i] = Some(got);
                }
            });
        }
    });
    let rss = stats::peak_rss_mb();
    let window_s = origin.elapsed().as_secs_f64();
    let seen: Vec<Seen> = seen
        .into_inner()
        .expect("a generator thread panicked")
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    let (cow, resident, hit_pos) = (
        metrics.kv_cow_forks.get(),
        metrics.kv_resident_bytes.get(),
        metrics.prefix_hit_positions.get(),
    );
    handle.shutdown();

    let ok: Vec<usize> = (0..reqs.len()).filter(|&i| seen[i].status == 200).collect();
    let times: Vec<SeqTimes> = ok
        .iter()
        .map(|&i| SeqTimes {
            due_s: reqs[i].due_s,
            sent_s: seen[i].sent_s,
            prompt_len: reqs[i].prompt.len(),
            token_s: seen[i].frame_s.clone(),
            end_s: seen[i].end_s,
        })
        .collect();
    let pf: Vec<(f64, usize)> = times
        .iter()
        .filter(|t| !t.token_s.is_empty())
        .map(|t| (t.token_s[0] - t.sent_s, t.prompt_len))
        .collect();
    let mut out = Outcome {
        e2e: crate::e2e_metrics(&times, &setup_s, rss, &pf),
        ..Outcome::default()
    };
    let shed = seen.iter().filter(|s| s.status == 429).count() as u64;
    out.outcomes = Outcomes {
        attempted: reqs.len() as u64,
        errored: seen
            .iter()
            .filter(|s| s.status != 200 && s.status != 429)
            .count() as u64,
        shed,
    };
    out.digest = gen::digest(seen.iter().map(|s| s.tokens.as_slice()));

    // Scheduler-direct on the same requests, in arrival order: every served
    // stream must match bit for bit (greedy and seeded top-p alike).
    let untraced = Recorder::new(false);
    let direct_rec = if run.trace { rec } else { &untraced };
    let sched = Scheduler::new(
        spec.load(),
        SchedulerConfig {
            max_pending: 0,
            ..spec.sched_cfg()
        },
    );
    let check_t0 = Instant::now();
    let mut d = Runner::new(
        sched,
        ExecCtx::new(spec.threads),
        direct_rec,
        Instant::now(),
    );
    for (i, r) in reqs.iter().enumerate() {
        d.submit(i, r, 0.0);
    }
    d.run_idle();
    out.notes.push(format!(
        "window {window_s:.1}s for {} arrivals at {RATE_RPS} rps; direct replica {:.1}s",
        reqs.len(),
        check_t0.elapsed().as_secs_f64()
    ));
    let direct_ok = d.errored() == 0 && d.seqs.len() == reqs.len();
    let mismatched = ok
        .iter()
        .filter(|&&i| seen[i].tokens != d.seqs[i].tokens)
        .count();
    let complete = ok.iter().all(|&i| seen[i].tokens.len() == reqs[i].max_new);
    out.checks.push((
        format!(
            "served == Scheduler-direct on {} requests ({mismatched} differ)",
            ok.len()
        ),
        direct_ok && mismatched == 0,
    ));
    out.checks.push((
        "every served request completed its token budget".into(),
        complete,
    ));
    out.checks.push((
        "no request failed or was shed".into(),
        out.outcomes.failed() == 0,
    ));

    if run.trace {
        out.layer.push(Metric::n(
            "io.load_s",
            median(&load_s).unwrap_or(0.0),
            "s",
            load_s.len(),
        ));
        let over: Vec<f64> = ok
            .iter()
            .map(|&i| (seen[i].end_s - seen[i].sent_s) * 1e3 - seen[i].inside_ms)
            .collect();
        let late: Vec<f64> = ok
            .iter()
            .map(|&i| (seen[i].sent_s - reqs[i].due_s) * 1e3)
            .collect();
        let prompt: usize = reqs.iter().map(|r| r.prompt.len()).sum();
        // Table counters and step shape come from the direct replica (the
        // server's scheduler is not reachable from outside).
        let mut direct_layers = Vec::new();
        crate::runner_layer_metrics(&d, &mut direct_layers);
        for m in direct_layers {
            let keep = matches!(
                m.name.as_str(),
                "table.hit_frac" | "table.builds_per_token" | "batch.step_ms"
            );
            if keep {
                out.layer.push(m);
            }
        }
        let queue: Vec<f64> = ok.iter().map(|&i| seen[i].queue_ms).collect();
        out.layer.extend([
            Metric::n(
                "batch.queue_wait_ms",
                median(&queue).unwrap_or(0.0),
                "ms",
                queue.len(),
            ),
            Metric::new(
                "kv.prefix_hit_frac".into(),
                hit_pos as f64 / prompt.max(1) as f64,
                "frac",
            ),
            Metric::new("kv.cow_forks".into(), cow as f64, "count"),
            Metric::new(
                "kv.pages_peak".into(),
                pages_peak.load(Ordering::Relaxed) as f64,
                "count",
            ),
            Metric::new(
                "kv.resident_mb".into(),
                resident as f64 / (1 << 20) as f64,
                "MB",
            ),
            Metric::n(
                "serve.overhead_p50_ms",
                median(&over).unwrap_or(0.0),
                "ms",
                over.len(),
            ),
            Metric::n(
                "serve.overhead_max_ms",
                over.iter().copied().reduce(f64::max).unwrap_or(0.0),
                "ms",
                over.len(),
            ),
            Metric::n(
                "serve.late_ms",
                median(&late).unwrap_or(0.0),
                "ms",
                late.len(),
            ),
            Metric::new("serve.shed".into(), shed as f64, "count"),
        ]);
        crate::traced_layers(&spec, &d, rec, 192, &mut out);
        out.notes.push(
            "attribution of serve-shared replays the Scheduler-direct replica's steps".into(),
        );
    }
    out
}
