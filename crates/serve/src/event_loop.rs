//! Epoll connection driver (Linux): one thread multiplexes the listener
//! and every connection as non-blocking state machines.
//!
//! Each connection is `Idle` (parsing buffered bytes into requests),
//! `Waiting` (a non-streaming completion in flight), or `Streaming` (an
//! SSE response in flight). The scheduler's step loop nudges the poller
//! through its self-pipe waker whenever it queues events for a
//! connection, so the loop sleeps in `epoll_wait` instead of spinning.
//! Responses accumulate in a per-connection write buffer that is flushed
//! as the socket accepts bytes; a slow consumer whose buffer passes a hard
//! cap is cancelled and dropped rather than allowed to pin memory.

#![cfg(target_os = "linux")]

use crate::bridge::{EndReason, SeqEvent, WakeFn};
use crate::http;
use crate::poll::{Event, Interest, Poller};
use crate::server::{
    completion_response, handle_request, protocol_error_response, stream_chunk, stream_tail,
    trace_request_done, Outcome, PendingCompletion, Shared,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use tmac_core::failpoint::{self, FailAction};
use tmac_llm::batch::SeqTiming;

/// Pending response bytes beyond which a consumer is too slow to keep.
const WRITE_CAP: usize = 4 * 1024 * 1024;

const LISTEN_TOKEN: u64 = 0;

enum State {
    Idle,
    Waiting(PendingCompletion),
    Streaming(PendingCompletion),
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    state: State,
    keep: bool,
    last_data: Instant,
    want_write: bool,
    gone: bool,
}

impl Conn {
    fn push(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn cancel_inflight(&self) {
        match &self.state {
            State::Waiting(pc) | State::Streaming(pc) => {
                pc.cancel.store(true, Ordering::Release);
            }
            State::Idle => {}
        }
    }
}

/// Runs the event loop until stop, or drain completes.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>, poller: Poller) {
    // The listener was made non-blocking by `server::start` before this
    // thread was spawned. Registering a fresh fd with a fresh epoll
    // instance only fails on fd/memory exhaustion at startup, before any
    // request is accepted — failing fast there beats serving blind.
    poller
        .add(listener.as_raw_fd(), LISTEN_TOKEN, Interest::READ)
        .expect("register listener");
    let waker = poller.waker();
    let wake: WakeFn = Arc::new(move || waker.wake());

    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events: Vec<Event> = Vec::new();

    loop {
        events.clear();
        let _ = poller.wait(&mut events, 100);
        if shared.is_stopped() {
            break;
        }
        if shared.is_draining() {
            if let Some(l) = listener.take() {
                poller.delete(l.as_raw_fd());
            }
        }

        for ev in &events {
            if ev.token == LISTEN_TOKEN {
                if let Some(l) = &listener {
                    accept_ready(l, &poller, &shared, &mut conns, &mut next_token);
                }
                continue;
            }
            let Some(c) = conns.get_mut(&ev.token) else {
                continue;
            };
            if ev.readable {
                read_ready(c, &shared);
            }
            if ev.writable {
                flush(c);
            }
            if ev.closed {
                c.gone = true;
            }
        }

        // Service every connection: parse requests, pump completion
        // events, flush, reap. The bridge's waker lands here too.
        let now = Instant::now();
        let mut dead: Vec<u64> = Vec::new();
        for (&tok, c) in conns.iter_mut() {
            if c.gone {
                c.cancel_inflight();
                dead.push(tok);
                continue;
            }
            loop {
                let again = if matches!(c.state, State::Idle) {
                    process_idle(c, &shared, &wake)
                } else {
                    pump_completion(c, &shared)
                };
                if !again {
                    break;
                }
            }
            flush(c);
            if c.gone || c.out_pending() > WRITE_CAP {
                c.cancel_inflight();
                dead.push(tok);
                continue;
            }
            let flushed = c.out_pending() == 0;
            if flushed && matches!(c.state, State::Idle) {
                let idle_cut = now.duration_since(c.last_data) > shared.cfg.idle_conn_timeout;
                if !c.keep || shared.is_draining() || (idle_cut && c.buf.is_empty()) {
                    dead.push(tok);
                    continue;
                }
                if idle_cut {
                    // A half-sent request that stalled: answer and close.
                    let resp = http::Response::error(408, "timeout", "request incomplete");
                    shared.metrics.count_status(408);
                    c.push(&resp.encode(false));
                    c.keep = false;
                    c.buf.clear();
                    flush(c);
                }
            }
            // Keep EPOLLOUT interest in sync with buffered output.
            let needs_write = c.out_pending() > 0;
            if needs_write != c.want_write {
                let interest = if needs_write {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                if poller.modify(c.stream.as_raw_fd(), tok, interest).is_ok() {
                    c.want_write = needs_write;
                }
            }
        }
        for tok in dead {
            if let Some(c) = conns.remove(&tok) {
                poller.delete(c.stream.as_raw_fd());
                shared.metrics.connections.dec();
            }
        }

        if shared.is_draining() && listener.is_none() && conns.is_empty() {
            break;
        }
    }

    for (_, c) in conns.drain() {
        c.cancel_inflight();
        poller.delete(c.stream.as_raw_fd());
        shared.metrics.connections.dec();
    }
}

fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    shared: &Shared,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if failpoint::fire("serve/accept") == Some(FailAction::Error) {
                    drop(stream); // injected accept failure: client sees RST
                    continue;
                }
                tmac_trace::instant("serve", "accept", 0, 0);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let tok = *next_token;
                // Skip the reserved tokens on wrap (practically unreachable).
                *next_token = next_token.wrapping_add(1).max(1);
                if poller.add(stream.as_raw_fd(), tok, Interest::READ).is_ok() {
                    shared.metrics.connections.inc();
                    conns.insert(
                        tok,
                        Conn {
                            stream,
                            buf: Vec::new(),
                            out: Vec::new(),
                            out_pos: 0,
                            state: State::Idle,
                            keep: true,
                            last_data: Instant::now(),
                            want_write: false,
                            gone: false,
                        },
                    );
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

fn read_ready(c: &mut Conn, shared: &Shared) {
    let hard_cap = shared.cfg.limits.max_head + shared.cfg.limits.max_body + 4;
    loop {
        let mut tmp = [0u8; 8192];
        let read = match failpoint::fire("serve/read") {
            Some(FailAction::Error) => Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected read error",
            )),
            Some(FailAction::Again) => Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "injected eagain",
            )),
            Some(FailAction::Short) => c.stream.read(&mut tmp[..1]),
            _ => c.stream.read(&mut tmp),
        };
        match read {
            Ok(0) => {
                c.gone = true;
                return;
            }
            Ok(n) => {
                c.buf.extend_from_slice(&tmp[..n]);
                c.last_data = Instant::now();
                if c.buf.len() > hard_cap {
                    // The parser turns this into a 431/413 on the next
                    // process pass; stop buffering more.
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.gone = true;
                return;
            }
        }
    }
}

/// Parses one buffered request and routes it. Returns true when the state
/// machine should run again immediately.
fn process_idle(c: &mut Conn, shared: &Shared, wake: &WakeFn) -> bool {
    let parse_started = tmac_trace::now_ns();
    match http::parse_request(&c.buf, &shared.cfg.limits) {
        Ok(Some((req, used))) => {
            tmac_trace::complete(
                "serve",
                "parse",
                0,
                used as u64,
                parse_started,
                tmac_trace::now_ns(),
            );
            c.buf.drain(..used);
            c.last_data = Instant::now();
            let keep = req.keep_alive() && !shared.is_draining();
            c.keep = keep;
            match handle_request(shared, &req, Arc::clone(wake)) {
                Outcome::Respond(resp) => {
                    shared.metrics.count_status(resp.status);
                    let bytes = resp.encode(keep);
                    c.push(&bytes);
                    keep
                }
                Outcome::Completion(pc) if pc.stream => {
                    shared.metrics.count_status(200);
                    c.push(http::sse_head());
                    c.keep = false;
                    c.state = State::Streaming(pc);
                    true
                }
                Outcome::Completion(pc) => {
                    c.state = State::Waiting(pc);
                    true
                }
            }
        }
        Ok(None) => false,
        Err(e) => {
            let resp = protocol_error_response(&e);
            shared.metrics.count_status(resp.status);
            c.push(&resp.encode(false));
            c.keep = false;
            c.buf.clear();
            false
        }
    }
}

/// Drains the completion's event channel into the write buffer. Returns
/// true when the connection went back to `Idle` with parsing still to do.
fn pump_completion(c: &mut Conn, shared: &Shared) -> bool {
    match std::mem::replace(&mut c.state, State::Idle) {
        State::Idle => false,
        State::Waiting(pc) => loop {
            match pc.rx.try_recv() {
                Ok(SeqEvent::Token(_)) => continue,
                Ok(SeqEvent::Done {
                    tokens,
                    reason,
                    timing,
                }) => {
                    trace_request_done(&pc, tokens.len());
                    let resp = completion_response(shared, &pc, &tokens, &reason, &timing);
                    shared.metrics.count_status(resp.status);
                    let bytes = resp.encode(c.keep);
                    c.push(&bytes);
                    return true; // back to Idle; serve pipelined requests
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => {
                    c.state = State::Waiting(pc);
                    return false;
                }
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    let resp = http::Response::error(503, "server_stopped", "step loop exited");
                    shared.metrics.count_status(503);
                    c.push(&resp.encode(false));
                    c.keep = false;
                    return false;
                }
            }
        },
        State::Streaming(pc) => loop {
            match pc.rx.try_recv() {
                Ok(SeqEvent::Token(t)) => {
                    let _w = tmac_trace::span("serve", "sse_write", pc.id, t as u64);
                    let bytes = stream_chunk(shared, &pc, t);
                    c.push(&bytes);
                }
                Ok(SeqEvent::Done {
                    tokens,
                    reason,
                    timing,
                }) => {
                    trace_request_done(&pc, tokens.len());
                    let bytes = stream_tail(shared, &pc, &tokens, &reason, &timing);
                    c.push(&bytes);
                    c.keep = false;
                    return false; // Idle + !keep → close once flushed
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => {
                    c.state = State::Streaming(pc);
                    return false;
                }
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    // Step loop gone: terminal error frame so the SSE
                    // client can tell a fault from a finished stream.
                    let bytes = stream_tail(
                        shared,
                        &pc,
                        &[],
                        &EndReason::Error("step loop exited".into()),
                        &SeqTiming::default(),
                    );
                    c.push(&bytes);
                    c.keep = false;
                    return false;
                }
            }
        },
    }
}

fn flush(c: &mut Conn) {
    while c.out_pos < c.out.len() {
        match failpoint::fire("serve/write") {
            // One byte of progress, then the peer "vanishes".
            Some(FailAction::Short) => {
                if let Ok(n) = c.stream.write(&c.out[c.out_pos..c.out_pos + 1]) {
                    c.out_pos += n;
                }
                c.gone = true;
                break;
            }
            Some(FailAction::Error) => {
                c.gone = true;
                break;
            }
            // EAGAIN storm: stop flushing this pass, retry on the next
            // writable event (output stays buffered, capped by WRITE_CAP).
            Some(FailAction::Again) => break,
            _ => {}
        }
        match c.stream.write(&c.out[c.out_pos..]) {
            Ok(0) => {
                c.gone = true;
                break;
            }
            Ok(n) => c.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.gone = true;
                break;
            }
        }
    }
    if c.out_pos == c.out.len() {
        c.out.clear();
        c.out_pos = 0;
    } else if c.out_pos > 64 * 1024 {
        c.out.drain(..c.out_pos);
        c.out_pos = 0;
    }
}
