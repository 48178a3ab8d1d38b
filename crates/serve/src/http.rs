//! Minimal HTTP/1.1 wire layer: incremental request parsing with hard
//! limits, response encoding, and SSE framing.
//!
//! The parser is incremental: the epoll event loop feeds it whatever bytes
//! arrived, and it answers "need more" with `Ok(None)`. Every limit
//! violation and grammar error maps to a typed [`HttpError`] carrying the
//! right 4xx status, so malformed traffic produces a clean error response
//! instead of a panic or a wedged connection.

use crate::json::Json;

/// Parsing limits (defense against oversized/adversarial requests).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (terminator included).
    pub max_head: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: 8 * 1024,
            max_body: 1024 * 1024,
        }
    }
}

/// A fully received request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query, undecoded).
    pub path: String,
    /// Header name/value pairs in arrival order (names as sent).
    pub headers: Vec<(String, String)>,
    /// The body (exactly `Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A request-side protocol violation, with the status the response must
/// carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Response status (4xx/5xx).
    pub status: u16,
    /// Human-readable detail (safe to echo to the client).
    pub msg: String,
}

impl HttpError {
    /// A 400 Bad Request.
    pub fn bad_request(msg: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.msg)
    }
}

impl std::error::Error for HttpError {}

/// Tries to parse one request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a complete request is
/// buffered (the caller drains `consumed` bytes — pipelined bytes after it
/// stay in the buffer), `Ok(None)` when more bytes are needed.
///
/// # Errors
///
/// [`HttpError`] with status 400 (malformed), 413 (body too large), 431
/// (headers too large), 501 (chunked transfer encoding), or 505 (wrong
/// HTTP version). All are terminal for the connection's current request.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Option<(Request, usize)>, HttpError> {
    let Some(head_end) = find_terminator(buf, limits.max_head)? else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::bad_request("non-UTF-8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => return Err(HttpError::bad_request("malformed request line")),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::bad_request("malformed method"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError {
            status: 505,
            msg: format!("unsupported version {version:?}"),
        });
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::bad_request("malformed header line"));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::bad_request("malformed header name"));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let req = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };
    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError {
            status: 501,
            msg: "chunked transfer encoding not supported".into(),
        });
    }
    let content_len = match req.header("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::bad_request("malformed Content-Length"))?,
    };
    if content_len > limits.max_body {
        return Err(HttpError {
            status: 413,
            msg: format!(
                "body of {content_len} bytes exceeds limit {}",
                limits.max_body
            ),
        });
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_len {
        return Ok(None);
    }
    let mut req = req;
    req.body = buf[body_start..body_start + content_len].to_vec();
    Ok(Some((req, body_start + content_len)))
}

/// Locates the `\r\n\r\n` head terminator within the head-size limit.
fn find_terminator(buf: &[u8], max_head: usize) -> Result<Option<usize>, HttpError> {
    let window = buf.len().min(max_head + 4);
    if let Some(pos) = buf[..window].windows(4).position(|w| w == b"\r\n\r\n") {
        if pos > max_head {
            return Err(HttpError {
                status: 431,
                msg: "request head too large".into(),
            });
        }
        return Ok(Some(pos));
    }
    if buf.len() > max_head {
        return Err(HttpError {
            status: 431,
            msg: "request head too large".into(),
        });
    }
    Ok(None)
}

/// Reason phrase for the statuses this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// A buffered (non-streaming) response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (Content-Type/Length and Connection are added by
    /// [`Response::encode`]).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    content_type: &'static str,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: &Json) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.encode().into_bytes(),
            content_type: "application/json",
        }
    }

    /// A response whose body is already-serialized JSON (e.g. a trace dump
    /// produced outside the [`Json`] tree).
    pub fn json_raw(status: u16, body: String) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type: "application/json",
        }
    }

    /// A JSON error body in the OpenAI-ish `{"error": {...}}` shape.
    pub fn error(status: u16, kind: &str, msg: &str) -> Self {
        Response::json(
            status,
            &Json::obj(vec![(
                "error",
                Json::obj(vec![("type", Json::str(kind)), ("message", Json::str(msg))]),
            )]),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serializes status line, headers, and body. `keep_alive` controls the
    /// `Connection` header (the caller closes after writing when false).
    pub fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .into_bytes();
        for (k, v) in &self.headers {
            out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// The response head that opens an SSE stream (close-delimited body:
/// streaming length is unknown up front).
pub fn sse_head() -> &'static [u8] {
    b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n"
}

/// One SSE frame carrying a JSON payload.
pub fn sse_event(payload: &Json) -> Vec<u8> {
    format!("data: {}\n\n", payload.encode()).into_bytes()
}

/// The stream-terminating sentinel frame (OpenAI convention).
pub fn sse_done() -> &'static [u8] {
    b"data: [DONE]\n\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(text: &str) -> (Request, usize) {
        parse_request(text.as_bytes(), &Limits::default())
            .unwrap()
            .unwrap()
    }

    #[test]
    fn parses_request_with_body_and_pipelined_rest() {
        let text =
            "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcdGET /h";
        let (req, used) = parse_ok(text);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/completions");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert_eq!(&text.as_bytes()[used..], b"GET /h");
        assert!(req.keep_alive());
    }

    #[test]
    fn partial_requests_ask_for_more() {
        let full = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        for cut in 0..full.len() {
            let r = parse_request(&full.as_bytes()[..cut], &Limits::default()).unwrap();
            assert!(r.is_none(), "cut at {cut} should be partial");
        }
        let (req, used) = parse_ok(full);
        assert_eq!(req.method, "GET");
        assert_eq!(used, full.len());
        // Body bytes still pending → partial.
        let post = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(parse_request(post.as_bytes(), &Limits::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn malformed_requests_fail_with_4xx() {
        for (bad, status) in [
            ("GARBAGE\r\n\r\n", 400),
            ("GET /\r\n\r\n", 400),
            ("GET / HTTP/2.0\r\n\r\n", 505),
            ("get / HTTP/1.1\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nNoColon\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 413),
            ("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
        ] {
            let e = parse_request(bad.as_bytes(), &Limits::default()).unwrap_err();
            assert_eq!(e.status, status, "{bad:?}");
        }
    }

    #[test]
    fn oversized_heads_are_rejected_even_unterminated() {
        let limits = Limits {
            max_head: 64,
            max_body: 64,
        };
        // Terminated but too big.
        let big = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(100));
        assert_eq!(
            parse_request(big.as_bytes(), &limits).unwrap_err().status,
            431
        );
        // A flood with no terminator must not buffer forever.
        let flood = vec![b'a'; 65];
        assert_eq!(parse_request(&flood, &limits).unwrap_err().status, 431);
    }

    #[test]
    fn response_encoding_is_complete() {
        let r = Response::json(429, &Json::obj(vec![("ok", Json::Bool(false))]))
            .with_header("Retry-After", "1");
        let text = String::from_utf8(r.encode(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":false}"));
        let len: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(len, "{\"ok\":false}".len());
    }

    #[test]
    fn sse_frames_are_well_formed() {
        let ev = sse_event(&Json::obj(vec![("token", Json::num(7.0))]));
        assert_eq!(ev, b"data: {\"token\":7}\n\n");
        assert_eq!(sse_done(), b"data: [DONE]\n\n");
        assert!(sse_head().ends_with(b"\r\n\r\n"));
    }
}
