//! Minimal HTTP/1.1 framing (std-only): request reading with hard limits,
//! keep-alive, and response writing.
//!
//! This is deliberately *not* a general web server: it parses exactly the
//! subset the serving API uses (request line, headers, `Content-Length`
//! bodies) and turns everything else into typed errors the connection
//! loop maps to 4xx responses. Every limit is enforced before buffering —
//! an oversized or malformed request can never balloon memory or kill a
//! worker thread.

use std::io::{IoSlice, Read, Write};

/// Framing limits. Exceeding them yields [`HttpError::HeadTooLarge`] /
/// [`HttpError::BodyTooLarge`] (431 / 413), never a panic.
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Request line + headers cap in bytes.
    pub max_head_bytes: usize,
    /// Body cap in bytes (checked against `Content-Length` *before*
    /// reading the body).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request. Header names are lowercased at parse time.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, … (uppercase as sent).
    pub method: String,
    /// The request target, e.g. `/search` (query strings are kept as-is).
    pub target: String,
    /// `(lowercased-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header by lowercased name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be framed. `status()` maps each variant to the
/// response code the connection loop should emit.
#[derive(Debug)]
pub enum HttpError {
    /// Clean end of stream between requests (not an error: close quietly).
    Closed,
    /// Transport error, including read timeouts (the caller distinguishes
    /// timeouts via `io::ErrorKind::{WouldBlock, TimedOut}`).
    Io(std::io::Error),
    /// Malformed request line / headers / length.
    BadRequest(&'static str),
    /// Head grew past [`HttpLimits::max_head_bytes`].
    HeadTooLarge,
    /// `Content-Length` exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge,
    /// `Transfer-Encoding` bodies are not supported; clients must send
    /// `Content-Length`.
    LengthRequired,
    /// Unsupported HTTP version (only 1.0 / 1.1).
    Version,
}

impl HttpError {
    /// The status code to answer with (`None`: close without responding).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Closed => None,
            HttpError::Io(_) => None,
            HttpError::BadRequest(msg) => Some((400, msg)),
            HttpError::HeadTooLarge => Some((431, "request head too large")),
            HttpError::BodyTooLarge => Some((413, "request body too large")),
            HttpError::LengthRequired => Some((411, "Content-Length required")),
            HttpError::Version => Some((505, "HTTP version not supported")),
        }
    }
}

/// Buffered request reader over one connection. Keeps bytes read past the
/// current request (pipelined or next keep-alive request) for the next
/// [`Self::read_request`] call.
pub struct HttpReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> HttpReader<R> {
    /// Wrap a stream.
    pub fn new(inner: R) -> Self {
        HttpReader {
            inner,
            buf: Vec::new(),
        }
    }

    /// Whether a partially read request sits in the buffer (used by the
    /// connection loop to tell idle timeouts from mid-request stalls).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    fn fill(&mut self) -> Result<usize, HttpError> {
        let mut chunk = [0u8; 4096];
        let n = self.inner.read(&mut chunk).map_err(HttpError::Io)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Read and parse the next request. Blocks (subject to the stream's
    /// read timeout) until a full head is buffered.
    pub fn read_request(&mut self, limits: &HttpLimits) -> Result<Request, HttpError> {
        // Accumulate until the blank line ends the head.
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
            let n = self.fill()?;
            if n == 0 {
                return if self.buf.is_empty() {
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::BadRequest("truncated request head"))
                };
            }
        };
        if head_end > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| HttpError::BadRequest("head is not UTF-8"))?
            .to_string();
        let body_start = head_end + 4; // past \r\n\r\n

        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if parts.next().is_none() && !m.is_empty() => {
                (m.to_string(), t.to_string(), v)
            }
            _ => return Err(HttpError::BadRequest("malformed request line")),
        };
        if !method.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(HttpError::BadRequest("malformed method"));
        }
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            v if v.starts_with("HTTP/") => return Err(HttpError::Version),
            _ => return Err(HttpError::BadRequest("malformed HTTP version")),
        };

        let mut headers = Vec::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or(HttpError::BadRequest("malformed header line"))?;
            if name.is_empty() || name.contains(' ') {
                return Err(HttpError::BadRequest("malformed header name"));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }

        // Framing: Content-Length only; reject Transfer-Encoding outright
        // (a smuggling-prone path we don't need).
        if headers.iter().any(|(k, _)| k == "transfer-encoding") {
            return Err(HttpError::LengthRequired);
        }
        let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
            None => 0usize,
            Some((_, v)) => v
                .parse::<u64>()
                .ok()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or(HttpError::BadRequest("malformed Content-Length"))?,
        };
        if content_length > limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }

        // Read the body (what's already buffered plus the rest).
        while self.buf.len() < body_start + content_length {
            let n = self.fill()?;
            if n == 0 {
                return Err(HttpError::BadRequest("truncated request body"));
            }
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);

        let connection = headers
            .iter()
            .find(|(k, _)| k == "connection")
            .map(|(_, v)| v.to_ascii_lowercase());
        let keep_alive = match connection.as_deref() {
            Some("close") => false,
            Some("keep-alive") => true,
            _ => http11,
        };

        Ok(Request {
            method,
            target,
            headers,
            body,
            keep_alive,
        })
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Write one response; `extra` headers are emitted verbatim.
///
/// Head and body leave in one vectored write (repeated only on a short
/// write): the server sets `TCP_NODELAY`, so two `write_all` calls were
/// two syscalls and two segments for every response.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    for (k, v) in extra {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    if !keep_alive {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    let (mut head, mut body) = (head.as_bytes(), body);
    while !(head.is_empty() && body.is_empty()) {
        let written = match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let of_head = written.min(head.len());
        head = &head[of_head..];
        body = &body[written - of_head..];
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_one(raw: &[u8]) -> Result<Request, HttpError> {
        HttpReader::new(raw).read_request(&HttpLimits::default())
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_one(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/search");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive);
    }

    #[test]
    fn keep_alive_pipelining() {
        let raw =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut r = HttpReader::new(&raw[..]);
        let a = r.read_request(&HttpLimits::default()).unwrap();
        assert_eq!(a.target, "/healthz");
        assert!(a.keep_alive);
        let b = r.read_request(&HttpLimits::default()).unwrap();
        assert_eq!(b.target, "/metrics");
        assert!(!b.keep_alive);
        assert!(matches!(
            r.read_request(&HttpLimits::default()),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = read_one(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn malformed_heads_are_4xx_not_panics() {
        for raw in [
            &b"garbage\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"GET / HTTP/1.1 extra\r\n\r\n"[..],
            &b"get / HTTP/1.1\r\n\r\n"[..],
            &b"GET / HTTP/9.9\r\n\r\n"[..],
            &b"GET / FTP/1.0\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"[..],
        ] {
            let err = read_one(raw).unwrap_err();
            assert!(err.status().is_some(), "{err:?} should map to a status");
        }
    }

    #[test]
    fn truncated_requests_fail_cleanly() {
        assert!(matches!(
            read_one(b"GET / HTTP/1.1\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            read_one(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(read_one(b""), Err(HttpError::Closed)));
    }

    #[test]
    fn limits_are_enforced() {
        let limits = HttpLimits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(200));
        assert!(matches!(
            HttpReader::new(long_head.as_bytes()).read_request(&limits),
            Err(HttpError::HeadTooLarge)
        ));
        let big_body = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert!(matches!(
            HttpReader::new(&big_body[..]).read_request(&limits),
            Err(HttpError::BodyTooLarge)
        ));
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(read_one(raw), Err(HttpError::LengthRequired)));
    }

    #[test]
    fn responses_are_well_formed() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "application/json",
            &[("retry-after", "1".to_string())],
            b"{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// Counts write calls and accepts at most `max` bytes per call.
    struct CountingWriter {
        out: Vec<u8>,
        calls: usize,
        max: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut room = self.max;
            for buf in bufs {
                let take = room.min(buf.len());
                self.out.extend_from_slice(&buf[..take]);
                room -= take;
            }
            Ok(self.max - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_per_response_and_short_writes_resume() {
        let body = b"{\"rows\":[\"a\",\"b\"]}";
        let respond = |max: usize| {
            let mut w = CountingWriter {
                out: Vec::new(),
                calls: 0,
                max,
            };
            write_response(&mut w, 200, "application/json", &[], body, true).unwrap();
            w
        };
        let whole = respond(usize::MAX);
        assert_eq!(whole.calls, 1, "head and body must leave in one write");
        assert!(whole.out.ends_with(body));
        // Short writes that split the head, straddle the head/body seam
        // and split the body all resume where they stopped.
        for max in [1, 7, whole.out.len() - body.len() + 3] {
            let short = respond(max);
            assert_eq!(short.out, whole.out, "max {max}");
            assert_eq!(short.calls, whole.out.len().div_ceil(max), "max {max}");
        }
        // A writer that accepts nothing is an error, not a spin.
        let mut stuck = CountingWriter {
            out: Vec::new(),
            calls: 0,
            max: 0,
        };
        let err = write_response(&mut stuck, 200, "text/plain", &[], body, true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }
}
