//! Hand-rolled HTTP/1.1 framing over blocking byte streams.
//!
//! The build environment is registry-less, so there is no hyper/tokio to
//! lean on; this module hand-rolls the small, strict slice of HTTP/1.1 the
//! service needs: request-line + header parsing, `Content-Length`-framed
//! bodies, and keep-alive negotiation. Everything outside that slice
//! (chunked transfer coding, upgrades, trailers) is rejected loudly with a
//! `4xx` rather than half-supported.

use std::fmt;
use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

/// Upper bound on the request line plus header block, in bytes.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Upper bound on the number of header fields.
pub const MAX_HEADERS: usize = 100;
/// Upper bound on an accepted request body, in bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Hard wall-clock budget for reading one complete request. The socket's
/// per-read timeout bounds *idle* gaps; this bounds a trickling client
/// that sends a byte just often enough to keep resetting it (slowloris),
/// which would otherwise pin a pool worker indefinitely.
pub const MAX_REQUEST_READ: Duration = Duration::from_secs(30);

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), uppercased by the client.
    pub method: String,
    /// The request target (origin form, e.g. `/v1/check`).
    pub target: String,
    /// Header fields in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body (empty when absent).
    pub body: Vec<u8>,
    /// Whether the connection may carry another request after this one
    /// (HTTP/1.1 default, overridden by `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// The first value of the named header (name matched
    /// case-insensitively; stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8.
    ///
    /// # Errors
    /// Returns [`HttpError::Bad`] on invalid UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Bad("request body is not valid UTF-8".into()))
    }
}

/// A framing failure while reading a request.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed framing; answered with `400` and the connection closed.
    Bad(String),
    /// A framing limit was exceeded; answered with `413`.
    TooLarge(&'static str),
    /// The underlying stream failed (includes idle-timeout expiry); the
    /// connection is dropped without a response.
    Io(io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Bad(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
            HttpError::Io(e) => write!(f, "connection error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn read_crlf_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    deadline: Instant,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None); // clean EOF between requests
                }
                return Err(HttpError::Bad("unexpected EOF inside header block".into()));
            }
            Ok(_) => {
                if Instant::now() >= deadline {
                    return Err(HttpError::Bad("request read deadline exceeded".into()));
                }
                if *budget == 0 {
                    return Err(HttpError::TooLarge("header block"));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| HttpError::Bad("header line is not valid UTF-8".into()))?;
                    return Ok(Some(text));
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Read one request from `reader`. `Ok(None)` means the peer closed the
/// connection cleanly before sending another request (the normal end of a
/// keep-alive exchange).
///
/// # Errors
/// [`HttpError::Bad`]/[`HttpError::TooLarge`] for malformed, oversized, or
/// deadline-overrunning framing (the caller should answer and close),
/// [`HttpError::Io`] when the stream itself fails (the caller should just
/// close).
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    // The deadline includes any idle wait before the first byte, but idle
    // connections die of the (much shorter) per-read socket timeout first;
    // only a byte-trickling client ever reaches it.
    read_request_by(reader, Instant::now() + MAX_REQUEST_READ)
}

fn read_request_by(
    reader: &mut impl BufRead,
    deadline: Instant,
) -> Result<Option<Request>, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    // Tolerate stray blank lines between pipelined requests (RFC 9112 §2.2).
    let request_line = loop {
        match read_crlf_line(reader, &mut budget, deadline)? {
            None => return Ok(None),
            Some(line) if line.is_empty() => continue,
            Some(line) => break line,
        }
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Bad(format!("malformed request line {request_line:?}")));
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(format!("unsupported protocol version {version:?}")));
    }
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 must opt in.
    let mut keep_alive = version == "HTTP/1.1";

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_crlf_line(reader, &mut budget, deadline)? {
            None => return Err(HttpError::Bad("unexpected EOF inside header block".into())),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::TooLarge("header count"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Bad(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let header = |name: &str| headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str());
    // `Connection` carries a comma-separated token list (RFC 9110 §7.6.1);
    // `close`/`keep-alive` count as members, not as the exact value.
    if let Some(value) = header("connection") {
        for token in value.split(',').map(str::trim) {
            if token.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if token.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    if header("transfer-encoding").is_some() {
        return Err(HttpError::Bad("chunked transfer coding is not supported".into()));
    }
    // Conflicting lengths desynchronize keep-alive framing (the classic
    // request-smuggling ambiguity) — reject, per RFC 9112 §6.3.
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length").map(|(_, v)| v);
    let content_length = match (lengths.next(), lengths.next()) {
        (Some(_), Some(_)) => {
            return Err(HttpError::Bad("multiple Content-Length headers".into()));
        }
        (None, _) => 0,
        (Some(v), None) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Bad(format!("bad Content-Length {v:?}")))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("request body"));
    }
    // Chunked reads (rather than one `read_exact`) so a trickled body hits
    // the deadline instead of resetting the socket timeout byte by byte.
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        if Instant::now() >= deadline {
            return Err(HttpError::Bad("request read deadline exceeded".into()));
        }
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(HttpError::Bad("unexpected EOF inside body".into())),
            Ok(n) => filled += n,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }

    Ok(Some(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
        keep_alive,
    }))
}

/// The canonical reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one `Content-Length`-framed response with the given
/// `Content-Type` (`application/json` everywhere except the Prometheus
/// exposition).
///
/// # Errors
/// Propagates stream write failures.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with(writer, status, content_type, &[], body, keep_alive)
}

/// [`write_response`] with extra response header fields (e.g. the
/// `x-request-id` correlation echo) appended after the framing headers.
/// Header names and values are written verbatim — callers own validity.
///
/// # Errors
/// Propagates stream write failures.
pub fn write_response_with(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {len}\r\nConnection: {conn}\r\n",
        reason = reason(status),
        len = body.len(),
        conn = if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse(
            "POST /v1/check HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: 11\r\n\r\n{\"depth\":3}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body_str().unwrap(), "{\"depth\":3}");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.1\r\nConnection: close, TE\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive, "close must be honored inside a token list");
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn clean_eof_is_none_and_torn_requests_are_bad() {
        assert!(parse("").unwrap().is_none());
        assert!(matches!(parse("GET /x HTTP/1.1\r\nHost"), Err(HttpError::Bad(_))));
        assert!(matches!(parse("nonsense\r\n\r\n"), Err(HttpError::Bad(_))));
        assert!(matches!(parse("GET /x SPDY/3\r\n\r\n"), Err(HttpError::Bad(_))));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
        // Conflicting body framings are rejected, not first-wins.
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\nhelloXXX"),
            Err(HttpError::Bad(_))
        ));
    }

    #[test]
    fn oversized_framing_is_rejected() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&huge), Err(HttpError::TooLarge(_))));
        let body = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(&body), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn expired_deadline_fails_a_request_in_progress() {
        // An already-expired deadline models a client still trickling bytes
        // when the wall-clock budget runs out: the read fails instead of
        // pinning the worker for as long as bytes keep coming.
        let text = "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let expired =
            Instant::now().checked_sub(Duration::from_secs(1)).unwrap_or_else(Instant::now);
        let result = read_request_by(&mut BufReader::new(text.as_bytes()), expired);
        match result {
            Err(HttpError::Bad(message)) => assert!(message.contains("deadline"), "{message}"),
            other => panic!("expected a deadline failure, got {other:?}"),
        }
    }

    #[test]
    fn response_is_length_framed() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let mut out = Vec::new();
        write_response(&mut out, 422, "application/json", b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 422 Unprocessable Entity\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        // The content type is caller-chosen — the Prometheus page is text.
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain; version=0.0.4", b"x 1\n", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"), "{text}");
    }

    #[test]
    fn extra_response_headers_ride_the_head() {
        let mut out = Vec::new();
        let extra = vec![("x-request-id".to_string(), "42".to_string())];
        write_response_with(&mut out, 200, "application/json", &extra, b"{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nx-request-id: 42\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }
}
