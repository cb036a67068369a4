//! HTTP/1.1 message framing: serialization and parsing.
//!
//! The REST baseline pays this framing cost on every operation; the
//! `pcsi-bench` Table-1 benchmark measures round-tripping a request and
//! response through these functions. The implementation covers the subset
//! real REST services use: request line / status line, case-insensitive
//! headers, `Content-Length` bodies.

use std::fmt;

use bytes::Bytes;

/// HTTP request methods used by REST APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Safe read.
    Get,
    /// Create / invoke.
    Post,
    /// Full replace.
    Put,
    /// Delete.
    Delete,
    /// Partial update.
    Patch,
    /// Metadata probe.
    Head,
}

impl Method {
    /// The canonical wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Patch => "PATCH",
            Method::Head => "HEAD",
        }
    }

    /// Parses a wire spelling.
    pub(crate) fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "PATCH" => Method::Patch,
            "HEAD" => Method::Head,
            _ => return None,
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An ordered, case-insensitive header collection.
///
/// Order is preserved as on the wire and duplicates are kept; lookups
/// fold ASCII case per RFC 9110. Request signing does not depend on the
/// order: it sorts the canonical header lines before hashing them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Creates an empty collection.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a header (duplicates allowed, as in HTTP).
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// First value for `name`, ASCII case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Iterates `(name, value)` pairs in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }
}

/// An HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Path plus optional query string (`/tables/t1/items?limit=2`).
    pub target: String,
    /// Header lines.
    pub headers: Headers,
    /// Message body (empty allowed).
    pub body: Bytes,
}

impl Request {
    /// Creates a request with an empty body.
    pub fn new(method: Method, target: impl Into<String>) -> Self {
        Request {
            method,
            target: target.into(),
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// Sets the body (the serializer emits `Content-Length` automatically).
    pub fn with_body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into();
        self
    }

    /// Adds a header, builder-style.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.insert(name, value);
        self
    }

    /// Serializes to wire bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcsi_proto::http::{Method, Request};
    ///
    /// let wire = Request::new(Method::Get, "/objects/1").encode();
    /// assert!(wire.starts_with(b"GET /objects/1 HTTP/1.1\r\n"));
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.target.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        encode_headers(&self.headers, self.body.len(), &mut out);
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes produced by [`Request::encode`] (or any conformant
    /// HTTP/1.1 client using `Content-Length` framing).
    pub fn decode(input: &[u8]) -> Result<Request, HttpError> {
        let (head, body_start) = split_head(input)?;
        let mut lines = head.split(|&b| b == b'\n').map(trim_cr);
        let request_line = std::str::from_utf8(lines.next().ok_or(HttpError::Truncated)?)
            .map_err(|_| HttpError::BadEncoding)?;
        let mut parts = request_line.split(' ');
        let method = Method::parse(parts.next().unwrap_or(""))
            .ok_or_else(|| HttpError::BadRequestLine(request_line.to_owned()))?;
        let target = parts
            .next()
            .ok_or_else(|| HttpError::BadRequestLine(request_line.to_owned()))?
            .to_owned();
        let version = parts.next().unwrap_or("");
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::BadRequestLine(request_line.to_owned()));
        }
        let headers = parse_headers(lines)?;
        let body = extract_body(&headers, input, body_start)?;
        Ok(Request {
            method,
            target,
            headers,
            body,
        })
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code (200, 404, ...).
    pub status: u16,
    /// Header lines.
    pub(crate) headers: Headers,
    /// Message body.
    pub body: Bytes,
}

impl Response {
    /// Creates a response with an empty body.
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// Sets the body.
    pub fn with_body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into();
        self
    }

    /// Adds a header, builder-style.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.insert(name, value);
        self
    }

    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(b"HTTP/1.1 ");
        out.extend_from_slice(self.status.to_string().as_bytes());
        out.push(b' ');
        out.extend_from_slice(reason_phrase(self.status).as_bytes());
        out.extend_from_slice(b"\r\n");
        encode_headers(&self.headers, self.body.len(), &mut out);
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes produced by [`Response::encode`].
    pub fn decode(input: &[u8]) -> Result<Response, HttpError> {
        let (head, body_start) = split_head(input)?;
        let mut lines = head.split(|&b| b == b'\n').map(trim_cr);
        let status_line = std::str::from_utf8(lines.next().ok_or(HttpError::Truncated)?)
            .map_err(|_| HttpError::BadEncoding)?;
        let mut parts = status_line.split(' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::BadStatusLine(status_line.to_owned()));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| HttpError::BadStatusLine(status_line.to_owned()))?;
        let headers = parse_headers(lines)?;
        let body = extract_body(&headers, input, body_start)?;
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}

/// Errors produced by the HTTP parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Input ended before the blank line or declared body length.
    Truncated,
    /// Head bytes were not valid UTF-8.
    BadEncoding,
    /// Malformed request line.
    BadRequestLine(String),
    /// Malformed status line.
    BadStatusLine(String),
    /// A header line had no `:` separator.
    BadHeader(String),
    /// `Content-Length` was not a number.
    BadContentLength,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Truncated => f.write_str("truncated HTTP message"),
            HttpError::BadEncoding => f.write_str("HTTP head is not UTF-8"),
            HttpError::BadRequestLine(l) => write!(f, "bad request line: {l:?}"),
            HttpError::BadStatusLine(l) => write!(f, "bad status line: {l:?}"),
            HttpError::BadHeader(l) => write!(f, "bad header line: {l:?}"),
            HttpError::BadContentLength => f.write_str("bad Content-Length"),
        }
    }
}

impl std::error::Error for HttpError {}

fn encode_headers(headers: &Headers, body_len: usize, out: &mut Vec<u8>) {
    let mut wrote_length = false;
    for (name, value) in headers.iter() {
        if name.eq_ignore_ascii_case("content-length") {
            wrote_length = true;
        }
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !wrote_length {
        out.extend_from_slice(b"content-length: ");
        out.extend_from_slice(body_len.to_string().as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Finds the head/body split; returns `(head_bytes, body_offset)`.
fn split_head(input: &[u8]) -> Result<(&[u8], usize), HttpError> {
    input
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| (&input[..i], i + 4))
        .ok_or(HttpError::Truncated)
}

fn trim_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

fn parse_headers<'a>(lines: impl Iterator<Item = &'a [u8]>) -> Result<Headers, HttpError> {
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let text = std::str::from_utf8(line).map_err(|_| HttpError::BadEncoding)?;
        let (name, value) = text
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(text.to_owned()))?;
        headers.insert(name.trim(), value.trim());
    }
    Ok(headers)
}

fn extract_body(headers: &Headers, input: &[u8], start: usize) -> Result<Bytes, HttpError> {
    let declared = match headers.get("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadContentLength)?,
        None => 0,
    };
    let available = input.len() - start;
    if available < declared {
        return Err(HttpError::Truncated);
    }
    Ok(Bytes::copy_from_slice(&input[start..start + declared]))
}

/// Canonical reason phrases for the status codes the baselines emit.
pub(crate) fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::new(Method::Post, "/tables/items?x=1")
            .with_header("x-api-key", "k123")
            .with_body(&b"{\"a\":1}"[..]);
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(decoded.method, Method::Post);
        assert_eq!(decoded.target, "/tables/items?x=1");
        assert_eq!(decoded.headers.get("X-API-KEY"), Some("k123"));
        assert_eq!(&decoded.body[..], b"{\"a\":1}");
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::new(404).with_body(&b"missing"[..]);
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.status, 404);
        assert!(!decoded.is_success());
        assert_eq!(&decoded.body[..], b"missing");
    }

    #[test]
    fn empty_body_roundtrip() {
        let decoded = Request::decode(&Request::new(Method::Get, "/").encode()).unwrap();
        assert!(decoded.body.is_empty());
        assert_eq!(decoded.headers.get("content-length"), Some("0"));
    }

    #[test]
    fn truncated_body_detected() {
        let mut wire = Request::new(Method::Put, "/x")
            .with_body(&b"0123456789"[..])
            .encode();
        wire.truncate(wire.len() - 3);
        assert_eq!(Request::decode(&wire), Err(HttpError::Truncated));
    }

    #[test]
    fn missing_blank_line_detected() {
        assert_eq!(
            Request::decode(b"GET / HTTP/1.1\r\nhost: a\r\n"),
            Err(HttpError::Truncated)
        );
    }

    #[test]
    fn bad_method_rejected() {
        assert!(matches!(
            Request::decode(b"BREW /pot HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        assert!(matches!(
            Request::decode(b"GET / SPDY/99\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
    }

    #[test]
    fn header_without_colon_rejected() {
        assert!(matches!(
            Request::decode(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::BadHeader(_))
        ));
    }

    #[test]
    fn bad_content_length_rejected() {
        assert_eq!(
            Request::decode(b"GET / HTTP/1.1\r\ncontent-length: ten\r\n\r\n"),
            Err(HttpError::BadContentLength)
        );
    }

    #[test]
    fn explicit_content_length_not_duplicated() {
        let req = Request::new(Method::Put, "/x")
            .with_header("Content-Length", "3")
            .with_body(&b"abc"[..]);
        let wire = req.encode();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert_eq!(
            text.to_ascii_lowercase().matches("content-length").count(),
            1
        );
        assert_eq!(&Request::decode(&wire).unwrap().body[..], b"abc");
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(reason_phrase(200), "OK");
        assert_eq!(reason_phrase(999), "Unknown");
    }

    #[test]
    fn methods_roundtrip() {
        for m in [
            Method::Get,
            Method::Post,
            Method::Put,
            Method::Delete,
            Method::Patch,
            Method::Head,
        ] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("brew"), None);
    }

    #[test]
    fn binary_body_survives() {
        let body: Vec<u8> = (0..=255u8).collect();
        let wire = Response::new(200).with_body(body.clone()).encode();
        assert_eq!(&Response::decode(&wire).unwrap().body[..], &body[..]);
    }
}
