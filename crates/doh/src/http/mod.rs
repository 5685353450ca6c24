//! Minimal HTTP semantics: methods, status codes, header maps, requests and
//! responses — just enough to carry RFC 8484 DoH exchanges over HTTP/2.

mod headers;
mod status;

pub use headers::Headers;
pub use status::StatusCode;

use std::borrow::Cow;
use std::fmt;

/// HTTP request methods used by DoH.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET` with the query encoded in the `dns` URI parameter.
    Get,
    /// `POST` with the query in the request body.
    Post,
}

impl Method {
    /// The canonical token for this method.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }

    /// Parses a method token (case-sensitive, as HTTP methods are).
    pub fn from_token(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Path and query string (`:path` pseudo-header).
    pub path: String,
    /// Server authority (`:authority` pseudo-header), e.g. `dns.google`.
    pub authority: String,
    /// URI scheme (`:scheme` pseudo-header); always `https` for DoH, which
    /// is borrowed, not allocated.
    pub scheme: Cow<'static, str>,
    /// Header fields.
    pub headers: Headers,
    /// Request body (empty for GET).
    pub body: Vec<u8>,
}

impl Request {
    /// Creates a GET request for `path` on `authority`.
    pub fn get(authority: impl Into<String>, path: impl Into<String>) -> Self {
        Request {
            method: Method::Get,
            path: path.into(),
            authority: authority.into(),
            scheme: Cow::Borrowed("https"),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Creates a POST request for `path` on `authority` carrying `body`.
    pub fn post(authority: impl Into<String>, path: impl Into<String>, body: Vec<u8>) -> Self {
        Request {
            method: Method::Post,
            path: path.into(),
            authority: authority.into(),
            scheme: Cow::Borrowed("https"),
            headers: Headers::new(),
            body,
        }
    }

    /// Adds a header field, returning `self` for chaining.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.set(name, value);
        self
    }

    /// Looks up a URI query parameter by name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        query_param(&self.path, name)
    }
}

/// A URI query parameter of a `:path`, by name.
pub(crate) fn query_param<'p>(path: &'p str, name: &str) -> Option<&'p str> {
    param(path.split_once('?')?.1, name)
}

/// A parameter of a URI query string (what follows the `?`), by name.
pub(crate) fn param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    for pair in query.split('&') {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == name {
            return Some(v);
        }
    }
    None
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Response status code.
    pub status: StatusCode,
    /// Header fields.
    pub headers: Headers,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// Creates a response with the given status and empty body.
    pub fn new(status: StatusCode) -> Self {
        Response {
            status,
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Creates a 200 OK response with a body and content type.
    pub fn ok(content_type: &str, body: Vec<u8>) -> Self {
        let mut response = Response::new(StatusCode::OK);
        response.headers.set("content-type", content_type);
        response.headers.set_display("content-length", body.len());
        response.body = body;
        response
    }

    /// Adds a header field, returning `self` for chaining.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.set(name, value);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_tokens() {
        assert_eq!(Method::Get.as_str(), "GET");
        assert_eq!(Method::from_token("POST"), Some(Method::Post));
        assert_eq!(Method::from_token("get"), None);
        assert_eq!(Method::Post.to_string(), "POST");
    }

    #[test]
    fn request_constructors_and_query_params() {
        let req = Request::get(
            "dns.google",
            "/dns-query?dns=AAAA&ct=application%2Fdns-message",
        )
        .with_header("accept", "application/dns-message");
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.query_param("dns"), Some("AAAA"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.headers.get("Accept"), Some("application/dns-message"));

        let post = Request::post("dns.google", "/dns-query", vec![1, 2, 3]);
        assert_eq!(post.body.len(), 3);
        assert_eq!(post.query_param("dns"), None);
    }

    #[test]
    fn response_ok_sets_content_headers() {
        let resp = Response::ok("application/dns-message", vec![0u8; 12])
            .with_header("cache-control", "max-age=300");
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get("content-length"), Some("12"));
        assert_eq!(resp.headers.get("cache-control"), Some("max-age=300"));
    }
}
