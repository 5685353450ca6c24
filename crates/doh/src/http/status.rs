//! HTTP status codes used by the DoH server.

use std::fmt;

/// An HTTP status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 413 Payload Too Large.
    pub const PAYLOAD_TOO_LARGE: StatusCode = StatusCode(413);
    /// 415 Unsupported Media Type.
    pub const UNSUPPORTED_MEDIA_TYPE: StatusCode = StatusCode(415);
    /// 500 Internal Server Error.
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);

    /// The numeric code.
    pub fn as_u16(self) -> u16 {
        self.0
    }

    /// Returns `true` for 2xx codes.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// The standard reason phrase for well-known codes.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            415 => "Unsupported Media Type",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

impl From<u16> for StatusCode {
    fn from(code: u16) -> Self {
        StatusCode(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_predicate() {
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::BAD_REQUEST.is_success());
        assert!(!StatusCode::INTERNAL_SERVER_ERROR.is_success());
    }

    #[test]
    fn display_and_conversion() {
        assert_eq!(StatusCode::OK.to_string(), "200 OK");
        assert_eq!(StatusCode::from(418).to_string(), "418 Unknown");
        assert_eq!(StatusCode::UNSUPPORTED_MEDIA_TYPE.as_u16(), 415);
    }
}
