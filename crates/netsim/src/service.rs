//! The service abstraction: protocol endpoints hosted on simulated nodes.

use crate::addr::SimAddr;
use crate::channel::ChannelKind;
use crate::network::Ctx;

/// Outcome of handling an incoming request payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceResponse {
    /// Reply with the given payload.
    Reply(Vec<u8>),
    /// Do not reply; the requester will observe a timeout.
    NoReply,
}

impl From<Vec<u8>> for ServiceResponse {
    fn from(bytes: Vec<u8>) -> Self {
        ServiceResponse::Reply(bytes)
    }
}

/// A protocol endpoint running at a [`SimAddr`].
///
/// Services receive request payloads and may issue nested requests through
/// the provided [`Ctx`] (e.g. a recursive resolver querying authoritative
/// servers while answering a stub query).
pub trait Service {
    /// Handles one request payload addressed to this service.
    fn handle(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
    ) -> ServiceResponse;

    /// Human-readable name used in diagnostics.
    fn name(&self) -> &str {
        "service"
    }
}

/// Adapter turning a closure into a [`Service`].
///
/// # Examples
///
/// ```
/// use sdoh_netsim::{FnService, Service, ServiceResponse};
///
/// let echo = FnService::new("echo", |_ctx, _from, _channel, payload: &[u8]| {
///     ServiceResponse::Reply(payload.to_vec())
/// });
/// assert_eq!(echo.name(), "echo");
/// ```
pub struct FnService<F> {
    name: String,
    handler: F,
}

impl<F> FnService<F>
where
    F: FnMut(&mut Ctx<'_>, SimAddr, ChannelKind, &[u8]) -> ServiceResponse,
{
    /// Creates a service from a name and a handler closure.
    pub fn new(name: impl Into<String>, handler: F) -> Self {
        FnService {
            name: name.into(),
            handler,
        }
    }
}

impl<F> Service for FnService<F>
where
    F: FnMut(&mut Ctx<'_>, SimAddr, ChannelKind, &[u8]) -> ServiceResponse,
{
    fn handle(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
    ) -> ServiceResponse {
        (self.handler)(ctx, from, channel, payload)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl<F> std::fmt::Debug for FnService<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnService")
            .field("name", &self.name)
            .finish()
    }
}

/// A trivial service that always replies with a fixed payload, useful in
/// tests and as a stand-in for unresponsive or static endpoints.
#[derive(Debug, Clone)]
pub struct StaticService {
    reply: Option<Vec<u8>>,
}

impl StaticService {
    /// A service that always replies with `reply`.
    pub fn replying(reply: Vec<u8>) -> Self {
        StaticService { reply: Some(reply) }
    }

    /// A black-hole service that never replies.
    pub fn silent() -> Self {
        StaticService { reply: None }
    }
}

impl Service for StaticService {
    fn handle(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _from: SimAddr,
        _channel: ChannelKind,
        _payload: &[u8],
    ) -> ServiceResponse {
        match &self.reply {
            Some(bytes) => ServiceResponse::Reply(bytes.clone()),
            None => ServiceResponse::NoReply,
        }
    }

    fn name(&self) -> &str {
        "static"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_response_conversions() {
        let r: ServiceResponse = vec![1, 2, 3].into();
        assert!(matches!(r, ServiceResponse::Reply(bytes) if bytes == [1, 2, 3]));
    }

    #[test]
    fn static_service_modes() {
        let replying = StaticService::replying(b"hi".to_vec());
        let silent = StaticService::silent();
        assert_eq!(replying.name(), "static");
        assert!(replying.reply.is_some());
        assert!(silent.reply.is_none());
    }
}
