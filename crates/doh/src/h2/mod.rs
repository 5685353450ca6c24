//! A from-scratch HTTP/2 (RFC 7540) layer sized for DoH: framing, a static
//! HPACK codec and request/response connection state machines.

mod connection;
mod error;
mod frame;
pub mod hpack;
#[cfg(test)]
mod oracle;

pub use connection::{ClientConnection, ServerConnection};
pub(crate) use connection::{RequestFrames, RequestHead};
pub use error::H2Error;
pub use frame::{flags, Frame, FrameType, CONNECTION_PREFACE, MAX_FRAME_SIZE};
