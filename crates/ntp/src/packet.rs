//! The 48-octet NTP packet format (RFC 5905 §7.3).

use crate::error::{NtpError, NtpResult};
use crate::timestamp::NtpTimestamp;

/// Length of a basic NTP packet without extensions.
pub const PACKET_LEN: usize = 48;

/// NTP association modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NtpMode {
    /// Client request.
    Client,
    /// Server response.
    Server,
    /// Symmetric active (unused here, parsed for completeness).
    SymmetricActive,
    /// Broadcast (unused here, parsed for completeness).
    Broadcast,
    /// Any other mode value.
    Other(u8),
}

impl NtpMode {
    /// Numeric mode value.
    pub fn code(self) -> u8 {
        match self {
            NtpMode::SymmetricActive => 1,
            NtpMode::Client => 3,
            NtpMode::Server => 4,
            NtpMode::Broadcast => 5,
            NtpMode::Other(v) => v & 0x7,
        }
    }
}

impl From<u8> for NtpMode {
    fn from(v: u8) -> Self {
        match v & 0x7 {
            1 => NtpMode::SymmetricActive,
            3 => NtpMode::Client,
            4 => NtpMode::Server,
            5 => NtpMode::Broadcast,
            other => NtpMode::Other(other),
        }
    }
}

/// A parsed NTP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtpPacket {
    /// Leap indicator (0 = no warning, 3 = unsynchronised).
    pub leap_indicator: u8,
    /// Protocol version (4).
    pub version: u8,
    /// Association mode.
    pub mode: NtpMode,
    /// Stratum of the sender (1 = primary reference).
    pub stratum: u8,
    /// Poll interval exponent.
    pub poll: i8,
    /// Clock precision exponent.
    pub precision: i8,
    /// Round-trip delay to the reference clock, in NTP short format.
    pub root_delay: u32,
    /// Dispersion to the reference clock, in NTP short format.
    pub root_dispersion: u32,
    /// Reference identifier.
    pub reference_id: u32,
    /// Time the system clock was last set.
    pub reference_timestamp: NtpTimestamp,
    /// Client transmit time copied back by the server (T1).
    pub origin_timestamp: NtpTimestamp,
    /// Time the request arrived at the server (T2).
    pub receive_timestamp: NtpTimestamp,
    /// Time the response left the server (T3).
    pub transmit_timestamp: NtpTimestamp,
}

impl NtpPacket {
    /// Builds a client request transmitted at `transmit_time` (T1).
    pub fn client_request(transmit_time: NtpTimestamp) -> Self {
        NtpPacket {
            leap_indicator: 0,
            version: 4,
            mode: NtpMode::Client,
            stratum: 0,
            poll: 4,
            precision: -20,
            root_delay: 0,
            root_dispersion: 0,
            reference_id: 0,
            reference_timestamp: NtpTimestamp::ZERO,
            origin_timestamp: NtpTimestamp::ZERO,
            receive_timestamp: NtpTimestamp::ZERO,
            transmit_timestamp: transmit_time,
        }
    }

    /// Builds the server response for `request`.
    pub fn server_response(
        request: &NtpPacket,
        stratum: u8,
        receive_time: NtpTimestamp,
        transmit_time: NtpTimestamp,
    ) -> Self {
        NtpPacket {
            leap_indicator: 0,
            version: 4,
            mode: NtpMode::Server,
            stratum,
            poll: request.poll,
            precision: -23,
            root_delay: 0,
            root_dispersion: 0,
            reference_id: u32::from_be_bytes(*b"SIM\0"),
            reference_timestamp: receive_time,
            origin_timestamp: request.transmit_timestamp,
            receive_timestamp: receive_time,
            transmit_timestamp: transmit_time,
        }
    }

    /// Encodes the packet into its 48-octet wire representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PACKET_LEN);
        out.push((self.leap_indicator & 0x3) << 6 | (self.version & 0x7) << 3 | self.mode.code());
        out.push(self.stratum);
        // Signed octets, two's complement on the wire.
        out.extend_from_slice(&self.poll.to_be_bytes());
        out.extend_from_slice(&self.precision.to_be_bytes());
        out.extend_from_slice(&self.root_delay.to_be_bytes());
        out.extend_from_slice(&self.root_dispersion.to_be_bytes());
        out.extend_from_slice(&self.reference_id.to_be_bytes());
        out.extend_from_slice(&self.reference_timestamp.0.to_be_bytes());
        out.extend_from_slice(&self.origin_timestamp.0.to_be_bytes());
        out.extend_from_slice(&self.receive_timestamp.0.to_be_bytes());
        out.extend_from_slice(&self.transmit_timestamp.0.to_be_bytes());
        out
    }

    /// Decodes a packet from wire format.
    ///
    /// # Errors
    ///
    /// Returns [`NtpError::MalformedPacket`] when the input is shorter than
    /// 48 octets.
    // sdoh-lint: allow(no-panic, "every offset is below PACKET_LEN, which is checked on entry")
    pub fn decode(data: &[u8]) -> NtpResult<Self> {
        if data.len() < PACKET_LEN {
            return Err(NtpError::MalformedPacket("packet shorter than 48 octets"));
        }
        let u32_at =
            |i: usize| u32::from_be_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
        let u64_at = |i: usize| {
            u64::from_be_bytes([
                data[i],
                data[i + 1],
                data[i + 2],
                data[i + 3],
                data[i + 4],
                data[i + 5],
                data[i + 6],
                data[i + 7],
            ])
        };
        Ok(NtpPacket {
            leap_indicator: data[0] >> 6,
            version: (data[0] >> 3) & 0x7,
            mode: NtpMode::from(data[0]),
            stratum: data[1],
            poll: i8::from_be_bytes([data[2]]),
            precision: i8::from_be_bytes([data[3]]),
            root_delay: u32_at(4),
            root_dispersion: u32_at(8),
            reference_id: u32_at(12),
            reference_timestamp: NtpTimestamp(u64_at(16)),
            origin_timestamp: NtpTimestamp(u64_at(24)),
            receive_timestamp: NtpTimestamp(u64_at(32)),
            transmit_timestamp: NtpTimestamp(u64_at(40)),
        })
    }
}

/// A time sample computed from one request/response exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NtpSample {
    /// Clock offset `theta` in seconds (positive = local clock is behind).
    pub offset: f64,
    /// Round-trip delay `delta` in seconds.
    pub delay: f64,
    /// Stratum reported by the server.
    pub stratum: u8,
}

impl NtpSample {
    /// Computes offset and delay from the four timestamps of an exchange
    /// (RFC 5905 §8): `T1` client transmit, `T2` server receive, `T3` server
    /// transmit, `T4` client receive.
    pub fn from_timestamps(
        t1: NtpTimestamp,
        t2: NtpTimestamp,
        t3: NtpTimestamp,
        t4: NtpTimestamp,
        stratum: u8,
    ) -> Self {
        let offset = (t2.diff_seconds(t1) + t3.diff_seconds(t4)) / 2.0;
        let delay = t4.diff_seconds(t1) - t3.diff_seconds(t2);
        NtpSample {
            offset,
            delay,
            stratum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_roundtrip() {
        let request = NtpPacket::client_request(NtpTimestamp::from_seconds_f64(3_900_000_000.5));
        let wire = request.encode();
        assert_eq!(wire.len(), PACKET_LEN);
        let decoded = NtpPacket::decode(&wire).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(decoded.mode, NtpMode::Client);
        assert_eq!(decoded.version, 4);
    }

    #[test]
    fn server_response_copies_origin() {
        let t1 = NtpTimestamp::from_seconds_f64(100.0);
        let request = NtpPacket::client_request(t1);
        let response = NtpPacket::server_response(
            &request,
            2,
            NtpTimestamp::from_seconds_f64(100.01),
            NtpTimestamp::from_seconds_f64(100.02),
        );
        assert_eq!(response.origin_timestamp, t1);
        assert_eq!(response.mode, NtpMode::Server);
        assert_eq!(response.stratum, 2);
        let decoded = NtpPacket::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
    }

    #[test]
    fn short_packet_rejected() {
        assert!(NtpPacket::decode(&[0u8; 20]).is_err());
    }

    #[test]
    fn mode_codes_roundtrip() {
        for mode in [
            NtpMode::Client,
            NtpMode::Server,
            NtpMode::SymmetricActive,
            NtpMode::Broadcast,
        ] {
            assert_eq!(NtpMode::from(mode.code()), mode);
        }
        assert_eq!(NtpMode::from(7u8), NtpMode::Other(7));
    }

    #[test]
    fn offset_and_delay_computation() {
        // Local clock is 10 s behind true time, 50 ms symmetric path delay.
        let t1 = NtpTimestamp::from_seconds_f64(1000.0); // client clock
        let t2 = NtpTimestamp::from_seconds_f64(1010.025); // server (true + 10s) at arrival
        let t3 = NtpTimestamp::from_seconds_f64(1010.030); // server just before send
        let t4 = NtpTimestamp::from_seconds_f64(1000.055); // client clock at receive
        let sample = NtpSample::from_timestamps(t1, t2, t3, t4, 2);
        assert!(
            (sample.offset - 10.0).abs() < 1e-3,
            "offset {}",
            sample.offset
        );
        assert!(
            (sample.delay - 0.050).abs() < 1e-3,
            "delay {}",
            sample.delay
        );
    }

    #[test]
    fn zero_delay_symmetric_offset() {
        let t = NtpTimestamp::from_seconds_f64(500.0);
        let sample = NtpSample::from_timestamps(t, t, t, t, 1);
        assert_eq!(sample.offset, 0.0);
        assert_eq!(sample.delay, 0.0);
    }
}
