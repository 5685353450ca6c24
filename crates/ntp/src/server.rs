//! Simulated NTP servers: benign time sources and malicious time shifters.

use std::time::Duration;

use sdoh_netsim::{ChannelKind, Ctx, Service, ServiceResponse, SimAddr, SimClock, SimRng};

use crate::packet::{NtpMode, NtpPacket};
use crate::timestamp::NtpTimestamp;

/// Behaviour of a simulated NTP server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NtpServerConfig {
    /// Constant offset the server adds to true time. Zero for a benign
    /// server; a large value for an attacker trying to shift clients.
    pub time_shift: f64,
    /// Bound of the uniform per-response jitter in seconds (models the
    /// server's own synchronisation error).
    pub jitter: f64,
    /// Stratum advertised by the server.
    pub stratum: u8,
    /// When `true` the server never answers (crashed / firewalled).
    pub silent: bool,
}

impl Default for NtpServerConfig {
    fn default() -> Self {
        NtpServerConfig {
            time_shift: 0.0,
            jitter: 0.001,
            stratum: 2,
            silent: false,
        }
    }
}

impl NtpServerConfig {
    /// A well-behaved server with millisecond-level jitter.
    pub fn benign() -> Self {
        NtpServerConfig::default()
    }

    /// A malicious server that shifts reported time by `shift` seconds.
    pub fn malicious(shift: f64) -> Self {
        NtpServerConfig {
            time_shift: shift,
            ..NtpServerConfig::default()
        }
    }

    /// A server that never responds.
    pub fn silent() -> Self {
        NtpServerConfig {
            silent: true,
            ..NtpServerConfig::default()
        }
    }

    /// Returns `true` when this server reports honest time (within jitter).
    pub fn is_benign(&self) -> bool {
        self.time_shift.abs() < 1e-9 && !self.silent
    }
}

/// A simulated NTP server service.
#[derive(Debug)]
pub struct NtpServerService {
    config: NtpServerConfig,
    clock: SimClock,
    rng: SimRng,
}

impl NtpServerService {
    /// Creates a server with the given behaviour, reading true time from
    /// `clock` and drawing jitter from `seed`.
    pub fn new(config: NtpServerConfig, clock: SimClock, seed: u64) -> Self {
        NtpServerService {
            config,
            clock,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    fn reported_now(&mut self) -> NtpTimestamp {
        let jitter = if self.config.jitter > 0.0 {
            self.rng.range_f64(-self.config.jitter, self.config.jitter)
        } else {
            0.0
        };
        NtpTimestamp::from_sim_time(self.clock.now(), self.config.time_shift + jitter)
    }
}

impl Service for NtpServerService {
    fn handle(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _from: SimAddr,
        _channel: ChannelKind,
        payload: &[u8],
    ) -> ServiceResponse {
        if self.config.silent {
            return ServiceResponse::NoReply;
        }
        let request = match NtpPacket::decode(payload) {
            Ok(packet) if packet.mode == NtpMode::Client => packet,
            _ => return ServiceResponse::NoReply,
        };
        let receive_time = self.reported_now();
        // Server-side processing takes a few microseconds of reported time.
        let transmit_time = receive_time.add_duration(Duration::from_micros(20));
        let response =
            NtpPacket::server_response(&request, self.config.stratum, receive_time, transmit_time);
        ServiceResponse::Reply(response.encode())
    }

    fn name(&self) -> &str {
        "ntp-server"
    }
}

/// Builds a pool of NTP server services and registers them on the network.
///
/// `addresses[i]` gets a malicious server (shifting time by
/// `malicious_shift`) when `i < malicious_count`, and a benign server
/// otherwise. Returns the number of servers registered.
pub fn register_pool(
    net: &sdoh_netsim::SimNet,
    addresses: &[SimAddr],
    malicious_count: usize,
    malicious_shift: f64,
    seed: u64,
) -> usize {
    for ((i, &addr), offset) in addresses.iter().enumerate().zip(0u64..) {
        let config = if i < malicious_count {
            NtpServerConfig::malicious(malicious_shift)
        } else {
            NtpServerConfig::benign()
        };
        net.register(
            addr,
            NtpServerService::new(config, net.clock(), seed.wrapping_add(offset)),
        );
    }
    addresses.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdoh_netsim::SimNet;

    #[test]
    fn config_constructors() {
        assert!(NtpServerConfig::benign().is_benign());
        assert!(!NtpServerConfig::malicious(100.0).is_benign());
        assert!(!NtpServerConfig::silent().is_benign());
        assert_eq!(NtpServerConfig::malicious(5.0).time_shift, 5.0);
    }

    #[test]
    fn answers_client_requests() {
        let net = SimNet::new(3);
        let addr = SimAddr::v4(203, 0, 113, 1, 123);
        net.register(
            addr,
            NtpServerService::new(NtpServerConfig::benign(), net.clock(), 1),
        );
        let request = NtpPacket::client_request(NtpTimestamp::from_seconds_f64(3_900_000_000.0));
        let reply = net
            .transact(
                SimAddr::v4(10, 0, 0, 1, 123),
                addr,
                ChannelKind::Plain,
                &request.encode(),
                Duration::from_secs(1),
            )
            .unwrap();
        let response = NtpPacket::decode(&reply).unwrap();
        assert_eq!(response.mode, NtpMode::Server);
        assert_eq!(response.origin_timestamp, request.transmit_timestamp);
        assert!(response.transmit_timestamp >= response.receive_timestamp);
    }

    #[test]
    fn silent_server_does_not_answer() {
        let net = SimNet::new(4);
        let addr = SimAddr::v4(203, 0, 113, 2, 123);
        net.register(
            addr,
            NtpServerService::new(NtpServerConfig::silent(), net.clock(), 1),
        );
        let request = NtpPacket::client_request(NtpTimestamp::ZERO);
        assert!(net
            .transact(
                SimAddr::v4(10, 0, 0, 1, 123),
                addr,
                ChannelKind::Plain,
                &request.encode(),
                Duration::from_millis(200),
            )
            .is_err());
    }

    #[test]
    fn garbage_requests_are_ignored() {
        let net = SimNet::new(5);
        let addr = SimAddr::v4(203, 0, 113, 3, 123);
        net.register(
            addr,
            NtpServerService::new(NtpServerConfig::benign(), net.clock(), 1),
        );
        assert!(net
            .transact(
                SimAddr::v4(10, 0, 0, 1, 123),
                addr,
                ChannelKind::Plain,
                b"not an ntp packet",
                Duration::from_millis(200),
            )
            .is_err());
    }

    #[test]
    fn malicious_server_shifts_reported_time() {
        let net = SimNet::new(6);
        let shift = 400.0;
        let addr = SimAddr::v4(203, 0, 113, 4, 123);
        net.register(
            addr,
            NtpServerService::new(NtpServerConfig::malicious(shift), net.clock(), 1),
        );
        let t1 = NtpTimestamp::from_sim_time(net.now(), 0.0);
        let request = NtpPacket::client_request(t1);
        let reply = net
            .transact(
                SimAddr::v4(10, 0, 0, 1, 123),
                addr,
                ChannelKind::Plain,
                &request.encode(),
                Duration::from_secs(1),
            )
            .unwrap();
        let response = NtpPacket::decode(&reply).unwrap();
        let reported = response.receive_timestamp.diff_seconds(t1);
        assert!(reported > shift - 1.0, "reported time shifted by ~{shift}s");
    }

    #[test]
    fn register_pool_splits_benign_and_malicious() {
        let net = SimNet::new(7);
        let addrs: Vec<SimAddr> = (1..=10u8)
            .map(|i| SimAddr::v4(203, 0, 113, i, 123))
            .collect();
        let count = register_pool(&net, &addrs, 3, 1000.0, 99);
        assert_eq!(count, 10);
        for addr in &addrs {
            assert!(net.unregister(*addr));
        }
    }
}
