//! Set-up: the upstream fleet, the shards, a port free on both UDP and
//! TCP, `PoolRuntime::start`, the client thread and priming. Everything
//! `setup_s` times.

use std::net::{Ipv4Addr, SocketAddr, TcpListener, UdpSocket};
use std::sync::Arc;
use std::time::Instant;

use sdoh_core::{AddressSource, CachingPoolResolver, DohSource, PoolResult, SecurePoolGenerator};
use sdoh_dns_server::{
    Authority, Catalog, PoisonConfig, PoisonMode, PoisonedResolver, QueryHandler, Zone,
};
use sdoh_doh::{DohMethod, DohServerService};
use sdoh_netsim::{SimAddr, SimRng};
use sdoh_runtime::{BackendNet, LoopbackFleet, PoolRuntime, RuntimeConfig, Shard};

use crate::client::{Client, ClientThread};
use crate::trace::{TracedExchanger, TracedHandler, TracedService, Tracer};
use crate::verify::Verifier;
use crate::workload::{Spec, SHARDS};

/// Picks ports for the runtime. `PoolRuntime::start` on port 0 binds UDP
/// on an ephemeral port and then TCP on the *same number*, which fails
/// with `AddrInUse` when that number belongs to a TIME_WAIT client socket
/// (any earlier TCP client on this host may have left some). So the harness
/// looks below the ephemeral range for a number free on both, and
/// `Deployment::up` retries regardless.
pub struct Ports {
    rng: SimRng,
}

impl Ports {
    pub fn new(seed: u64) -> Ports {
        Ports {
            rng: SimRng::seed_from_u64(seed ^ (u64::from(std::process::id()) << 32)),
        }
    }

    pub fn next_free(&mut self) -> std::io::Result<SocketAddr> {
        for _ in 0..256 {
            let port = self.rng.range_u64(20_000, 30_000) as u16;
            let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
            if UdpSocket::bind(addr).is_ok() && TcpListener::bind(addr).is_ok() {
                return Ok(addr);
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            "no port in 20000..30000 is free on both UDP and TCP",
        ))
    }
}

/// The traced twin of `LoopbackFleet`'s backend net: the same zone, the
/// same terminators, the same poisoning, with a tracing `QueryHandler`
/// around each `Authority` and a tracing `PayloadService` around each
/// terminator.
pub fn traced_backends(fleet: &LoopbackFleet, spec: &Spec, tracer: &Arc<Tracer>) -> BackendNet {
    let mut zone = Zone::new("ntpns.org".parse().expect("valid apex"));
    for domain in &fleet.domains {
        for &address in &fleet.benign {
            zone.add_address(domain.clone(), address);
        }
    }
    let mut catalog = Catalog::new();
    catalog.add_zone(zone);
    let mut builder = BackendNet::builder().with_latency(spec.fleet.upstream_latency);
    for (index, info) in fleet.infos.iter().enumerate() {
        let mut handler: Box<dyn QueryHandler + Send> = Box::new(TracedHandler {
            inner: Authority::new(catalog.clone()),
            tracer: Arc::clone(tracer),
        });
        if spec.fleet.compromised.contains(&index) {
            for domain in &fleet.domains {
                handler = Box::new(PoisonedResolver::new(
                    handler,
                    PoisonConfig::new(
                        domain.clone(),
                        PoisonMode::ReplaceAddresses(fleet.attacker.clone()),
                    ),
                ));
            }
        }
        builder = builder.register(
            info.addr,
            TracedService {
                inner: DohServerService::new(info.clone(), handler),
                tracer: Arc::clone(tracer),
            },
        );
    }
    builder.build()
}

/// One generator over every resolver of the fleet, as
/// `LoopbackFleet::shards` builds them.
pub fn generator(fleet: &LoopbackFleet, spec: &Spec) -> PoolResult<SecurePoolGenerator> {
    let sources: Vec<Box<dyn AddressSource>> = fleet
        .infos
        .iter()
        .map(|info| {
            Box::new(DohSource::new(info.clone()).method(DohMethod::Get)) as Box<dyn AddressSource>
        })
        .collect();
    SecurePoolGenerator::new(spec.pool.clone(), sources)
}

/// A traced exchanger into `net`, sending from shard `index`'s address.
pub fn traced_exchanger(
    net: &BackendNet,
    index: usize,
    tracer: &Arc<Tracer>,
) -> TracedExchanger<sdoh_runtime::BackendExchanger> {
    TracedExchanger {
        inner: net.exchanger(SimAddr::v4(10, 1, 0, index as u8, 40_000)),
        tracer: Arc::clone(tracer),
    }
}

fn traced_shards(
    fleet: &LoopbackFleet,
    net: &BackendNet,
    spec: &Spec,
    tracer: &Arc<Tracer>,
) -> PoolResult<Vec<Shard>> {
    (0..SHARDS)
        .map(|index| {
            Ok(Shard::new(
                CachingPoolResolver::new(generator(fleet, spec)?, spec.cache),
                Box::new(traced_exchanger(net, index, tracer)),
            ))
        })
        .collect()
}

/// A running deployment: fleet, runtime, verifier and the client thread.
pub struct Deployment {
    pub fleet: LoopbackFleet,
    pub runtime: PoolRuntime,
    pub verifier: Arc<Verifier>,
    pub client: ClientThread,
    pub start_ms: f64,
    pub start_retries: u32,
}

impl Deployment {
    /// Builds the fleet and the shards, starts the runtime on a port free
    /// on UDP and TCP (retrying on `AddrInUse`), starts the client and
    /// primes every domain with one verified query. With a tracer, the
    /// runtime's upstream side goes through the tracing wrappers.
    pub fn up(
        spec: &Spec,
        seed: u64,
        ports: &mut Ports,
        tracer: Option<&Arc<Tracer>>,
    ) -> std::io::Result<Deployment> {
        let invalid = |e: sdoh_core::PoolError| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
        };
        let fleet = LoopbackFleet::build(spec.fleet.clone());
        let traced = tracer.map(|tracer| (traced_backends(&fleet, spec, tracer), tracer));
        let mut start_retries = 0;
        let (runtime, start_ms) = loop {
            let shards = match &traced {
                Some((net, tracer)) => traced_shards(&fleet, net, spec, tracer),
                None => fleet.shards(SHARDS, spec.pool.clone(), spec.cache),
            }
            .map_err(invalid)?;
            let config = RuntimeConfig::default().with_bind(ports.next_free()?);
            let started = Instant::now();
            match PoolRuntime::start(config, shards) {
                Ok(runtime) => break (runtime, started.elapsed().as_secs_f64() * 1e3),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && start_retries < 16 => {
                    start_retries += 1;
                }
                Err(e) => return Err(e),
            }
        };
        let verifier = Arc::new(Verifier::new(
            &fleet.domains,
            &fleet.benign,
            &fleet.attacker,
            spec.policy,
            spec.answer_records,
        ));
        let client = ClientThread::start(Client::new(
            runtime.udp_addr(),
            Arc::clone(&verifier),
            spec.zipf,
            seed,
            0,
        )?);
        let failures = client.prime();
        let deployment = Deployment {
            fleet,
            runtime,
            verifier,
            client,
            start_ms,
            start_retries,
        };
        if failures > 0 {
            deployment.down();
            return Err(std::io::Error::other(format!(
                "{failures} priming queries were not answered correctly"
            )));
        }
        Ok(deployment)
    }

    /// Stops the client, shuts the runtime down and returns how long the
    /// shutdown took in ms.
    pub fn down(self) -> f64 {
        self.client.stop();
        let started = Instant::now();
        self.runtime.shutdown();
        started.elapsed().as_secs_f64() * 1e3
    }
}
