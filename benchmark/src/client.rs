//! The load generator: bench-owned raw sockets sending pre-encoded query
//! wires (id patched per query), UDP first and TCP on TC=1 — what a stub
//! resolver does. Not `RuntimeClient`: the program receives only generated
//! inputs, and decoding the answer happens after the clock has stopped.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdoh_netsim::SimRng;

use crate::procfs::pinned_cpu_steal_ns;
use crate::stats::{median, percentile};
use crate::sys::{process_cpu_ns, thread_cpu_ns};
use crate::verify::{read_tcp_frame, Verifier};
use crate::workload::{client_rng, DomainPicker};

/// A query not answered within this is a failure.
const QUERY_TIMEOUT: Duration = Duration::from_secs(2);

/// What one unit of calibration work takes on the reference host: a bare
/// echo round trip (system calls, two context switches, copies) and then
/// [`chew`] (allocation and plain computing). About two parts kernel to one
/// part user space, like serving a cached answer. A host on which the unit
/// takes twice as long is, for this kind of work, half as fast right now:
/// slowness 2.
pub const REFERENCE_UNIT_US: f64 = 6.0;

/// Size of the echoed datagram and of the buffer chewed: of the order of a
/// pool answer.
const CALIBRATION_BYTES: usize = 1024;

/// The user-space half of a calibration unit: allocates `bytes`, fills and
/// hashes them, frees them. Bench-owned on purpose: calibrating with the
/// program's own code would hide a change to that code.
fn chew(bytes: usize) {
    let mut buffer: Vec<u8> = Vec::with_capacity(bytes);
    for i in 0..bytes {
        buffer.push((i as u8).wrapping_mul(31));
    }
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in &buffer {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    std::hint::black_box(hash);
}

/// A calibration is this many bursts of this many echo round trips (about
/// 1 ms in all); its reading is the median burst, so that a stall of the
/// host inside one burst does not pass for a slow host.
const CALIBRATION_BURSTS: usize = 5;
const PINGS_PER_BURST: u32 = 40;

/// How long the client works between two calibrations. The host changes
/// speed on a scale of 0.1 s and more; a stretch is well below that, and
/// long enough that calibrating is 5 % of the run.
const STRETCH: Duration = Duration::from_millis(20);

/// What a span of `wall_ns`, of which the core was busy for `busy_ns`,
/// would have taken on the reference host: waiting (upstream latency, the
/// program's own sleeps) takes as long on any host, work scales with the
/// host's speed.
pub fn at_reference_speed(wall_ns: u64, busy_ns: u64, slowness: f64) -> f64 {
    let busy = busy_ns.min(wall_ns);
    (wall_ns - busy) as f64 + busy as f64 / slowness
}

/// What the client did in one phase. Times cover the stretches of work
/// only, not the calibrations between them.
#[derive(Debug, Default)]
pub struct Tally {
    pub ok: u64,
    pub failed: u64,
    pub tcp_retries: u64,
    pub wall_ns: u64,
    /// The part of `wall_ns` in which the core ran no thread of this
    /// process: waiting, and whatever the hypervisor stole.
    pub idle_ns: u64,
    /// What `/proc/stat` says the hypervisor stole from the core meanwhile
    /// (calibrations included: it counts in 10 ms ticks).
    pub steal_ns: u64,
    /// On-CPU ns of the whole process except the client thread: the
    /// server, the threads it creates and lets go included.
    pub server_cpu_ns: u64,
    pub client_cpu_ns: u64,
    /// The two at reference host speed, stretch by stretch.
    pub reference_server_cpu_ns: f64,
    pub reference_client_cpu_ns: f64,
    /// Host slowness of each stretch; empty when not calibrating.
    pub slowness: Vec<f64>,
    /// Round-trip ns of every verified answer, in send order.
    pub latencies: Vec<u32>,
    /// The same round trips at reference host speed: one in flight and
    /// calibrating only.
    pub reference_latencies: Vec<u32>,
}

impl Tally {
    fn add_stretch(&mut self, wall_ns: u64, busy_ns: u64, client_cpu_ns: u64, slowness: f64) {
        let busy = busy_ns.min(wall_ns);
        let client = client_cpu_ns.min(busy);
        self.wall_ns += wall_ns;
        self.idle_ns += wall_ns - busy;
        self.server_cpu_ns += busy - client;
        self.client_cpu_ns += client;
        self.reference_server_cpu_ns += (busy - client) as f64 / slowness;
        self.reference_client_cpu_ns += client as f64 / slowness;
    }

    /// `wall_ns` at reference host speed: the work at that speed, and the
    /// waiting less what was not waiting at all but a core taken away.
    pub fn reference_wall_ns(&self) -> f64 {
        self.idle_ns.saturating_sub(self.steal_ns) as f64
            + self.reference_server_cpu_ns
            + self.reference_client_cpu_ns
    }
}

fn ns_u32(ns: f64) -> u32 {
    if ns >= u32::MAX as f64 {
        u32::MAX
    } else {
        ns as u32
    }
}

pub struct Client {
    udp: UdpSocket,
    server: SocketAddr,
    wires: Vec<Vec<u8>>,
    rng: SimRng,
    picker: DomainPicker,
    verifier: Arc<Verifier>,
    udp_buf: Vec<u8>,
    tcp_buf: Vec<u8>,
    echo: Echo,
}

impl Client {
    pub fn new(
        server: SocketAddr,
        verifier: Arc<Verifier>,
        zipf: bool,
        seed: u64,
        index: usize,
    ) -> std::io::Result<Client> {
        let udp = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        udp.connect(server)?;
        udp.set_read_timeout(Some(QUERY_TIMEOUT))?;
        Ok(Client {
            udp,
            server,
            wires: verifier.query_wires(),
            rng: client_rng(seed, index),
            picker: DomainPicker::new(verifier.domains(), zipf),
            verifier,
            udp_buf: vec![0; 65_535],
            tcp_buf: Vec::with_capacity(65_535),
            echo: Echo::start()?,
        })
    }

    /// Patches a fresh id into the query for `domain`.
    fn next_query(&mut self, domain: usize) -> u16 {
        let id = self.rng.gen_u16();
        self.wires[domain][..2].copy_from_slice(&id.to_be_bytes());
        id
    }

    /// Sends the patched query for `domain` over UDP and receives its
    /// answer into `udp_buf`; returns the answer's length.
    fn udp_leg(&mut self, domain: usize, id: u16) -> std::io::Result<usize> {
        let started = Instant::now();
        self.udp.send(&self.wires[domain])?;
        loop {
            let len = self.udp.recv(&mut self.udp_buf)?;
            if len >= 12 && self.udp_buf[..2] == id.to_be_bytes() {
                return Ok(len);
            }
            // Anything else is a late answer to a query that timed out.
            if started.elapsed() > QUERY_TIMEOUT {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
        }
    }

    /// Sends the patched query for `domain` over a fresh TCP connection
    /// and receives its answer into `tcp_buf`.
    fn tcp_leg(&mut self, domain: usize) -> std::io::Result<()> {
        let wire = &self.wires[domain];
        let mut stream = TcpStream::connect_timeout(&self.server, QUERY_TIMEOUT)?;
        stream.set_read_timeout(Some(QUERY_TIMEOUT))?;
        stream.set_write_timeout(Some(QUERY_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let mut framed = Vec::with_capacity(wire.len() + 2);
        framed.extend_from_slice(&(wire.len() as u16).to_be_bytes());
        framed.extend_from_slice(wire);
        stream.write_all(&framed)?;
        read_tcp_frame(&mut stream, &mut self.tcp_buf)?;
        close_with_reset(stream);
        Ok(())
    }

    fn truncated(&self) -> bool {
        self.udp_buf[2] & 0x02 != 0
    }

    /// One query for `domain` the way a stub resolver makes it: UDP, then
    /// TCP on TC=1 (one connection per query). The round trip runs from
    /// the send to the last byte received; verification comes after. With
    /// `busy` given, the part of the round trip the core worked goes there:
    /// the process is confined to one core and this is its only query, so
    /// that is what the process CPU clock counts between send and receive.
    pub fn query(&mut self, domain: usize, busy: Option<&mut Vec<u32>>, tally: &mut Tally) {
        let id = self.next_query(domain);
        let cpu = busy.as_ref().map(|_| process_cpu_ns());
        let started = Instant::now();
        let outcome = self.udp_leg(domain, id).and_then(|len| {
            if self.truncated() {
                self.tcp_leg(domain).map(|()| None)
            } else {
                Ok(Some(len))
            }
        });
        let elapsed = started.elapsed();
        let busy_ns = cpu.map(|cpu| process_cpu_ns() - cpu);
        let verified = outcome.is_ok_and(|udp_len| {
            let answer = match udp_len {
                Some(len) => &self.udp_buf[..len],
                None => {
                    tally.tcp_retries += 1;
                    &self.tcp_buf[..]
                }
            };
            self.verifier.check(domain, id, answer).is_ok()
        });
        if verified {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            tally.ok += 1;
            tally.latencies.push(ns_u32(ns as f64));
            if let (Some(busy), Some(busy_ns)) = (busy, busy_ns) {
                busy.push(ns_u32(busy_ns as f64));
            }
        } else {
            tally.failed += 1;
        }
    }

    /// Times the UDP leg alone, in µs, and returns the answer's length
    /// with it. A TC=1 answer is a valid end of this leg; a full answer
    /// is verified. `None` is a failure.
    pub fn probe_udp(&mut self, domain: usize) -> Option<(f64, usize)> {
        let id = self.next_query(domain);
        let started = Instant::now();
        let len = self.udp_leg(domain, id).ok()?;
        let us = started.elapsed().as_nanos() as f64 / 1e3;
        let fine = self.truncated()
            || self
                .verifier
                .check(domain, id, &self.udp_buf[..len])
                .is_ok();
        fine.then_some((us, len))
    }

    /// Times the TCP leg alone (connect, query, full answer), in µs.
    pub fn probe_tcp(&mut self, domain: usize) -> Option<f64> {
        let id = self.next_query(domain);
        let started = Instant::now();
        self.tcp_leg(domain).ok()?;
        let us = started.elapsed().as_nanos() as f64 / 1e3;
        self.verifier
            .check(domain, id, &self.tcp_buf)
            .is_ok()
            .then_some(us)
    }

    /// The domain of the next query, by the workload's popularity law.
    pub fn next_domain(&mut self) -> usize {
        self.picker.pick(&mut self.rng)
    }

    /// Closed loop with `window` queries in flight: a new query goes out
    /// for every answer that comes in, until `deadline` or `cap` queries.
    /// When calibrating, the work is cut into stretches with the host's
    /// slowness measured before and after each, while nothing is in flight.
    pub fn run(
        &mut self,
        deadline: Instant,
        cap: u64,
        window: usize,
        calibrate: bool,
        tally: &mut Tally,
    ) {
        let steal = pinned_cpu_steal_ns();
        let mut before = if calibrate { self.echo.slowness() } else { 1.0 };
        // The busy part of each round trip of the current stretch.
        let mut busy: Vec<u32> = Vec::new();
        let mut sent = 0;
        while sent < cap && Instant::now() < deadline {
            let until = if calibrate {
                deadline.min(Instant::now() + STRETCH)
            } else {
                deadline
            };
            let first = tally.latencies.len();
            let (process, own) = (process_cpu_ns(), thread_cpu_ns());
            let started = Instant::now();
            if window > 1 {
                sent += self.run_window(until, cap - sent, window, tally);
            } else {
                while sent < cap && Instant::now() < until {
                    let domain = self.next_domain();
                    self.query(domain, calibrate.then_some(&mut busy), tally);
                    sent += 1;
                }
            }
            let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let (process, own) = (process_cpu_ns() - process, thread_cpu_ns() - own);
            let after = if calibrate { self.echo.slowness() } else { 1.0 };
            let slowness = (before + after) / 2.0;
            before = after;
            tally.add_stretch(wall, process, own, slowness);
            if calibrate {
                tally.slowness.push(slowness);
                for (&wall, &busy) in tally.latencies[first..].iter().zip(&busy) {
                    tally.reference_latencies.push(ns_u32(at_reference_speed(
                        u64::from(wall),
                        u64::from(busy),
                        slowness,
                    )));
                }
                busy.clear();
            }
        }
        tally.steal_ns = pinned_cpu_steal_ns().saturating_sub(steal);
    }

    /// `window` stub resolvers multiplexed on this socket, UDP only: each
    /// waits for its own answer before it asks again, and the socket always
    /// has `window` queries out. An answer's round trip includes the time
    /// this thread spent verifying the ones before it, so this mode is for
    /// throughput, not latency. Returns how many queries it sent.
    fn run_window(&mut self, deadline: Instant, cap: u64, window: usize, tally: &mut Tally) -> u64 {
        let mut in_flight: HashMap<u16, (usize, Instant)> = HashMap::with_capacity(window);
        let mut sent = 0;
        loop {
            let open = sent < cap && Instant::now() < deadline;
            while open && in_flight.len() < window && sent < cap {
                let domain = self.next_domain();
                let id = self.next_query(domain);
                if in_flight.contains_key(&id) {
                    continue;
                }
                sent += 1;
                match self.udp.send(&self.wires[domain]) {
                    Ok(_) => {
                        in_flight.insert(id, (domain, Instant::now()));
                    }
                    Err(_) => tally.failed += 1,
                }
            }
            if in_flight.is_empty() {
                return sent;
            }
            let Ok(len) = self.udp.recv(&mut self.udp_buf) else {
                // Nothing for `QUERY_TIMEOUT`: everything in flight is lost.
                tally.failed += in_flight.len() as u64;
                in_flight.clear();
                continue;
            };
            let id = u16::from_be_bytes([self.udp_buf[0], self.udp_buf[1]]);
            let Some((domain, sent_at)) = in_flight.remove(&id) else {
                continue;
            };
            let elapsed = sent_at.elapsed();
            if self
                .verifier
                .check(domain, id, &self.udp_buf[..len])
                .is_ok()
            {
                tally.ok += 1;
                tally
                    .latencies
                    .push(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX));
            } else {
                tally.failed += 1;
            }
        }
    }
}

/// Closes a connection whose answer has been read in full with a reset
/// instead of a FIN. A FIN from the client leaves its ephemeral port in
/// TIME_WAIT for a minute, and `wide_tcp` opens thousands of connections:
/// anything that afterwards binds UDP on port 0 and TCP on the same number
/// (`PoolRuntime::start`, hence much of the repo's test suite) would fail
/// with `AddrInUse` about one time in eight. std has no stable way to set
/// `SO_LINGER`, so this is the benchmark's one foreign call.
fn close_with_reset(stream: TcpStream) {
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    // Linux, every architecture the runtime's `/proc` ledger works on.
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: `stream` owns an open socket for the whole call; `value`
    // points to a live `struct linger` (two C ints) of exactly `len` bytes,
    // which the kernel only reads. A failure leaves the default close, which
    // is merely untidy, so the result is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        );
    }
    drop(stream);
}

enum Command {
    /// Query each domain once (priming).
    Prime,
    Run {
        deadline: Instant,
        cap: u64,
        window: usize,
        calibrate: bool,
        buffers: [Vec<u32>; 2],
    },
}

/// The client thread of one deployment, `bench-client`, driven phase by
/// phase from the harness thread. One thread, one socket: the process has
/// one core, and a second generator thread would only queue behind the
/// first.
pub struct ClientThread {
    commands: mpsc::Sender<Command>,
    tallies: mpsc::Receiver<Tally>,
    thread: JoinHandle<()>,
}

impl ClientThread {
    pub fn start(mut client: Client) -> ClientThread {
        let (commands, inbox) = mpsc::channel::<Command>();
        let (outbox, tallies) = mpsc::channel::<Tally>();
        let thread = std::thread::Builder::new()
            .name("bench-client".into())
            .spawn(move || {
                while let Ok(command) = inbox.recv() {
                    let mut tally = Tally::default();
                    match command {
                        Command::Prime => {
                            for domain in 0..client.verifier.domains() {
                                client.query(domain, None, &mut tally);
                            }
                        }
                        Command::Run {
                            deadline,
                            cap,
                            window,
                            calibrate,
                            buffers,
                        } => {
                            [tally.latencies, tally.reference_latencies] = buffers;
                            tally.latencies.clear();
                            tally.reference_latencies.clear();
                            client.run(deadline, cap, window, calibrate, &mut tally);
                        }
                    }
                    if outbox.send(tally).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn client thread");
        ClientThread {
            commands,
            tallies,
            thread,
        }
    }

    fn dispatch(&self, command: Command) -> Tally {
        self.commands.send(command).expect("client thread alive");
        self.tallies.recv().expect("client thread alive")
    }

    /// One verified query per domain. Returns the number of failures.
    pub fn prime(&self) -> u64 {
        self.dispatch(Command::Prime).failed
    }

    /// Runs the client until `deadline` (or `cap` queries) with `window`
    /// queries in flight. `buffers` go to the client for the latencies and
    /// come back inside the tally, so a run allocates its sample memory
    /// once.
    pub fn run(
        &self,
        deadline: Instant,
        cap: Option<u64>,
        window: usize,
        calibrate: bool,
        buffers: [Vec<u32>; 2],
    ) -> Tally {
        self.dispatch(Command::Run {
            deadline,
            cap: cap.unwrap_or(u64::MAX),
            window,
            calibrate,
            buffers,
        })
    }

    pub fn stop(self) {
        drop(self.commands);
        self.thread.join().expect("client thread panicked");
    }
}

/// A bare UDP echo thread over loopback and a socket to ping it with:
/// what the kernel and two wake-ups cost with no program in between. Its
/// round trip is the benchmark's measure of how fast the host is at the
/// moment.
pub struct Echo {
    client: UdpSocket,
    payload: Vec<u8>,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    pub fn start() -> std::io::Result<Echo> {
        let server = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        client.connect(server.local_addr()?)?;
        client.set_read_timeout(Some(QUERY_TIMEOUT))?;
        // Blocks until pinged, so it costs nothing between calibrations;
        // an empty datagram tells it to go.
        let thread = std::thread::Builder::new()
            .name("bench-echo".into())
            .spawn(move || {
                let mut buf = [0u8; 2048];
                while let Ok((len, peer)) = server.recv_from(&mut buf) {
                    if len == 0 {
                        break;
                    }
                    let _ = server.send_to(&buf[..len], peer);
                }
            })?;
        Ok(Echo {
            client,
            payload: Vec::new(),
            thread: Some(thread),
        })
    }

    /// One round trip of a `size`-byte datagram, in µs.
    pub fn rtt_us(&mut self, size: usize) -> Option<f64> {
        self.payload.resize(size.clamp(1, 2048), 0xA5);
        let mut buf = [0u8; 2048];
        let started = Instant::now();
        self.client.send(&self.payload).ok()?;
        self.client.recv(&mut buf).ok()?;
        Some(started.elapsed().as_nanos() as f64 / 1e3)
    }

    /// How slow the host is right now: the mean time of a burst of
    /// calibration units over [`REFERENCE_UNIT_US`]; the median of a few
    /// bursts. 1 when the echo does not answer, which the queries beside it
    /// will not survive either.
    pub fn slowness(&mut self) -> f64 {
        let mut bursts = [0.0; CALIBRATION_BURSTS];
        for burst in &mut bursts {
            let started = Instant::now();
            for _ in 0..PINGS_PER_BURST {
                if self.rtt_us(CALIBRATION_BYTES).is_none() {
                    return 1.0;
                }
                chew(CALIBRATION_BYTES);
            }
            *burst = started.elapsed().as_nanos() as f64 / 1e3 / f64::from(PINGS_PER_BURST);
        }
        median(&bursts) / REFERENCE_UNIT_US
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.client.send(&[]);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The result of an open-loop pass.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub p50_us: f64,
    pub p99_us: f64,
    /// How late the generator ran at worst (actual send minus due time).
    pub late_max_us: f64,
    /// Queries sent and not answered correctly in time: overflowed socket
    /// buffers while a thread of the generator was descheduled, mostly.
    pub lost: u64,
    /// Of those, answers that did arrive and failed verification.
    pub wrong: u64,
}

/// Sends queries on a fixed schedule regardless of answers and times each
/// from when it was *due*, so a stall shows as latency on the queries
/// behind it. One sender and one receiver thread on one socket.
pub fn open_loop(
    server: SocketAddr,
    verifier: Arc<Verifier>,
    rate: f64,
    duration: Duration,
    seed: u64,
) -> std::io::Result<OpenLoop> {
    let total = ((rate * duration.as_secs_f64()) as usize).clamp(1, 60_000);
    let socket = Arc::new(UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?);
    socket.connect(server)?;
    socket.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut rng = client_rng(seed, 99);
    let picker = DomainPicker::new(verifier.domains(), false);
    // The id of query i is i: fewer than 65 536 are ever sent.
    let plan: Arc<Vec<usize>> = Arc::new((0..total).map(|_| picker.pick(&mut rng)).collect());
    let mut wires = verifier.query_wires();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(20);

    let receiver = {
        let socket = Arc::clone(&socket);
        let plan = Arc::clone(&plan);
        std::thread::Builder::new()
            .name("bench-client-rx".into())
            .spawn(move || {
                let mut answered_ns: Vec<Option<u64>> = vec![None; plan.len()];
                let mut buf = vec![0u8; 65_535];
                let (mut seen, mut wrong) = (0, 0u64);
                let give_up = start + interval * plan.len() as u32 + Duration::from_millis(500);
                while seen < plan.len() && Instant::now() < give_up {
                    let Ok(len) = socket.recv(&mut buf) else {
                        continue;
                    };
                    let at = start.elapsed().as_nanos() as u64;
                    if len < 12 {
                        continue;
                    }
                    let id = u16::from_be_bytes([buf[0], buf[1]]);
                    let Some(slot) = answered_ns.get_mut(usize::from(id)) else {
                        continue;
                    };
                    if slot.is_some() {
                        continue;
                    }
                    if verifier
                        .check(plan[usize::from(id)], id, &buf[..len])
                        .is_ok()
                    {
                        *slot = Some(at);
                        seen += 1;
                    } else {
                        wrong += 1;
                    }
                }
                (answered_ns, wrong)
            })?
    };

    let sender = {
        let socket = Arc::clone(&socket);
        let plan = Arc::clone(&plan);
        std::thread::Builder::new()
            .name("bench-client-tx".into())
            .spawn(move || {
                let mut late_max = Duration::ZERO;
                for (i, &domain) in plan.iter().enumerate() {
                    // Sleeping, never spinning: a spinning sender would
                    // take the core from the program. Oversleep
                    // shows as lateness, and latency runs from `due`.
                    let due = start + interval * i as u32;
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    late_max = late_max.max(Instant::now().saturating_duration_since(due));
                    let wire = &mut wires[domain];
                    wire[..2].copy_from_slice(&(i as u16).to_be_bytes());
                    let _ = socket.send(wire);
                }
                late_max
            })?
    };
    let late_max = sender.join().expect("open-loop sender panicked");
    let (answered, wrong) = receiver.join().expect("open-loop receiver panicked");
    let mut latencies: Vec<f64> = answered
        .iter()
        .enumerate()
        .filter_map(|(i, at)| {
            let due = interval.as_nanos() as u64 * i as u64;
            at.map(|at| at.saturating_sub(due) as f64 / 1e3)
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    Ok(OpenLoop {
        p50_us: percentile(&latencies, 0.5),
        p99_us: percentile(&latencies, 0.99),
        late_max_us: late_max.as_nanos() as f64 / 1e3,
        lost: (total - latencies.len()) as u64,
        wrong,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_scales_with_the_host_and_waiting_does_not() {
        // All work: a host twice as slow took twice as long.
        assert_eq!(at_reference_speed(1_000, 1_000, 2.0), 500.0);
        // All waiting: the host's speed is beside the point.
        assert_eq!(at_reference_speed(5_000_000, 0, 2.0), 5_000_000.0);
        // A miss: 2 ms of upstream latency and 0.6 ms of work at 1.5.
        assert_eq!(at_reference_speed(2_600_000, 600_000, 1.5), 2_400_000.0);
        // A faster host than the reference stretches the work.
        assert_eq!(at_reference_speed(800, 800, 0.8), 1_000.0);
        // The CPU clock can run a little past the wall clock it brackets.
        assert_eq!(at_reference_speed(1_000, 1_200, 2.0), 500.0);
    }

    #[test]
    fn a_tally_adds_its_stretches_up_at_both_speeds() {
        let mut tally = Tally::default();
        // Busy throughout, 100 of 1000 ns the client's own, host at 2.
        tally.add_stretch(1_000, 1_000, 100, 2.0);
        // Mostly waiting, host at 1.
        tally.add_stretch(10_000, 1_000, 200, 1.0);
        assert_eq!(tally.wall_ns, 11_000);
        assert_eq!(tally.idle_ns, 9_000);
        assert_eq!(tally.server_cpu_ns, 900 + 800);
        assert_eq!(tally.reference_server_cpu_ns, 450.0 + 800.0);
        assert_eq!(tally.client_cpu_ns, 300);
        assert_eq!(tally.reference_client_cpu_ns, 50.0 + 200.0);
        assert_eq!(tally.reference_wall_ns(), 500.0 + 10_000.0);
        // A core taken away is not waiting; it cannot be more than all of it.
        tally.steal_ns = 4_000;
        assert_eq!(tally.reference_wall_ns(), 500.0 + 6_000.0);
        tally.steal_ns = 20_000;
        assert_eq!(tally.reference_wall_ns(), 500.0 + 1_000.0);
    }

    #[test]
    fn the_echo_answers_and_goes_when_dropped() {
        let mut echo = Echo::start().expect("loopback sockets");
        assert!(echo.rtt_us(400).is_some_and(|us| us > 0.0));
        let slowness = echo.slowness();
        assert!(slowness > 0.0 && slowness.is_finite(), "{slowness}");
        drop(echo); // joins the echo thread
    }
}
