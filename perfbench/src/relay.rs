//! The `relay` workload: one in-process `RelayServer` on loopback TCP,
//! driven closed-loop by one client thread over two connections. Each
//! round carries one friending request through the relay the way the
//! `churn` swarm carries it by radio: the request is broadcast to every
//! registered id, every member of the population whose `Responder`
//! replies to it deposits its reply for the initiator, and every member
//! then fetches its inbox once (a fetcher connection identifies as each
//! id in turn and drains it). The benchmark keeps its own model of
//! every inbox and checks each ack and each fetched bottle against it.

use crate::common::{
    median, pct_us, peak_rss_mb, pin_to_one_cpu, process_cpu_ms, thread_cpu_ms, Latencies, Layer,
    Report, Span,
};
use crate::swarm;
use bytes::Bytes;
use msb_core::protocol::{Initiator, ProtocolConfig, ProtocolKind, Responder, ResponderOutcome};
use msb_profile::{Attribute, Profile};
use msb_server::{AckCode, RelayClient, RelayServer, ServerConfig, BROADCAST};
use msb_wire::{FrameKind, FRAME_HEADER_LEN, MAGIC, VERSION};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Instant;

/// Registered population (ids `0..population`); the depositor is one
/// more registered id. Set-ups per run, each on a fresh server;
/// `setup_s` is their median.
fn shape(small: bool) -> (u32, usize) {
    if small {
        (400, 2)
    } else {
        (10_000, 5)
    }
}

/// Payload sizes of the large bottles, `fig11_relay`'s two largest.
const LARGE_PAYLOADS: [usize; 2] = [8192, 16384];

/// The bottles a run deposits, indexed by protocol kind (P1, P2): the
/// `churn` swarm's request, and the replies the population's
/// responders give to it.
struct Pool {
    requests: [Bytes; 2],
    replies: [Vec<Bytes>; 2],
    /// `fig11_relay`'s bottles: a request envelope over filler bytes.
    large: [Bytes; 2],
}

/// Builds the pool from the same profile model as the swarm workloads,
/// so about 1% of the population replies.
fn pool(population: u32, seed: u64) -> Pool {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB077);
    let profiles: Vec<Profile> = swarm::profiles(population as usize, seed)
        .iter()
        .map(|a| Profile::from_attributes(a.iter().map(|(c, v)| Attribute::new(*c, v))))
        .collect();
    let mut frames = |kind: ProtocolKind| {
        let config = ProtocolConfig::new(kind, 11);
        let (_, package) = Initiator::create(&swarm::request(), 0, &config, 0, &mut rng);
        let replies: Vec<Bytes> = profiles
            .iter()
            .enumerate()
            .filter_map(|(i, profile)| {
                match Responder::new(i as u32, profile.clone(), &config)
                    .handle(&package, 0, &mut rng)
                {
                    ResponderOutcome::Reply { reply, .. } => Some(Bytes::from(reply.encode())),
                    _ => None,
                }
            })
            .collect();
        (Bytes::from(package.encode()), replies)
    };
    let (r1, p1) = frames(ProtocolKind::P1);
    let (r2, p2) = frames(ProtocolKind::P2);
    let large = LARGE_PAYLOADS.map(|payload| {
        let mut f = Vec::with_capacity(FRAME_HEADER_LEN + payload);
        f.extend_from_slice(&MAGIC);
        f.push(VERSION);
        f.push(FrameKind::Request as u8);
        f.extend_from_slice(&(payload as u32).to_be_bytes());
        f.extend(std::iter::repeat_n(0xB0, payload));
        Bytes::from(f)
    });
    let sizes = |v: &[Bytes]| {
        let lens = v.iter().map(Bytes::len);
        (lens.clone().min().unwrap_or(0), lens.max().unwrap_or(0))
    };
    eprintln!(
        "pool: requests {} B (P1) and {} B (P2); {} and {} replies of {:?} and {:?} B",
        r1.len(),
        r2.len(),
        p1.len(),
        p2.len(),
        sizes(&p1),
        sizes(&p2)
    );
    Pool { requests: [r1, r2], replies: [p1, p2], large }
}

struct Tally {
    /// Record a span per exchange.
    traced: bool,
    /// Every exchange, re-hellos included.
    exchanges: u64,
    failed: u64,
    deposited: u64,
    fanout_copies: u64,
    delivered: u64,
    fetch_batches: u64,
    bytes_out: u64,
    /// Client round trips of the timed phase, by kind.
    deposits: Latencies,
    fetches: Latencies,
    rehellos: Latencies,
    /// Deposits and fetches of each round, and the client time in them.
    rounds: Vec<(u64, f64)>,
    /// Registration hellos of the last set-up.
    hello_ns: Vec<u64>,
}

impl Tally {
    fn new(traced: bool) -> Self {
        Tally {
            traced,
            exchanges: 0,
            failed: 0,
            deposited: 0,
            fanout_copies: 0,
            delivered: 0,
            fetch_batches: 0,
            bytes_out: 0,
            deposits: Latencies::new(),
            fetches: Latencies::new(),
            rehellos: Latencies::new(),
            rounds: Vec::new(),
            hello_ns: Vec::new(),
        }
    }

    /// Deposits and fetches so far, and the client time in them.
    fn counted(&self) -> (u64, f64) {
        (self.deposits.len() + self.fetches.len(), self.deposits.sum_s() + self.fetches.sum_s())
    }
}

/// One timed client call: its latency joins `sink`; traced runs record
/// a span.
fn call<T>(
    tally: &mut Tally,
    layer: Layer,
    (parent, request): (u64, u64),
    sink: fn(&mut Tally) -> &mut Latencies,
    f: impl FnOnce() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let span = tally.traced.then(|| Span::begin(layer, parent, request));
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    if let Some(span) = span {
        span.end();
    }
    tally.exchanges += 1;
    sink(tally).push(ns);
    out
}

/// A relay with the population registered: the server, the depositor
/// connection and the fetcher connection.
struct Relay {
    server: RelayServer,
    depositor: RelayClient,
    fetcher: RelayClient,
    population: u32,
    cap: usize,
}

fn set_up(population: u32, report: &mut Report, tally: &mut Tally) -> std::io::Result<Relay> {
    let config = ServerConfig {
        // One depositor stands for the whole population's traffic.
        guard_max_in_window: usize::MAX,
        ..ServerConfig::default()
    };
    let cap = config.max_per_recipient;
    let server = RelayServer::spawn(config)?;
    let mut depositor = RelayClient::connect(server.addr())?;
    let mut fetcher = RelayClient::connect(server.addr())?;
    for id in 0..population {
        let t = Instant::now();
        let ack = fetcher.hello(id)?;
        tally.hello_ns.push(t.elapsed().as_nanos() as u64);
        report.check(ack.code == AckCode::Ok, || format!("hello {id} answered {:?}", ack.code));
    }
    let ack = depositor.hello(population)?;
    report.check(ack.code == AckCode::Ok, || format!("depositor hello answered {:?}", ack.code));
    Ok(Relay { server, depositor, fetcher, population, cap })
}

/// Rounds of traffic until `seconds` have passed, every bottle checked
/// against the benchmark's model of the inboxes.
fn traffic(
    pool: &Pool,
    relay: &mut Relay,
    seed: u64,
    seconds: f64,
    report: &mut Report,
    tally: &mut Tally,
) -> std::io::Result<()> {
    let population = relay.population;
    let sender = population;
    let Relay { depositor, fetcher, cap, .. } = relay;
    let cap = *cap;
    // The model: each inbox's pending bottles.
    let mut inbox: Vec<VecDeque<&Bytes>> = vec![VecDeque::new(); population as usize];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E1A);
    let mut round = 0u64;
    let start = Instant::now();
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        round += 1;
        let before = tally.counted();
        let round_span = tally.traced.then(|| Span::begin(Layer::Round, 0, round));
        let at = (round_span.map_or(0, |s| s.id), round);
        // Rounds alternate Protocol 1 and Protocol 2 requests.
        let kind = (round % 2) as usize;
        let initiator = rng.gen_range(0..population);
        let deposits = std::iter::once((BROADCAST, &pool.requests[kind]))
            .chain(pool.replies[kind].iter().map(|r| (initiator, r)))
            .chain(std::iter::once((rng.gen_range(0..population), &pool.large[kind])));
        for (to, bottle) in deposits {
            let ack = call(
                tally,
                Layer::RelayDeposit,
                at,
                |t| &mut t.deposits,
                || depositor.deposit(to, bottle.clone()),
            )?;
            tally.deposited += 1;
            let expected = if to == BROADCAST {
                let mut copies = 0;
                for q in inbox.iter_mut().filter(|q| q.len() < cap) {
                    q.push_back(bottle);
                    copies += 1;
                }
                tally.fanout_copies += u64::from(ack.info);
                copies
            } else {
                inbox[to as usize].push_back(bottle);
                1
            };
            let ok = ack.code == AckCode::Ok && ack.info == expected;
            report.check(ok, || {
                format!(
                    "deposit to {to} acked {:?} with {} copies, expected {expected}",
                    ack.code, ack.info
                )
            });
            tally.failed += u64::from(!ok);
        }
        // Every member fetches its inbox once, in an order drawn per
        // round.
        let offset = rng.gen_range(0..population);
        for k in 0..population {
            let me = (offset + k) % population;
            let ack =
                call(tally, Layer::RelayHello, at, |t| &mut t.rehellos, || fetcher.hello(me))?;
            let ok = ack.code == AckCode::Ok;
            report.check(ok, || format!("hello {me} answered {:?}", ack.code));
            tally.failed += u64::from(!ok);
            loop {
                let batch =
                    call(tally, Layer::RelayFetch, at, |t| &mut t.fetches, || fetcher.fetch(0))?;
                let queue = &mut inbox[me as usize];
                let mut ok = !batch.is_empty() || queue.is_empty();
                if !batch.is_empty() {
                    tally.fetch_batches += 1;
                }
                for got in &batch {
                    tally.delivered += 1;
                    tally.bytes_out += got.frame.len() as u64;
                    let want = queue.pop_front();
                    ok &= got.from == sender && want.is_some_and(|w| w[..] == got.frame[..]);
                }
                report.check(ok, || {
                    format!("inbox {me}: fetched bottles differ from those deposited")
                });
                if !ok {
                    tally.failed += 1;
                    queue.clear();
                }
                if queue.is_empty() {
                    break;
                }
            }
        }
        if let Some(span) = round_span {
            span.end();
        }
        let after = tally.counted();
        tally.rounds.push((after.0 - before.0, after.1 - before.1));
    }
    let pending: u64 = inbox.iter().map(|q| q.len() as u64).sum();
    let stats = relay.server.stats();
    report.check(stats.inbox_depth == pending, || {
        format!("server holds {} bottles, model {pending}", stats.inbox_depth)
    });
    Ok(())
}

/// Checks the server's counters against the client's tallies.
fn check_counters(relay: &Relay, tally: &Tally, report: &mut Report) -> msb_server::MetricsDump {
    // A connection thread counts a response after writing it, so the
    // last one can reach the client before the server's tally does.
    let mut dump = relay.server.metrics();
    for _ in 0..100 {
        if dump.stats.frames_out >= dump.stats.frames_in {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        dump = relay.server.metrics();
    }
    let stats = &dump.stats;
    // Set-up sent one hello per population id plus the depositor's.
    let population = u64::from(relay.population);
    let client_frames = tally.exchanges + population + 1;
    report.check(stats.deposits_accepted == tally.deposited, || {
        format!(
            "server accepted {} deposits, client made {}",
            stats.deposits_accepted, tally.deposited
        )
    });
    report.check(stats.messages_delivered == tally.delivered, || {
        format!(
            "server delivered {} bottles, client received {}",
            stats.messages_delivered, tally.delivered
        )
    });
    report.check(stats.frames_in == client_frames && stats.frames_out == client_frames, || {
        format!(
            "server saw {}/{} frames in/out, client sent {client_frames}",
            stats.frames_in, stats.frames_out
        )
    });
    report.check(stats.registered_clients == population + 1, || {
        format!("{} clients registered, expected {}", stats.registered_clients, population + 1)
    });
    dump
}

pub fn run(seed: u64, seconds: f64, traced: bool, small: bool) -> Report {
    let mut report = Report::default();
    let mut tally = Tally::new(traced);
    // The client, the server's connection threads and its sweeps share
    // one CPU, started after this call: each exchange then measures the
    // relay's own work and the socket calls, not how quickly the
    // virtual machine wakes a thread on the other CPU.
    match pin_to_one_cpu() {
        Some(cpu) => eprintln!("relay: pinned to CPU {cpu}"),
        None => eprintln!("relay: could not pin to one CPU"),
    }
    match drive(small, seed, seconds, &mut report, &mut tally) {
        Ok(()) => {}
        Err(e) => report.check(false, || format!("relay I/O failed: {e}")),
    }
    report
}

fn drive(
    small: bool,
    seed: u64,
    seconds: f64,
    report: &mut Report,
    tally: &mut Tally,
) -> std::io::Result<()> {
    let (population, setup_count) = shape(small);
    let pool = pool(population, seed);
    // Several set-ups, each on a fresh server; the traffic runs on the
    // last one alone, so peak memory is one server's.
    let mut setups = Vec::new();
    let mut relay = None;
    for _ in 0..setup_count {
        // Dropping a relay shuts its server down.
        drop(relay.take());
        tally.hello_ns.clear();
        let t = Instant::now();
        relay = Some(set_up(population, report, tally)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut relay = relay.expect("at least one set-up");
    let cpu0 = (process_cpu_ms(), thread_cpu_ms());
    traffic(&pool, &mut relay, seed, seconds, report, tally)?;
    let client_cpu_ms = thread_cpu_ms() - cpu0.1;
    let process_ms = process_cpu_ms() - cpu0.0;
    let dump = check_counters(&relay, tally, report);
    relay.server.shutdown();

    // Throughput and latency count deposits and fetches, the exchanges
    // a member of the population makes; the re-hellos stand in for the
    // population's own connections and are reported apart. Throughput
    // is the median round's: a stall of the shared host then moves the
    // round it falls in, not the run's figure.
    let round_rates: Vec<f64> = tally.rounds.iter().map(|&(ops, s)| ops as f64 / s).collect();
    let mut ops = Latencies::new();
    ops.merge(&tally.deposits);
    ops.merge(&tally.fetches);
    report.attempted = tally.exchanges;
    report.failed = tally.failed;
    report.e2e("setup_s", median(&setups));
    report.e2e("peak_rss_mb", peak_rss_mb());
    report.e2e("throughput_per_s", median(&round_rates));
    report.e2e("op_p50_us", ops.pct_us(0.5));
    if tally.traced {
        report.layer("op_p99_us", ops.pct_us(0.99));
        let stats = &dump.stats;
        let dep50 = tally.deposits.pct_us(0.5);
        let fetch50 = tally.fetches.pct_us(0.5);
        let svc = |h: &msb_telemetry::LogHistogram, q| h.percentile(q).unwrap_or(0) as f64;
        let (sd50, sf50) = (svc(&dump.deposit_service_us, 0.5), svc(&dump.fetch_service_us, 0.5));
        let layers = [
            ("relay.deposit_p50_us", dep50),
            ("relay.deposit_p99_us", tally.deposits.pct_us(0.99)),
            ("relay.fetch_p50_us", fetch50),
            ("relay.fetch_p99_us", tally.fetches.pct_us(0.99)),
            ("relay.deposits_per_s", tally.deposits.len() as f64 / tally.deposits.sum_s()),
            ("relay.fetches_per_s", tally.fetches.len() as f64 / tally.fetches.sum_s()),
            ("relay.rehellos", tally.rehellos.len() as f64),
            ("relay.rehello_us", tally.rehellos.pct_us(0.5)),
            ("service.deposit_p50_us", sd50),
            ("service.deposit_p99_us", svc(&dump.deposit_service_us, 0.99)),
            ("service.fetch_p50_us", sf50),
            ("service.fetch_p99_us", svc(&dump.fetch_service_us, 0.99)),
            ("gateway.deposit_us", dep50 - sd50),
            ("gateway.fetch_us", fetch50 - sf50),
            ("relay.hello_us", pct_us(&mut tally.hello_ns, 0.5)),
            ("server.cpu_ms", process_ms - client_cpu_ms),
            ("proc.cpu_ms", process_ms),
            ("storage.inbox_depth_peak", dump.inbox_depth_peak as f64),
            ("storage.registered", stats.registered_clients as f64),
            ("storage.fanout_copies", tally.fanout_copies as f64),
            ("storage.expired", stats.inbox_expired as f64),
            ("service.frames_in", stats.frames_in as f64),
            ("service.frames_out", stats.frames_out as f64),
            ("service.messages_delivered", stats.messages_delivered as f64),
            ("relay.fetch_batches", tally.fetch_batches as f64),
            ("relay.bytes_out", tally.bytes_out as f64),
        ];
        for (name, v) in layers {
            report.layer(name, v);
        }
    }
    Ok(())
}
