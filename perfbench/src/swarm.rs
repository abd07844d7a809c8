//! The `churn` and `wide` workloads: the islands-churn friending swarm
//! (3 islands 120 m apart, random-waypoint mobility at 8–25 m/s, a
//! re-flood every 5 s capped to the 8 nearest neighbours, 1 s mobility
//! ticks), driven from outside the engine so each layer is timed at its
//! public entry points.

use crate::common::{median, median_ns, pct_us, peak_rss_mb, process_cpu_ms, Layer, Report, Span};
use msb_core::app::{AppEvent, FriendingApp, RefloodPolicy, SwarmSummary};
use msb_core::package::{Reply, RequestPackage};
use msb_core::protocol::{Initiator, ProtocolConfig, ProtocolKind, Responder, ResponderOutcome};
use msb_dataset::placement;
use msb_net::mobility::{Bounds, RandomWaypoint};
use msb_net::{
    DeliveryMode, Metrics, NodeApp, NodeCtx, NodeId, Payload, ShardedSimulator, SimConfig,
    SimDriver, Simulator,
};
use msb_profile::{Attribute, Profile, RequestProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One swarm workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct SwarmSpec {
    pub nodes: usize,
    pub duration_s: u64,
    /// `None` runs the single-threaded `Simulator`; `Some(k)` the
    /// `ShardedSimulator` with `k` shard workers.
    pub shards: Option<usize>,
    pub delivery: DeliveryMode,
    pub region_tiles: usize,
    /// Whether the horizon is long enough for re-flooding to carry the
    /// request to another island (it is not at 5 s: the first re-flood
    /// would land after the request expires).
    pub expect_cross_island: bool,
}

impl SwarmSpec {
    pub fn churn(small: bool) -> Self {
        SwarmSpec {
            nodes: if small { 900 } else { 10_000 },
            duration_s: 40,
            shards: None,
            delivery: DeliveryMode::InMemory,
            region_tiles: SimConfig::default().region_tiles,
            expect_cross_island: true,
        }
    }

    pub fn wide(small: bool) -> Self {
        SwarmSpec {
            nodes: if small { 3_000 } else { 50_000 },
            duration_s: 5,
            shards: Some(2),
            delivery: DeliveryMode::EncodedFrames,
            region_tiles: 4,
            expect_cross_island: false,
        }
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            delivery: self.delivery,
            shards: self.shards.unwrap_or(1),
            region_tiles: self.region_tiles,
            ..SimConfig::default()
        }
    }
}

const ISLANDS: usize = 3;
const GAP_M: f64 = 120.0;
/// m² of island disc per node: about 11 neighbours at the 50 m range.
const AREA_PER_NODE: f64 = 700.0;
const TICK_S: f64 = 1.0;
/// Span ids the app callbacks name as parent, and the round they belong
/// to; set by the drive loop before each engine call.
static PARENT_SPAN: AtomicU64 = AtomicU64::new(0);
static ROUND_ID: AtomicU64 = AtomicU64::new(0);

pub(crate) type Attr = (&'static str, String);

/// The request every swarm runs: one required attribute, three optional,
/// β = 2.
const REQUIRED: (&str, &str) = ("team", "lighthouse");
const OPTIONAL: [(&str, &str); 3] = [("i", "jazz"), ("i", "go"), ("i", "tea")];
const BETA: usize = 2;

pub(crate) fn request() -> RequestProfile {
    RequestProfile::new(
        vec![Attribute::new(REQUIRED.0, REQUIRED.1)],
        OPTIONAL.iter().map(|(c, v)| Attribute::new(*c, *v)).collect(),
        BETA,
    )
    .expect("valid request")
}

/// The benchmark's own predicate: all required attributes and at least
/// β of the optional ones.
fn satisfies(attrs: &[Attr]) -> bool {
    let has = |c: &str, v: &str| attrs.iter().any(|(ac, av)| *ac == c && av == v);
    has(REQUIRED.0, REQUIRED.1) && OPTIONAL.iter().filter(|(c, v)| has(c, v)).count() >= BETA
}

/// Node profiles drawn from the seed: about 1% satisfy the request
/// (with two or three optional attributes), about 1% miss it narrowly
/// (the required one plus one optional, or the optional ones without
/// the required), and the rest own unrelated attributes. Node 0 is the
/// initiator.
pub(crate) fn profiles(n: usize, seed: u64) -> Vec<Vec<Attr>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA77);
    let opt = |k: usize| -> Attr { (OPTIONAL[k].0, OPTIONAL[k].1.to_string()) };
    let req = || -> Attr { (REQUIRED.0, REQUIRED.1.to_string()) };
    (0..n)
        .map(|i| {
            let noise = vec![("hobby", format!("n{i}")), ("city", format!("c{i}"))];
            if i == 0 {
                return noise;
            }
            match rng.gen_range(0..1000u32) {
                0..=4 => vec![req(), opt(0), opt(1), opt(2)],
                5..=9 => {
                    let skip = rng.gen_range(0..3usize);
                    let mut v = vec![req()];
                    v.extend((0..3).filter(|&k| k != skip).map(opt));
                    v
                }
                10..=14 => vec![req(), opt(rng.gen_range(0..3usize)), ("city", format!("c{i}"))],
                15..=19 => vec![opt(0), opt(1), opt(2)],
                _ => noise,
            }
        })
        .collect()
}

/// The benchmark's wrapper around each node's `FriendingApp`: forwards
/// every callback and, in the traced run, times it.
pub struct Probe {
    pub app: FriendingApp,
    traced: bool,
    /// Records a span per callback (the initiator and true matches).
    sampled: bool,
    msg_ns: u64,
    timer_ns: u64,
    callbacks: u64,
    /// Set on the initiator: replies it rejected, with the arrival time.
    watch_rejections: bool,
    rejected: Vec<(u32, u64)>,
}

impl Probe {
    fn timed(&mut self, layer: Layer, f: impl FnOnce(&mut FriendingApp)) -> u64 {
        self.callbacks += 1;
        if self.sampled {
            let span = Span::begin(
                layer,
                PARENT_SPAN.load(Ordering::Relaxed),
                ROUND_ID.load(Ordering::Relaxed),
            );
            f(&mut self.app);
            span.end()
        } else {
            let t = Instant::now();
            f(&mut self.app);
            t.elapsed().as_nanos() as u64
        }
    }
}

impl NodeApp for Probe {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.app.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, payload: &Payload) {
        if self.watch_rejections {
            let (now, seen) = (ctx.now_us(), self.app.events.len());
            self.forward_message(ctx, from, payload);
            for event in &self.app.events[seen..] {
                if let AppEvent::ReplyRejected { responder } = event {
                    self.rejected.push((*responder, now));
                }
            }
        } else {
            self.forward_message(ctx, from, payload);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if !self.traced {
            self.app.on_timer(ctx, token);
            return;
        }
        self.timer_ns += self.timed(Layer::AppTimer, |app| app.on_timer(ctx, token));
    }
}

impl Probe {
    fn forward_message(&mut self, ctx: &mut NodeCtx<'_>, from: NodeId, payload: &Payload) {
        if !self.traced {
            self.app.on_message(ctx, from, payload);
            return;
        }
        self.msg_ns += self.timed(Layer::AppMessage, |app| app.on_message(ctx, from, payload));
    }
}

// One engine exists per round, so the variants' size difference is moot.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Single(Simulator<Probe>),
    Sharded(ShardedSimulator<Probe>),
}

impl Engine {
    fn driver(&mut self) -> &mut dyn SimDriver {
        match self {
            Engine::Single(s) => s,
            Engine::Sharded(s) => s,
        }
    }

    fn app(&self, i: usize) -> &Probe {
        match self {
            Engine::Single(s) => s.app(NodeId::new(i as u32)),
            Engine::Sharded(s) => s.app(NodeId::new(i as u32)),
        }
    }

    fn metrics(&self) -> Metrics {
        match self {
            Engine::Single(s) => *s.metrics(),
            Engine::Sharded(s) => s.metrics(),
        }
    }

    fn shortest_path(&mut self, a: usize, b: usize) -> Option<Vec<NodeId>> {
        let (a, b) = (NodeId::new(a as u32), NodeId::new(b as u32));
        match self {
            Engine::Single(s) => s.shortest_path(a, b),
            Engine::Sharded(s) => s.shortest_path(a, b),
        }
    }
}

/// Index of the island whose centre is nearest to `p`.
fn island_of(layout: &placement::IslandLayout, p: (f64, f64)) -> usize {
    let d2 = |i: usize| {
        let c = layout.center(i);
        (c.0 - p.0).powi(2) + (c.1 - p.1).powi(2)
    };
    (0..ISLANDS).min_by(|&a, &b| d2(a).total_cmp(&d2(b))).expect("at least one island")
}

struct RoundOut {
    setup_s: f64,
    /// Wall time of the drive loop, for the log.
    drive_s: f64,
    tick_ns: Vec<u64>,
    layers: Vec<(&'static str, f64)>,
}

fn protocol_config(spec: &SwarmSpec) -> ProtocolConfig {
    let mut config = ProtocolConfig::new(ProtocolKind::P1, 11);
    // The churn scenario floods without a hop limit and lets the
    // request (and with it re-flooding) expire at the horizon.
    config.ttl = 255;
    config.validity_us = spec.duration_s * 1_000_000;
    config
}

fn run_round(
    spec: &SwarmSpec,
    seed: u64,
    round: u64,
    traced: bool,
    report: &mut Report,
) -> RoundOut {
    ROUND_ID.store(round, Ordering::Relaxed);
    let setup = Instant::now();
    let n = spec.nodes;
    let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
    let (mut positions, layout) = placement::islands(n, ISLANDS, AREA_PER_NODE, GAP_M, &mut rng);
    // The initiator starts at the centre of its island (node 0 lives on
    // island 0). Reply routing explores the graph between each responder
    // and the initiator, so a seed that put it at the rim would double
    // the routing work of one that put it in the middle.
    positions[0] = layout.center(0);
    let mut mobility = RandomWaypoint::from_positions(
        positions.clone(),
        Bounds { width: layout.side, height: layout.side },
        8.0,
        25.0,
        1.0,
        seed ^ 0x5eed,
    );
    let attrs = profiles(n, seed);
    let truth: Vec<bool> = attrs.iter().map(|a| satisfies(a)).collect();
    let config = protocol_config(spec);
    let policy = RefloodPolicy::every(5_000_000).with_fanout_cap(8);
    let apps = positions.iter().zip(&attrs).enumerate().map(|(i, (&pos, a))| {
        let profile = Profile::from_attributes(a.iter().map(|(c, v)| Attribute::new(*c, v)));
        let app = if i == 0 {
            FriendingApp::initiator(profile, request(), config.clone())
        } else {
            FriendingApp::participant(profile, config.clone())
        };
        let probe = Probe {
            app: app.with_reflood(policy),
            traced,
            sampled: traced && (i == 0 || truth[i]),
            msg_ns: 0,
            timer_ns: 0,
            callbacks: 0,
            watch_rejections: i == 0,
            rejected: Vec::new(),
        };
        (pos, probe)
    });
    let sim_config = spec.sim_config();
    let mut engine = match spec.shards {
        None => {
            let mut s = Simulator::new(sim_config, seed);
            s.add_nodes(apps);
            Engine::Single(s)
        }
        Some(_) => {
            let mut s = ShardedSimulator::new(sim_config, seed);
            s.add_nodes(apps);
            if traced {
                // Counters only: the engine's own trace ring stays empty.
                s.enable_telemetry(0);
            }
            Engine::Sharded(s)
        }
    };
    let setup_s = setup.elapsed().as_secs_f64();

    // The drive loop: events up to each tick boundary, then one
    // mobility step for every node.
    let cpu0 = process_cpu_ms();
    let ticks = (spec.duration_s as f64 / TICK_S).ceil() as u64;
    let mut buf = Vec::with_capacity(n);
    let mut tick_ns = Vec::with_capacity(ticks as usize);
    let (mut engine_ns, mut mobility_ns, mut set_ns) = (0u64, 0u64, 0u64);
    let round_span = Span::begin(Layer::Round, 0, round);
    let drive = Instant::now();
    let timed = |layer: Layer, f: &mut dyn FnMut()| -> u64 {
        if traced {
            let span = Span::begin(layer, round_span.id, round);
            PARENT_SPAN.store(span.id, Ordering::Relaxed);
            f();
            span.end()
        } else {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        }
    };
    for tick in 1..=ticks {
        let t = Instant::now();
        let deadline = (tick as f64 * TICK_S * 1e6) as u64;
        engine_ns += timed(Layer::EngineRun, &mut || {
            if tick == 1 {
                engine.driver().start();
            }
            engine.driver().run_until(deadline);
            if tick == ticks {
                engine.driver().run();
            }
        });
        mobility_ns += timed(Layer::Mobility, &mut || {
            mobility.advance_positions_into(TICK_S, &mut buf);
        });
        set_ns += timed(Layer::SetPositions, &mut || engine.driver().set_positions(&buf));
        tick_ns.push(t.elapsed().as_nanos() as u64);
    }
    let drive_s = drive.elapsed().as_secs_f64();
    let cpu_ms = process_cpu_ms() - cpu0;
    if traced {
        round_span.end();
    }

    // Output checks.
    let metrics = engine.metrics();
    let initiator = engine.app(0).app.initiator_state().expect("node 0 initiates");
    let x = *initiator.x();
    let matches = initiator.matches().to_vec();
    let base_latency = sim_config.base_latency_us;
    let mut confirmed = vec![false; n];
    for m in &matches {
        let r = m.responder as usize;
        report.check(r < n && truth[r], || format!("node {r} confirmed but fails the predicate"));
        if r >= n {
            continue;
        }
        report.check(!confirmed[r], || format!("node {r} confirmed twice"));
        confirmed[r] = true;
        let agrees = engine.app(r).app.sessions().iter().any(|s| s.x == x && s.y == m.y);
        report
            .check(agrees, || format!("node {r} holds no session secret equal to the initiator's"));
        report.check(m.received_at_us >= 2 * base_latency, || {
            format!("match with {r} after {} us, under two radio latencies", m.received_at_us)
        });
    }
    report.check(!matches.is_empty(), || "no match confirmed".into());
    let home = island_of(&layout, positions[0]);
    let cross = matches
        .iter()
        .filter(|m| island_of(&layout, positions[m.responder as usize]) != home)
        .count();
    if spec.expect_cross_island {
        report.check(cross > 0, || "no cross-island match".into());
    }
    // Operations: replies from true matches that reached the initiator
    // inside its reply window; a failure is one it did not confirm, and
    // fails the run. Replies that arrive late, or find no route, are
    // counted apart (`app.late_replies`, `net.unroutable`): how many
    // there are depends on the seed's mobility, and a failure count
    // must be the same share of the operations whatever the seed.
    let window = config.reply_window_us;
    let true_rejects: Vec<(u32, u64)> = engine
        .app(0)
        .rejected
        .iter()
        .copied()
        .filter(|&(r, _)| truth.get(r as usize) == Some(&true))
        .collect();
    let in_time: Vec<u32> =
        true_rejects.iter().filter(|&&(_, at)| at <= window).map(|&(r, _)| r).collect();
    let late = true_rejects.len() - in_time.len();
    report.check(in_time.is_empty(), || {
        format!("initiator rejected in-time replies from true matches {in_time:?}")
    });
    let all_late = engine.app(0).rejected.iter().filter(|&&(_, at)| at > window).count();
    report.check(initiator.reject_log().late == all_late, || {
        format!(
            "{all_late} replies arrived after the window, the initiator logged {} as late",
            initiator.reject_log().late
        )
    });
    let mut replied = 0usize;
    for (i, &t) in truth.iter().enumerate() {
        if t && engine.app(i).app.events.iter().any(|e| matches!(e, AppEvent::ReplySent { .. })) {
            replied += 1;
        }
    }
    let arrived = matches.len() + true_rejects.len();
    report.check(replied >= arrived && (replied - arrived) as u64 <= metrics.unroutable, || {
        format!(
            "{replied} true-match replies sent, {arrived} arrived, {} unroutable: replies went missing",
            metrics.unroutable
        )
    });
    report.attempted += (matches.len() + in_time.len()) as u64;
    report.failed += in_time.len() as u64;

    let mut layers = Vec::new();
    if traced {
        layers = swarm_layers(spec, &mut engine, &metrics, &matches, &config);
        let (mut msg_ns, mut timer_ns, mut callbacks) = (0u64, 0u64, 0u64);
        for i in 0..n {
            let p = engine.app(i);
            msg_ns += p.msg_ns;
            timer_ns += p.timer_ns;
            callbacks += p.callbacks;
        }
        let summary = SwarmSummary::from_event_logs((0..n).map(|i| &engine.app(i).app));
        let workers = spec.shards.unwrap_or(1) as f64;
        let app_ms = (msg_ns + timer_ns) as f64 / 1e6;
        layers.extend([
            ("app.message_ms", msg_ns as f64 / 1e6),
            ("app.timer_ms", timer_ns as f64 / 1e6),
            ("app.callbacks", callbacks as f64),
            ("app.relays", summary.relays as f64),
            ("app.refloods", summary.refloods as f64),
            ("app.candidates", summary.candidates as f64),
            ("app.replies", summary.replies as f64),
            ("app.matches", summary.matches as f64),
            ("app.late_replies", late as f64),
            ("net.unroutable", metrics.unroutable as f64),
            ("engine.self_ms", engine_ns as f64 / 1e6 - app_ms / workers),
            ("net.us_per_event", drive_s * 1e6 / metrics.events_scheduled.max(1) as f64),
            ("mobility.advance_ms", mobility_ns as f64 / 1e6),
            ("net.set_positions_ms", set_ns as f64 / 1e6),
            ("proc.cpu_ms", cpu_ms),
        ]);
    }
    // Free the swarm outside any timed section.
    drop(engine);
    RoundOut { setup_s, drive_s, tick_ns, layers }
}

/// Engine counters, routing probes and codec costs of one finished round.
fn swarm_layers(
    spec: &SwarmSpec,
    engine: &mut Engine,
    metrics: &Metrics,
    matches: &[msb_core::protocol::ConfirmedMatch],
    config: &ProtocolConfig,
) -> Vec<(&'static str, f64)> {
    let mut layers = vec![
        ("net.events", metrics.events_scheduled as f64),
        ("net.peak_queue", metrics.peak_queue_len as f64),
        ("net.broadcasts", metrics.broadcasts as f64),
        ("net.delivered", metrics.delivered as f64),
        ("net.unicasts", metrics.unicasts as f64),
        ("net.unicast_hops", metrics.unicast_hops as f64),
        ("net.cells_scanned", metrics.cells_scanned as f64),
        ("net.payload_bytes", metrics.payload_bytes as f64),
        ("net.neighbor_queries", metrics.neighbor_queries as f64),
    ];
    if let Engine::Sharded(s) = engine {
        let telemetry = s.telemetry();
        let set = telemetry.metrics();
        let pops: Vec<u64> =
            (0..s.shard_count() as u32).map(|k| set.counter("shard.pops", k)).collect();
        layers.extend([
            ("shard.pops_max", pops.iter().copied().max().unwrap_or(0) as f64),
            ("shard.pops_total", set.counter_total("shard.pops") as f64),
            ("shard.ingested", set.counter_total("shard.ingested") as f64),
            ("shard.outbound", set.counter_total("shard.outbound") as f64),
            ("batch.envelopes", set.counter_total("batch.envelopes") as f64),
            ("batch.sends", set.counter_total("batch.sends") as f64),
            (
                "shard.resident_bytes_max",
                s.shard_resident_bytes().into_iter().max().unwrap_or(0) as f64,
            ),
            ("shard.topo_bytes", s.shared_topology_bytes() as f64),
        ]);
    }
    // Routing: the public BFS between the initiator and confirmed
    // responders on the final topology (at most 16 probes: one BFS
    // explores a whole component).
    let mut probe_ns: Vec<u64> = matches
        .iter()
        .take(16)
        .map(|m| {
            let t = Instant::now();
            black_box(engine.shortest_path(0, m.responder as usize));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    layers.push((
        "route.probe_us",
        if probe_ns.is_empty() { 0.0 } else { pct_us(&mut probe_ns, 0.5) },
    ));

    // The workload's own request and a reply to it.
    let mut rng = StdRng::seed_from_u64(spec.nodes as u64);
    let (_, package) = Initiator::create(&request(), 0, config, 0, &mut rng);
    let matcher = Profile::from_attributes(
        std::iter::once(Attribute::new(REQUIRED.0, REQUIRED.1))
            .chain(OPTIONAL.iter().map(|(c, v)| Attribute::new(*c, *v))),
    );
    let reply = match Responder::new(1, matcher, config).handle(&package, 0, &mut rng) {
        ResponderOutcome::Reply { reply, .. } => reply,
        other => panic!("a full match must reply, got {other:?}"),
    };
    layers.extend(wire_layers(&package, &reply));
    layers.push((
        "core.request_id_ns",
        median_ns(31, 200, || {
            black_box(black_box(&package).request_id());
        }),
    ));
    layers
}

/// Codec costs of one request and one reply frame, in ns per call.
pub fn wire_layers(package: &RequestPackage, reply: &Reply) -> Vec<(&'static str, f64)> {
    let frame = package.encode();
    let reply_frame = reply.encode();
    vec![
        (
            "wire.request_encode_ns",
            median_ns(31, 100, || {
                black_box(black_box(package).encode());
            }),
        ),
        (
            "wire.request_decode_ns",
            median_ns(31, 100, || {
                black_box(RequestPackage::decode(black_box(&frame)).expect("own frame decodes"));
            }),
        ),
        (
            "wire.reply_decode_ns",
            median_ns(31, 100, || {
                black_box(Reply::decode(black_box(&reply_frame)).expect("own frame decodes"));
            }),
        ),
    ]
}

/// Runs whole rounds of the swarm (each rebuilt from the same seed)
/// until `seconds` have passed.
pub fn run(spec: SwarmSpec, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let start = Instant::now();
    let mut rounds: Vec<RoundOut> = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let out = run_round(&spec, seed, rounds.len() as u64 + 1, traced, &mut report);
        rounds.push(out);
    }
    // Totals over all rounds: the host's speed drifts over seconds, and
    // a total moves smoothly with the share of slow periods where a
    // median of a few rounds jumps between them.
    let mut ticks: Vec<u64> = rounds.iter().flat_map(|r| r.tick_ns.iter().copied()).collect();
    let drive_s = ticks.iter().sum::<u64>() as f64 / 1e9;
    let node_seconds = (spec.nodes as u64 * spec.duration_s * rounds.len() as u64) as f64;
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    report.e2e("setup_s", median(&setups));
    report.e2e("peak_rss_mb", peak_rss_mb());
    report.e2e("throughput_per_s", node_seconds / drive_s);
    report.e2e("op_p50_us", pct_us(&mut ticks, 0.5));
    if traced {
        report.layer("op_p99_us", pct_us(&mut ticks, 0.99));
        for (name, _) in &rounds[0].layers {
            let values: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.layers.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                .collect();
            report.layer(name, median(&values));
        }
    }
    for (i, r) in rounds.iter().enumerate() {
        eprintln!("round {}: setup {:.3} s, drive {:.3} s", i + 1, r.setup_s, r.drive_s);
    }
    report
}
