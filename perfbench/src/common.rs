//! Shared plumbing: the run report, percentiles, process gauges and the
//! span recorder the traced run writes out as a Chrome trace.

use msb_telemetry::{TraceBuffer, TraceEvent, TraceTag};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Everything one run prints: the operation accounting plus two metric
/// sets, of which the last JSON line carries the one the run's mode
/// asks for.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub violations: Vec<String>,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.end_to_end.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.push((name, value));
    }

    /// Records an output check; a failed one makes the run exit non-zero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let line = what();
            if self.violations.len() < 20 {
                eprintln!("check failed: {line}");
            }
            self.violations.push(line);
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
pub fn pct_us(samples_ns: &mut [u64], p: f64) -> f64 {
    samples_ns.sort_unstable();
    msb_telemetry::percentile_sorted(samples_ns, p).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// Median wall time of `f` over `reps` calls, in nanoseconds: the
/// per-call cost of a section too short to time alone is taken over
/// batches of `inner` calls.
pub fn median_ns(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_nanos() as f64 / inner as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Latency samples in a fixed footprint: exact counts in 10 ns buckets
/// below 1 ms, and the rare slower samples kept as they are. A run's
/// resident set then does not grow with how many operations the host
/// let it complete, which would move `peak_rss_mb` with the host's
/// speed.
pub struct Latencies {
    fine: Vec<u32>,
    slow: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl Latencies {
    const BUCKET_NS: u64 = 10;
    const FINE_NS: u64 = 1_000_000;

    pub fn new() -> Self {
        let buckets = (Self::FINE_NS / Self::BUCKET_NS) as usize;
        Latencies { fine: vec![0; buckets], slow: Vec::new(), count: 0, sum_ns: 0 }
    }

    pub fn push(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        if ns < Self::FINE_NS {
            self.fine[(ns / Self::BUCKET_NS) as usize] += 1;
        } else {
            self.slow.push(ns);
        }
    }

    pub fn len(&self) -> u64 {
        self.count
    }

    /// Total of all samples, in seconds.
    pub fn sum_s(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    pub fn merge(&mut self, other: &Latencies) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        self.slow.extend_from_slice(&other.slow);
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Nearest-rank percentile in microseconds; a sample below 1 ms
    /// reads as the middle of its 10 ns bucket.
    pub fn pct_us(&mut self, p: f64) -> f64 {
        let Some(rank) = msb_telemetry::nearest_rank(self.count as usize, p) else {
            return 0.0;
        };
        let rank = rank as u64;
        let mut seen = 0u64;
        for (b, &n) in self.fine.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return (b as u64 * Self::BUCKET_NS) as f64 / 1e3 + Self::BUCKET_NS as f64 / 2e3;
            }
        }
        self.slow.sort_unstable();
        self.slow[(rank - seen - 1) as usize] as f64 / 1e3
    }
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User plus system CPU time from a `/proc/.../stat` file, in ms
/// (clock ticks are 10 ms on Linux).
fn stat_cpu_ms(path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 * 10.0
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the lowest-numbered CPU it may run on; returns that CPU. A
/// closed-loop exchange between threads of one process then costs two
/// context switches on one CPU instead of a wake-up sent to another
/// one, whose price in a virtual machine swings with the host's load.
pub fn pin_to_one_cpu() -> Option<usize> {
    // A glibc `cpu_set_t`: 1024 CPUs.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write at most `size` bytes of `mask`.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// CPU time of the whole process, in ms.
pub fn process_cpu_ms() -> f64 {
    stat_cpu_ms("/proc/self/stat")
}

/// CPU time of the calling thread, in ms.
pub fn thread_cpu_ms() -> f64 {
    stat_cpu_ms("/proc/thread-self/stat")
}

/// The span layers of the traced run. A span's layer is its Chrome
/// trace thread (`tid`), named by a metadata event in the export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Round,
    EngineRun,
    Mobility,
    SetPositions,
    AppMessage,
    AppTimer,
    RelayHello,
    RelayDeposit,
    RelayFetch,
}

impl Layer {
    const ALL: [Layer; 9] = [
        Layer::Round,
        Layer::EngineRun,
        Layer::Mobility,
        Layer::SetPositions,
        Layer::AppMessage,
        Layer::AppTimer,
        Layer::RelayHello,
        Layer::RelayDeposit,
        Layer::RelayFetch,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Round => "bench.round",
            Layer::EngineRun => "net.run_until",
            Layer::Mobility => "mobility.advance_positions_into",
            Layer::SetPositions => "net.set_positions",
            Layer::AppMessage => "app.on_message",
            Layer::AppTimer => "app.on_timer",
            Layer::RelayHello => "client.hello",
            Layer::RelayDeposit => "client.deposit",
            Layer::RelayFetch => "client.fetch",
        }
    }
}

/// Spans kept for the Chrome trace: the most recent ones when a run
/// records more than this.
const TRACE_CAP: usize = 200_000;

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    buffer: Mutex<TraceBuffer>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        buffer: Mutex::new(TraceBuffer::with_capacity(TRACE_CAP)),
    })
}

/// An open span: finish it with [`Span::end`]. Its id is what child
/// spans name as their parent; `request` groups the spans of one
/// request (or round, for the swarm workloads).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    layer: Layer,
    parent: u64,
    request: u64,
    start: Instant,
}

impl Span {
    pub fn begin(layer: Layer, parent: u64, request: u64) -> Span {
        let t = tracer();
        Span {
            id: t.next_id.fetch_add(1, Ordering::Relaxed),
            layer,
            parent,
            request,
            start: Instant::now(),
        }
    }

    /// Closes the span, records it and returns its duration in ns.
    pub fn end(self) -> u64 {
        let end = Instant::now();
        let dur_ns = (end - self.start).as_nanos() as u64;
        let t = tracer();
        let at_us = (self.start - t.epoch).as_micros() as u64;
        // Span ids fit 32 bits for any run this benchmark makes; the
        // pair packs into the event's `a` word.
        let a = (self.id << 32) | (self.parent & 0xFFFF_FFFF);
        let ev = TraceEvent {
            at_us,
            dur_us: (dur_ns / 1000).max(1),
            actor: self.layer as u32,
            tag: TraceTag::Custom,
            a,
            b: self.request,
        };
        t.buffer.lock().expect("trace buffer lock poisoned").push(ev);
        dur_ns
    }
}

/// Writes the recorded spans as Chrome `trace_event` JSON (thread names
/// are the layer names; `args.a` packs span id << 32 | parent id and
/// `args.b` is the request id) and returns how many spans it holds.
pub fn write_trace(path: &std::path::Path) -> std::io::Result<usize> {
    let buffer = tracer().buffer.lock().expect("trace buffer lock poisoned");
    let body = buffer.to_chrome_trace();
    let mut meta = String::new();
    for layer in Layer::ALL {
        meta.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}},",
            layer as u32,
            layer.name()
        ));
    }
    let json = if buffer.is_empty() {
        format!("[{}]", meta.trim_end_matches(','))
    } else {
        format!("[{meta}{}", &body[1..])
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)?;
    Ok(buffer.len())
}
