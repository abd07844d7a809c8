//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! msb-perfbench --workload <churn|wide|relay> --seed <n> --seconds <s> --trace <0|1> [--small]
//! ```
//!
//! It prints a human-readable report, then as its last stdout line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). It exits
//! non-zero when any output check fails. `--small` shrinks every
//! workload for the self-check.

mod common;
mod relay;
mod swarm;

use common::Report;

/// Every per-layer metric with its unit, in print order. A traced run
/// prints all of them; a layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("op_p99_us", "us"),
    ("app.message_ms", "ms"),
    ("app.timer_ms", "ms"),
    ("app.callbacks", "count"),
    ("app.relays", "count"),
    ("app.refloods", "count"),
    ("app.candidates", "count"),
    ("app.replies", "count"),
    ("app.matches", "count"),
    ("app.late_replies", "count"),
    ("net.unroutable", "count"),
    ("core.request_id_ns", "ns"),
    ("engine.self_ms", "ms"),
    ("net.us_per_event", "us/event"),
    ("net.events", "count"),
    ("net.peak_queue", "count"),
    ("net.broadcasts", "count"),
    ("net.delivered", "count"),
    ("net.unicasts", "count"),
    ("net.unicast_hops", "count"),
    ("net.cells_scanned", "count"),
    ("net.payload_bytes", "bytes"),
    ("net.neighbor_queries", "count"),
    ("route.probe_us", "us"),
    ("mobility.advance_ms", "ms"),
    ("net.set_positions_ms", "ms"),
    ("shard.pops_max", "count"),
    ("shard.pops_total", "count"),
    ("shard.ingested", "count"),
    ("shard.outbound", "count"),
    ("batch.envelopes", "count"),
    ("batch.sends", "count"),
    ("shard.resident_bytes_max", "bytes"),
    ("shard.topo_bytes", "bytes"),
    ("proc.cpu_ms", "ms"),
    ("wire.request_encode_ns", "ns"),
    ("wire.request_decode_ns", "ns"),
    ("wire.reply_decode_ns", "ns"),
    ("relay.deposit_p50_us", "us"),
    ("relay.deposit_p99_us", "us"),
    ("relay.fetch_p50_us", "us"),
    ("relay.fetch_p99_us", "us"),
    ("relay.deposits_per_s", "1/s"),
    ("relay.fetches_per_s", "1/s"),
    ("relay.rehellos", "count"),
    ("relay.rehello_us", "us"),
    ("service.deposit_p50_us", "us"),
    ("service.deposit_p99_us", "us"),
    ("service.fetch_p50_us", "us"),
    ("service.fetch_p99_us", "us"),
    ("gateway.deposit_us", "us"),
    ("gateway.fetch_us", "us"),
    ("relay.hello_us", "us"),
    ("server.cpu_ms", "ms"),
    ("storage.inbox_depth_peak", "count"),
    ("storage.registered", "count"),
    ("storage.fanout_copies", "count"),
    ("storage.expired", "count"),
    ("service.frames_in", "count"),
    ("service.frames_out", "count"),
    ("service.messages_delivered", "count"),
    ("relay.fetch_batches", "count"),
    ("relay.bytes_out", "bytes"),
];

const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MiB"), ("throughput_per_s", "1/s"), ("op_p50_us", "us")];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut seconds = None;
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 0.0, trace: false, small: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => args.trace = value()? == "1",
            "--small" => args.small = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.seconds = seconds.ok_or("--seconds is required (BENCHMARK.json's run_seconds)")?;
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "churn" => {
            swarm::run(swarm::SwarmSpec::churn(args.small), args.seed, args.seconds, args.trace)
        }
        "wide" => {
            swarm::run(swarm::SwarmSpec::wide(args.small), args.seed, args.seconds, args.trace)
        }
        "relay" => relay::run(args.seed, args.seconds, args.trace, args.small),
        other => {
            eprintln!("unknown workload {other:?}: expected churn, wide or relay");
            std::process::exit(2);
        }
    };

    println!("workload {} seed {} traced {}", args.workload, args.seed, args.trace);
    println!("attempted {} failed {}", report.attempted, report.failed);
    for (name, v) in &report.end_to_end {
        println!("  {name:<28} {v:>16.4}");
    }
    let printed: Vec<(&str, f64, &str)> = if args.trace {
        println!("per-layer:");
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = report.per_layer.iter().find(|(k, _)| *k == name).map_or(0.0, |(_, v)| *v);
                println!("  {name:<28} {v:>16.4}");
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = report.end_to_end.iter().find(|(k, _)| *k == name).map_or(0.0, |(_, v)| *v);
                (name, v, unit)
            })
            .collect()
    };
    if args.trace {
        let path = std::path::PathBuf::from(format!("perfbench/out/trace-{}.json", args.workload));
        match common::write_trace(&path) {
            Ok(spans) => println!("trace: {spans} spans in {}", path.display()),
            Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
        }
    }
    let correct = report.violations.is_empty();
    if !correct {
        println!("{} output checks failed", report.violations.len());
    }
    let metrics: Vec<String> = printed
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
