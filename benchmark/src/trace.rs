//! `mmbench-trace`: the per-layer ledger.
//!
//! ```text
//! mmbench-trace [--workload W] [--seed N] [--seconds S]
//! ```
//!
//! Per workload: an untraced pass (the gated binary's own round, same
//! op count) for the baseline, then the traced pass of `probes.rs`.
//! Prints one `metric` line per per-layer name, the round-trip ledger
//! for the wire workloads, and the driver's JSON line; writes the spans
//! to `benchmark/out/trace-<workload>.jsonl`.

mod probes;

use mmbench::cli::Args;
use mmbench::host::{self, Fingerprint};
use mmbench::manifest::{metric_line, result_line, PER_LAYER};
use mmbench::workloads::{run_round, Spec};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// The traced pass is short: spans are kept in memory, and every op is
/// replayed layer by layer besides being run.
fn traced_counts(spec: &Spec, seconds: f64) -> (usize, usize) {
    let (warmup, ops) = spec.counts(seconds);
    (warmup.min(200), ops.min(2_000))
}

/// Rows that add up, to the digit, to the live round trip.
fn print_ledger(workload: &str, layers: &probes::Layers) {
    let rtt = layers.get("server.rtt_us");
    if rtt == 0.0 {
        return;
    }
    let engine = if layers.get("engine.mediate_us") > 0.0 {
        "engine.mediate_us"
    } else {
        "engine.exchange_us"
    };
    let rows = [
        "server.frame_crc_us",
        "server.decode_us",
        engine,
        "server.encode_us",
        "server.unattributed_us",
    ];
    println!("ledger {workload}: where a round trip goes (medians, us; replayed stages + signed remainder)");
    for name in rows {
        println!(
            "  {name:<26} {:>12.3} {:>6.1}%",
            layers.get(name),
            layers.get(name) / rtt * 100.0
        );
    }
    let sum: f64 = rows.iter().map(|n| layers.get(n)).sum();
    println!("  {:<26} {sum:>12.3}  = server.rtt_us {rtt:.3}", "sum");
}

fn trace_one(spec: &Spec, args: &Args) -> Result<String, String> {
    let counts = traced_counts(spec, args.seconds);
    let untraced = run_round(spec, args.seed, counts, Instant::now());
    let mut traced = probes::trace(spec, args.seed, counts)?;
    let (traced_p50, untraced_p50) = (traced.recorder.median_us("op"), untraced.p50_us());
    traced.layers.set("bench.traced_op_p50_us", traced_p50);
    traced.layers.set("bench.untraced_op_p50_us", untraced_p50);
    traced.layers.set(
        "bench.trace_overhead_share",
        (traced_p50 - untraced_p50) / untraced_p50,
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", spec.name));
    traced
        .recorder
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "workload {} traced_ops={} spans={} written to {}",
        spec.name,
        counts.1,
        traced.recorder.spans().len(),
        path.display()
    );
    for m in &PER_LAYER {
        println!("{}", metric_line(spec.name, m, traced.layers.get(m.name)));
    }
    println!(
        "  op self time (request build, source clone, span bookkeeping): {:.3} us",
        traced.recorder.median_self_us("op")
    );
    print_ledger(spec.name, &traced.layers);
    let correct = traced.failed == 0 && untraced.oracle_ok && untraced.failed == 0;
    Ok(result_line(
        correct,
        traced.attempted,
        traced.failed,
        &PER_LAYER,
        |m| traced.layers.get(m),
    ))
}

fn main() -> ExitCode {
    let fingerprint = Fingerprint::capture();
    let pinned = host::pin_to_highest_cpu();
    host::steady_allocator();
    let run = Args::parse(std::env::args().skip(1)).and_then(|args| {
        println!("{}", fingerprint.line(pinned, args.seed, true));
        let lines: Vec<String> = args
            .selected()
            .into_iter()
            .map(|spec| trace_one(spec, &args))
            .collect::<Result<_, _>>()?;
        lines.iter().for_each(|l| println!("{l}"));
        Ok(())
    });
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mmbench-trace: {e}");
            ExitCode::from(2)
        }
    }
}
