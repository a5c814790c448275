//! `mmbench`: the gated end-to-end numbers.
//!
//! ```text
//! mmbench [run] [--workload W] [--seed N] [--seconds S]   ten rounds per workload, interleaved
//! mmbench one --workload W --round R [--seed N] [--seconds S]   one round, in this process
//! mmbench check                                           < 20 s smoke of every oracle and name
//! mmbench repeat [--seed N] [--seconds S]                 two full sets, compared to the bounds
//! mmbench manifest                                        print BENCHMARK.json
//! ```

use mmbench::cli::Args;
use mmbench::host::{self, Fingerprint};
use mmbench::manifest::{
    self, benchmark_json, metric_line, result_line, Metric, END_TO_END, HELD_OUT_SEED, KEEP,
    PER_LAYER, ROUNDS, SEED,
};
use mmbench::stats::{estimate, Estimate, Round};
use mmbench::workloads::{run_round, spec, Spec, WORKLOADS};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// One workload's rounds and what the estimator made of them.
struct Outcome {
    spec: &'static Spec,
    rounds: Vec<Round>,
    estimate: Estimate,
}

impl Outcome {
    fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }

    /// Every op answered right, every end-of-round oracle held, and
    /// every round was fed the same inputs and counted the same bytes.
    fn correct(&self) -> bool {
        let first = &self.rounds[0];
        self.failed() == 0
            && self.rounds.iter().all(|r| {
                r.oracle_ok
                    && !r.samples_us.is_empty()
                    && r.input_digest == first.input_digest
                    && r.exact == first.exact
            })
    }

    fn value(&self, metric: &str) -> f64 {
        let e = &self.estimate;
        match metric {
            "setup_s" => e.setup_s,
            "op_p50_us" => e.op_p50_us,
            "op_tail_us" => e.op_tail_us,
            "ops_per_s" => e.ops_per_s,
            _ => e.peak_rss_mb,
        }
    }

    /// The human-readable block: one `metric` line per end-to-end
    /// metric, per-round medians and tails so drift stays visible, the
    /// sample count behind the tail.
    fn report(&self, seconds: f64) -> String {
        let (warmup, ops) = self.spec.counts(seconds);
        let mut out = format!(
            "workload {} op=\"{}\" warmup={warmup} ops_per_round={ops} input_digest={}\n",
            self.spec.name, self.spec.op, self.rounds[0].input_digest
        );
        let marked = |values: &[f64], pooled: &[usize]| -> String {
            let cells: Vec<String> = values
                .iter()
                .enumerate()
                .map(|(i, v)| format!("{v:.2}{}", if pooled.contains(&i) { "*" } else { "" }))
                .collect();
            cells.join(" ")
        };
        let e = &self.estimate;
        let _ = writeln!(
            out,
            "  round p50s (us, * = pooled): {}",
            marked(&e.round_p50s, &e.p50_rounds)
        );
        let _ = writeln!(
            out,
            "  round p{}s (us, * = pooled): {}",
            e.tail_percentile,
            marked(&e.round_tails, &e.tail_rounds)
        );
        for m in &END_TO_END {
            let _ = writeln!(
                out,
                "{}",
                metric_line(self.spec.name, m, self.value(m.name))
            );
        }
        let _ = write!(
            out,
            "  op_tail_us is p{} of {} pooled samples; attempted={} failed={} correct={}",
            self.estimate.tail_percentile,
            self.estimate.pooled_samples,
            self.attempted(),
            self.failed(),
            self.correct()
        );
        for (k, v) in &self.rounds[0].exact {
            let _ = write!(out, " {k}={v}");
        }
        out
    }

    fn result_line(&self) -> String {
        result_line(
            self.correct(),
            self.attempted(),
            self.failed(),
            &END_TO_END,
            |m| self.value(m),
        )
    }
}

/// Run one workload-round in a child process, so its peak RSS and its
/// set-up are its own. The child inherits this process's CPU pin.
fn child_round(spec: &Spec, round: usize, seed: u64, seconds: f64) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args([
            "one",
            "--workload",
            spec.name,
            "--round",
            &round.to_string(),
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn {} round {round}: {e}", spec.name))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    Round::decode(&String::from_utf8_lossy(&out.stdout)).ok_or_else(|| {
        format!(
            "{} round {round} printed no result ({})",
            spec.name, out.status
        )
    })
}

/// Round 1 of every workload, then round 2, ...: a noise epoch that
/// lasts seconds lands on one round of each workload instead of on
/// every round of one.
fn run_set(
    specs: &[&'static Spec],
    seed: u64,
    seconds: f64,
    rounds: usize,
) -> Result<Vec<Outcome>, String> {
    let mut per_workload: Vec<Vec<Round>> = vec![Vec::new(); specs.len()];
    for round in 1..=rounds {
        for (spec, collected) in specs.iter().zip(&mut per_workload) {
            collected.push(child_round(spec, round, seed, seconds)?);
        }
    }
    Ok(specs
        .iter()
        .zip(per_workload)
        .map(|(spec, rounds)| Outcome {
            spec,
            estimate: estimate(&rounds, KEEP, spec.tail),
            rounds,
        })
        .collect())
}

fn run(args: &Args, fingerprint: &Fingerprint, pinned: Option<usize>) -> Result<bool, String> {
    if args.trace {
        return Err(
            "--trace 1 is the mmbench-trace binary; benchmark/run.sh dispatches to it".into(),
        );
    }
    println!("{}", fingerprint.line(pinned, args.seed, true));
    println!(
        "estimator rounds={ROUNDS} pooled=quietest-{KEEP} closed-loop connections=1 depth=1 seconds={}",
        args.seconds
    );
    let outcomes = run_set(&args.selected(), args.seed, args.seconds, ROUNDS)?;
    for o in &outcomes {
        println!("{}", o.report(args.seconds));
    }
    // The verdict is the `correct` field: a run that printed its
    // result exits 0, as the driver's contract asks.
    for o in &outcomes {
        println!("{}", o.result_line());
    }
    Ok(true)
}

fn one(args: &Args, started: Instant, pinned: Option<usize>) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("one needs --workload")?;
    let spec = spec(name).ok_or("unknown workload")?;
    let round = run_round(spec, args.seed, spec.counts(args.seconds), started);
    println!(
        "child workload={name} round={} seed={} pinned={}",
        args.round,
        args.seed,
        host::pinned_label(pinned)
    );
    println!("{}", round.encode());
    Ok(round.oracle_ok)
}

/// Two full sets back to back: the evidence that the bounds hold on
/// this host. Fails if any workload x metric pair differs by more than
/// its bound, in either direction.
fn repeat(args: &Args, fingerprint: &Fingerprint, pinned: Option<usize>) -> Result<bool, String> {
    println!("{}", fingerprint.line(pinned, args.seed, true));
    let first = run_set(&args.selected(), args.seed, args.seconds, ROUNDS)?;
    let second = run_set(&args.selected(), args.seed, args.seconds, ROUNDS)?;
    let mut ok = true;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (a.value(m.name), b.value(m.name));
            let diff = (y - x) / x;
            let within = diff.abs() <= m.bound;
            ok &= within;
            println!(
                "{:<14} {:<12} {x:>14.3} {y:>14.3} {:>+7.1}% {:>5.0}%{}",
                a.spec.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  OUTSIDE" }
            );
        }
        let exact = a.rounds[0].exact == b.rounds[0].exact
            && a.rounds[0].input_digest == b.rounds[0].input_digest;
        let correct = a.correct() && b.correct();
        ok &= exact && correct;
        println!(
            "{:<14} correct={correct} inputs_and_exact_counts_equal={exact} input_digest={} {:?}",
            a.spec.name, a.rounds[0].input_digest, a.rounds[0].exact
        );
    }
    Ok(ok)
}

/// Names on the `metric <workload> <name> <value> <unit>` lines of a report.
fn emitted_names(report: &str, workload: &str) -> BTreeSet<String> {
    report
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some(workload)).then(|| f.next().unwrap_or("").to_string())
        })
        .collect()
}

fn names_match(what: &str, workload: &str, report: &str, defs: &[Metric]) -> bool {
    let emitted = emitted_names(report, workload);
    let declared: BTreeSet<String> = defs.iter().map(|m| m.name.to_string()).collect();
    let valid = emitted.iter().all(|n| manifest::valid_name(n));
    if emitted != declared || !valid {
        println!(
            "FAIL {what} {workload}: emitted-only {:?}, declared-only {:?}, valid={valid}",
            emitted.difference(&declared).collect::<Vec<_>>(),
            declared.difference(&emitted).collect::<Vec<_>>()
        );
    }
    emitted == declared && valid
}

/// The smoke: one round at a twentieth of the work, on the default and
/// the held-out seed, plus a traced pass; every oracle, every name.
fn check(pinned: Option<usize>) -> Result<bool, String> {
    const SMOKE_SECONDS: f64 = 0.5;
    let mut ok = pinned.is_some();
    println!("pinned={}", host::pinned_label(pinned));
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(manifest_path).unwrap_or_default();
    let same = committed == benchmark_json();
    println!("BENCHMARK.json matches the tables in manifest.rs: {same}");
    ok &= same;
    let all: Vec<&Spec> = WORKLOADS.iter().collect();
    for seed in [SEED, HELD_OUT_SEED] {
        for o in run_set(&all, seed, SMOKE_SECONDS, 1)? {
            let report = o.report(SMOKE_SECONDS);
            let good = o.correct()
                && manifest::valid_name(o.spec.name)
                && names_match("mmbench", o.spec.name, &report, &END_TO_END);
            println!(
                "{} seed={seed} {} input_digest={}",
                if good { "ok  " } else { "FAIL" },
                o.spec.name,
                o.rounds[0].input_digest
            );
            ok &= good;
        }
    }
    let trace = std::env::current_exe()
        .map_err(|e| format!("own path: {e}"))?
        .with_file_name("mmbench-trace");
    let out = Command::new(&trace)
        .args(["--seconds", &SMOKE_SECONDS.to_string()])
        .output()
        .map_err(|e| format!("{}: {e} (build it: cargo build --release)", trace.display()))?;
    let report = String::from_utf8_lossy(&out.stdout);
    for w in &WORKLOADS {
        let good =
            out.status.success() && names_match("mmbench-trace", w.name, &report, &PER_LAYER);
        println!("{} trace {}", if good { "ok  " } else { "FAIL" }, w.name);
        ok &= good;
    }
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => "run".to_string(),
    };
    // A child's parent already captured the fingerprint; spawning
    // `rustc -V` again would only pad the child's set-up time.
    let fingerprint = (command != "one").then(Fingerprint::capture);
    // Before anything else starts a thread or a child: both inherit.
    let pinned = host::pin_to_highest_cpu();
    host::steady_allocator();
    let verdict = Args::parse(argv).and_then(|args| match (command.as_str(), &fingerprint) {
        ("one", _) => one(&args, started, pinned),
        ("run", Some(f)) => run(&args, f, pinned),
        ("repeat", Some(f)) => repeat(&args, f, pinned),
        ("check", _) => check(pinned),
        ("manifest", _) => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        _ => Err(format!(
            "unknown command `{command}`; one of run, one, check, repeat, manifest"
        )),
    });
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mmbench: {e}");
            ExitCode::from(2)
        }
    }
}
