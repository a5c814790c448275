//! Indexed, semi-naive evaluation core (PR 2): index probes vs scans on
//! CQ evaluation, and the semi-naive indexed chase vs the naive
//! full-reevaluation reference.
//!
//! Besides the criterion groups, `main` re-measures each point once with
//! `mm_bench::timed`, asserts the fast and reference paths agree
//! bit-identically, and writes the `BENCH_eval.json` baseline at the
//! workspace root (the vendored criterion stub emits no files). The
//! committed baseline records the headline claim: ≥10× on the largest
//! exchange-chase workload.
//!
//! PR 7 adds the cost-based planner suite: on the skewed
//! `workload::skew` instances (whose relation sizes mislead the greedy
//! join-order heuristic) the statistics-driven planner must beat the
//! greedy order by a ≥2× geometric mean, while on the uniform CQ
//! workloads — where greedy already picks well — it must stay within
//! 10%. Both gates are asserted at emit time; `"attested": true` in the
//! baseline means the committed numbers passed them on the emitting
//! host. Bit-identity of the two planners' binding sequences is
//! asserted at every point.

use criterion::{criterion_group, BenchmarkId, Criterion};
use mm_bench::{compile_and_chase, timed};
use mm_chase::testkit::chase_st_reference;
use mm_engine::prelude::*;
use mm_eval::testkit::find_homomorphisms_naive;
use mm_workload::{copy_tgds, faults, skew, tgds::binary_schema};
use std::io::Write as _;

/// The EQ7 exchange workload: `relations` copy tgds over `rows` tuples
/// each — the head-satisfaction check is the quadratic hot spot of the
/// naive chase.
fn exchange_setup(relations: usize, rows: usize) -> (Schema, Vec<Tgd>, Database) {
    let src = binary_schema("Src", "A", relations);
    let tgt = binary_schema("Tgt", "B", relations);
    let tgds = copy_tgds("A", "B", relations);
    let mut db = Database::empty_of(&src);
    for i in 0..relations {
        for r in 0..rows {
            db.insert(
                &format!("A{i}"),
                Tuple::from([Value::Int(r as i64), Value::Int((r + 1) as i64)]),
            );
        }
    }
    (tgt, tgds, db)
}

const CQ_SIZES: [usize; 3] = [200, 1_000, 4_000];
const CHASE_SIZES: [usize; 3] = [250, 1_000, 4_000];
const SKEW_SIZES: [usize; 3] = [4_000, 16_000, 48_000];
/// Planner gates, asserted at emit time: geometric-mean speedup the
/// cost-based order must deliver on the skewed suite, and the worst
/// slowdown it may cost on the uniform suite where greedy already picks
/// well.
const MIN_SKEW_GEOMEAN: f64 = 2.0;
const MAX_UNIFORM_SLOWDOWN: f64 = 1.10;
/// Absolute slack (ms) for the uniform gate: sub-millisecond points are
/// dominated by timer noise, not planner overhead.
const UNIFORM_SLACK_MS: f64 = 0.25;

/// The three skewed planner workloads at a given size.
fn skew_workloads(rows: usize) -> [(&'static str, Database, Vec<Atom>); 3] {
    let (_, fat_db, fat_q) = skew::fat_hub_join(rows);
    let (_, zipf_db, zipf_q) = skew::zipf_join(rows, 11);
    let (_, corr_db, corr_q) = skew::correlated_join(rows, 11);
    [
        ("skew_fat_hub", fat_db, fat_q),
        ("skew_zipf", zipf_db, zipf_q),
        ("skew_correlated", corr_db, corr_q),
    ]
}

/// Two-atom self-join `R0(x, y) ∧ R0(y, z)`: the compiled plan probes a
/// hash index on `R0.0` for the second atom; the naive path re-scans.
fn bench_cq_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_cq_self_join");
    group.sample_size(10);
    for rows in CQ_SIZES {
        let (_, _, db, tgds) = faults::quadratic_join(rows);
        let body = tgds[0].body.clone();
        let budget = ExecBudget::unbounded();
        let seed = std::collections::HashMap::new();
        group.bench_with_input(BenchmarkId::new("indexed", rows), &(), |b, _| {
            b.iter(|| {
                find_homomorphisms_governed(&body, &db, &seed, &mut Governor::new(&budget))
                    .expect("unbounded")
            })
        });
        group.bench_with_input(BenchmarkId::new("scan", rows), &(), |b, _| {
            b.iter(|| {
                find_homomorphisms_naive(&body, &db, &seed, &mut Governor::new(&budget))
                    .expect("unbounded")
            })
        });
    }
    group.finish();
}

/// The skewed three-way joins: greedy (size-ordered) vs cost-based
/// (statistics-ordered) compiled plans, both index-probing.
fn bench_cq_skew(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_cq_skew_planner");
    group.sample_size(10);
    let budget = ExecBudget::unbounded();
    let seed = std::collections::HashMap::new();
    for (name, db, body) in skew_workloads(SKEW_SIZES[1]) {
        group.bench_with_input(BenchmarkId::new("greedy", name), &(), |b, _| {
            b.iter(|| {
                find_homomorphisms_governed(&body, &db, &seed, &mut Governor::new(&budget))
                    .expect("unbounded")
            })
        });
        group.bench_with_input(BenchmarkId::new("costed", name), &(), |b, _| {
            b.iter(|| {
                find_homomorphisms_costed(&body, &db, &seed, &mut Governor::new(&budget))
                    .expect("unbounded")
            })
        });
    }
    group.finish();
}

/// The exchange chase, semi-naive + indexed vs the naive reference.
fn bench_chase_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_chase_exchange");
    group.sample_size(10);
    let budget = ExecBudget::unbounded();
    for rows in CHASE_SIZES {
        let (tgt, tgds, db) = exchange_setup(4, rows);
        group.bench_with_input(BenchmarkId::new("semi_naive_indexed", rows), &(), |b, _| {
            b.iter(|| compile_and_chase(&tgt, &tgds, &db, &budget).expect("unbounded"))
        });
        if rows <= 1_000 {
            // the reference is quadratic; keep criterion runs bounded
            group.bench_with_input(BenchmarkId::new("naive_reference", rows), &(), |b, _| {
                b.iter(|| chase_st_reference(&tgt, &tgds, &db, &budget).expect("unbounded"))
            });
        }
    }
    group.finish();
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Paired measurement for the planner gates: warm both paths once
/// (paying the lazy index/statistics builds), then time them strictly
/// alternated for `reps` rounds — *flipping which path goes first each
/// round* — and keep each path's minimum. Alternation means ambient
/// load perturbs both paths the same way; flipping cancels the
/// first-in-slot advantage (allocator/frequency warmth measurably
/// favors whichever closure runs first on this class of host).
fn timed_pair<A, B>(
    mut fa: impl FnMut() -> A,
    mut fb: impl FnMut() -> B,
    reps: usize,
) -> (A, std::time::Duration, B, std::time::Duration) {
    // The warmup results are *kept alive* (and returned): every timed
    // call below then runs against the same resident heap, instead of
    // the very first call enjoying an empty one — an advantage the
    // min-taking below would otherwise lock in for whichever path
    // happened to measure first.
    let a = fa();
    let b = fb();
    let mut best_a = std::time::Duration::MAX;
    let mut best_b = std::time::Duration::MAX;
    for round in 0..(2 * reps.max(1)) {
        if round % 2 == 0 {
            best_a = best_a.min(timed(|| std::hint::black_box(fa())).1);
            best_b = best_b.min(timed(|| std::hint::black_box(fb())).1);
        } else {
            best_b = best_b.min(timed(|| std::hint::black_box(fb())).1);
            best_a = best_a.min(timed(|| std::hint::black_box(fa())).1);
        }
    }
    (a, best_a, b, best_b)
}

/// One-shot measurements for the committed baseline: every point runs
/// both paths once, asserts bit-identical results, and records the
/// speedup.
fn emit_baseline() {
    let budget = ExecBudget::unbounded();
    let mut rows_json: Vec<String> = Vec::new();

    for rows in CQ_SIZES {
        let (_, _, db, tgds) = faults::quadratic_join(rows);
        let body = tgds[0].body.clone();
        let seed = std::collections::HashMap::new();
        let (fast, fast_t) = timed(|| {
            find_homomorphisms_governed(&body, &db, &seed, &mut Governor::new(&budget))
                .expect("unbounded")
        });
        let (naive, naive_t) = timed(|| {
            find_homomorphisms_naive(&body, &db, &seed, &mut Governor::new(&budget))
                .expect("unbounded")
        });
        assert_eq!(fast, naive, "indexed CQ eval diverged from the naive scan");
        rows_json.push(point_json("cq_self_join", rows, fast.len(), naive_t, fast_t));
    }

    for rows in CHASE_SIZES {
        let (tgt, tgds, db) = exchange_setup(4, rows);
        let (fast, fast_t) = timed(|| compile_and_chase(&tgt, &tgds, &db, &budget).expect("ok"));
        let (reference, naive_t) =
            timed(|| chase_st_reference(&tgt, &tgds, &db, &budget).expect("ok"));
        assert_eq!(fast, reference, "semi-naive chase diverged from the reference");
        rows_json.push(point_json("chase_exchange_4rel", rows, fast.1.fired, naive_t, fast_t));
    }

    // -- cost-based planner suite (PR 7) ------------------------------------
    // Skewed instances: the greedy, size-ordered walk is the baseline;
    // the statistics-ordered walk must beat it ≥2× geomean while
    // enumerating the identical binding sequence.
    let mut planner_json: Vec<String> = Vec::new();
    let mut log_speedup_sum = 0.0;
    let mut skew_points = 0usize;
    let seed = std::collections::HashMap::new();
    for rows in SKEW_SIZES {
        for (name, db, body) in skew_workloads(rows) {
            let (greedy, greedy_t, costed, costed_t) = timed_pair(
                || {
                    find_homomorphisms_governed(&body, &db, &seed, &mut Governor::new(&budget))
                        .expect("unbounded")
                },
                || {
                    find_homomorphisms_costed(&body, &db, &seed, &mut Governor::new(&budget))
                        .expect("unbounded")
                },
                3,
            );
            assert_eq!(costed, greedy, "{name}: costed plan diverged from greedy at {rows} rows");
            let speedup = ms(greedy_t) / ms(costed_t).max(1e-6);
            log_speedup_sum += speedup.max(1e-6).ln();
            skew_points += 1;
            planner_json.push(planner_point_json(name, rows, greedy.len(), greedy_t, costed_t));
        }
    }
    let skew_geomean = (log_speedup_sum / skew_points as f64).exp();
    assert!(
        skew_geomean >= MIN_SKEW_GEOMEAN,
        "cost-based planner geomean on the skewed suite is {skew_geomean:.2}x \
         (need >= {MIN_SKEW_GEOMEAN}x)"
    );

    // Uniform workloads: greedy already picks well; the statistics pass
    // must not cost more than the slowdown gate.
    for rows in CQ_SIZES {
        let (_, _, db, tgds) = faults::quadratic_join(rows);
        let body = tgds[0].body.clone();
        let (greedy, greedy_t, costed, costed_t) = timed_pair(
            || {
                find_homomorphisms_governed(&body, &db, &seed, &mut Governor::new(&budget))
                    .expect("unbounded")
            },
            || {
                find_homomorphisms_costed(&body, &db, &seed, &mut Governor::new(&budget))
                    .expect("unbounded")
            },
            5,
        );
        assert_eq!(costed, greedy, "uniform: costed plan diverged from greedy at {rows} rows");
        assert!(
            ms(costed_t) <= ms(greedy_t) * MAX_UNIFORM_SLOWDOWN + UNIFORM_SLACK_MS,
            "uniform cq_self_join at {rows} rows: costed {:.3} ms vs greedy {:.3} ms \
             (gate: <= {MAX_UNIFORM_SLOWDOWN}x + {UNIFORM_SLACK_MS} ms)",
            ms(costed_t),
            ms(greedy_t),
        );
        planner_json.push(planner_point_json(
            "uniform_cq_self_join",
            rows,
            greedy.len(),
            greedy_t,
            costed_t,
        ));
    }

    let body = format!(
        "{{\n  \"experiment\": \"eval_core\",\n  \"description\": \"indexed, semi-naive evaluation core vs naive reference paths, plus the cost-based planner vs the greedy join order on skewed and uniform workloads (bit-identical results asserted per point; attested = the planner gates below passed on the emitting host)\",\n  \"command\": \"cargo bench -p mm-bench --bench eval\",\n  \"host_cpus\": {host_cpus},\n  \"attested\": true,\n  \"planner_gates\": {{\"min_skew_geomean_speedup\": {MIN_SKEW_GEOMEAN}, \"max_uniform_slowdown\": {MAX_UNIFORM_SLOWDOWN}, \"armed\": true}},\n  \"skew_geomean_speedup\": {skew_geomean:.2},\n  \"points\": [\n{}\n  ],\n  \"planner_points\": [\n{}\n  ]\n}}\n",
        rows_json.join(",\n"),
        planner_json.join(",\n"),
        host_cpus = mm_parallel::available_parallelism(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_eval.json");
    f.write_all(body.as_bytes()).expect("write BENCH_eval.json");
    println!("\nwrote {path}");
}

fn point_json(
    workload: &str,
    size: usize,
    result_size: usize,
    naive: std::time::Duration,
    fast: std::time::Duration,
) -> String {
    let speedup = ms(naive) / ms(fast).max(1e-6);
    println!(
        "{workload:<22} size {size:>6}: naive {:>10.3} ms, indexed {:>9.3} ms, {speedup:>7.1}x",
        ms(naive),
        ms(fast),
    );
    format!(
        "    {{\"workload\": \"{workload}\", \"size\": {size}, \"result_size\": {result_size}, \"naive_ms\": {:.3}, \"indexed_ms\": {:.3}, \"speedup\": {:.1}}}",
        ms(naive),
        ms(fast),
        speedup,
    )
}

fn planner_point_json(
    workload: &str,
    size: usize,
    result_size: usize,
    greedy: std::time::Duration,
    costed: std::time::Duration,
) -> String {
    let speedup = ms(greedy) / ms(costed).max(1e-6);
    println!(
        "{workload:<22} size {size:>6}: greedy {:>9.3} ms, costed {:>9.3} ms, {speedup:>7.1}x",
        ms(greedy),
        ms(costed),
    );
    format!(
        "    {{\"workload\": \"{workload}\", \"size\": {size}, \"result_size\": {result_size}, \"greedy_ms\": {:.3}, \"costed_ms\": {:.3}, \"speedup\": {:.1}}}",
        ms(greedy),
        ms(costed),
        speedup,
    )
}

criterion_group!(benches, bench_cq_join, bench_cq_skew, bench_chase_exchange);

fn main() {
    benches();
    emit_baseline();
}
