//! Regenerate every experiment table (DESIGN.md per-experiment index).
//!
//! ```sh
//! cargo run --release -p mm-bench --bin report
//! ```
//!
//! Prints the EF (figure reproduction) statuses and the EQ (quantitative)
//! tables recorded in EXPERIMENTS.md. Shapes — who wins, by what factor,
//! where crossovers fall — are asserted inline; absolute numbers depend on
//! the machine.

use mm_bench::*;
use mm_engine::prelude::InheritanceStrategy;

fn main() {
    println!("# model-management experiment report\n");
    ef_status();
    eq1();
    eq2();
    eq3();
    eq4();
    eq5();
    eq6();
    eq7();
    eq8();
    eq9();
    eq10();
    println!("\nreport complete.");
}

/// EF1–EF6 are correctness reproductions; they are enforced by the test
/// suite (`cargo test`), so the report just names their witnesses.
fn ef_status() {
    println!("## EF1-EF6 — figure reproductions (verified by `cargo test`)\n");
    for (id, what, witness) in [
        ("EF1", "Figure 1 architecture / operator tour", "tests/architecture.rs"),
        ("EF2", "Figure 2 mapping constraints", "tests/fig2_fig3_inheritance.rs::ef2_*"),
        ("EF3", "Figure 3 generated query", "tests/fig2_fig3_inheritance.rs::ef3_*"),
        ("EF4", "Figure 4 correspondences as constraints", "tests/fig4_snowflake.rs"),
        ("EF5", "Figure 5 evolution script", "tests/fig5_fig6_evolution.rs::ef5_*"),
        ("EF6", "Figure 6 composition formula", "tests/fig5_fig6_evolution.rs::ef6_*"),
    ] {
        println!("  {id}  {what:<44} {witness}");
    }
    println!();
}

fn eq1() {
    println!("## EQ1 — SO-tgd composition blowup (Fagin et al. exponential lower bound)\n");
    println!("  producers  body_atoms  clauses  atoms  compose_ms  deskolemizable");
    for (p, b) in [(1, 2), (2, 2), (2, 4), (2, 6), (2, 8), (3, 4), (4, 4), (4, 6)] {
        let row = eq1_compose_point(p, b);
        println!(
            "  {:>9}  {:>10}  {:>7}  {:>5}  {:>10.3}  {}",
            row.producers, row.body_atoms, row.clauses, row.atoms, row.compose_ms,
            row.deskolemizable
        );
        assert_eq!(row.clauses, p.pow(b as u32), "splice must be exactly p^b");
    }
    println!("  shape: clauses = producers^body_atoms (exponential), as the paper cites.\n");
}

fn eq2() {
    println!("## EQ2 — compiled transformation vs generic three-copy translation\n");
    println!("  strategy    types  entities  direct_ms  three_copy_ms  slowdown  agree");
    for strategy in [
        InheritanceStrategy::Vertical,
        InheritanceStrategy::Horizontal,
        InheritanceStrategy::Flat,
    ] {
        for (depth, fanout, per_type) in [(2, 2, 200), (2, 3, 200), (3, 2, 200)] {
            let row = eq2_modelgen_point(depth, fanout, per_type, strategy);
            let slowdown = row.three_copy_ms / row.direct_ms.max(1e-9);
            println!(
                "  {:<10}  {:>5}  {:>8}  {:>9.2}  {:>13.2}  {:>7.1}x  {}",
                row.strategy.to_string(),
                row.types,
                row.entities,
                row.direct_ms,
                row.three_copy_ms,
                slowdown,
                row.agree
            );
            assert!(row.agree, "three-copy must agree with compiled views");
        }
    }
    println!("  shape: the generic pipeline pays a constant-factor penalty (the paper's");
    println!("  \"rather inefficient for data exchange\"); both produce identical instances.\n");
}

fn eq3() {
    println!("## EQ3 — matcher: top-1 accuracy vs top-k candidate lists\n");
    println!("  strength  flooding  pairs  top1_prec  top1_rec  hit@1  hit@3  hit@5  ms");
    for flooding in [false, true] {
        for strength in [0.2, 0.5, 0.8] {
            // average over seeds for stability
            let rows: Vec<_> =
                (0..5).map(|s| eq3_matcher_point(s, strength, flooding)).collect();
            let n = rows.len() as f64;
            let avg = |f: &dyn Fn(&Eq3Row) -> f64| rows.iter().map(f).sum::<f64>() / n;
            println!(
                "  {:>8.1}  {:>8}  {:>5.0}  {:>9.2}  {:>8.2}  {:>5.2}  {:>5.2}  {:>5.2}  {:>4.1}",
                strength,
                flooding,
                avg(&|r| r.truth_pairs as f64),
                avg(&|r| r.top1_precision),
                avg(&|r| r.top1_recall),
                avg(&|r| r.topk_hit[0]),
                avg(&|r| r.topk_hit[2]),
                avg(&|r| r.topk_hit[4]),
                avg(&|r| r.match_ms),
            );
        }
    }
    println!("  shape: hit@5 dominates hit@1 — presenting all viable candidates (§3.1.1)");
    println!("  recovers matches that top-1 ranking misses, more so as perturbation grows.\n");
}

fn eq4() {
    println!("## EQ4 — TransGen compile + roundtrip verification\n");
    println!("  types  fragments  compile_ms  verify_ms  roundtrips");
    for (depth, fanout) in [(1, 2), (2, 2), (2, 3), (3, 2)] {
        let row = eq4_transgen_point(depth, fanout, 50);
        println!(
            "  {:>5}  {:>9}  {:>10.2}  {:>9.2}  {}",
            row.types, row.fragments, row.compile_ms, row.verify_ms, row.roundtrips
        );
        assert!(row.roundtrips, "generated mappings must roundtrip");
    }
    println!("  shape: compilation is fast; dynamic verification scales with data and");
    println!("  dominates — the motivation for the static coverage check.\n");
}

fn eq5() {
    println!("## EQ5 — incremental maintenance vs recompute (notifications, §5)\n");
    println!("  base_rows  batch  incremental_ms  recompute_ms  winner");
    for base in [2_000usize, 10_000] {
        for batch in [1usize, 10, 100, 1_000] {
            let row = eq5_ivm_point(base, batch);
            assert!(row.agree, "IVM must agree with recompute");
            assert!(
                batch > base / 100 || row.incremental_ms < row.recompute_ms,
                "a delta of {batch} rows on {base} must cost less to absorb than to recompute: {row:?}"
            );
            let winner = if row.incremental_ms < row.recompute_ms {
                "incremental"
            } else {
                "recompute"
            };
            println!(
                "  {:>9}  {:>5}  {:>14.2}  {:>12.2}  {winner}",
                row.base_rows, row.batch, row.incremental_ms, row.recompute_ms
            );
        }
    }
    println!("  shape: maintenance follows the batch (one index probe per delta row),");
    println!("  recompute follows the base; incremental wins wherever the batch is");
    println!("  well below the base size.\n");
}

fn eq6() {
    println!("## EQ6 — peer-to-peer mediation: chained vs collapsed (§5)\n");
    println!("  hops  rows  chained_ms  collapse_once_ms  collapsed_query_ms");
    for hops in [1usize, 4, 8, 16] {
        let row = eq6_mediation_point(hops, 20_000);
        assert!(row.agree);
        println!(
            "  {:>4}  {:>4}k  {:>10.2}  {:>16.3}  {:>18.2}",
            row.hops,
            row.rows / 1000,
            row.chained_ms,
            row.collapse_once_ms,
            row.collapsed_query_ms
        );
    }
    println!("  shape: per-query costs stay close because unfolding collapses the chain");
    println!("  syntactically either way; pre-composing (design time) moves the rewrite");
    println!("  cost out of the per-query path, so it pays off once amortized.\n");
}

fn eq7() {
    println!("## EQ7 — chase-based exchange vs compiled copy views\n");
    println!("  relations  rows  chase_ms  compiled_ms  certain_ms  agree");
    for (relations, rows) in [(2usize, 500usize), (4, 500), (4, 2_000), (8, 2_000)] {
        let row = eq7_exchange_point(relations, rows).expect("copy tgds always chase");
        println!(
            "  {:>9}  {:>4}  {:>8.2}  {:>11.2}  {:>10.2}  {}",
            row.relations,
            row.rows,
            row.chase_ms,
            row.compiled_ms,
            row.certain_ms,
            row.agree
        );
        assert!(row.agree, "chase must agree with compiled copies on full tgds");
    }
    println!("  shape: for functional mappings the compiled transformation wins by a");
    println!("  wide factor — generating transformations (TransGen, §4) beats chasing");
    println!("  when the mapping admits it; the chase remains the general fallback.\n");
}

fn eq8() {
    println!("## EQ8 — Merge scaling (§6.3)\n");
    println!("  elements  attributes  match_ms  merge_ms  merged_elements");
    for (relations, attrs) in [(4usize, 4usize), (8, 6), (16, 8), (32, 8)] {
        let row = eq8_merge_point(relations, attrs);
        println!(
            "  {:>8}  {:>10}  {:>8.1}  {:>8.2}  {:>15}",
            row.elements, row.attributes, row.match_ms, row.merge_ms, row.merged_elements
        );
        assert!(row.merged_elements >= row.elements);
    }
    println!("  shape: merge itself is near-linear; the quadratic pairwise match");
    println!("  dominates end-to-end schema integration time.\n");
}

fn eq9() {
    println!("## EQ9 — algebraic optimizer ablation (§4 \"optimization opportunities\")\n");
    println!("  rows  plain_ops  opt_ops  plain_ms  optimized_ms  speedup  agree");
    for rows in [5_000usize, 20_000, 80_000] {
        let row = eq9_optimizer_point(rows);
        assert!(row.agree, "optimizer must preserve semantics");
        println!(
            "  {:>4}k  {:>9}  {:>7}  {:>8.2}  {:>12.2}  {:>6.1}x  {}",
            row.rows / 1000,
            row.plain_size,
            row.optimized_size,
            row.plain_ms,
            row.optimized_ms,
            row.plain_ms / row.optimized_ms.max(1e-9),
            row.agree
        );
    }
    println!("  shape: predicate pushdown + column pruning shrink the join's inputs,");
    println!("  so the selective query speeds up by a growing factor with data size.\n");
}

fn eq10() {
    println!("## EQ10 — match memory across sequential projects (§3.1.1 \"previous matches\")\n");
    println!("  strength  top1_without  top1_with  gain");
    for strength in [0.3, 0.6, 0.9] {
        let rows: Vec<_> = (0..8).map(|s| eq10_memory_point(s, strength)).collect();
        let n = rows.len() as f64;
        let without = rows.iter().map(|r| r.top1_without).sum::<f64>() / n;
        let with_ = rows.iter().map(|r| r.top1_with).sum::<f64>() / n;
        println!(
            "  {:>8.1}  {:>12.2}  {:>9.2}  {:>+4.2}",
            strength, without, with_, with_ - without
        );
        assert!(with_ >= without - 0.02, "memory must not meaningfully hurt accuracy");
    }
    println!("  shape: confirmed pairs from earlier projects transfer to later ones;");
    println!("  the benefit grows with perturbation strength (harder lexical cases).\n");
}
