//! Benches for experiments E1/E2/E8/E9: determinism testing and
//! preprocessing cost — the pipeline's analyze + certify stages vs the
//! Glushkov baseline, and the §3.3 counting test vs the Glushkov test on
//! the unrolled expression.
//!
//! The timed closures borrow the pre-built AST on both sides (no clones in
//! the loop), so the comparison isolates exactly the work the paper counts:
//! `TreeAnalysis::build` + `check_determinism` (the `O(|e|)` stages 3–4 of
//! the pipeline) against the `Θ(σ|e|)` Glushkov construction.
//!
//! Run with `cargo bench -p redet-bench --bench determinism`; set
//! `REDET_BENCH_FAST=1` for a smoke run and `REDET_BENCH_JSON_DIR=dir` to
//! record a report.

use redet_automata::{glushkov_determinism, unroll_counting, GlushkovAutomaton};
use redet_bench::harness::Harness;
use redet_core::{check_counting_determinism, check_determinism};
use redet_syntax::Regex;
use redet_tree::TreeAnalysis;
use redet_workloads as workloads;

/// The pipeline's analyze + certify stages (Theorem 3.5 path).
fn pipeline_determinism(regex: &redet_syntax::Regex) -> bool {
    let analysis = TreeAnalysis::build(regex);
    check_determinism(&analysis).is_ok()
}

/// E1: mixed content (a1 + … + a_m)* — the Glushkov baseline is quadratic,
/// the pipeline stages are linear.
fn bench_mixed_content(h: &mut Harness) {
    h.group("E1_determinism_mixed_content");
    let sizes: &[usize] = if h.is_fast() {
        &[256]
    } else {
        &[256, 1024, 4096]
    };
    for &m in sizes {
        let w = workloads::mixed_content(m);
        h.bench("pipeline_linear", m, || pipeline_determinism(&w.regex));
        h.bench("glushkov_baseline", m, || {
            glushkov_determinism(&GlushkovAutomaton::build(&w.regex)).is_ok()
        });
    }
}

/// E2: realistic families (CHARE, k-occurrence, deep alternation).
fn bench_families(h: &mut Harness) {
    h.group("E2_determinism_families");
    let scale = if h.is_fast() { 4 } else { 1 };
    let families = [
        ("chare", workloads::chare(400 / scale, 5, 1)),
        (
            "k_occurrence_4",
            workloads::k_occurrence(4, 100 / scale, 4, 2),
        ),
        ("deep_alternation_16", workloads::deep_alternation(16, 3)),
    ];
    for (name, w) in &families {
        h.bench("pipeline_linear", name, || pipeline_determinism(&w.regex));
        h.bench("glushkov_baseline", name, || {
            glushkov_determinism(&GlushkovAutomaton::build(&w.regex)).is_ok()
        });
    }
}

/// E8: preprocessing cost by stage — the shared tree analysis and the
/// determinism certificate vs building the Θ(σ|e|) Glushkov automaton.
fn bench_preprocessing(h: &mut Harness) {
    h.group("E8_preprocessing");
    let sizes: &[usize] = if h.is_fast() { &[1024] } else { &[1024, 8192] };
    for &m in sizes {
        let w = workloads::mixed_content(m);
        h.bench("tree_analysis", m, || TreeAnalysis::build(&w.regex));
        let analysis = TreeAnalysis::build(&w.regex);
        h.bench("determinism_certificate", m, || {
            check_determinism(&analysis).is_ok()
        });
        h.bench("glushkov_automaton", m, || {
            GlushkovAutomaton::build(&w.regex)
        });
    }
}

/// Sprinkles numeric occurrence indicators over a CHARE-like expression:
/// stars become `{2,5}` and `{3,3}` counters alternately by depth.
fn add_counters(regex: &Regex, depth: usize) -> Regex {
    match regex {
        Regex::Concat(l, r) => add_counters(l, depth + 1).then(add_counters(r, depth + 1)),
        Regex::Star(inner) => {
            let body = add_counters(inner, depth + 1);
            if depth % 2 == 0 {
                body.repeat(2, Some(5))
            } else {
                body.repeat(3, Some(3))
            }
        }
        other => other.clone(),
    }
}

/// E9: Section 3.3 — determinism with numeric occurrence indicators,
/// decided on the counted expression directly vs the Glushkov test on its
/// unrolling (whose size grows with the counter bounds).
fn bench_counting(h: &mut Harness) {
    h.group("E9_counting_determinism");
    let sizes: &[usize] = if h.is_fast() {
        &[50]
    } else {
        &[50, 200, 800, 3200]
    };
    for &factors in sizes {
        let counted = add_counters(&workloads::chare(factors, 3, 41).regex, 0);
        h.bench("counting_linear", factors, || {
            check_counting_determinism(&counted).is_ok()
        });
        let unrolled = unroll_counting(&counted);
        h.bench("unrolled_glushkov", factors, || {
            glushkov_determinism(&GlushkovAutomaton::build(&unrolled)).is_ok()
        });
    }
}

fn main() {
    let mut h = Harness::new();
    bench_mixed_content(&mut h);
    bench_families(&mut h);
    bench_preprocessing(&mut h);
    bench_counting(&mut h);
    h.finish("determinism");
}
