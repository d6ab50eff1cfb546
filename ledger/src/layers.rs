//! Per-layer accounting for the traced run.
//!
//! The bench opens its own `ledger/*` spans around the calls it makes into
//! each crate and reads the phase spans and counters the pipeline already
//! records (`generate/*`, `kill/*`, `grade/*`, `solver.*`, `core.*`,
//! `engine.*`). Every metric is reported per op. A layer's self time is its
//! span total minus the totals of its children in the call tree the
//! workload declares; the self times of a tree add up to `ledger/op`.

use std::collections::BTreeMap;

use xdata_obs::MetricsReport;

use crate::stats::ratio;

/// `(span, parent)` edges of an in-process `evaluate` op.
pub const EVALUATE_TREE: &[(&str, &str)] = &[
    ("ledger/parse", "ledger/op"),
    ("ledger/normalize", "ledger/op"),
    ("generate", "ledger/op"),
    ("generate/plan", "generate"),
    ("generate/solve", "generate"),
    ("generate/solve/gate", "generate/solve"),
    ("ledger/mutation_space", "ledger/op"),
    ("kill", "ledger/op"),
    ("kill/originals", "kill"),
    ("kill/mutant", "kill"),
    ("ledger/render", "ledger/op"),
];

/// `(span, parent)` edges of a `grade_batch` op. The reference's parse and
/// normalize run unspanned inside `ledger/grade`, so they count as its self
/// time.
pub const GRADE_TREE: &[(&str, &str)] = &[
    ("ledger/grade", "ledger/op"),
    ("generate", "ledger/grade"),
    ("generate/plan", "generate"),
    ("generate/solve", "generate"),
    ("generate/solve/gate", "generate/solve"),
    ("grade", "ledger/grade"),
    ("grade/reference", "grade"),
    ("grade/grid", "grade"),
    ("ledger/render", "ledger/op"),
];

/// `(span, parent)` edges of one wire request.
pub const SERVE_TREE: &[(&str, &str)] = &[
    ("ledger/encode", "ledger/op"),
    ("ledger/roundtrip", "ledger/op"),
    ("ledger/decode", "ledger/op"),
];

fn total_ns(report: &MetricsReport, path: &str) -> f64 {
    report.spans.get(path).map_or(0.0, |a| a.total_ns as f64)
}

/// Self time of `node` in `tree`: its total minus its children's totals.
fn self_ns(report: &MetricsReport, tree: &[(&str, &str)], node: &str) -> f64 {
    let children: f64 =
        tree.iter().filter(|(_, p)| *p == node).map(|(c, _)| total_ns(report, c)).sum();
    total_ns(report, node) - children
}

/// Check that the self times of `tree` tile `ledger/op`: a negative self
/// time means children overlapped (ran in parallel) and the per-layer split
/// would not add up. Returns the share of op time the positive self times
/// cover.
pub fn self_time_coverage(report: &MetricsReport, tree: &[(&str, &str)]) -> f64 {
    let op = total_ns(report, "ledger/op");
    let covered: f64 = std::iter::once("ledger/op")
        .chain(tree.iter().map(|(c, _)| *c))
        .map(|node| self_ns(report, tree, node).max(0.0))
        .sum();
    ratio(covered, op)
}

/// The per-layer metrics read from a traced window of `ops` operations,
/// times multiplied by the window's machine-speed `scale`. Keys a workload
/// never touches come out as 0.
pub fn from_report(
    report: &MetricsReport,
    tree: &[(&str, &str)],
    ops: f64,
    scale: f64,
) -> BTreeMap<&'static str, f64> {
    let ms = |path: &str| ratio(total_ns(report, path), ops) * scale / 1e6;
    let us = |path: &str| ratio(total_ns(report, path), ops) * scale / 1e3;
    let per_op = |name: &str| ratio(report.counter(name) as f64, ops);
    let hit_ratio = |hit: &str, miss: &str| {
        let (h, m) = (report.counter(hit) as f64, report.counter(miss) as f64);
        ratio(h, h + m)
    };
    let killed: u64 = report
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("kill.killed."))
        .map(|(_, v)| *v)
        .sum();

    let mut m = BTreeMap::new();
    m.insert("ledger.op_ms", ms("ledger/op"));
    m.insert("ledger.op_self_ms", ratio(self_ns(report, tree, "ledger/op"), ops) * scale / 1e6);
    m.insert("sql.parse_ms", ms("ledger/parse"));
    m.insert("relalg.normalize_ms", ms("ledger/normalize"));
    m.insert("relalg.fingerprint_ms", ms("ledger/fingerprint"));
    m.insert("relalg.mutation_space_ms", ms("ledger/mutation_space"));
    m.insert("core.generate_ms", ms("generate"));
    m.insert("core.plan_ms", ms("generate/plan"));
    m.insert("solver.solve_ms", ms("generate/solve") - ms("generate/solve/gate"));
    m.insert("core.gate_wait_ms", ms("generate/solve/gate"));
    m.insert("engine.kill_ms", ms("kill"));
    m.insert("engine.kill_mutant_ms", ms("kill/mutant"));
    m.insert("engine.kill_originals_ms", ms("kill/originals"));
    m.insert("kill.mutants", per_op("kill.mutants"));
    m.insert("kill.killed", ratio(killed as f64, ops));
    m.insert("core.render_ms", ms("ledger/render"));
    m.insert("core.grade_ms", ms("ledger/grade"));
    m.insert("core.grade_prep_ms", ms("grade") - ms("grade/reference") - ms("grade/grid"));
    m.insert("engine.grade_reference_ms", ms("grade/reference"));
    m.insert("engine.grade_grid_ms", ms("grade/grid"));
    m.insert("core.grade.dedup_ratio", hit_ratio("core.grade.dedup_hit", "core.grade.dedup_miss"));
    m.insert("core.solve_memo.hit_ratio", hit_ratio("core.solve_memo.hit", "core.solve_memo.miss"));
    m.insert(
        "core.skeleton_cache.hit_ratio",
        hit_ratio("core.skeleton_cache.hit", "core.skeleton_cache.miss"),
    );
    m.insert("client.encode_us", us("ledger/encode"));
    m.insert("client.decode_us", us("ledger/decode"));
    for name in [
        "solver.decisions",
        "solver.conflicts",
        "solver.propagations",
        "solver.ground_solves",
        "solver.session.assumption_solves",
        "solver.unknown_exits",
        "core.targets.planned",
        "core.targets.solved",
        "core.targets.skipped",
        "core.rows_emitted",
        "engine.hash_join.nodes",
        "engine.hash_join.fallback_nodes",
        "engine.hash_join.build_rows",
        "engine.hash_join.probe_rows",
        "engine.subquery.hash_preds",
        "engine.subquery.fallback_preds",
    ] {
        m.insert(name, per_op(name));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdata_obs::SpanAgg;

    fn report(spans: &[(&str, u64)]) -> MetricsReport {
        let mut r = MetricsReport::default();
        for &(path, total_ns) in spans {
            r.spans.insert(path.to_string(), SpanAgg { count: 1, total_ns, ..SpanAgg::default() });
        }
        r
    }

    #[test]
    fn nested_spans_tile_the_op() {
        let r =
            report(&[("ledger/op", 100), ("kill", 60), ("kill/mutant", 50), ("ledger/render", 10)]);
        assert_eq!(self_time_coverage(&r, EVALUATE_TREE), 1.0);
        let m = from_report(&r, EVALUATE_TREE, 2.0, 1.0);
        assert_eq!(m["ledger.op_self_ms"], 15.0 / 1e6);
        assert_eq!(m["engine.kill_ms"], 30.0 / 1e6);
    }

    #[test]
    fn overlapping_children_are_detected() {
        let r = report(&[("ledger/op", 100), ("ledger/encode", 80), ("ledger/roundtrip", 80)]);
        assert!(self_time_coverage(&r, SERVE_TREE) > 1.05);
    }
}
