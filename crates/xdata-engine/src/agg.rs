//! Grouping and the eight aggregation operators.
//!
//! SQL semantics reproduced faithfully because aggregate-mutant killing
//! depends on their fine points: `COUNT(*)` counts rows, every other
//! aggregate skips NULLs, `DISTINCT` deduplicates before aggregating, an
//! empty input yields one row of NULLs (0 for COUNT) when there is no
//! GROUP BY and no rows at all, and NULL group keys form one group. Each
//! aggregate depends only on the bag of rows in its group, never on the
//! order a join tree emitted them in.

use std::collections::BTreeMap;

use xdata_catalog::{Tuple, Value};
use xdata_relalg::ir::AggSpec;
use xdata_relalg::{AttrRef, HavingPred, NormQuery};
use xdata_sql::AggOp;

use crate::error::EngineError;
use crate::exec::{cmp_truth, Layout};
use crate::result::ResultSet;

pub(crate) fn aggregate(
    _q: &NormQuery,
    rows: Vec<Vec<Value>>,
    group_by: &[AttrRef],
    aggs: &[AggSpec],
    having: &[HavingPred],
    layout: &Layout,
) -> Result<ResultSet, EngineError> {
    let mut groups: BTreeMap<Vec<Value>, Vec<Vec<Value>>> = BTreeMap::new();
    for row in rows {
        let key: Vec<Value> = group_by.iter().map(|g| row[layout.pos(*g)].clone()).collect();
        groups.entry(key).or_default().push(row);
    }
    let mut out: Vec<Tuple> = Vec::new();
    if groups.is_empty() && group_by.is_empty() {
        // SELECT COUNT(...) FROM empty → one row (subject to HAVING).
        if having_holds(having, &[], layout)? {
            let mut row = Vec::new();
            for a in aggs {
                row.push(agg_value(a, &[], layout)?);
            }
            out.push(row);
        }
    } else {
        for (key, grows) in groups {
            if !having_holds(having, &grows, layout)? {
                continue;
            }
            let mut row = key;
            for a in aggs {
                row.push(agg_value(a, &grows, layout)?);
            }
            out.push(row);
        }
    }
    Ok(ResultSet::new(out))
}

/// SQL HAVING semantics: a group survives only when every conjunct is
/// definitely true (three-valued logic: a NULL aggregate fails).
fn having_holds(
    having: &[HavingPred],
    rows: &[Vec<Value>],
    layout: &Layout,
) -> Result<bool, EngineError> {
    for h in having {
        let spec = AggSpec { func: h.func, arg: h.arg };
        let actual = agg_value(&spec, rows, layout)?;
        if !cmp_truth(&actual, h.cmp, &Value::Int(h.value)).is_true() {
            return Ok(false);
        }
    }
    Ok(true)
}

fn agg_value(spec: &AggSpec, rows: &[Vec<Value>], layout: &Layout) -> Result<Value, EngineError> {
    let Some(arg) = spec.arg else {
        // COUNT(*) — the only argument-less operator (validated upstream).
        return Ok(Value::Int(rows.len() as i64));
    };
    let mut vals: Vec<Value> =
        rows.iter().map(|r| r[layout.pos(arg)].clone()).filter(|v| !v.is_null()).collect();
    // Value order, not row order: SUM and AVG add floats in a fixed order,
    // so every aggregate is a function of the bag of rows.
    vals.sort();
    if spec.func.distinct {
        vals.dedup();
    }
    match spec.func.op {
        AggOp::Count => Ok(Value::Int(vals.len() as i64)),
        AggOp::Max => Ok(vals.into_iter().max().unwrap_or(Value::Null)),
        AggOp::Min => Ok(vals.into_iter().min().unwrap_or(Value::Null)),
        AggOp::Sum => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                Ok(Value::Int(vals.iter().map(|v| v.as_i64().expect("ints")).sum()))
            } else {
                let mut s = 0f64;
                for v in &vals {
                    s += v.as_f64().ok_or_else(|| {
                        EngineError::BadAggregateInput(format!("SUM over non-numeric {v}"))
                    })?;
                }
                Ok(Value::Double(s))
            }
        }
        AggOp::Avg => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let mut s = 0f64;
            for v in &vals {
                s += v.as_f64().ok_or_else(|| {
                    EngineError::BadAggregateInput(format!("AVG over non-numeric {v}"))
                })?;
            }
            Ok(Value::Double(s / vals.len() as f64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdata_catalog::{university, Dataset};
    use xdata_relalg::normalize;
    use xdata_sql::parse_query;

    fn run(sql: &str, db: &Dataset) -> ResultSet {
        let schema = university::schema();
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        crate::exec::execute_query(&q, db, &schema).unwrap()
    }

    fn db() -> Dataset {
        let mut d = Dataset::new();
        for (id, dept, sal) in [(1, 1, 100), (2, 1, 100), (3, 1, 200), (4, 2, 50)] {
            d.push(
                "instructor",
                vec![Value::Int(id), Value::Str(format!("i{id}")), Value::Int(dept), Value::Int(sal)],
            );
        }
        d
    }

    #[test]
    fn count_star_and_group_by() {
        let r = run("SELECT dept_id, COUNT(*) FROM instructor GROUP BY dept_id", &db());
        assert_eq!(
            r.rows(),
            &[vec![Value::Int(1), Value::Int(3)], vec![Value::Int(2), Value::Int(1)]]
        );
    }

    #[test]
    fn sum_vs_sum_distinct() {
        let r = run("SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id", &db());
        assert_eq!(r.rows()[0], vec![Value::Int(1), Value::Int(400)]);
        let rd = run(
            "SELECT dept_id, SUM(DISTINCT salary) FROM instructor GROUP BY dept_id",
            &db(),
        );
        assert_eq!(rd.rows()[0], vec![Value::Int(1), Value::Int(300)]);
    }

    #[test]
    fn avg_and_avg_distinct() {
        let r = run("SELECT AVG(salary) FROM instructor WHERE dept_id = 1", &db());
        assert_eq!(r.rows(), &[vec![Value::Double(400.0 / 3.0)]]);
        let rd = run("SELECT AVG(DISTINCT salary) FROM instructor WHERE dept_id = 1", &db());
        assert_eq!(rd.rows(), &[vec![Value::Double(150.0)]]);
    }

    /// Added in row order, 0.1 + 0.2 + 0.3 is 0.6000000000000001 and
    /// 0.3 + 0.2 + 0.1 is 0.6; in value order both bags give one sum.
    #[test]
    fn float_sum_and_avg_ignore_row_order() {
        let sums = |salaries: [f64; 3]| {
            let mut d = Dataset::new();
            for (id, sal) in (1..).zip(salaries) {
                let name = Value::Str(format!("i{id}"));
                d.push("instructor", vec![Value::Int(id), name, Value::Int(1), Value::Double(sal)]);
            }
            let r = run("SELECT SUM(salary), AVG(salary) FROM instructor", &d);
            let bits = |v: &Value| v.as_f64().expect("numeric").to_bits();
            (bits(&r.rows()[0][0]), bits(&r.rows()[0][1]))
        };
        assert_eq!(sums([0.1, 0.2, 0.3]), sums([0.3, 0.2, 0.1]));
    }

    #[test]
    fn count_vs_count_distinct() {
        let r = run("SELECT COUNT(salary), COUNT(DISTINCT salary) FROM instructor", &db());
        assert_eq!(r.rows(), &[vec![Value::Int(4), Value::Int(3)]]);
    }

    #[test]
    fn min_max() {
        let r = run("SELECT MIN(salary), MAX(salary) FROM instructor", &db());
        assert_eq!(r.rows(), &[vec![Value::Int(50), Value::Int(200)]]);
    }

    #[test]
    fn empty_input_no_group_by() {
        let d = Dataset::new();
        let r = run("SELECT COUNT(*), COUNT(salary), SUM(salary), MAX(salary) FROM instructor", &d);
        assert_eq!(
            r.rows(),
            &[vec![Value::Int(0), Value::Int(0), Value::Null, Value::Null]]
        );
    }

    #[test]
    fn empty_input_with_group_by_yields_no_rows() {
        let d = Dataset::new();
        let r = run("SELECT dept_id, COUNT(*) FROM instructor GROUP BY dept_id", &d);
        assert!(r.is_empty());
    }

    #[test]
    fn having_with_no_group_by_filters_the_single_group() {
        let r = run("SELECT COUNT(*) FROM instructor HAVING COUNT(*) > 10", &db());
        assert!(r.is_empty(), "group of 4 fails COUNT(*) > 10");
        let r2 = run("SELECT COUNT(*) FROM instructor HAVING COUNT(*) >= 4", &db());
        assert_eq!(r2.rows(), &[vec![Value::Int(4)]]);
    }

    #[test]
    fn having_null_aggregate_fails_three_valued() {
        // Empty input, no GROUP BY: MAX is NULL, NULL > 0 is unknown → no row.
        let d = Dataset::new();
        let r = run("SELECT COUNT(*) FROM instructor HAVING MAX(salary) > 0", &d);
        assert!(r.is_empty());
        // But COUNT(*) = 0 is definitely true.
        let r2 = run("SELECT COUNT(*) FROM instructor HAVING COUNT(*) = 0", &d);
        assert_eq!(r2.rows(), &[vec![Value::Int(0)]]);
    }

    #[test]
    fn having_over_outer_join_nulls() {
        let mut d = db();
        d.push("teaches", vec![Value::Int(1), Value::Int(100), Value::Int(1), Value::Int(2009)]);
        // Group by dept over a left outer join: COUNT(t.course_id) skips
        // the NULL-extended rows.
        let r = run(
            "SELECT dept_id, COUNT(course_id) FROM instructor i LEFT OUTER JOIN teaches t \
             ON i.id = t.id GROUP BY dept_id HAVING COUNT(course_id) >= 1",
            &d,
        );
        assert_eq!(r.rows(), &[vec![Value::Int(1), Value::Int(1)]]);
    }

    #[test]
    fn aggregates_skip_nulls_from_outer_join() {
        let mut d = db();
        d.push("teaches", vec![Value::Int(1), Value::Int(100), Value::Int(1), Value::Int(2009)]);
        // COUNT(t.course_id) counts only matched rows; COUNT(*) counts all.
        let r = run(
            "SELECT COUNT(t.course_id), COUNT(*) FROM instructor i LEFT OUTER JOIN teaches t \
             ON i.id = t.id",
            &d,
        );
        assert_eq!(r.rows(), &[vec![Value::Int(1), Value::Int(4)]]);
    }
}
