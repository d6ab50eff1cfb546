//! Datasets: the test cases X-Data generates.
//!
//! A *test case* is "simply a (legal) database instance" (§I). Datasets are
//! deliberately tiny — a handful of tuples — because a human must inspect
//! each one and decide what the intended query output is.

use std::collections::BTreeMap;
use std::fmt;

use crate::schema::Schema;
use crate::value::Value;

/// One row of a relation.
pub type Tuple = Vec<Value>;

/// A database instance: relation name → tuples (bag semantics; duplicates
/// only survive when the relation has no primary key).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dataset {
    relations: BTreeMap<String, Vec<Tuple>>,
    /// Optional human-readable label, e.g. which mutant group this dataset
    /// was generated to kill ("nullify teaches.id").
    pub label: String,
}

impl Dataset {
    pub fn new() -> Self {
        Dataset::default()
    }

    pub fn with_label(label: impl Into<String>) -> Self {
        Dataset { label: label.into(), ..Dataset::default() }
    }

    /// Append one tuple to `relation` (creating it if absent).
    pub fn push(&mut self, relation: &str, tuple: Tuple) {
        self.relations.entry(relation.to_string()).or_default().push(tuple);
    }

    /// Ensure `relation` exists (possibly empty).
    pub fn ensure_relation(&mut self, relation: &str) {
        self.relations.entry(relation.to_string()).or_default();
    }

    pub fn relation(&self, name: &str) -> Option<&[Tuple]> {
        self.relations.get(name).map(Vec::as_slice)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Tuple])> {
        self.relations.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Total number of tuples across all relations — the paper's "small"
    /// metric.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.relations.values().all(Vec::is_empty)
    }

    /// Drop duplicate tuples in relations that have a primary key. The
    /// solver "may of course make these tuples equal, and we eliminate
    /// duplicates before creating a dataset in the database if the relation
    /// has primary key constraints" (§V-B).
    pub fn dedup_primary_keys(&mut self, schema: &Schema) {
        for (name, tuples) in &mut self.relations {
            let has_pk =
                schema.relation(name).map(|r| !r.primary_key.is_empty()).unwrap_or(false);
            if has_pk {
                tuples.sort();
                tuples.dedup();
            }
        }
    }

    /// Check primary-key uniqueness and foreign-key referential integrity
    /// against `schema`; returns a list of human-readable violations
    /// (empty = legal instance).
    pub fn integrity_violations(&self, schema: &Schema) -> Vec<String> {
        let mut errs = Vec::new();
        for (name, tuples) in &self.relations {
            let Some(rel) = schema.relation(name) else {
                errs.push(format!("relation `{name}` not in schema"));
                continue;
            };
            for t in tuples {
                if t.len() != rel.arity() {
                    errs.push(format!(
                        "tuple arity {} does not match relation `{name}` arity {}",
                        t.len(),
                        rel.arity()
                    ));
                }
            }
            if !rel.primary_key.is_empty() {
                let mut keys: Vec<Vec<&Value>> = tuples
                    .iter()
                    .map(|t| rel.primary_key.iter().map(|p| &t[*p]).collect())
                    .collect();
                keys.sort();
                for w in keys.windows(2) {
                    if w[0] == w[1] {
                        errs.push(format!(
                            "duplicate primary key {:?} in `{name}`",
                            w[0].iter().map(|v| v.to_string()).collect::<Vec<_>>()
                        ));
                    }
                }
            }
            for (pos, attr) in rel.attributes.iter().enumerate() {
                if !attr.nullable {
                    for t in tuples {
                        if pos < t.len() && t[pos].is_null() {
                            errs.push(format!(
                                "NULL in non-nullable column `{name}.{}`",
                                attr.name
                            ));
                        }
                    }
                }
            }
        }
        for fk in schema.foreign_keys() {
            let from = self.relations.get(&fk.from).cloned().unwrap_or_default();
            let to = self.relations.get(&fk.to).cloned().unwrap_or_default();
            for t in &from {
                let key: Vec<&Value> = fk.from_cols.iter().map(|c| &t[*c]).collect();
                if key.iter().any(|v| v.is_null()) {
                    continue; // nullable FK: NULL key imposes no reference
                }
                let matched = to.iter().any(|u| {
                    fk.to_cols.iter().zip(&key).all(|(c, k)| u[*c].group_eq(k))
                });
                if !matched {
                    errs.push(format!(
                        "foreign key violation: {}{:?} has no match in {}",
                        fk.from,
                        key.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
                        fk.to
                    ));
                }
            }
        }
        errs
    }
}

impl Dataset {
    /// Render as `INSERT INTO ... VALUES ...` statements, so generated test
    /// cases can be loaded into a real DBMS (the deployment path of the
    /// XData grading tool). Round-trips through `xdata_sql::parse_script`.
    pub fn to_insert_sql(&self) -> String {
        let mut out = String::new();
        for (name, tuples) in &self.relations {
            if tuples.is_empty() {
                continue;
            }
            out.push_str(&format!("INSERT INTO {name} VALUES\n"));
            for (i, t) in tuples.iter().enumerate() {
                let cells: Vec<String> = t
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
                        other => other.to_string(),
                    })
                    .collect();
                out.push_str(&format!(
                    "  ({}){}\n",
                    cells.join(", "),
                    if i + 1 == tuples.len() { ";" } else { "," }
                ));
            }
        }
        out
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.label.is_empty() {
            writeln!(f, "-- dataset: {}", self.label)?;
        }
        for (name, tuples) in &self.relations {
            writeln!(f, "{name}:")?;
            if tuples.is_empty() {
                writeln!(f, "  (empty)")?;
            }
            for t in tuples {
                let row: Vec<String> = t.iter().map(|v| v.to_string()).collect();
                writeln!(f, "  ({})", row.join(", "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Relation};
    use crate::types::SqlType;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_relation(
            Relation::new(
                "instructor",
                vec![Attribute::new("id", SqlType::Int), Attribute::new("name", SqlType::Varchar)],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        s.add_relation(
            Relation::new(
                "teaches",
                vec![Attribute::new("id", SqlType::Int), Attribute::new("cid", SqlType::Int)],
                &["id", "cid"],
            )
            .unwrap(),
        )
        .unwrap();
        s.add_foreign_key("teaches", &["id"], "instructor", &["id"]).unwrap();
        s
    }

    #[test]
    fn push_and_count() {
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("a".into())]);
        d.push("teaches", vec![Value::Int(1), Value::Int(10)]);
        assert_eq!(d.total_tuples(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn dedup_respects_primary_keys() {
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("a".into())]);
        d.push("instructor", vec![Value::Int(1), Value::Str("a".into())]);
        d.dedup_primary_keys(&schema());
        assert_eq!(d.relation("instructor").unwrap().len(), 1);
    }

    #[test]
    fn integrity_detects_fk_violation() {
        let mut d = Dataset::new();
        d.push("teaches", vec![Value::Int(5), Value::Int(10)]);
        let errs = d.integrity_violations(&schema());
        assert!(errs.iter().any(|e| e.contains("foreign key violation")));
    }

    #[test]
    fn integrity_detects_pk_violation() {
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("a".into())]);
        d.push("instructor", vec![Value::Int(1), Value::Str("b".into())]);
        let errs = d.integrity_violations(&schema());
        assert!(errs.iter().any(|e| e.contains("duplicate primary key")));
    }

    #[test]
    fn legal_instance_has_no_violations() {
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("a".into())]);
        d.push("teaches", vec![Value::Int(1), Value::Int(10)]);
        assert!(d.integrity_violations(&schema()).is_empty());
    }

    #[test]
    fn null_in_non_nullable_detected() {
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Null, Value::Str("a".into())]);
        let errs = d.integrity_violations(&schema());
        assert!(errs.iter().any(|e| e.contains("non-nullable")));
    }

    #[test]
    fn insert_sql_renders_rows_and_escapes() {
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("O'Hara".into())]);
        d.push("instructor", vec![Value::Int(2), Value::Str("Wu".into())]);
        let sql = d.to_insert_sql();
        assert!(sql.contains("INSERT INTO instructor VALUES"));
        assert!(sql.contains("(1, 'O''Hara'),"));
        assert!(sql.contains("(2, 'Wu');"));
        // Empty relations produce no statement.
        let mut e = Dataset::new();
        e.ensure_relation("teaches");
        assert!(e.to_insert_sql().is_empty());
    }

    #[test]
    fn display_renders_rows() {
        let mut d = Dataset::with_label("kill join mutant");
        d.push("instructor", vec![Value::Int(1), Value::Str("a".into())]);
        let s = d.to_string();
        assert!(s.contains("kill join mutant"));
        assert!(s.contains("instructor:"));
        assert!(s.contains("(1, 'a')"));
    }
}
