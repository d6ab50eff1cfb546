//! Relational schemata with primary- and foreign-key constraints.
//!
//! Per assumption A1 of the paper, primary and foreign keys are the only
//! integrity constraints. §V-B's preprocessing requires the *transitive
//! closure* of foreign-key relationships (if `A.x → B.x` and `B.x → C.x`
//! then also `A.x → C.x`): Algorithm 2 nullifies a key column jointly with
//! every column that references it directly or indirectly through
//! non-nullable foreign keys, which [`Schema::strict_fk_closure`] lists.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::CatalogError;
use crate::types::SqlType;

/// A column of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: String,
    pub ty: SqlType,
    /// Whether NULLs are allowed. Foreign-key columns are non-nullable by
    /// default (assumption A2); §V-H's relaxation is expressed by setting
    /// this to `true` explicitly.
    pub nullable: bool,
}

impl Attribute {
    pub fn new(name: impl Into<String>, ty: SqlType) -> Self {
        Attribute { name: name.into(), ty, nullable: false }
    }

    pub fn nullable(mut self) -> Self {
        self.nullable = true;
        self
    }
}

/// A base relation (table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    pub name: String,
    pub attributes: Vec<Attribute>,
    /// Positions of the primary-key columns (empty = no primary key).
    pub primary_key: Vec<usize>,
}

impl Relation {
    /// Build a relation; `primary_key` lists key column *names*.
    pub fn new(
        name: impl Into<String>,
        attributes: Vec<Attribute>,
        primary_key: &[&str],
    ) -> Result<Self, CatalogError> {
        let name = name.into();
        let mut seen = BTreeSet::new();
        for a in &attributes {
            if !seen.insert(a.name.clone()) {
                return Err(CatalogError::DuplicateAttribute {
                    relation: name,
                    attribute: a.name.clone(),
                });
            }
        }
        let mut pk = Vec::with_capacity(primary_key.len());
        for k in primary_key {
            match attributes.iter().position(|a| a.name == *k) {
                Some(p) => pk.push(p),
                None => return Err(CatalogError::BadPrimaryKey { relation: name }),
            }
        }
        Ok(Relation { name, attributes, primary_key: pk })
    }

    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of attribute `name`, if any.
    pub fn attr_pos(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }

    pub fn attr(&self, pos: usize) -> &Attribute {
        &self.attributes[pos]
    }

    /// Whether the column positions `cols` are exactly the primary key
    /// (order-insensitive).
    pub fn is_primary_key(&self, cols: &[usize]) -> bool {
        !self.primary_key.is_empty()
            && cols.len() == self.primary_key.len()
            && self.primary_key.iter().all(|k| cols.contains(k))
    }
}

/// A foreign-key constraint: `from.from_cols` references `to.to_cols`
/// (which must be the primary key of `to`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ForeignKey {
    pub from: String,
    pub from_cols: Vec<usize>,
    pub to: String,
    pub to_cols: Vec<usize>,
}

impl fmt::Display for ForeignKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({:?}) -> {}({:?})", self.from, self.from_cols, self.to, self.to_cols)
    }
}

/// A column identified by relation name and position.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColumnRef {
    pub relation: String,
    pub column: usize,
}

impl ColumnRef {
    pub fn new(relation: impl Into<String>, column: usize) -> Self {
        ColumnRef { relation: relation.into(), column }
    }
}

/// A database schema: relations plus foreign keys.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    relations: BTreeMap<String, Relation>,
    foreign_keys: Vec<ForeignKey>,
}

impl Schema {
    pub fn new() -> Self {
        Schema::default()
    }

    pub fn add_relation(&mut self, rel: Relation) -> Result<(), CatalogError> {
        if self.relations.contains_key(&rel.name) {
            return Err(CatalogError::DuplicateRelation(rel.name));
        }
        self.relations.insert(rel.name.clone(), rel);
        Ok(())
    }

    /// Add a foreign key by column names, validating arity, target (must be
    /// the referenced relation's primary key) and type compatibility.
    pub fn add_foreign_key(
        &mut self,
        from: &str,
        from_cols: &[&str],
        to: &str,
        to_cols: &[&str],
    ) -> Result<(), CatalogError> {
        let from_rel = self
            .relations
            .get(from)
            .ok_or_else(|| CatalogError::UnknownRelation(from.into()))?;
        let to_rel = self
            .relations
            .get(to)
            .ok_or_else(|| CatalogError::UnknownRelation(to.into()))?;
        if from_cols.len() != to_cols.len() {
            return Err(CatalogError::ForeignKeyArity {
                from: from.into(),
                to: to.into(),
                from_cols: from_cols.len(),
                to_cols: to_cols.len(),
            });
        }
        let mut f_pos = Vec::new();
        for c in from_cols {
            f_pos.push(from_rel.attr_pos(c).ok_or_else(|| CatalogError::UnknownAttribute {
                relation: from.into(),
                attribute: (*c).into(),
            })?);
        }
        let mut t_pos = Vec::new();
        for c in to_cols {
            t_pos.push(to_rel.attr_pos(c).ok_or_else(|| CatalogError::UnknownAttribute {
                relation: to.into(),
                attribute: (*c).into(),
            })?);
        }
        if !to_rel.is_primary_key(&t_pos) {
            return Err(CatalogError::ForeignKeyTarget { from: from.into(), to: to.into() });
        }
        for (fp, tp) in f_pos.iter().zip(&t_pos) {
            let ft = from_rel.attr(*fp).ty;
            let tt = to_rel.attr(*tp).ty;
            if !ft.comparable_with(tt) {
                return Err(CatalogError::ForeignKeyTypeMismatch {
                    from: from.into(),
                    from_col: from_rel.attr(*fp).name.clone(),
                    to: to.into(),
                    to_col: to_rel.attr(*tp).name.clone(),
                });
            }
        }
        self.foreign_keys.push(ForeignKey {
            from: from.into(),
            from_cols: f_pos,
            to: to.into(),
            to_cols: t_pos,
        });
        Ok(())
    }

    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Remove all foreign keys (used by the evaluation's FK-count sweep).
    pub fn clear_foreign_keys(&mut self) {
        self.foreign_keys.clear();
    }

    /// Keep only the first `n` foreign keys (evaluation sweep, Table I).
    pub fn truncate_foreign_keys(&mut self, n: usize) {
        self.foreign_keys.truncate(n);
    }

    /// Transitive closure of the foreign keys whose referencing columns are
    /// all **non-nullable**, at column granularity (§V-B preprocessing step
    /// 3). Multi-column keys close over aligned column pairs. Algorithm 2
    /// nullifies a column jointly with every column that reaches it here.
    /// Nullable foreign keys (§V-H's relaxation of assumption A2) stay out:
    /// their referencing column can simply take NULL instead.
    ///
    /// Returns edges `(referencing column, referenced column)`.
    pub fn strict_fk_closure(&self) -> BTreeSet<(ColumnRef, ColumnRef)> {
        let mut edges = BTreeSet::new();
        for fk in &self.foreign_keys {
            let Some(from_rel) = self.relation(&fk.from) else { continue };
            if fk.from_cols.iter().any(|c| from_rel.attr(*c).nullable) {
                continue;
            }
            for (f, t) in fk.from_cols.iter().zip(&fk.to_cols) {
                edges.insert((ColumnRef::new(&fk.from, *f), ColumnRef::new(&fk.to, *t)));
            }
        }
        // Floyd–Warshall-style closure over column edges.
        loop {
            let mut added = Vec::new();
            for (a, b) in &edges {
                for (c, d) in &edges {
                    if b == c {
                        let e = (a.clone(), d.clone());
                        if !edges.contains(&e) {
                            added.push(e);
                        }
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            edges.extend(added);
        }
        edges
    }

    /// Relations reachable from `roots` by following foreign keys out of
    /// them (transitively). Generated datasets must populate these too so
    /// the instance satisfies all integrity constraints (§V-B).
    pub fn fk_reachable(&self, roots: &BTreeSet<String>) -> BTreeSet<String> {
        let mut out = roots.clone();
        let mut frontier: Vec<String> = roots.iter().cloned().collect();
        while let Some(r) = frontier.pop() {
            for fk in &self.foreign_keys {
                if fk.from == r && !out.contains(&fk.to) {
                    out.insert(fk.to.clone());
                    frontier.push(fk.to.clone());
                }
            }
        }
        out
    }

    /// Foreign keys whose referenced relation is `rel`.
    pub fn fks_to<'a>(&'a self, rel: &'a str) -> impl Iterator<Item = &'a ForeignKey> + 'a {
        self.foreign_keys.iter().filter(move |fk| fk.to == rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc_schema() -> Schema {
        let mut s = Schema::new();
        for name in ["a", "b", "c"] {
            s.add_relation(
                Relation::new(
                    name,
                    vec![Attribute::new("x", SqlType::Int), Attribute::new("y", SqlType::Int)],
                    &["x"],
                )
                .unwrap(),
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut s = abc_schema();
        let r = Relation::new("a", vec![Attribute::new("x", SqlType::Int)], &["x"]).unwrap();
        assert_eq!(s.add_relation(r), Err(CatalogError::DuplicateRelation("a".into())));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let r = Relation::new(
            "r",
            vec![Attribute::new("x", SqlType::Int), Attribute::new("x", SqlType::Int)],
            &[],
        );
        assert!(matches!(r, Err(CatalogError::DuplicateAttribute { .. })));
    }

    #[test]
    fn fk_must_reference_primary_key() {
        let mut s = abc_schema();
        assert!(matches!(
            s.add_foreign_key("a", &["x"], "b", &["y"]),
            Err(CatalogError::ForeignKeyTarget { .. })
        ));
        assert!(s.add_foreign_key("a", &["x"], "b", &["x"]).is_ok());
    }

    #[test]
    fn fk_arity_checked() {
        let mut s = abc_schema();
        assert!(matches!(
            s.add_foreign_key("a", &["x", "y"], "b", &["x"]),
            Err(CatalogError::ForeignKeyArity { .. })
        ));
    }

    #[test]
    fn fk_unknown_names_checked() {
        let mut s = abc_schema();
        assert!(matches!(
            s.add_foreign_key("a", &["z"], "b", &["x"]),
            Err(CatalogError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            s.add_foreign_key("zz", &["x"], "b", &["x"]),
            Err(CatalogError::UnknownRelation(_))
        ));
    }

    #[test]
    fn strict_fk_closure_is_transitive() {
        let mut s = abc_schema();
        s.add_foreign_key("a", &["x"], "b", &["x"]).unwrap();
        s.add_foreign_key("b", &["x"], "c", &["x"]).unwrap();
        let closure = s.strict_fk_closure();
        assert!(closure.contains(&(ColumnRef::new("a", 0), ColumnRef::new("c", 0))));
        assert_eq!(closure.len(), 3); // a->b, b->c, a->c
        // a.x and b.x both reach c.x: Algorithm 2's set `S` for c.x.
        let refs: Vec<&ColumnRef> =
            closure.iter().filter(|(_, to)| to.relation == "c").map(|(from, _)| from).collect();
        assert_eq!(refs, [&ColumnRef::new("a", 0), &ColumnRef::new("b", 0)]);
    }

    #[test]
    fn nullable_fk_breaks_strict_chain() {
        // a.y -> b.x is strict; b.y -> c.x has a nullable referencing
        // column, so a.y does not strictly reach c.x.
        let mut s = Schema::new();
        for name in ["a", "b", "c"] {
            let y = Attribute::new("y", SqlType::Int);
            let y = if name == "b" { y.nullable() } else { y };
            s.add_relation(
                Relation::new(name, vec![Attribute::new("x", SqlType::Int), y], &["x"]).unwrap(),
            )
            .unwrap();
        }
        s.add_foreign_key("a", &["y"], "b", &["x"]).unwrap();
        s.add_foreign_key("b", &["y"], "c", &["x"]).unwrap();
        let closure = s.strict_fk_closure();
        assert_eq!(
            closure.into_iter().collect::<Vec<_>>(),
            vec![(ColumnRef::new("a", 1), ColumnRef::new("b", 0))]
        );
    }

    #[test]
    fn fk_reachable_walks_out_edges() {
        let mut s = abc_schema();
        s.add_foreign_key("a", &["x"], "b", &["x"]).unwrap();
        s.add_foreign_key("b", &["x"], "c", &["x"]).unwrap();
        let roots: BTreeSet<String> = ["a".to_string()].into_iter().collect();
        let reach = s.fk_reachable(&roots);
        assert_eq!(reach.len(), 3);
    }

    #[test]
    fn truncate_foreign_keys_for_sweep() {
        let mut s = abc_schema();
        s.add_foreign_key("a", &["x"], "b", &["x"]).unwrap();
        s.add_foreign_key("b", &["x"], "c", &["x"]).unwrap();
        s.truncate_foreign_keys(1);
        assert_eq!(s.foreign_keys().len(), 1);
        s.clear_foreign_keys();
        assert!(s.foreign_keys().is_empty());
    }
}
