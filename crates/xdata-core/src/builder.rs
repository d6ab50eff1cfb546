//! Constraint construction: the `cvcMap`/`genDBConstraints` machinery of
//! §V-A/§V-B, targeting `xdata-solver` instead of CVC3.
//!
//! One [`ConstraintBuilder`] builds the constraint problem for **one**
//! dataset:
//!
//! * one tuple array per participating base relation (query relations plus
//!   everything transitively reachable through foreign keys, §V-B);
//! * per relation, slots for each occurrence (×3 tuple-set copies for
//!   aggregate datasets) plus *repair* slots so a referenced key can be
//!   nullified while referencing tuples still find a (different) match;
//! * primary keys as functional-dependency (chase) constraints — footnote 3
//!   of the paper;
//! * foreign keys as bounded `∀∃` constraints (quantified, so the §VI-B
//!   unfolding experiment is meaningful);
//! * domain constraints for every attribute;
//! * optional input-database constraints (§VI-A).

use std::collections::{BTreeMap, BTreeSet};

use xdata_catalog::{Dataset, Domain, DomainCatalog, Schema, Value};
use xdata_relalg::{AttrRef, NormQuery, Operand, Pred, SubCond, SubPred, SubqueryKind};
use xdata_sql::CompareOp;
use xdata_solver::{membership_formula, ArrayId, Atom, Formula, LikePattern, Problem, RelOp, Term};

use crate::error::GenError;

/// Upper bound on repair slots per relation: keeps constraint problems
/// small even for deep foreign-key chains; enough for every query shape in
/// the paper's evaluation.
pub const MAX_REPAIR_SLOTS: u32 = 6;

/// Repair-capacity ladder for iterative deepening: most targets are
/// satisfiable with at most one repair tuple per relation, so the generator
/// tries small tuple arrays first and widens only on UNSAT. Only an UNSAT
/// at the full capacity is reported as "equivalent mutant".
pub const REPAIR_LADDER: [u32; 3] = [1, 3, MAX_REPAIR_SLOTS];

/// Integer code standing for SQL NULL in the solver (§V-H nullable foreign
/// keys). Outside every attribute domain, so it can never be produced by
/// accident; materialization decodes it back to [`Value::Null`].
pub const NULL_SENTINEL: i64 = -1_000_000;

/// Cloneable so a fully-built base skeleton (arrays + database
/// constraints) can be cached per `(copies, repair_cap)` and cloned out to
/// each solve target instead of being rebuilt from scratch per target.
#[derive(Clone)]
pub struct ConstraintBuilder<'a> {
    pub schema: &'a Schema,
    pub query: &'a NormQuery,
    pub domains: &'a DomainCatalog,
    /// Tuple-set copies per occurrence (1 normally, 3 for Algorithm 4).
    pub copies: u32,
    pub problem: Problem,
    arrays: BTreeMap<String, ArrayId>,
    /// occurrence → first slot index (copies are consecutive).
    occ_slot: Vec<u32>,
    /// relation → (first repair slot, slot count).
    slot_info: BTreeMap<String, (u32, u32)>,
    /// Relations whose tuples are pinned to an input database; their
    /// enumerated domain constraints are redundant (the tuple-level
    /// constraint subsumes them) and skipped.
    input_pinned: BTreeSet<String>,
    /// `(relation, column)` pairs whose domain admits [`NULL_SENTINEL`]:
    /// nullable foreign-key columns (§V-H, where the sentinel also exempts
    /// the tuple from the FK reference requirement), plus nullable
    /// NULL-checked attributes and nullable linked `IN`-subquery columns
    /// (so NULL-targeted datasets are expressible).
    nullable_fk_cols: BTreeSet<(String, usize)>,
    /// Subquery predicate → first reserved witness slot in its base
    /// relation's array (`copies` membership/existence witnesses, then one
    /// NULL-membership slot).
    sub_witness: Vec<u32>,
}

impl<'a> ConstraintBuilder<'a> {
    /// Build with the default (maximum) repair capacity.
    pub fn new(
        schema: &'a Schema,
        query: &'a NormQuery,
        domains: &'a DomainCatalog,
        copies: u32,
    ) -> Result<Self, GenError> {
        Self::with_repair_cap(schema, query, domains, copies, MAX_REPAIR_SLOTS)
    }

    /// Build with an explicit repair-slot cap (iterative deepening rung).
    pub fn with_repair_cap(
        schema: &'a Schema,
        query: &'a NormQuery,
        domains: &'a DomainCatalog,
        copies: u32,
        repair_cap: u32,
    ) -> Result<Self, GenError> {
        let mut problem = Problem::new();
        // Participating relations: occurrence bases, subquery bases, plus
        // FK-reachable.
        let bases: BTreeSet<String> = query
            .occurrences
            .iter()
            .map(|o| o.base.clone())
            .chain(query.subs.iter().map(|s| s.base.clone()))
            .collect();
        let participating = schema.fk_reachable(&bases);

        // Slot counts: occurrence slots, then subquery witness slots, then
        // repair slots sized by the referencing relations (fixpoint over
        // the FK graph, capped).
        let mut occ_count: BTreeMap<&str, u32> = BTreeMap::new();
        for o in &query.occurrences {
            *occ_count.entry(o.base.as_str()).or_insert(0) += 1;
        }
        // Each subquery predicate reserves *ground* witness slots in its
        // base relation: one membership/existence witness per tuple-set
        // copy plus one NULL-membership slot. Ground (not
        // quantifier-chosen) because materialization keeps exactly the
        // occupied prefix — a witness picked by the solver among repair
        // slots could be dropped.
        let mut wit_count: BTreeMap<&str, u32> = BTreeMap::new();
        for s in &query.subs {
            *wit_count.entry(s.base.as_str()).or_insert(0) += copies + 1;
        }
        let occupied = |r: &str| -> u32 {
            occ_count.get(r).copied().unwrap_or(0) * copies
                + wit_count.get(r).copied().unwrap_or(0)
        };
        let mut slots: BTreeMap<String, u32> =
            participating.iter().map(|r| (r.clone(), occupied(r))).collect();
        // Worst case every referencing tuple needs its own referenced
        // tuple, so repair capacity is the *sum* over incoming FKs of the
        // referencing relation's slot count (capped — see MAX_REPAIR_SLOTS).
        for _ in 0..participating.len() {
            let snapshot = slots.clone();
            for to in &participating {
                let need: u32 = schema
                    .fks_to(to)
                    .filter(|fk| participating.contains(&fk.from))
                    .map(|fk| snapshot.get(&fk.from).copied().unwrap_or(0))
                    .sum();
                let base_occ = occupied(to);
                let entry = slots.get_mut(to).expect("participating");
                *entry = (*entry).max(base_occ + need.min(repair_cap));
            }
        }

        let mut arrays = BTreeMap::new();
        let mut slot_info = BTreeMap::new();
        for rel_name in &participating {
            let rel = schema
                .relation(rel_name)
                .ok_or_else(|| GenError::Internal(format!("relation `{rel_name}` vanished")))?;
            let total = (*slots.get(rel_name).expect("sized")).max(1);
            let occ_slots = occupied(rel_name);
            let id = problem.add_array(rel_name.clone(), total, rel.arity() as u32);
            arrays.insert(rel_name.clone(), id);
            slot_info.insert(rel_name.clone(), (occ_slots, total));
        }

        // Occurrence → slot assignment (per base, in occurrence order).
        let mut next: BTreeMap<&str, u32> = BTreeMap::new();
        let mut occ_slot = Vec::with_capacity(query.occurrences.len());
        for o in &query.occurrences {
            let n = next.entry(o.base.as_str()).or_insert(0);
            occ_slot.push(*n);
            *n += copies;
        }
        // Subquery witness slots follow all occurrence slots of their base
        // relation, in subquery order.
        let mut wit_next: BTreeMap<&str, u32> = BTreeMap::new();
        let mut sub_witness = Vec::with_capacity(query.subs.len());
        for s in &query.subs {
            let occ_slots = occ_count.get(s.base.as_str()).copied().unwrap_or(0) * copies;
            let n = wit_next.entry(s.base.as_str()).or_insert(0);
            sub_witness.push(occ_slots + *n);
            *n += copies + 1;
        }

        let mut nullable_fk_cols = BTreeSet::new();
        for fk in schema.foreign_keys() {
            if let Some(rel) = schema.relation(&fk.from) {
                for c in &fk.from_cols {
                    if rel.attr(*c).nullable {
                        nullable_fk_cols.insert((fk.from.clone(), *c));
                    }
                }
            }
        }
        // NULL-targeted positions the query reasons about get the sentinel
        // admitted into their domain too: nullable NULL-checked attributes
        // and nullable linked `IN`-subquery columns.
        for n in &query.null_checks {
            let base = &query.occurrences[n.attr.occ].base;
            if let Some(rel) = schema.relation(base) {
                if n.attr.col < rel.arity() && rel.attr(n.attr.col).nullable {
                    nullable_fk_cols.insert((base.clone(), n.attr.col));
                }
            }
        }
        for s in &query.subs {
            if let Some((_, col)) = &s.link {
                if let Some(rel) = schema.relation(&s.base) {
                    if *col < rel.arity() && rel.attr(*col).nullable {
                        nullable_fk_cols.insert((s.base.clone(), *col));
                    }
                }
            }
        }

        Ok(ConstraintBuilder {
            schema,
            query,
            domains,
            copies,
            problem,
            arrays,
            occ_slot,
            slot_info,
            input_pinned: BTreeSet::new(),
            nullable_fk_cols,
            sub_witness,
        })
    }

    /// The tuple array of base relation `rel`.
    pub fn array(&self, rel: &str) -> ArrayId {
        self.arrays[rel]
    }

    pub fn participating(&self) -> impl Iterator<Item = (&str, ArrayId)> {
        self.arrays.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Slot of `occ`'s tuple for copy `c` — the paper's `currentIndex` map.
    pub fn slot(&self, occ: usize, copy: u32) -> u32 {
        debug_assert!(copy < self.copies);
        self.occ_slot[occ] + copy
    }

    /// `cvcMap`: the solver term for an occurrence attribute (copy `c`).
    pub fn cvc_map(&self, a: AttrRef, copy: u32) -> Term {
        let base = &self.query.occurrences[a.occ].base;
        Term::field(self.arrays[base], self.slot(a.occ, copy), a.col as u32)
    }

    /// Encode a predicate operand.
    fn operand_term(&self, o: &Operand, other: &Operand, copy: u32) -> Result<Term, GenError> {
        match o {
            Operand::Attr { attr, offset } => Ok(self.cvc_map(*attr, copy).plus(*offset)),
            Operand::Const(v) => self.const_term(v, other),
        }
    }

    /// Encode a constant; string literals are coded through the dictionary
    /// of the attribute on the other side of the comparison.
    fn const_term(&self, v: &Value, other: &Operand) -> Result<Term, GenError> {
        match v {
            Value::Int(i) => Ok(Term::Const(*i)),
            Value::Double(d) => Ok(Term::Const(*d as i64)),
            Value::Str(s) => {
                let attr = other
                    .attr_ref()
                    .ok_or_else(|| GenError::UncodedString(s.clone()))?;
                let occ = &self.query.occurrences[attr.occ];
                self.domains
                    .encode_string(&occ.base, attr.col, s)
                    .map(Term::Const)
                    .ok_or_else(|| GenError::UncodedString(s.clone()))
            }
            Value::Null => Err(GenError::Internal("NULL literal in predicate (A6)".into())),
        }
    }

    /// The solver relation for a SQL comparison.
    pub(crate) fn relop(op: CompareOp) -> RelOp {
        match op {
            CompareOp::Eq => RelOp::Eq,
            CompareOp::Ne => RelOp::Ne,
            CompareOp::Lt => RelOp::Lt,
            CompareOp::Le => RelOp::Le,
            CompareOp::Gt => RelOp::Gt,
            CompareOp::Ge => RelOp::Ge,
        }
    }

    /// `cvcMap(Pred)`: the predicate as a ground formula over copy `c`,
    /// optionally with a different comparison operator (for the
    /// comparison-mutant datasets).
    pub fn pred_formula(&self, p: &Pred, copy: u32) -> Result<Formula, GenError> {
        self.pred_formula_with_op(p, p.op, copy)
    }

    pub fn pred_formula_with_op(
        &self,
        p: &Pred,
        op: CompareOp,
        copy: u32,
    ) -> Result<Formula, GenError> {
        let l = self.operand_term(&p.lhs, &p.rhs, copy)?;
        let r = self.operand_term(&p.rhs, &p.lhs, copy)?;
        Ok(Formula::Atom(Atom::new(l, Self::relop(op), r)))
    }

    /// `cvcMap(occ.col, i) op cvcMap(occ.col, j)` for every column of
    /// occurrence `occ`, in column order: the atoms that make two tuple-set
    /// copies of its tuple agree or differ.
    pub(crate) fn copy_atoms(&self, occ: usize, op: RelOp, i: u32, j: u32) -> Vec<Formula> {
        let base = &self.query.occurrences[occ].base;
        let arity = self.schema.relation(base).expect("occurrence base").arity();
        (0..arity)
            .map(|col| {
                let a = AttrRef::new(occ, col);
                Formula::Atom(Atom::new(self.cvc_map(a, i), op, self.cvc_map(a, j)))
            })
            .collect()
    }

    /// `generateEqConds`: chain equalities over an equivalence class.
    pub fn eq_conds(&self, members: &[AttrRef], copy: u32) -> Formula {
        Formula::and(members.windows(2).map(|w| {
            Formula::Atom(Atom::new(
                self.cvc_map(w[0], copy),
                RelOp::Eq,
                self.cvc_map(w[1], copy),
            ))
        }))
    }

    /// `NOT EXISTS i : base(target)[i].col = value` — nullify `target`'s
    /// base relation on the given value (§V-C).
    pub fn not_exists_value(&mut self, target: AttrRef, value: Term) -> Formula {
        let base = &self.query.occurrences[target.occ].base;
        let arr = self.arrays[base];
        let q = self.problem.fresh_qvar();
        Formula::not_exists(
            q,
            arr,
            Formula::Atom(Atom::new(Term::qfield(arr, q, target.col as u32), RelOp::Eq, value)),
        )
    }

    /// `genNotExists(p, r)`: no tuple of occurrence `r`'s base relation
    /// satisfies `p` when `r`'s attributes range over the whole array and
    /// the other occurrences keep their assigned tuples (§V-D).
    pub fn gen_not_exists(&mut self, p: &Pred, r: usize, copy: u32) -> Result<Formula, GenError> {
        let base = &self.query.occurrences[r].base;
        let arr = self.arrays[base];
        let q = self.problem.fresh_qvar();
        let term_of = |o: &Operand, other: &Operand, b: &mut Self| -> Result<Term, GenError> {
            match o {
                Operand::Attr { attr, offset } if attr.occ == r => {
                    Ok(Term::qfield(arr, q, attr.col as u32).plus(*offset))
                }
                _ => b.operand_term(o, other, copy),
            }
        };
        let l = term_of(&p.lhs, &p.rhs, self)?;
        let rt = term_of(&p.rhs, &p.lhs, self)?;
        Ok(Formula::not_exists(
            q,
            arr,
            Formula::Atom(Atom::new(l, Self::relop(p.op), rt)),
        ))
    }

    // ----- extended query classes: subqueries, LIKE, NULL checks --------

    /// Witness slot of subquery predicate `si` for copy `copy`.
    pub fn sub_witness_slot(&self, si: usize, copy: u32) -> u32 {
        debug_assert!(copy < self.copies);
        self.sub_witness[si] + copy
    }

    /// The spare NULL-membership slot of subquery predicate `si`.
    pub fn sub_null_slot(&self, si: usize) -> u32 {
        self.sub_witness[si] + self.copies
    }

    /// Guard `t ≠ NULL_SENTINEL`, emitted only for columns whose domain
    /// admits the sentinel (everywhere else it would be vacuous).
    fn not_null_guard(&self, rel: &str, col: usize, t: Term) -> Option<Formula> {
        self.nullable_fk_cols
            .contains(&(rel.to_string(), col))
            .then(|| Formula::atom(t, RelOp::Ne, Term::Const(NULL_SENTINEL)))
    }

    /// The rhs of a subquery condition as a solver term; string literals
    /// are coded through the subquery column's dictionary.
    fn sub_rhs_term(&self, sub: &SubPred, c: &SubCond, copy: u32) -> Result<Term, GenError> {
        match &c.rhs {
            Operand::Attr { attr, offset } => Ok(self.cvc_map(*attr, copy).plus(*offset)),
            Operand::Const(v) => self.encode_value(&sub.base, c.col, v).map(Term::Const),
        }
    }

    /// The engine counts a subquery tuple only when its conditions are
    /// *definitely* true (3VL), so the body conjoins every condition with
    /// NULL-sentinel guards on each nullable column involved — keeping
    /// solver truth aligned with engine truth.
    fn sub_conds_body(
        &self,
        sub: &SubPred,
        col_term: &dyn Fn(usize) -> Term,
        copy: u32,
    ) -> Result<Formula, GenError> {
        let mut parts = Vec::new();
        for c in &sub.conds {
            let l = col_term(c.col);
            let r = self.sub_rhs_term(sub, c, copy)?;
            parts.push(Formula::atom(l, Self::relop(c.op), r));
            if let Some(g) = self.not_null_guard(&sub.base, c.col, l) {
                parts.push(g);
            }
            if let Operand::Attr { attr, .. } = &c.rhs {
                let base = &self.query.occurrences[attr.occ].base;
                let raw = self.cvc_map(*attr, copy);
                if let Some(g) = self.not_null_guard(base, attr.col, raw) {
                    parts.push(g);
                }
            }
        }
        Ok(Formula::and(parts))
    }

    /// The linked outer operand of an `IN` subquery as a term, plus a NULL
    /// guard on its raw attribute when nullable (a NULL probe value makes
    /// neither `IN` nor `NOT IN` definitely true).
    fn sub_link_term(
        &self,
        sub: &SubPred,
        col: usize,
        copy: u32,
    ) -> Result<(Term, Option<Formula>), GenError> {
        let (link, _) = sub.link.as_ref().expect("linked subquery");
        match link {
            Operand::Attr { attr, offset } => {
                let raw = self.cvc_map(*attr, copy);
                let base = &self.query.occurrences[attr.occ].base;
                let g = self.not_null_guard(base, attr.col, raw);
                Ok((raw.plus(*offset), g))
            }
            Operand::Const(v) => Ok((Term::Const(self.encode_value(&sub.base, col, v)?), None)),
        }
    }

    /// Assert subquery predicate `si` under connective `(kind, negated)`
    /// for copy `copy` — possibly *not* the query's own connective (the
    /// flipped and distinguishing targets perturb it).
    ///
    /// Positive forms ground their witness at the predicate's reserved
    /// slot; negative forms quantify over the whole array (witness and
    /// repair slots included, so stray tuples cannot re-satisfy the
    /// condition). `NOT IN` additionally excludes a NULL in the linked
    /// column among condition-true tuples — the SQL trap where a single
    /// NULL member turns `NOT IN` into UNKNOWN for every probe.
    pub fn assert_subpred(
        &mut self,
        si: usize,
        kind: SubqueryKind,
        negated: bool,
        copy: u32,
    ) -> Result<(), GenError> {
        let query = self.query;
        let sub = &query.subs[si];
        let arr = self.arrays[&sub.base];
        match (kind, sub.link.as_ref()) {
            (SubqueryKind::In, Some((_, col))) => {
                let col = *col;
                if !negated {
                    let (x, x_guard) = self.sub_link_term(sub, col, copy)?;
                    let w = self.sub_witness_slot(si, copy);
                    let body =
                        self.sub_conds_body(sub, &|c| Term::field(arr, w, c as u32), copy)?;
                    let wcol = Term::field(arr, w, col as u32);
                    self.problem.assert(body);
                    self.problem.assert(Formula::atom(wcol, RelOp::Eq, x));
                    if let Some(g) = self.not_null_guard(&sub.base, col, wcol) {
                        self.problem.assert(g);
                    }
                    if let Some(g) = x_guard {
                        self.problem.assert(g);
                    }
                } else {
                    self.assert_no_member(si, copy, true)?;
                }
            }
            // EXISTS — and the degenerate unlinked IN, which the engine
            // also evaluates existentially.
            _ => {
                if !negated {
                    let w = self.sub_witness_slot(si, copy);
                    let body =
                        self.sub_conds_body(sub, &|c| Term::field(arr, w, c as u32), copy)?;
                    self.problem.assert(body);
                } else {
                    let q = self.problem.fresh_qvar();
                    let body =
                        self.sub_conds_body(sub, &|c| Term::qfield(arr, q, c as u32), copy)?;
                    self.problem.assert(Formula::not_exists(q, arr, body));
                }
            }
        }
        Ok(())
    }

    /// No condition-true subquery row matches the linked value. With
    /// `exclude_null_members` this is the full `NOT IN` truth condition
    /// (a NULL member alone makes `NOT IN` UNKNOWN, never TRUE); without
    /// it, NULL members stay admissible — the negated-`IN` NULL witness
    /// uses that weaker form so the trap row can coexist with a probe
    /// that matches nothing.
    pub fn assert_no_member(
        &mut self,
        si: usize,
        copy: u32,
        exclude_null_members: bool,
    ) -> Result<(), GenError> {
        let query = self.query;
        let sub = &query.subs[si];
        let arr = self.arrays[&sub.base];
        let Some((_, col)) = sub.link.as_ref() else { return Ok(()) };
        let col = *col;
        let (x, x_guard) = self.sub_link_term(sub, col, copy)?;
        let q = self.problem.fresh_qvar();
        let body = self.sub_conds_body(sub, &|c| Term::qfield(arr, q, c as u32), copy)?;
        let qcol = Term::qfield(arr, q, col as u32);
        let mut hit = vec![Formula::atom(qcol, RelOp::Eq, x)];
        if exclude_null_members && self.nullable_fk_cols.contains(&(sub.base.clone(), col)) {
            hit.push(Formula::atom(qcol, RelOp::Eq, Term::Const(NULL_SENTINEL)));
        }
        self.problem.assert(Formula::not_exists(q, arr, Formula::and([body, Formula::or(hit)])));
        if let Some(g) = x_guard {
            self.problem.assert(g);
        }
        Ok(())
    }

    /// Ground the reserved NULL-membership row of `IN`-subquery `si`: it
    /// satisfies the subquery conditions and carries NULL in the linked
    /// column. Combined with a positive `IN` assertion the dataset
    /// exhibits the `NOT IN` NULL trap — flipping the connective returns
    /// no rows at all instead of the complement.
    pub fn assert_sub_null_row(&mut self, si: usize, copy: u32) -> Result<(), GenError> {
        let query = self.query;
        let sub = &query.subs[si];
        let Some((_, col)) = &sub.link else { return Ok(()) };
        let col = *col;
        let arr = self.arrays[&sub.base];
        let w = self.sub_null_slot(si);
        let body = self.sub_conds_body(sub, &|c| Term::field(arr, w, c as u32), copy)?;
        self.problem.assert(body);
        self.problem.assert(Formula::atom(
            Term::field(arr, w, col as u32),
            RelOp::Eq,
            Term::Const(NULL_SENTINEL),
        ));
        Ok(())
    }

    /// Pin the spare NULL-membership slot of subquery `si` to a non-NULL
    /// linked column. Every target except the NULL-membership witness
    /// itself asserts this, so that witness dataset is the only one in
    /// the suite carrying a NULL member — the trap demonstration stays
    /// unambiguous instead of leaking a stray NULL row everywhere.
    pub fn suppress_null_spare(&mut self, si: usize) {
        let query = self.query;
        let sub = &query.subs[si];
        let Some((_, col)) = &sub.link else { return };
        let col = *col;
        if !self.nullable_fk_cols.contains(&(sub.base.clone(), col)) {
            return;
        }
        let arr = self.arrays[&sub.base];
        let t = Term::field(arr, self.sub_null_slot(si), col as u32);
        self.problem.assert(Formula::atom(t, RelOp::Ne, Term::Const(NULL_SENTINEL)));
    }

    /// The dictionary code set of `attr`'s column matching a LIKE pattern.
    pub fn like_codes(&self, attr: AttrRef, pattern: &str) -> Vec<i64> {
        let base = &self.query.occurrences[attr.occ].base;
        LikePattern::parse(pattern).matching_codes(self.domains.dictionary(base, attr.col))
    }

    /// Constrain `attr` to lie inside (`negated = false`) or outside the
    /// given code set, with a NULL guard when the column admits the
    /// sentinel (`NULL LIKE p` is UNKNOWN either way — the engine filters
    /// such rows out, so a NULL assignment would miss the target).
    pub fn assert_membership(&mut self, attr: AttrRef, codes: &[i64], negated: bool, copy: u32) {
        let query = self.query;
        let t = self.cvc_map(attr, copy);
        let base = &query.occurrences[attr.occ].base;
        let f = membership_formula(t, codes, negated);
        self.problem.assert(f);
        if let Some(g) = self.not_null_guard(base, attr.col, t) {
            self.problem.assert(g);
        }
    }

    /// Assert `attr IS NULL` (`negated = false`) or `attr IS NOT NULL`.
    /// On a non-nullable column the IS-NULL form contradicts the domain —
    /// that UNSAT correctly classifies the flipped check as equivalent.
    pub fn assert_null_check(&mut self, attr: AttrRef, negated: bool, copy: u32) {
        let t = self.cvc_map(attr, copy);
        let op = if negated { RelOp::Ne } else { RelOp::Eq };
        self.problem.assert(Formula::atom(t, op, Term::Const(NULL_SENTINEL)));
    }

    /// `genDBConstraints`: primary keys (as functional dependencies),
    /// foreign keys (bounded `∀∃`), and attribute domains (§V-B).
    pub fn gen_db_constraints(&mut self) {
        let mut constraints: Vec<Formula> = Vec::new();
        // Primary keys: the functional dependency (chase) constraint as a
        // bounded ∀∀ — `∀i ∀j : R[i].key = R[j].key ⇒ R[i] = R[j]` — kept
        // quantified like the paper's CVC3 constraints so the §VI-B
        // unfolding experiment covers it ("Similar unfolding can be done
        // for primary key constraints").
        let pk_rels: Vec<(String, xdata_solver::ArrayId)> = self
            .arrays
            .iter()
            .filter(|(r, _)| {
                !self.schema.relation(r).expect("participating relation").primary_key.is_empty()
            })
            .map(|(r, a)| (r.clone(), *a))
            .collect();
        for (rel_name, arr) in pk_rels {
            let rel = self.schema.relation(&rel_name).expect("participating relation");
            let qi = self.problem.fresh_qvar();
            let qj = self.problem.fresh_qvar();
            let key_eq = Formula::and(rel.primary_key.iter().map(|k| {
                Formula::Atom(Atom::new(
                    Term::qfield(arr, qi, *k as u32),
                    RelOp::Eq,
                    Term::qfield(arr, qj, *k as u32),
                ))
            }));
            let all_eq = Formula::and((0..rel.arity()).map(|c| {
                Formula::Atom(Atom::new(
                    Term::qfield(arr, qi, c as u32),
                    RelOp::Eq,
                    Term::qfield(arr, qj, c as u32),
                ))
            }));
            constraints.push(Formula::forall(
                qi,
                arr,
                Formula::forall(qj, arr, Formula::or([Formula::not(key_eq), all_eq])),
            ));
        }
        // Symmetry breaking: repair slots of a relation are interchangeable
        // (they exist only to receive FK witnesses), so order them by their
        // first key column. Without this the DPLL search explores
        // factorially many permutations of identical repair assignments.
        for (rel_name, &arr) in &self.arrays {
            let rel = self.schema.relation(rel_name).expect("participating relation");
            let (occupied, total) = self.slot_info[rel_name];
            let order_col = rel.primary_key.first().copied().unwrap_or(0) as u32;
            for i in occupied..total.saturating_sub(1) {
                constraints.push(Formula::Atom(Atom::new(
                    Term::field(arr, i, order_col),
                    RelOp::Le,
                    Term::field(arr, i + 1, order_col),
                )));
            }
        }
        // Foreign keys: ∀ i ∈ R ∃ j ∈ S : R[i].fk = S[j].pk — kept
        // quantified so both solving modes exercise §VI-B.
        let fks: Vec<_> = self
            .schema
            .foreign_keys()
            .iter()
            .filter(|fk| self.arrays.contains_key(&fk.from) && self.arrays.contains_key(&fk.to))
            .cloned()
            .collect();
        for fk in fks {
            let rarr = self.arrays[&fk.from];
            let sarr = self.arrays[&fk.to];
            let qi = self.problem.fresh_qvar();
            let qj = self.problem.fresh_qvar();
            let body = Formula::and(fk.from_cols.iter().zip(&fk.to_cols).map(|(fc, tc)| {
                Formula::Atom(Atom::new(
                    Term::qfield(rarr, qi, *fc as u32),
                    RelOp::Eq,
                    Term::qfield(sarr, qj, *tc as u32),
                ))
            }));
            // §V-H: a nullable FK column may take NULL instead of
            // referencing (SQL MATCH SIMPLE: any NULL column exempts the
            // tuple).
            let null_escape = Formula::or(fk.from_cols.iter().filter_map(|fc| {
                if self.nullable_fk_cols.contains(&(fk.from.clone(), *fc)) {
                    Some(Formula::Atom(Atom::new(
                        Term::qfield(rarr, qi, *fc as u32),
                        RelOp::Eq,
                        Term::Const(NULL_SENTINEL),
                    )))
                } else {
                    None
                }
            }));
            constraints.push(Formula::forall(
                qi,
                rarr,
                Formula::or([null_escape, Formula::exists(qj, sarr, body)]),
            ));
        }
        // Domains for every slot and attribute.
        for (rel_name, &arr) in &self.arrays {
            let rel = self.schema.relation(rel_name).expect("participating relation");
            let (_, total) = self.slot_info[rel_name];
            let pinned = self.input_pinned.contains(rel_name);
            for slot in 0..total {
                for (col, _attr) in rel.attributes.iter().enumerate() {
                    if let Some(dom) = self.domains.get(rel_name, col) {
                        if pinned && matches!(dom, Domain::Enumerated(_)) {
                            // Subsumed by the input-tuple constraint.
                            continue;
                        }
                        let t = Term::field(arr, slot, col as u32);
                        let base = domain_formula(dom, t);
                        let f = if self.nullable_fk_cols.contains(&(rel_name.clone(), col)) {
                            Formula::or([
                                Formula::Atom(Atom::new(t, RelOp::Eq, Term::Const(NULL_SENTINEL))),
                                base,
                            ])
                        } else {
                            base
                        };
                        constraints.push(f);
                    }
                }
            }
        }
        for c in constraints {
            self.problem.assert(c);
        }
    }

    /// §VI-A: force each generated tuple to equal one of the tuples of the
    /// input database (for relations present there).
    pub fn gen_input_db_constraints(&mut self, input: &Dataset) -> Result<(), GenError> {
        // `∀i : R[i] ∈ input tuples of R` — quantified, like the paper's
        // "constraints to pick a subset from the input database" which
        // §VI-B unfolds alongside the key constraints.
        let rels: Vec<(String, xdata_solver::ArrayId)> =
            self.arrays.iter().map(|(r, a)| (r.clone(), *a)).collect();
        for (rel_name, arr) in rels {
            let Some(tuples) = input.relation(&rel_name) else { continue };
            if tuples.is_empty() {
                continue;
            }
            let qi = self.problem.fresh_qvar();
            let choices: Result<Vec<Formula>, GenError> = tuples
                .iter()
                .map(|t| {
                    let cols: Result<Vec<Formula>, GenError> = t
                        .iter()
                        .enumerate()
                        .map(|(col, v)| {
                            let coded = self.encode_value(&rel_name, col, v)?;
                            Ok(Formula::Atom(Atom::new(
                                Term::qfield(arr, qi, col as u32),
                                RelOp::Eq,
                                Term::Const(coded),
                            )))
                        })
                        .collect();
                    Ok(Formula::and(cols?))
                })
                .collect();
            let f = Formula::forall(qi, arr, Formula::or(choices?));
            self.problem.assert(f);
            self.input_pinned.insert(rel_name);
        }
        Ok(())
    }

    /// Integer coding of a concrete value for `rel.col`.
    pub fn encode_value(&self, rel: &str, col: usize, v: &Value) -> Result<i64, GenError> {
        match v {
            Value::Int(i) => Ok(*i),
            Value::Double(d) => Ok(*d as i64),
            Value::Str(s) => self
                .domains
                .encode_string(rel, col, s)
                .ok_or_else(|| GenError::UncodedString(s.clone())),
            Value::Null => Err(GenError::Internal("NULL in input database tuple".into())),
        }
    }

    /// Slot metadata for materialization: `(occupied occurrence slots,
    /// total slots)` of a relation.
    pub fn slots_of(&self, rel: &str) -> (u32, u32) {
        self.slot_info[rel]
    }
}

fn domain_formula(dom: &Domain, t: Term) -> Formula {
    match dom {
        Domain::IntRange { lo, hi } => Formula::and([
            Formula::Atom(Atom::new(t, RelOp::Ge, Term::Const(*lo))),
            Formula::Atom(Atom::new(t, RelOp::Le, Term::Const(*hi))),
        ]),
        Domain::Enumerated(vals) => Formula::or(vals.iter().filter_map(|v| match v {
            Value::Int(i) => Some(Formula::Atom(Atom::new(t, RelOp::Eq, Term::Const(*i)))),
            Value::Double(d) if d.fract() == 0.0 => {
                Some(Formula::Atom(Atom::new(t, RelOp::Eq, Term::Const(*d as i64))))
            }
            _ => None,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdata_catalog::university;
    use xdata_relalg::normalize;
    use xdata_solver::{Mode, SolveOutcome};
    use xdata_sql::parse_query;

    fn setup(sql: &str, fks: usize) -> (Schema, NormQuery, DomainCatalog) {
        let schema = university::schema_with_fk_count(fks);
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        let domains = DomainCatalog::defaults(&schema);
        (schema, q, domains)
    }

    #[test]
    fn arrays_cover_fk_reachable_relations() {
        let (schema, q, domains) =
            setup("SELECT * FROM teaches t WHERE t.year = 2009", 2); // FKs into instructor+course
        let b = ConstraintBuilder::new(&schema, &q, &domains, 1).unwrap();
        let rels: Vec<&str> = b.participating().map(|(r, _)| r).collect();
        assert!(rels.contains(&"teaches"));
        assert!(rels.contains(&"instructor"), "pulled in via FK");
        assert!(rels.contains(&"course"), "pulled in via FK");
    }

    #[test]
    fn repeated_occurrences_share_array() {
        let (schema, q, domains) = setup(
            "SELECT * FROM instructor a, instructor b WHERE a.dept_id = b.dept_id",
            0,
        );
        let b = ConstraintBuilder::new(&schema, &q, &domains, 1).unwrap();
        assert_eq!(b.array("instructor"), b.array("instructor"));
        assert_ne!(b.slot(0, 0), b.slot(1, 0));
    }

    #[test]
    fn copies_get_consecutive_slots() {
        let (schema, q, domains) = setup("SELECT COUNT(salary) FROM instructor", 0);
        let b = ConstraintBuilder::new(&schema, &q, &domains, 3).unwrap();
        assert_eq!(b.slot(0, 0), 0);
        assert_eq!(b.slot(0, 1), 1);
        assert_eq!(b.slot(0, 2), 2);
    }

    #[test]
    fn db_constraints_satisfiable() {
        let (schema, q, domains) =
            setup("SELECT * FROM instructor i, teaches t WHERE i.id = t.id", 1);
        let mut b = ConstraintBuilder::new(&schema, &q, &domains, 1).unwrap();
        b.gen_db_constraints();
        // Query conditions too.
        let ec = q.eq_classes[0].clone();
        let f = b.eq_conds(&ec, 0);
        b.problem.assert(f);
        let out = b.problem.solve_checked(Mode::Unfold);
        assert!(out.is_sat());
    }

    #[test]
    fn pk_fd_constraint_enforced() {
        // Two occurrences of instructor forced to share the PK must agree
        // on every attribute.
        let (schema, q, domains) = setup(
            "SELECT * FROM instructor a, instructor b WHERE a.id = b.id",
            0,
        );
        let mut b = ConstraintBuilder::new(&schema, &q, &domains, 1).unwrap();
        b.gen_db_constraints();
        let ec = q.eq_classes[0].clone();
        let f = b.eq_conds(&ec, 0);
        b.problem.assert(f);
        // Force the two name columns to differ: contradiction with the FD.
        let t0 = b.cvc_map(AttrRef::new(0, 1), 0);
        let t1 = b.cvc_map(AttrRef::new(1, 1), 0);
        b.problem.assert(Formula::Atom(Atom::new(t0, RelOp::Ne, t1)));
        let out = b.problem.solve(Mode::Unfold);
        assert!(matches!(out, SolveOutcome::Unsat));
    }

    #[test]
    fn fk_with_nullification_is_unsat() {
        // Nullify instructor.id against teaches.id while the FK
        // teaches.id → instructor.id holds: Example 2's equivalent mutant.
        let (schema, q, domains) =
            setup("SELECT * FROM instructor i, teaches t WHERE i.id = t.id", 1);
        let mut b = ConstraintBuilder::new(&schema, &q, &domains, 1).unwrap();
        b.gen_db_constraints();
        // instructor.id is occ 0 col 0; teaches occurrence is occ 1.
        let teaches_id = b.cvc_map(AttrRef::new(1, 0), 0);
        let f = b.not_exists_value(AttrRef::new(0, 0), teaches_id);
        b.problem.assert(f);
        let out = b.problem.solve(Mode::Unfold);
        assert!(matches!(out, SolveOutcome::Unsat));
    }

    #[test]
    fn nullification_without_fk_is_sat() {
        let (schema, q, domains) =
            setup("SELECT * FROM instructor i, teaches t WHERE i.id = t.id", 0);
        let mut b = ConstraintBuilder::new(&schema, &q, &domains, 1).unwrap();
        b.gen_db_constraints();
        let teaches_id = b.cvc_map(AttrRef::new(1, 0), 0);
        let f = b.not_exists_value(AttrRef::new(0, 0), teaches_id);
        b.problem.assert(f);
        let out = b.problem.solve_checked(Mode::Unfold);
        assert!(out.is_sat());
    }

    #[test]
    fn string_literal_encodes_through_dictionary() {
        let (schema, q, mut domains) =
            setup("SELECT * FROM instructor WHERE name = 'Wu'", 0);
        domains.set_dictionary("instructor", 1, vec!["Wu".into(), "Mozart".into()]);
        let b = ConstraintBuilder::new(&schema, &q, &domains, 1).unwrap();
        let f = b.pred_formula(&q.preds[0], 0).unwrap();
        assert!(f.to_string().contains("= 0"), "{f}");
    }

    #[test]
    fn missing_string_literal_is_error() {
        let (schema, q, domains) =
            setup("SELECT * FROM instructor WHERE name = 'NotInDictionary'", 0);
        let b = ConstraintBuilder::new(&schema, &q, &domains, 1).unwrap();
        assert!(matches!(
            b.pred_formula(&q.preds[0], 0),
            Err(GenError::UncodedString(_))
        ));
    }

    #[test]
    fn input_db_constraints_pin_values() {
        let (schema, q, domains) = setup("SELECT * FROM advisor", 0);
        let mut input = Dataset::new();
        input.push("advisor", vec![Value::Int(7), Value::Int(13)]);
        let mut b = ConstraintBuilder::new(&schema, &q, &domains, 1).unwrap();
        b.gen_db_constraints();
        b.gen_input_db_constraints(&input).unwrap();
        let out = b.problem.solve(Mode::Unfold);
        match out {
            SolveOutcome::Sat(m) => {
                let arr = b.array("advisor");
                assert_eq!(m.get(arr, 0, 0), 7);
                assert_eq!(m.get(arr, 0, 1), 13);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn gen_not_exists_replaces_only_target_occurrence() {
        let (schema, q, domains) = setup(
            "SELECT * FROM teaches b, course c WHERE b.course_id = c.course_id + 10",
            0,
        );
        let mut b = ConstraintBuilder::new(&schema, &q, &domains, 1).unwrap();
        let p = q.preds[0].clone();
        // Nullify course (occ 1): teaches keeps its slot reference.
        let f = b.gen_not_exists(&p, 1, 0).unwrap();
        let s = f.to_string();
        assert!(s.contains("NOT"), "{s}");
        assert!(s.contains("q0"), "quantified index present: {s}");
    }
}
