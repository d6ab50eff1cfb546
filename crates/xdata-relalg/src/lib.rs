//! # xdata-relalg
//!
//! Relational-algebra middle layer of the X-Data reproduction: normalizes
//! parsed queries into the representation the paper's algorithms work on,
//! and generates the paper's mutation space.
//!
//! * [`NormQuery`] — the normalized query: relation occurrences (repeated
//!   relations get distinct names, §V-A), **equivalence classes** of
//!   attributes from equi-join conditions (§IV-B, Figure 2), the remaining
//!   predicates (non-equi joins and selections, pushed to the lowest
//!   possible level, §II), the join tree, and the aggregation spec.
//! * [`JoinTree`] — annotated join trees with per-node join kinds and
//!   conditions; semantic canonicalization modulo inner-join
//!   commutativity/associativity ([`JoinTree::canonical_key`]).
//! * [`enumerate::enumerate_trees`] — all equivalent join trees derivable
//!   from the join graph (including edges implied by equivalence classes —
//!   the Figure 2 motivation), built as a shape DAG: each connected
//!   relation subset stores its shapes once, as splits into two smaller
//!   subsets' shapes.
//! * [`mutation::MutationSpace`] — join-type, comparison-operator and
//!   aggregation-operator mutants (§II), deduplicated by canonical form.
//!   A join mutant of an enumerated tree is keyed by the mutated node's
//!   join kind and left/right leaf masks, which fix its canonical key, so
//!   the exponential raw space costs a hash lookup per triple and a tree
//!   is built only per distinct mutant; `canonical_key()` keys the one
//!   written tree of an outer-join query and is the tests' oracle for the
//!   mask keys.

pub mod decorrelate;
pub mod enumerate;
pub mod error;
pub mod fingerprint;
pub mod ir;
pub mod mutation;
pub mod normalize;
pub mod tree;

pub use error::RelAlgError;
pub use fingerprint::{canonical_form, structural_hash};
pub use ir::{
    AggFunc, AttrRef, HavingPred, LikePred, NormQuery, NullCheck, Occurrence, Operand, Pred,
    SelectSpec, SubCond, SubPred, SubqueryKind,
};
pub use mutation::{
    AggMutant, CmpMutant, DistinctMutant, JoinMutant, LikeMutant, Mutant, MutationSpace,
    NullCheckMutant, SubMutant,
};
pub use normalize::normalize;
pub use tree::JoinTree;
