//! Generation errors, and the error that fails a whole pipeline run.

use std::fmt;

/// Errors raised by the test-data generator. Note that an *unsatisfiable*
/// constraint set is not an error (it flags an equivalent mutant group);
/// these are genuine failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The solver gave up (resource limit) — distinct from Unsat.
    SolverUnknown(String),
    /// A string literal in the query could not be coded into the domain
    /// dictionary (internal error — preparation extends dictionaries).
    UncodedString(String),
    /// Schema/query mismatch that slipped past normalization.
    Internal(String),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::SolverUnknown(what) => {
                write!(f, "solver resource limit exceeded while generating `{what}`")
            }
            GenError::UncodedString(s) => write!(f, "string literal `{s}` missing from dictionary"),
            GenError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for GenError {}

/// An error that fails a whole pipeline run: the query failed to parse or
/// normalize, suite generation failed, or the query failed to execute on a
/// generated dataset. Batch grading attributes a *candidate's* parse and
/// normalization errors to that candidate's verdict instead.
#[derive(Debug)]
pub enum XDataError {
    Parse(xdata_sql::ParseError),
    RelAlg(xdata_relalg::RelAlgError),
    Gen(GenError),
    Engine(xdata_engine::EngineError),
}

impl fmt::Display for XDataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XDataError::Parse(e) => write!(f, "{e}"),
            XDataError::RelAlg(e) => write!(f, "{e}"),
            XDataError::Gen(e) => write!(f, "{e}"),
            XDataError::Engine(e) => write!(f, "{e}"),
        }
    }
}
impl std::error::Error for XDataError {}

impl From<xdata_sql::ParseError> for XDataError {
    fn from(e: xdata_sql::ParseError) -> Self {
        XDataError::Parse(e)
    }
}
impl From<xdata_relalg::RelAlgError> for XDataError {
    fn from(e: xdata_relalg::RelAlgError) -> Self {
        XDataError::RelAlg(e)
    }
}
impl From<GenError> for XDataError {
    fn from(e: GenError) -> Self {
        XDataError::Gen(e)
    }
}
impl From<xdata_engine::EngineError> for XDataError {
    fn from(e: xdata_engine::EngineError) -> Self {
        XDataError::Engine(e)
    }
}
