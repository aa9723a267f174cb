//! The workspace error type.
//!
//! Every fallible operation reachable from the public `drbw::prelude`
//! surface reports a [`DrbwError`]: malformed model files, class-index and
//! feature-arity mismatches, and model-file I/O. Lower layers
//! keep their own typed errors ([`mldt::MldtError`], [`std::io::Error`])
//! and convert with `From`, so `?` composes across the stack.

use mldt::MldtError;

/// Errors produced by the DR-BW pipeline.
#[derive(Debug)]
pub enum DrbwError {
    /// A class index that is neither `good` (0) nor `rmc` (1).
    InvalidClassIndex(usize),
    /// A model file's DR-BW header or feature list is malformed.
    ModelFormat(String),
    /// A model does not carry the expected number of Table I features.
    FeatureArity {
        /// Features the pipeline expects ([`crate::features::NUM_SELECTED`]).
        expected: usize,
        /// Features the model carries.
        got: usize,
    },
    /// The embedded decision tree failed to parse or validate.
    Model(MldtError),
    /// Reading or writing a model file failed.
    Io(std::io::Error),
    /// A training set was empty or single-class, so no classifier can be
    /// trained from it.
    EmptyTrainingSet,
}

impl std::fmt::Display for DrbwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrbwError::InvalidClassIndex(i) => write!(f, "unknown class index {i} (expected 0=good or 1=rmc)"),
            DrbwError::ModelFormat(msg) => write!(f, "malformed model: {msg}"),
            DrbwError::FeatureArity { expected, got } => {
                write!(f, "model carries {got} features, expected the {expected} Table I features")
            }
            DrbwError::Model(e) => write!(f, "{e}"),
            DrbwError::Io(e) => write!(f, "model file I/O error: {e}"),
            DrbwError::EmptyTrainingSet => write!(f, "training set has no instances of one class"),
        }
    }
}

impl std::error::Error for DrbwError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DrbwError::Model(e) => Some(e),
            DrbwError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MldtError> for DrbwError {
    fn from(e: MldtError) -> Self {
        DrbwError::Model(e)
    }
}

impl From<std::io::Error> for DrbwError {
    fn from(e: std::io::Error) -> Self {
        DrbwError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        assert!(DrbwError::InvalidClassIndex(7).to_string().contains("class index 7"));
        assert!(DrbwError::FeatureArity { expected: 13, got: 2 }.to_string().contains("13"));
        assert!(DrbwError::ModelFormat("bad header".into()).to_string().contains("bad header"));
    }

    #[test]
    fn from_conversions_wrap_sources() {
        let e: DrbwError = MldtError::Parse("x".into()).into();
        assert!(matches!(e, DrbwError::Model(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e: DrbwError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, DrbwError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }
}
