//! Error type for the fl-learn crate.

use std::fmt;

/// Errors raised by the federated-learning loop.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnError {
    /// A configuration or dataset argument was invalid.
    InvalidArgument(String),
    /// A numeric failure surfaced from the NN substrate.
    Nn(fl_nn::NnError),
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            LearnError::Nn(e) => write!(f, "nn error: {e}"),
        }
    }
}

impl std::error::Error for LearnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LearnError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fl_nn::NnError> for LearnError {
    fn from(e: fl_nn::NnError) -> Self {
        LearnError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = LearnError::InvalidArgument("skew must be in [0, 1]".into());
        assert_eq!(e.to_string(), "invalid argument: skew must be in [0, 1]");
        let n: LearnError = fl_nn::NnError::InvalidArgument("z".into()).into();
        assert!(n.to_string().contains("z"));
    }
}
