use std::fmt;

/// Errors reported by the LLC framework.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The prediction horizon must be at least one step.
    ZeroHorizon,
    /// The plant reported no admissible input in some encountered state.
    EmptyInputSet,
    /// The forecast supplies fewer environment steps than the horizon needs.
    ForecastTooShort {
        /// Steps required by the controller (its horizon).
        required: usize,
        /// Steps actually present in the forecast.
        available: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ZeroHorizon => write!(f, "prediction horizon must be at least 1"),
            Error::EmptyInputSet => write!(f, "no admissible control input in current state"),
            Error::ForecastTooShort {
                required,
                available,
            } => write!(
                f,
                "forecast provides {available} environment steps but the horizon needs {required}"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let variants = [
            Error::ZeroHorizon,
            Error::EmptyInputSet,
            Error::ForecastTooShort {
                required: 3,
                available: 1,
            },
        ];
        for v in variants {
            let s = v.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
