//! Error type for series-level operations.

use std::fmt;

/// Errors produced by series and dataset operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesError {
    /// A series had a different length than the dataset / operation expects.
    LengthMismatch {
        /// Length required by the container or operation.
        expected: usize,
        /// Length that was actually supplied.
        actual: usize,
    },
    /// A zero-length series was supplied where a non-empty one is required.
    EmptySeries,
    /// A flat buffer's length is not a multiple of the series length.
    RaggedBuffer {
        /// Length of the flat buffer.
        buffer_len: usize,
        /// Series length it should be divisible by.
        series_len: usize,
    },
    /// An index was out of bounds for the dataset.
    OutOfBounds {
        /// The requested series index.
        index: usize,
        /// Number of series in the dataset.
        len: usize,
    },
    /// A filesystem operation failed while loading or writing raw series
    /// data (path and cause, stringified so the error stays comparable).
    Io(String),
}

impl fmt::Display for SeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SeriesError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "series length mismatch: expected {expected}, got {actual}"
                )
            }
            SeriesError::EmptySeries => write!(f, "series must be non-empty"),
            SeriesError::RaggedBuffer {
                buffer_len,
                series_len,
            } => {
                write!(
                    f,
                    "flat buffer of {buffer_len} values is not a multiple of series length {series_len}"
                )
            }
            SeriesError::OutOfBounds { index, len } => {
                write!(f, "series index {index} out of bounds for dataset of {len}")
            }
            SeriesError::Io(ref message) => write!(f, "raw series I/O failed: {message}"),
        }
    }
}

impl std::error::Error for SeriesError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SeriesError::LengthMismatch {
            expected: 256,
            actual: 128,
        };
        assert!(e.to_string().contains("256"));
        assert!(e.to_string().contains("128"));
        let e = SeriesError::RaggedBuffer {
            buffer_len: 10,
            series_len: 3,
        };
        assert!(e.to_string().contains("10"));
        let e = SeriesError::OutOfBounds { index: 5, len: 2 };
        assert!(e.to_string().contains('5'));
        assert!(SeriesError::EmptySeries.to_string().contains("non-empty"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SeriesError::EmptySeries);
    }
}
