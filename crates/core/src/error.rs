//! The facade error type.

use std::fmt;

/// Any error the facade can surface.
///
/// Marked `#[non_exhaustive]`: new failure classes may appear as the query
/// plane grows, so downstream `match`es need a catch-all arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Invalid iSAX / index configuration.
    Config(dsidx_isax::IsaxError),
    /// Storage-layer failure (I/O, format, device).
    Storage(dsidx_storage::StorageError),
    /// Series-level validation failure.
    Series(dsidx_series::SeriesError),
    /// A [`QuerySpec`](crate::QuerySpec) (or its queries) failed
    /// validation before any engine ran — the structured form of
    /// query-time misuse (`k == 0`, an over-wide DTW band, an empty
    /// batch, a query of the wrong length).
    InvalidSpec(InvalidSpec),
    /// [`Options`](crate::Options) that no engine can build with,
    /// rejected before any build starts.
    InvalidOptions(InvalidOptions),
    /// A collection of more series than an index can address: positions
    /// are 32-bit (leaf entries, node ranges, [`Match::pos`]), so one index
    /// — a [`ShardedIndex`](crate::ShardedIndex) too, whose positions are
    /// global — holds at most `u32::MAX` series. Refused where a build or
    /// an open first learns the count, before any series is read.
    ///
    /// [`Match::pos`]: dsidx_series::Match::pos
    TooManySeries {
        /// The number of series the collection holds.
        count: u64,
    },
}

/// Refuses a collection of `count` series when its positions would not
/// fit the 32-bit positions every index stores.
pub(crate) fn check_series_count(count: usize) -> Result<(), Error> {
    if u32::try_from(count).is_err() {
        return Err(Error::TooManySeries {
            count: count as u64,
        });
    }
    Ok(())
}

/// Why [`Options`](crate::Options) were rejected when a build turned them
/// into an engine configuration.
///
/// Marked `#[non_exhaustive]`: validation grows with the options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvalidOptions {
    /// `leaf_capacity == 0`: a leaf must hold at least one series.
    ZeroLeafCapacity,
    /// `block_series == 0`: a read block must hold at least one series.
    ZeroBlockSeries,
}

impl fmt::Display for InvalidOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidOptions::ZeroLeafCapacity => write!(
                f,
                "leaf_capacity must be at least 1 (the paper's default is 100)"
            ),
            InvalidOptions::ZeroBlockSeries => {
                write!(f, "block_series must be at least 1 (the default is 1024)")
            }
        }
    }
}

/// Why a [`QuerySpec`](crate::QuerySpec) was rejected at the query plane,
/// before reaching any engine.
///
/// Marked `#[non_exhaustive]`: validation grows with the spec's axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvalidSpec {
    /// `k == 0`: an exact or approximate k-NN request must ask for at
    /// least one neighbor.
    ZeroK,
    /// A DTW band at least as wide as the series: every alignment is
    /// already admissible at `series_len - 1`, so wider bands are a
    /// misconfiguration (typically a percentage/points mix-up).
    BandTooWide {
        /// The requested Sakoe-Chiba half-width.
        band: usize,
        /// The indexed series length.
        series_len: usize,
    },
    /// `search` was called with zero queries; a request must carry at
    /// least one (single-query callers pass a batch of one).
    EmptyBatch,
    /// A query's length differs from the indexed series length.
    QueryLength {
        /// The indexed series length.
        expected: usize,
        /// The offending query's length.
        got: usize,
        /// Index of the offending query within the batch.
        index: usize,
    },
    /// A query holds a `NaN` or infinite value: every distance to it is
    /// `NaN` or infinite, so no series can be "nearest" and the pruning
    /// bounds stop ordering anything.
    NonFiniteQuery {
        /// Index of the offending query within the batch.
        index: usize,
    },
}

impl fmt::Display for InvalidSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidSpec::ZeroK => {
                write!(f, "k must be at least 1 (use QuerySpec::nn() for 1-NN)")
            }
            InvalidSpec::BandTooWide { band, series_len } => write!(
                f,
                "DTW band {band} must be smaller than the series length {series_len} \
                 (a 5% Sakoe-Chiba band over length {series_len} is band {})",
                series_len / 20
            ),
            InvalidSpec::EmptyBatch => write!(
                f,
                "the query batch is empty; pass at least one query (single-query \
                 callers pass a batch of one: &[query])"
            ),
            InvalidSpec::QueryLength {
                expected,
                got,
                index,
            } => write!(
                f,
                "query {index} has length {got} but the index holds series of \
                 length {expected}; re-sample or re-slice the query to match"
            ),
            InvalidSpec::NonFiniteQuery { index } => write!(
                f,
                "query {index} contains a NaN or infinite value; distances to it \
                 are undefined — drop or interpolate the missing points first"
            ),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(e) => write!(f, "configuration error: {e}"),
            Error::Storage(e) => write!(f, "storage error: {e}"),
            Error::Series(e) => write!(f, "series error: {e}"),
            Error::InvalidSpec(e) => write!(f, "invalid query spec: {e}"),
            Error::InvalidOptions(e) => write!(f, "invalid options: {e}"),
            Error::TooManySeries { count } => write!(
                f,
                "the collection holds {count} series, more than the {} an index can \
                 address (positions are 32-bit); index it as several collections",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            Error::Storage(e) => Some(e),
            Error::Series(e) => Some(e),
            Error::InvalidSpec(_) | Error::InvalidOptions(_) | Error::TooManySeries { .. } => None,
        }
    }
}

impl From<dsidx_isax::IsaxError> for Error {
    fn from(e: dsidx_isax::IsaxError) -> Self {
        Error::Config(e)
    }
}

impl From<dsidx_storage::StorageError> for Error {
    fn from(e: dsidx_storage::StorageError) -> Self {
        Error::Storage(e)
    }
}

impl From<dsidx_series::SeriesError> for Error {
    fn from(e: dsidx_series::SeriesError) -> Self {
        Error::Series(e)
    }
}

impl From<InvalidSpec> for Error {
    fn from(e: InvalidSpec) -> Self {
        Error::InvalidSpec(e)
    }
}

impl From<InvalidOptions> for Error {
    fn from(e: InvalidOptions) -> Self {
        Error::InvalidOptions(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error as _;
        let e: Error = dsidx_isax::IsaxError::BadSegmentCount { requested: 0 }.into();
        assert!(e.to_string().contains("configuration"));
        assert!(e.source().is_some());
        let e: Error = dsidx_series::SeriesError::EmptySeries.into();
        assert!(e.to_string().contains("series"));
        let e: Error = dsidx_storage::StorageError::BadMagic.into();
        assert!(e.to_string().contains("storage"));
    }

    #[test]
    fn invalid_spec_messages_are_actionable() {
        let e: Error = InvalidSpec::ZeroK.into();
        assert!(e.to_string().contains("at least 1"));
        let e: Error = InvalidSpec::BandTooWide {
            band: 300,
            series_len: 256,
        }
        .into();
        let text = e.to_string();
        assert!(text.contains("300") && text.contains("256"));
        let e: Error = InvalidSpec::EmptyBatch.into();
        assert!(e.to_string().contains("at least one query"));
        let e: Error = InvalidSpec::QueryLength {
            expected: 256,
            got: 128,
            index: 3,
        }
        .into();
        let text = e.to_string();
        assert!(text.contains("query 3") && text.contains("128") && text.contains("256"));
        let e: Error = InvalidSpec::NonFiniteQuery { index: 2 }.into();
        let text = e.to_string();
        assert!(text.contains("query 2") && text.contains("NaN"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn series_counts_past_32_bit_positions_are_refused() {
        assert!(check_series_count(0).is_ok());
        assert!(check_series_count(u32::MAX as usize).is_ok());
        let past = u32::MAX as usize + 1;
        let e = check_series_count(past).unwrap_err();
        assert!(matches!(e, Error::TooManySeries { count } if count == past as u64));
        assert!(e.to_string().contains("4294967296"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn invalid_options_name_the_field() {
        let e: Error = InvalidOptions::ZeroLeafCapacity.into();
        assert!(e.to_string().contains("leaf_capacity"));
        let e: Error = InvalidOptions::ZeroBlockSeries.into();
        assert!(e.to_string().contains("block_series"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
