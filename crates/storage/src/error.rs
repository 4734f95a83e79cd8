//! Error type for storage operations.

use std::fmt;

/// Errors produced by dataset files, leaf stores and devices.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The file's format version is not supported.
    BadVersion(u32),
    /// The file is structurally inconsistent (e.g. truncated payload).
    Corrupt(String),
    /// A checksummed region's stored and computed checksums disagree —
    /// the bytes changed after they were written (bit rot, a partial
    /// write, or manual editing).
    ChecksumMismatch {
        /// Which checksummed region failed (a snapshot section id, or
        /// `"header"` for the header + section table).
        section: String,
        /// The checksum recorded in the file.
        stored: u64,
        /// The checksum computed over the bytes actually read.
        computed: u64,
    },
    /// A series index beyond the file's series count was requested.
    OutOfBounds {
        /// Requested position.
        index: u64,
        /// Number of series in the file.
        len: u64,
    },
    /// A series-level validation error.
    Series(dsidx_series::SeriesError),
    /// An error annotated with where in a query schedule it tripped:
    /// which phase, and (for batches) which query. Attached by
    /// `ErrorSlot` and the batch kernels; unwrap with
    /// [`root_cause`](StorageError::root_cause) to match on the
    /// underlying failure.
    Context {
        /// The query phase that was executing (`"seed"`, `"verify"`,
        /// `"traversal"`, ...), when known.
        phase: Option<&'static str>,
        /// The shard whose search tripped the error, when the index is
        /// sharded.
        shard: Option<u64>,
        /// The batch query index whose work tripped the error, when the
        /// failing operation served exactly one query.
        query: Option<u64>,
        /// The underlying error.
        source: Box<StorageError>,
    },
}

impl StorageError {
    /// Annotates this error with the query phase it tripped in. A `None`
    /// phase on an existing [`Context`](StorageError::Context) is filled
    /// in; an already-attributed phase is kept (the innermost call site
    /// knows best).
    #[must_use]
    pub fn in_phase(self, phase: &'static str) -> StorageError {
        self.annotate(|slot, _, _| {
            slot.get_or_insert(phase);
        })
    }

    /// Annotates this error with the batch query index it tripped for
    /// (same first-annotation-wins rule as
    /// [`in_phase`](StorageError::in_phase)).
    #[must_use]
    pub fn for_query(self, query: u64) -> StorageError {
        self.annotate(|_, _, slot| {
            slot.get_or_insert(query);
        })
    }

    /// Annotates this error with the shard whose search tripped it (same
    /// first-annotation-wins rule as
    /// [`in_phase`](StorageError::in_phase) — the shard coordinator is
    /// the innermost site that knows the shard number).
    #[must_use]
    pub fn for_shard(self, shard: u64) -> StorageError {
        self.annotate(|_, slot, _| {
            slot.get_or_insert(shard);
        })
    }

    /// The one body of the three annotations: `fill` gets the `phase`,
    /// `shard` and `query` of this error's
    /// [`Context`](StorageError::Context) — all `None` around any other
    /// error — and fills the one it is about if it is still empty.
    fn annotate(
        self,
        fill: impl FnOnce(&mut Option<&'static str>, &mut Option<u64>, &mut Option<u64>),
    ) -> StorageError {
        let (mut phase, mut shard, mut query, source) = match self {
            StorageError::Context {
                phase,
                shard,
                query,
                source,
            } => (phase, shard, query, source),
            e => (None, None, None, Box::new(e)),
        };
        fill(&mut phase, &mut shard, &mut query);
        StorageError::Context {
            phase,
            shard,
            query,
            source,
        }
    }

    /// The innermost error, with any [`Context`](StorageError::Context)
    /// layers stripped — what error-kind matches should inspect.
    #[must_use]
    pub fn root_cause(&self) -> &StorageError {
        match self {
            StorageError::Context { source, .. } => source.root_cause(),
            e => e,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::BadMagic => write!(f, "not a dsidx dataset file (bad magic)"),
            StorageError::BadVersion(v) => write!(f, "unsupported dataset format version {v}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt dataset file: {msg}"),
            StorageError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in section `{section}`: file records {stored:#018x} but the \
                 bytes hash to {computed:#018x} — the file was corrupted after it was written; \
                 rebuild and re-save the index"
            ),
            StorageError::OutOfBounds { index, len } => {
                write!(f, "series {index} out of bounds for file of {len}")
            }
            StorageError::Series(e) => write!(f, "series error: {e}"),
            StorageError::Context {
                phase,
                shard,
                query,
                source,
            } => {
                let mut tags = String::new();
                if let Some(s) = shard {
                    tags.push_str(&format!("shard {s}"));
                }
                if let Some(q) = query {
                    if !tags.is_empty() {
                        tags.push_str(", ");
                    }
                    tags.push_str(&format!("query {q}"));
                }
                match (phase, tags.is_empty()) {
                    (Some(p), true) => write!(f, "during {p}: ")?,
                    (Some(p), false) => write!(f, "during {p} ({tags}): ")?,
                    (None, false) => write!(f, "for {tags}: ")?,
                    (None, true) => {}
                }
                write!(f, "{source}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Series(e) => Some(e),
            StorageError::Context { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<dsidx_series::SeriesError> for StorageError {
    fn from(e: dsidx_series::SeriesError) -> Self {
        StorageError::Series(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = StorageError::BadVersion(9);
        assert!(e.to_string().contains('9'));
        let e = StorageError::OutOfBounds { index: 7, len: 3 };
        assert!(e.to_string().contains('7'));
        let e: StorageError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        assert!(StorageError::BadMagic.to_string().contains("magic"));
        let e = StorageError::ChecksumMismatch {
            section: "nodes".into(),
            stored: 1,
            computed: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("checksum") && msg.contains("`nodes`"), "{msg}");
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e: StorageError = std::io::Error::other("inner").into();
        assert!(e.source().is_some());
        assert!(StorageError::BadMagic.source().is_none());
        let wrapped = StorageError::BadMagic.in_phase("verify");
        assert!(wrapped.source().is_some());
    }

    #[test]
    fn context_display_names_phase_and_query() {
        let e: StorageError = std::io::Error::other("disk gone").into();
        let e = e.in_phase("verify").for_query(3);
        let msg = e.to_string();
        assert_eq!(msg, "during verify (query 3): I/O error: disk gone");
        assert!(matches!(e.root_cause(), StorageError::Io(_)));
    }

    #[test]
    fn context_display_names_shard_between_phase_and_query() {
        let e: StorageError = std::io::Error::other("read fault").into();
        let e = e.in_phase("verify").for_shard(2).for_query(5);
        assert_eq!(
            e.to_string(),
            "during verify (shard 2, query 5): I/O error: read fault"
        );
        // Shard-only and shard-without-phase renderings.
        let e = StorageError::BadMagic.in_phase("seed").for_shard(1);
        assert_eq!(
            e.to_string(),
            "during seed (shard 1): not a dsidx dataset file (bad magic)"
        );
        let e = StorageError::BadMagic.for_shard(3).for_query(0);
        assert!(e.to_string().starts_with("for shard 3, query 0: "));
        // First annotation wins, like phase and query.
        let e = StorageError::BadMagic.for_shard(4).for_shard(9);
        assert!(e.to_string().contains("shard 4"));
        assert!(!e.to_string().contains('9'));
    }

    #[test]
    fn first_context_annotation_wins() {
        let e = StorageError::BadMagic.in_phase("seed").in_phase("verify");
        assert!(e.to_string().starts_with("during seed:"));
        // A query index still attaches to a phase-only context...
        let e = e.for_query(7);
        assert!(e.to_string().contains("(query 7)"));
        // ...but never overwrites an existing one.
        let e = e.for_query(9);
        assert!(e.to_string().contains("(query 7)"));
        assert!(matches!(e.root_cause(), StorageError::BadMagic));
    }
}
