//! The query plane's execution half: the [`Search`] trait.

use crate::answers::Answers;
use crate::error::Error;
use crate::spec::QuerySpec;

/// One entry point for every similarity query, whatever the engine and
/// wherever the data lives: a batch of queries in, an [`Answers`] out,
/// shaped by a [`QuerySpec`].
///
/// Implemented by [`MemoryIndex`](crate::MemoryIndex),
/// [`DiskIndex`](crate::DiskIndex) and [`ShardedIndex`](crate::ShardedIndex);
/// all four request axes (`k`, measure, fidelity, stats) go through one
/// internal dispatch onto one exact entry point per engine and one
/// approximate one per answer kind, so a single query is literally a batch
/// of one.
///
/// ```
/// use dsidx::prelude::*;
///
/// let data = DatasetKind::Synthetic.generate(400, 64, 11);
/// let queries = DatasetKind::Synthetic.queries(4, 64, 11);
/// let index = MemoryIndex::build(data, Engine::Paris, &Options::default()).unwrap();
///
/// // One call covers the whole matrix: exact 3-NN for four queries...
/// let batch: Vec<&[f32]> = queries.iter().collect();
/// let exact = index.search(&batch, &QuerySpec::knn(3)).unwrap();
/// assert_eq!(exact.len(), 4);
///
/// // ...and the approximate spelling differs by one builder call.
/// let spec = QuerySpec::knn(3).fidelity(Fidelity::Approximate);
/// let approx = index.search(&batch, &spec).unwrap();
/// // Approximate distances never beat exact ones at the same rank.
/// for (a, e) in approx.matches()[0].iter().zip(&exact.matches()[0]) {
///     assert!(a.dist_sq >= e.dist_sq);
/// }
/// ```
pub trait Search {
    /// Answers every query in `queries` under `spec`, inside one engine
    /// schedule where the engine supports it (a single pool broadcast set
    /// for the parallel engines).
    ///
    /// The returned [`Answers`] are index-aligned with `queries`; each
    /// match list is sorted ascending by `(distance, position)` and —
    /// at [`Fidelity::Exact`](crate::Fidelity::Exact) — deterministic
    /// across runs and thread counts.
    ///
    /// # Errors
    /// [`Error::InvalidSpec`] for query-time misuse (`k == 0`, empty
    /// batch, over-wide DTW band, wrong query length, a `NaN` or infinite
    /// query value); I/O and configuration failures from the engines.
    fn search(&self, queries: &[&[f32]], spec: &QuerySpec) -> Result<Answers, Error>;
}
