//! Lock-free disjoint writes into a shared slice.

use std::cell::UnsafeCell;

/// A slice that multiple threads may write concurrently, **provided no two
/// threads ever touch the same index**.
///
/// This is how the builds keep per-subtree slots: indices are partitioned
/// among workers (statically or via [`crate::WorkQueue`] chunks), and the
/// worker that owns index `i` is the only one to touch entry `i` — MESSI
/// writes each claimed run of subtrees' fragment once, ParIS grows each
/// claimed root subtree in place. The type merely
/// encodes that contract; violating it is a data race, which is why the
/// writing method is `unsafe` and the contract is spelled out there.
///
/// After all writers join (e.g. `std::thread::scope` ends), the owner gets
/// the buffer back with [`SyncSlice::into_inner`].
#[derive(Debug)]
pub struct SyncSlice<T> {
    cells: Box<[UnsafeCell<T>]>,
}

// SAFETY: sharing &SyncSlice<T> across threads only permits `write`, whose
// contract requires index-disjointness; with that contract upheld there are
// no concurrent accesses to any single element. T: Send because elements
// move across threads.
unsafe impl<T: Send> Sync for SyncSlice<T> {}

impl<T> SyncSlice<T> {
    /// Takes ownership of a buffer to be filled by disjoint writers.
    #[must_use]
    pub fn new(buf: Vec<T>) -> Self {
        // Vec<T> -> Vec<UnsafeCell<T>> is a layout-compatible wrap, but do
        // it safely element by element (no unsafe transmute needed; this is
        // a one-time O(n) move that the optimizer lowers to a memcpy).
        let cells: Box<[UnsafeCell<T>]> = buf.into_iter().map(UnsafeCell::new).collect();
        Self { cells }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// For the whole lifetime of this `SyncSlice`, no other thread may read
    /// or write `index` concurrently with this call (each index must have
    /// exactly one writing owner at a time).
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        let cell = &self.cells[index];
        // SAFETY: disjointness contract gives us exclusive access.
        unsafe { *cell.get() = value };
    }

    /// Returns a mutable reference to the element at `index`.
    ///
    /// # Safety
    /// Same contract as [`SyncSlice::write`]: while the returned reference
    /// lives, no other thread may access `index`. The caller must also not
    /// obtain two references to the same index on one thread.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, index: usize) -> &mut T {
        let cell = &self.cells[index];
        // SAFETY: disjointness contract gives us exclusive access.
        unsafe { &mut *cell.get() }
    }

    /// Reclaims the buffer after all writers have finished.
    #[must_use]
    pub fn into_inner(self) -> Vec<T> {
        let mut cells: Vec<UnsafeCell<T>> = self.cells.into_vec();
        // Move values out of their cells without cloning.
        cells.drain(..).map(UnsafeCell::into_inner).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_round_trip() {
        let s = SyncSlice::new(vec![0u32; 5]);
        for i in 0..5 {
            // SAFETY: single thread, each index written once.
            unsafe { s.write(i, i as u32 * 10) };
        }
        assert_eq!(s.into_inner(), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn len_and_empty() {
        let s = SyncSlice::new(Vec::<u8>::new());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        let s = SyncSlice::new(vec![1u8; 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        let s = SyncSlice::new(vec![0u8; 2]);
        // SAFETY: single thread.
        unsafe { s.write(2, 1) };
    }

    #[test]
    fn parallel_disjoint_writes_land_correctly() {
        let n = 100_000;
        let s = SyncSlice::new(vec![0u64; n]);
        let threads = 8;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let s = &s;
                scope.spawn(move || {
                    // Strided ownership: thread t owns indices ≡ t (mod threads).
                    let mut i = t;
                    while i < n {
                        // SAFETY: strided partition is disjoint.
                        unsafe { s.write(i, (i as u64) * 3 + 1) };
                        i += threads;
                    }
                });
            }
        });
        let out = s.into_inner();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 3 + 1);
        }
    }

    #[test]
    fn get_mut_allows_in_place_growth() {
        let s = SyncSlice::new(vec![Vec::<u32>::new(), Vec::new(), Vec::new()]);
        std::thread::scope(|scope| {
            for t in 0..3usize {
                let s = &s;
                scope.spawn(move || {
                    for round in 0..4u32 {
                        // SAFETY: thread t exclusively owns index t.
                        let v = unsafe { s.get_mut(t) };
                        v.push(t as u32 * 10 + round);
                    }
                });
            }
        });
        let out = s.into_inner();
        for (t, v) in out.iter().enumerate() {
            assert_eq!(
                v,
                &vec![
                    t as u32 * 10,
                    t as u32 * 10 + 1,
                    t as u32 * 10 + 2,
                    t as u32 * 10 + 3
                ]
            );
        }
    }

    #[test]
    fn works_with_non_copy_types() {
        let s = SyncSlice::new(vec![String::new(), String::new()]);
        std::thread::scope(|scope| {
            let s = &s;
            scope.spawn(move || {
                // SAFETY: this thread owns index 0 exclusively.
                unsafe { s.write(0, "alpha".to_owned()) };
            });
            scope.spawn(move || {
                // SAFETY: this thread owns index 1 exclusively.
                unsafe { s.write(1, "beta".to_owned()) };
            });
        });
        assert_eq!(s.into_inner(), vec!["alpha".to_owned(), "beta".to_owned()]);
    }
}
