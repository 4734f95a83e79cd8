//! Receiving buffers (RecBufs): one lock-protected entry buffer per root
//! subtree.
//!
//! This is ParIS's original design — "index Receiving Buffers" filled by
//! the bulk-loading workers (§III). The paper contrasts it with MESSI's
//! per-thread buffer parts (`dsidx-messi`) precisely because these
//! *shared, locked* buffers pay a synchronization cost.

use dsidx_tree::LeafEntry;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One locked buffer per root key, plus dirty-key tracking so stage 3 only
/// visits subtrees that received data this generation.
#[derive(Debug)]
pub struct RecBufs {
    bufs: Vec<Mutex<Vec<LeafEntry>>>,
    dirty: Vec<AtomicBool>,
    dirty_keys: Mutex<Vec<u16>>,
    /// Claim cursor over `dirty_keys` during the grow phase.
    cursor: AtomicUsize,
}

impl RecBufs {
    /// Buffers for `root_count` subtrees.
    #[must_use]
    pub fn new(root_count: usize) -> Self {
        let mut bufs = Vec::with_capacity(root_count);
        bufs.resize_with(root_count, || Mutex::new(Vec::new()));
        let mut dirty = Vec::with_capacity(root_count);
        dirty.resize_with(root_count, || AtomicBool::new(false));
        Self {
            bufs,
            dirty,
            dirty_keys: Mutex::new(Vec::new()),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Appends an entry to its subtree's buffer (locked; contended by
    /// design — see module docs).
    pub fn push(&self, key: u16, entry: LeafEntry) {
        self.bufs[key as usize].lock().push(entry);
        if !self.dirty[key as usize].swap(true, Ordering::AcqRel) {
            self.dirty_keys.lock().push(key);
        }
    }

    /// Claims the next dirty key during the grow phase (call only after all
    /// pushes for the generation have finished).
    pub fn claim_dirty(&self) -> Option<u16> {
        let keys = self.dirty_keys.lock();
        // ORDERING: relaxed — Fetch&Inc claim: the index is the whole
        // payload, and the keys themselves are read under the mutex.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        keys.get(i).copied()
    }

    /// Drains a buffer for subtree construction and clears its dirty flag.
    #[must_use]
    pub fn drain(&self, key: u16) -> Vec<LeafEntry> {
        self.dirty[key as usize].store(false, Ordering::Release);
        std::mem::take(&mut *self.bufs[key as usize].lock())
    }

    /// Resets the dirty-key list and cursor for the next generation (call
    /// once per generation, after every dirty key has been drained).
    pub fn reset_generation(&self) {
        let mut keys = self.dirty_keys.lock();
        debug_assert!(
            keys.iter()
                .all(|&k| !self.dirty[k as usize].load(Ordering::Acquire)),
            "reset with undrained buffers"
        );
        keys.clear();
        self.cursor.store(0, Ordering::Release);
    }

    /// Number of dirty subtrees in the current generation.
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.dirty_keys.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_isax::Word;

    fn entry(key_byte: u8, pos: u32) -> LeafEntry {
        LeafEntry::new(Word::new(&[key_byte, 0, 0, 0]), pos)
    }

    #[test]
    fn push_drain_round_trip() {
        let rb = RecBufs::new(16);
        rb.push(3, entry(1, 10));
        rb.push(3, entry(2, 11));
        rb.push(7, entry(3, 12));
        assert_eq!(rb.dirty_count(), 2);
        let drained = rb.drain(3);
        assert_eq!(drained.len(), 2);
        assert_eq!(rb.drain(3).len(), 0, "drain empties the buffer");
    }

    #[test]
    fn claim_visits_each_dirty_key_once() {
        let rb = RecBufs::new(8);
        rb.push(1, entry(0, 0));
        rb.push(5, entry(0, 1));
        rb.push(1, entry(0, 2));
        let mut claimed = Vec::new();
        while let Some(k) = rb.claim_dirty() {
            claimed.push(k);
            let _ = rb.drain(k);
        }
        claimed.sort_unstable();
        assert_eq!(claimed, vec![1, 5]);
    }

    #[test]
    fn generations_reset_cleanly() {
        let rb = RecBufs::new(8);
        rb.push(2, entry(0, 0));
        while let Some(k) = rb.claim_dirty() {
            let _ = rb.drain(k);
        }
        rb.reset_generation();
        assert_eq!(rb.dirty_count(), 0);
        rb.push(2, entry(0, 1));
        assert_eq!(rb.dirty_count(), 1);
        assert_eq!(rb.claim_dirty(), Some(2));
    }

    #[test]
    fn concurrent_pushes_preserve_every_entry() {
        let rb = RecBufs::new(4);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let rb = &rb;
                s.spawn(move || {
                    for i in 0..1000 {
                        rb.push((i % 4) as u16, entry(0, t * 1000 + i));
                    }
                });
            }
        });
        let mut total = 0;
        for k in 0..4 {
            total += rb.drain(k).len();
        }
        assert_eq!(total, 8000);
        assert_eq!(rb.dirty_count(), 4);
    }
}
