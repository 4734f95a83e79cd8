//! Receiving buffers (RecBufs): one lock-protected entry buffer per root
//! subtree.
//!
//! This is ParIS's original design — "index Receiving Buffers" filled by
//! the bulk-loading workers (§III). The paper contrasts it with MESSI's
//! per-thread buffer parts (`dsidx-messi`) precisely because these
//! *shared, locked* buffers pay a synchronization cost.

use dsidx_tree::LeafEntry;
use parking_lot::Mutex;

/// One locked buffer per root key, plus the list of keys whose buffer holds
/// entries, so stage 3 only visits subtrees that received data.
#[derive(Debug)]
pub struct RecBufs {
    bufs: Vec<Mutex<Vec<LeafEntry>>>,
    /// Each key whose buffer is non-empty, once: `push` lists a key when it
    /// finds its buffer empty, `take_dirty` unlists it as it drains it.
    dirty: Mutex<Vec<u16>>,
}

impl RecBufs {
    /// Buffers for `root_count` subtrees.
    #[must_use]
    pub fn new(root_count: usize) -> Self {
        let mut bufs = Vec::with_capacity(root_count);
        bufs.resize_with(root_count, || Mutex::new(Vec::new()));
        Self {
            bufs,
            dirty: Mutex::new(Vec::new()),
        }
    }

    /// Appends an entry to its subtree's buffer (locked; contended by
    /// design — see module docs), listing the key if the buffer was empty.
    pub fn push(&self, key: u16, entry: LeafEntry) {
        let mut buf = self.bufs[usize::from(key)].lock();
        if buf.is_empty() {
            self.dirty.lock().push(key);
        }
        buf.push(entry);
    }

    /// Takes a listed key and every entry its buffer holds, or `None` once
    /// no buffer holds any. The emptied buffer is listed again by its next
    /// push.
    pub fn take_dirty(&self) -> Option<(u16, Vec<LeafEntry>)> {
        let key = self.dirty.lock().pop()?;
        let entries = std::mem::take(&mut *self.bufs[usize::from(key)].lock());
        Some((key, entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsidx_isax::Word;

    fn entry(key_byte: u8, pos: u32) -> LeafEntry {
        LeafEntry::new(Word::new(&[key_byte, 0, 0, 0]), pos)
    }

    /// Takes every listed key, sorted, each with its entries' positions.
    fn take_all(rb: &RecBufs) -> Vec<(u16, Vec<u32>)> {
        let mut taken: Vec<(u16, Vec<u32>)> = std::iter::from_fn(|| rb.take_dirty())
            .map(|(key, entries)| (key, entries.iter().map(|e| e.pos).collect()))
            .collect();
        taken.sort_unstable();
        taken
    }

    #[test]
    fn push_drain_round_trip() {
        let rb = RecBufs::new(16);
        rb.push(3, entry(1, 10));
        rb.push(3, entry(2, 11));
        rb.push(7, entry(3, 12));
        assert_eq!(take_all(&rb), vec![(3, vec![10, 11]), (7, vec![12])]);
        assert!(rb.take_dirty().is_none(), "taking empties the list");
    }

    #[test]
    fn claim_visits_each_dirty_key_once() {
        let rb = RecBufs::new(8);
        rb.push(1, entry(0, 0));
        rb.push(5, entry(0, 1));
        rb.push(1, entry(0, 2));
        let keys: Vec<u16> = take_all(&rb).into_iter().map(|(key, _)| key).collect();
        assert_eq!(keys, vec![1, 5]);
    }

    #[test]
    fn generations_reset_cleanly() {
        let rb = RecBufs::new(8);
        rb.push(2, entry(0, 0));
        assert_eq!(take_all(&rb), vec![(2, vec![0])]);
        assert!(rb.take_dirty().is_none());
        rb.push(2, entry(0, 1));
        assert_eq!(take_all(&rb), vec![(2, vec![1])]);
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
        let taken = take_all(&rb);
        let keys: Vec<u16> = taken.iter().map(|(key, _)| *key).collect();
        assert_eq!(keys, vec![0, 1, 2, 3], "each key listed once");
        let mut all: Vec<u32> = taken.into_iter().flat_map(|(_, pos)| pos).collect();
        all.sort_unstable();
        assert_eq!(all, (0..8000).collect::<Vec<u32>>());
    }
}
