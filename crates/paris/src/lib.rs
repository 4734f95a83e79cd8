//! ParIS and ParIS+: the paper's parallel on-disk data series indices.
//!
//! Both engines run the four-stage pipeline of Fig. 2:
//!
//! 1. a **Coordinator** thread reads raw series from disk into main-memory
//!    blocks;
//! 2. **IndexBulkLoading** workers summarize each series to its iSAX word
//!    and append it to the receiving buffer (RecBuf) of its root subtree;
//! 3. when a *generation* (the memory budget) has been read,
//!    **IndexConstruction** work drains each RecBuf into its subtree and
//!    materializes leaves to the leaf store;
//! 4. query answering: an approximate descent seeds the best-so-far, then
//!    workers prune over every series' word with lower-bound distances and
//!    compute real distances for the surviving candidates in parallel.
//!
//! The paper also records every word in a position-ordered SAX array for
//! stage 4 to scan. Here the flat tree every engine ends with already
//! holds each word once beside its position, so stage 4 scans the tree's
//! own entry runs, in leaf order (the candidates it collects do not
//! depend on the order; see [`query`]), and a build returns nothing but
//! the tree.
//!
//! Every leaf also stays resident, so the flushes of stage 3 model the
//! paper's I/O without recording where they land. An on-disk index reads a
//! leaf back from its snapshot, whether the build just wrote it or an open
//! found it: the approximate descent of stage 4 reads its leaf by entry
//! range from the `WORDS` and `POSITION` sections, two positioned reads.
//!
//! **ParIS** stops the Coordinator while stage 3 runs. **ParIS+** is the
//! same pipeline re-plumbed for full overlap: the bulk-loading workers
//! themselves grow the subtrees and materialize their leaves at generation
//! boundaries while the Coordinator already reads the next generation —
//! "completely masking out CPU cost" (§I). The visible difference is
//! exactly what Fig. 4 plots: the coordinator's stalls, which the build's
//! [`BuildReport`](dsidx_obs::BuildReport) splits into CPU (`grow`) and
//! writes (`flush`).
//!
//! Stage 4 is ADS+'s SIMS made parallel (bound every word, verify the
//! survivors), so the same exact schedule, [`exact`], run at one worker
//! over the tree MESSI builds at one worker, is the serial ADS+ baseline's
//! exact answer too.

mod batch;
pub mod build;
pub mod config;
pub mod query;
mod recbuf;
mod seed;

pub use build::{build_in_memory, build_on_disk};
pub use config::{Overlap, ParisConfig};
pub use dsidx_query::{BatchStats, QueryStats};
pub use query::{approx, exact};
pub use seed::best_bound_positions;

#[cfg(test)]
mod tests {
    //! The build's block channel, which every worker consumes, is one
    //! `std::sync::mpsc` receiver behind a lock, read through
    //! [`recv_shared`](crate::build::recv_shared).

    use crate::build::recv_shared;
    use parking_lot::Mutex;
    use std::sync::mpsc;

    #[test]
    fn cloned_receivers_share_the_queue() {
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let (rx1, rx2) = (&rx, &rx);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = recv_shared(rx1).unwrap();
        let b = recv_shared(rx2).unwrap();
        assert_eq!(a + b, 3);
        // Once the sender is gone, every consumer sees the end.
        drop(tx);
        assert_eq!((recv_shared(rx1), recv_shared(rx2)), (None, None));
    }

    #[test]
    fn mpmc_under_contention_delivers_everything() {
        // Two producers, three consumers taking turns on one bounded
        // receiver: each message reaches exactly one consumer, each
        // consumer sees every producer's messages in send order (the
        // generation markers rely on that), and all of them see the end.
        let (tx, rx) = mpsc::sync_channel::<(u32, u32)>(4);
        let rx = Mutex::new(rx);
        let got: Vec<Vec<(u32, u32)>> = std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(v) = recv_shared(&rx) {
                            mine.push(v);
                        }
                        mine
                    })
                })
                .collect();
            for producer in 0..2 {
                let tx = tx.clone();
                s.spawn(move || {
                    for seq in 0..5_000 {
                        tx.send((producer, seq)).unwrap();
                    }
                });
            }
            drop(tx);
            consumers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for mine in &got {
            for producer in 0..2 {
                let seqs: Vec<u32> = mine
                    .iter()
                    .filter(|m| m.0 == producer)
                    .map(|m| m.1)
                    .collect();
                assert!(seqs.windows(2).all(|w| w[0] < w[1]));
            }
        }
        let mut all = got.concat();
        all.sort_unstable();
        let want: Vec<(u32, u32)> = (0..2)
            .flat_map(|p| (0..5_000).map(move |seq| (p, seq)))
            .collect();
        assert_eq!(all, want);
    }
}
