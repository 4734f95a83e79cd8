//! Interactive EEG exploration: a session of dependent similarity queries.
//!
//! The paper's motivation for millisecond query answering is *exploratory*
//! search, "where every next query depends on the results of previous
//! queries" (§I). This example simulates such a session over an EEG-like
//! collection (the SALD surrogate): start from a seed epoch, find its
//! nearest neighbor, hop to it, repeat — a walk through the collection
//! that is only interactive if each hop is fast.
//!
//! Run with: `cargo run --release --example eeg_explorer`

use dsidx::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Error> {
    let n = 50_000;
    let len = 128; // SALD uses length-128 series
    println!("collection: {n} EEG-like epochs of {len} samples");
    let data = DatasetKind::Sald.generate(n, len, 99);

    let options = Options::default().with_leaf_capacity(100);
    let t0 = Instant::now();
    let index = MemoryIndex::build(data.clone(), Engine::Messi, &options)?;
    println!("MESSI index built in {:.1?}", t0.elapsed());

    // Compare against what the session would feel like on a serial scan.
    let seed_query = DatasetKind::Sald.queries(1, len, 99);
    let t_scan = Instant::now();
    let (scan_hits, _) =
        dsidx::ucr::scan(&data, &[seed_query.get(0)], Measure::Euclidean, 1, 1, None)?;
    let scan_time = t_scan.elapsed();
    println!(
        "serial UCR scan for one query: {scan_time:.1?} (hit #{}) — the baseline feel",
        scan_hits[0][0].pos
    );

    // The exploration session: 12 hops, each query derived from the
    // previous answer.
    println!("\nexploration session (each hop = 1 exact query):");
    let nn = QuerySpec::nn();
    let mut current: Vec<f32> = seed_query.get(0).to_vec();
    let mut visited: Vec<u32> = Vec::new();
    let session_start = Instant::now();
    for hop in 0..12 {
        let t = Instant::now();
        let hit = index
            .search(&[current.as_slice()], &nn)?
            .into_nn()
            .expect("non-empty");
        let dt = t.elapsed();
        println!(
            "  hop {hop:>2}: #{:<6} dist {:.4}  in {dt:.2?}",
            hit.pos,
            hit.dist()
        );
        visited.push(hit.pos);
        // Next query: the answer epoch itself, nudged so we keep moving
        // instead of fixating (distance 0 to itself).
        current = data.get(hit.pos as usize).to_vec();
        let nudge = 1 + (hop as usize * 7) % 11;
        current.rotate_left(nudge);
        dsidx::series::znorm::znormalize(&mut current);
    }
    let session = session_start.elapsed();
    println!(
        "\nsession of {} hops: {session:.1?} total ({:.1?} per hop; serial scan would need ~{:.1?})",
        visited.len(),
        session / visited.len() as u32,
        scan_time * visited.len() as u32
    );

    // Pruning effectiveness on this hard (EEG-like) distribution — the
    // work counters ride along on any spec via `.with_stats()`.
    let answers = index.search(&[seed_query.get(0)], &QuerySpec::nn().with_stats())?;
    let stats = answers.query_stats(0).expect("stats requested");
    println!(
        "\npruning on EEG-like data: {} leaves enqueued, {} processed, {} real distances for {n} series",
        stats.leaves_enqueued, stats.leaves_processed, stats.real_computed
    );

    // When a hop only needs a plausible next epoch (not the provable
    // nearest), approximate fidelity answers from the best leaf alone.
    let t = Instant::now();
    let approx = index
        .search(
            &[seed_query.get(0)],
            &QuerySpec::nn().fidelity(Fidelity::Approximate),
        )?
        .into_nn()
        .expect("non-empty");
    println!(
        "approximate hop: #{:<6} dist {:.4} in {:.2?} (exact sibling above)",
        approx.pos,
        approx.dist(),
        t.elapsed()
    );
    Ok(())
}
