//! Sharded scatter-gather search: split one collection over N engine
//! shards, search them in parallel with mid-flight BSF sharing, and show
//! that the answers stay bit-identical to the monolithic index while the
//! shared best-so-far shrinks the verification work.
//!
//! Run with: `cargo run --release --example sharded`

use dsidx::prelude::*;
use dsidx::shard::partition;
use dsidx::ShardedIndex;
use std::time::Instant;

/// Candidates verified (real distances fully computed) across a batch.
fn verified(stats: &BatchStats) -> u64 {
    stats.shared.real_computed + stats.per_query.iter().map(|q| q.real_computed).sum::<u64>()
}

/// Without sharing: one index per `partition` slice, each searched on its
/// own, the answers rebased to global positions and merged to the `k`
/// best per query. Returns the merged answers and the candidates verified.
fn isolated(
    data: &Dataset,
    shards: usize,
    options: &Options,
    batch: &[&[f32]],
    spec: &QuerySpec,
) -> Result<(Vec<Vec<Match>>, u64), Error> {
    let len = data.series_len();
    let mut merged: Vec<Vec<Match>> = vec![Vec::new(); batch.len()];
    let mut work = 0;
    for range in partition(data.len(), shards) {
        let base = range.start as u32;
        let slice = Dataset::from_flat(
            data.as_flat()[range.start * len..range.end * len].to_vec(),
            len,
        )?;
        let answers = MemoryIndex::build(slice, Engine::Messi, options)?.search(batch, spec)?;
        work += verified(answers.stats().expect("stats requested"));
        for (row, ms) in merged.iter_mut().zip(answers.matches()) {
            row.extend(ms.iter().map(|m| Match::new(base + m.pos, m.dist_sq)));
        }
    }
    for row in &mut merged {
        row.sort_unstable_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.pos.cmp(&b.pos)));
        row.truncate(spec.k());
    }
    Ok((merged, work))
}

fn main() -> Result<(), Error> {
    let n = 20_000;
    let len = 128;
    println!("generating {n} random-walk series of length {len}...");
    let data = DatasetKind::Synthetic.generate(n, len, 42);
    let queries = DatasetKind::Synthetic.queries(5, len, 42);
    let batch: Vec<&[f32]> = queries.iter().collect();
    let options = Options::default().with_leaf_capacity(100);
    let spec = QuerySpec::knn(10).with_stats();

    // The monolithic baseline every sharded answer must reproduce.
    let monolith = MemoryIndex::build(data.clone(), Engine::Messi, &options)?;
    let want = monolith.search(&batch, &spec)?;

    println!(
        "\nMESSI over {n} series, exact 10-NN for {} queries:",
        batch.len()
    );
    for shards in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let sharded = ShardedIndex::build_in_memory(&data, shards, Engine::Messi, &options)?;
        let build = t0.elapsed();

        // Sharing on (the default): one SharedTopK per query is threaded
        // through every shard's kernels, so a tight match found in one
        // shard raises the abandon threshold the others prune against.
        let t1 = Instant::now();
        let shared = sharded.search(&batch, &spec)?;
        let query = t1.elapsed();
        assert_eq!(want.matches(), shared.matches(), "sharded != monolith");

        // Without sharing: each slice searched independently, merged
        // afterwards — same answers, more work.
        let (merged, off) = isolated(&data, shards, &options, &batch, &spec)?;
        assert_eq!(want.matches(), &merged[..], "isolated != monolith");
        let on = verified(shared.stats().expect("stats requested"));
        println!(
            "    {shards} shard(s): build {build:>8.1?}  search {query:>8.1?}  \
             verified {on:>5} shared / {off:>5} isolated",
        );
    }

    println!("\nevery sharded answer above is bit-identical to the monolith's.");
    Ok(())
}
