//! Property-based tests for the iSAX substrate — centered on the soundness
//! invariant that makes every engine's pruning exact.

use dsidx_isax::breakpoints::breakpoints;
use dsidx_isax::mindist::{
    mindist_envelope_node_sq, mindist_paa_node_sq, mindist_paa_word_sq, CoarseTable, MindistTable,
    NodeMindistTable, COARSE_BLOCK,
};
use dsidx_isax::paa::{envelope_paa_bounds, paa};
use dsidx_isax::word::{NodeWord, Word, MAX_BITS};
use dsidx_isax::Quantizer;
use dsidx_series::distance::{dtw, euclidean_sq};
use dsidx_series::znorm::znormalize;
use proptest::prelude::*;

/// A pair of z-normalized series of equal length plus a segment count.
fn config_and_pair() -> impl Strategy<Value = (usize, Vec<f32>, Vec<f32>)> {
    (1usize..=16).prop_flat_map(|w| {
        (w..=256usize).prop_flat_map(move |n| {
            (
                Just(w),
                prop::collection::vec(-5.0f32..5.0, n).prop_map(|mut v| {
                    znormalize(&mut v);
                    v
                }),
                prop::collection::vec(-5.0f32..5.0, n).prop_map(|mut v| {
                    znormalize(&mut v);
                    v
                }),
            )
        })
    })
}

/// A query summary value: mostly breakpoint territory, sometimes far
/// outside it (slots whose squares overflow to `+inf`) or infinite.
fn table_value() -> impl Strategy<Value = f32> {
    (0u8..12, -4.0f32..4.0).prop_map(|(kind, v)| match kind {
        0 => 1e20,
        1 => -1e20,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => v * 40.0,
        _ => v,
    })
}

/// The `f32` next to `v` towards `+inf` (`up`) or `-inf`, for finite
/// positive `v`.
fn ulp_step(v: f32, up: bool) -> f32 {
    f32::from_bits(if up { v.to_bits() + 1 } else { v.to_bits() - 1 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// THE invariant: MINDIST(PAA(q), word(c)) <= ED(q, c)^2.
    #[test]
    fn word_mindist_lower_bounds_euclidean((w, q, c) in config_and_pair()) {
        let quant = Quantizer::new(q.len(), w).unwrap();
        let word_c = quant.word(&c);
        let paa_q = paa(&q, w);
        let ed = euclidean_sq(&q, &c);
        let md = mindist_paa_word_sq(&paa_q, &word_c, quant.segment_lens());
        prop_assert!(md <= ed + ed.abs() * 1e-3 + 1e-3, "mindist {md} > ed {ed}");
    }

    /// Node-level bound is looser than (or equal to) the word-level bound,
    /// and still lower-bounds ED — at every refinement level along the path.
    #[test]
    fn node_mindist_chain(
        (w, q, c) in config_and_pair(),
        splits in 0usize..40,
        r_pick in 0usize..16,
    ) {
        let quant = Quantizer::new(q.len(), w).unwrap();
        let word_c = quant.word(&c);
        let paa_q = paa(&q, w);
        let ed = euclidean_sq(&q, &c);
        let wd = mindist_paa_word_sq(&paa_q, &word_c, quant.segment_lens());

        // From a root of any fan-out: the unkeyed segments start at zero
        // bits and are refined like the rest.
        let r = 1 + r_pick % w;
        let mut node = NodeWord::root(word_c.root_key(r), r, w);
        let mut prev = mindist_paa_node_sq(&paa_q, &node, quant.segment_lens());
        prop_assert!(prev <= ed + ed.abs() * 1e-3 + 1e-3);
        // Refine along c's path; the bound must be monotone non-decreasing.
        for k in 0..splits {
            let seg = k % w;
            if !node.can_split(seg) {
                continue;
            }
            let (zero, one) = node.split(seg);
            node = if node.split_bit(&word_c, seg) { one } else { zero };
            prop_assert!(node.contains(&word_c), "containment along path");
            let cur = mindist_paa_node_sq(&paa_q, &node, quant.segment_lens());
            prop_assert!(cur + 1e-5 >= prev, "refinement loosened the bound");
            prop_assert!(cur <= wd + wd.abs() * 1e-5 + 1e-5, "node bound above word bound");
            prev = cur;
        }
    }

    /// The per-query lookup table is exactly the direct computation.
    #[test]
    fn table_lookup_equals_direct((w, q, c) in config_and_pair()) {
        let quant = Quantizer::new(q.len(), w).unwrap();
        let word_c = quant.word(&c);
        let paa_q = paa(&q, w);
        let table = MindistTable::new_point(&paa_q, quant.segment_lens());
        let direct = mindist_paa_word_sq(&paa_q, &word_c, quant.segment_lens());
        let looked = table.lookup(&word_c);
        prop_assert!((direct - looked).abs() <= direct.abs() * 1e-5 + 1e-6);
    }

    /// The table's scalar lookup is a reassociation-free sum of the same
    /// per-segment terms as the branchy computation, so it must reproduce
    /// `mindist_paa_word_sq` with identical f32 bits.
    #[test]
    fn table_lookup_scalar_is_bit_identical_to_branchy((w, q, c) in config_and_pair()) {
        let quant = Quantizer::new(q.len(), w).unwrap();
        let word_c = quant.word(&c);
        let paa_q = paa(&q, w);
        let table = MindistTable::new_point(&paa_q, quant.segment_lens());
        let direct = mindist_paa_word_sq(&paa_q, &word_c, quant.segment_lens());
        prop_assert_eq!(table.lookup_scalar(&word_c).to_bits(), direct.to_bits());
    }

    /// Batched lookup must match the per-word scalar loop bit-for-bit —
    /// with SIMD on the batch-8 kernel accumulates each lane in the same
    /// segment order as the scalar sum, with it off both sides are the
    /// same loop. Either way, scans prune identically in both modes.
    #[test]
    fn table_lookup_many_is_bit_identical_to_scalar(
        (w, q, c) in config_and_pair(),
        count in 0usize..24,
        pad in 0usize..12,
    ) {
        let quant = Quantizer::new(q.len(), w).unwrap();
        let paa_q = paa(&q, w);
        let table = MindistTable::new_point(&paa_q, quant.segment_lens());
        // Derive `count` distinct-ish words by scaling the candidate.
        let words: Vec<_> = (0..count)
            .map(|i| {
                let scaled: Vec<f32> =
                    c.iter().map(|&v| v * (0.5 + 0.1 * i as f32)).collect();
                quant.word(&scaled)
            })
            .collect();
        // Oversized poison-filled buffer: scan callers reuse fixed-size
        // block buffers, so every word's slot must be written even when
        // `out` is longer than `words` — and the tail must stay untouched.
        let mut out = vec![f32::NAN; words.len() + pad];
        table.lookup_many(&words, &mut out);
        for (word, &got) in words.iter().zip(&out) {
            prop_assert_eq!(got.to_bits(), table.lookup_scalar(word).to_bits());
        }
        prop_assert!(out[words.len()..].iter().all(|v| v.is_nan()));
    }

    /// DTW envelope MINDIST lower-bounds the true banded DTW.
    #[test]
    fn envelope_mindist_lower_bounds_dtw((w, q, c) in config_and_pair(), band_frac in 0.0f64..0.2) {
        let band = ((q.len() as f64) * band_frac) as usize;
        let quant = Quantizer::new(q.len(), w).unwrap();
        let word_c = quant.word(&c);
        let r = 1 + q.len() % w;
        let node = NodeWord::root(word_c.root_key(r), r, w);

        let mut lo_env = Vec::new();
        let mut hi_env = Vec::new();
        dtw::envelope(&q, band, &mut lo_env, &mut hi_env);
        let mut lo_paa = vec![0.0; w];
        let mut hi_paa = vec![0.0; w];
        envelope_paa_bounds(&lo_env, &hi_env, &mut lo_paa, &mut hi_paa);

        let d = dtw::dtw_sq(&q, &c, band);
        let md_node = mindist_envelope_node_sq(&lo_paa, &hi_paa, &node, quant.segment_lens());
        prop_assert!(md_node <= d + d.abs() * 1e-3 + 1e-3, "node dtw bound {md_node} > dtw {d}");
        let table = MindistTable::new_interval(&lo_paa, &hi_paa, quant.segment_lens());
        let md_word = table.lookup(&word_c);
        prop_assert!(md_word <= d + d.abs() * 1e-3 + 1e-3, "word dtw bound {md_word} > dtw {d}");
    }

    /// The same bound where it is tightest and where the segmentation is
    /// awkward: the candidate is the query plus a little noise (so the
    /// envelope means, not slack, carry the bound), the length is not a
    /// multiple of the segment count, and the band runs from nothing to
    /// past the whole series.
    #[test]
    fn envelope_mindist_lower_bounds_dtw_of_near_copies(
        (w, q, noise) in config_and_pair(),
        scale in 0.0f32..0.3,
        band_pick in 0usize..6,
    ) {
        // Make `n % w != 0` whenever the length allows it.
        let n = if q.len() % w == 0 && q.len() > w { q.len() - 1 } else { q.len() };
        let q = &q[..n];
        let c: Vec<f32> = q.iter().zip(&noise).map(|(a, b)| a + scale * b).collect();
        let band = [0, 1, n / 10, n / 2, n, n + 5][band_pick];
        let quant = Quantizer::new(n, w).unwrap();
        let word_c = quant.word(&c);
        let r = 1 + band_pick % w;
        let node = NodeWord::root(word_c.root_key(r), r, w);

        let mut lo_env = Vec::new();
        let mut hi_env = Vec::new();
        dtw::envelope(q, band, &mut lo_env, &mut hi_env);
        let mut lo_paa = vec![0.0; w];
        let mut hi_paa = vec![0.0; w];
        envelope_paa_bounds(&lo_env, &hi_env, &mut lo_paa, &mut hi_paa);
        // Means sit inside the extrema the bound used to be built from.
        for seg in 0..w {
            prop_assert!(lo_paa[seg] <= hi_paa[seg]);
        }

        let d = dtw::dtw_sq(q, &c, band);
        let md_node = mindist_envelope_node_sq(&lo_paa, &hi_paa, &node, quant.segment_lens());
        prop_assert!(md_node <= d + d.abs() * 1e-3 + 1e-3, "node dtw bound {md_node} > dtw {d}");
        let table = MindistTable::new_interval(&lo_paa, &hi_paa, quant.segment_lens());
        let md_word = table.lookup(&word_c);
        prop_assert!(md_word <= d + d.abs() * 1e-3 + 1e-3, "word dtw bound {md_word} > dtw {d}");
        // And below LB_Keogh, the bound it is the PAA of.
        let lb = dtw::lb_keogh_sq(&c, &lo_env, &hi_env);
        prop_assert!(md_word <= lb + lb.abs() * 1e-3 + 1e-3, "word bound {md_word} > LB_Keogh {lb}");
    }

    /// Quantization/prefix coherence for arbitrary values.
    #[test]
    fn symbol_prefix_coherence(v in -10.0f32..10.0) {
        let t = breakpoints();
        let full = t.symbol(v, MAX_BITS);
        for bits in 1..MAX_BITS {
            prop_assert_eq!(t.symbol(v, bits), full >> (MAX_BITS - bits));
        }
        prop_assert_eq!(t.symbol(v, 0), 0);
        // Value lies in its region at every cardinality, the single
        // zero-bit region included.
        for bits in 0..=MAX_BITS {
            let s = t.symbol(v, bits);
            let (lo, hi) = t.region(s, bits);
            prop_assert!(lo <= v && v < hi);
        }
    }

    /// The bucket-table quantizer equals the binary search over the
    /// breakpoints for arbitrary `f32` bit patterns — NaNs, infinities,
    /// subnormals and signed zeros included — at every cardinality.
    #[test]
    fn table_symbol_equals_search_for_any_bits(patterns in prop::collection::vec(0u32..=u32::MAX, 64)) {
        let t = breakpoints();
        for v in patterns.into_iter().map(f32::from_bits) {
            for bits in 0..=MAX_BITS {
                let searched = t.for_bits(bits).partition_point(|&bp| bp <= v) as u8;
                prop_assert_eq!(t.symbol(v, bits), searched, "v={:e} bits={}", v, bits);
            }
        }
    }

    /// After a split, a contained word lands in exactly one child — from
    /// one bit and from zero bits alike.
    #[test]
    fn split_is_a_partition(
        (w, q, _c) in config_and_pair(),
        seg_pick in 0usize..16,
        r_pick in 0usize..16,
    ) {
        let quant = Quantizer::new(q.len(), w).unwrap();
        let word = quant.word(&q);
        let r = 1 + r_pick % w;
        let node = NodeWord::root(word.root_key(r), r, w);
        let seg = seg_pick % w;
        let (zero, one) = node.split(seg);
        let in_zero = zero.contains(&word);
        let in_one = one.contains(&word);
        prop_assert!(in_zero ^ in_one, "must land in exactly one child");
        prop_assert_eq!(in_one, node.split_bit(&word, seg));
        if node.bits(seg) == 0 {
            // Refining an unkeyed segment yields its two one-bit children.
            prop_assert_eq!((zero.bits(seg), zero.prefix(seg)), (1, 0));
            prop_assert_eq!((one.bits(seg), one.prefix(seg)), (1, 1));
        }
    }

    /// For every fan-out `r`, a root word contains exactly the words that
    /// carry its key; the packed matcher agrees with the per-segment test;
    /// and the word survives a trip through its raw parts.
    #[test]
    fn root_words_contain_exactly_the_words_with_their_key((w, q, c) in config_and_pair()) {
        let quant = Quantizer::new(q.len(), w).unwrap();
        let (word_q, word_c) = (quant.word(&q), quant.word(&c));
        for r in 1..=w {
            let key = word_q.root_key(r);
            prop_assert!(u32::from(key) < 1 << r);
            let root = NodeWord::root(key, r, w);
            prop_assert_eq!(root.total_bits() as usize, r);
            for other in [&word_q, &word_c] {
                let inside = other.root_key(r) == key;
                prop_assert_eq!(root.contains(other), inside, "r={}", r);
                prop_assert_eq!(root.matcher().contains(other), inside, "r={}", r);
            }
            let prefixes: Vec<u8> = (0..w).map(|s| root.prefix(s)).collect();
            let bits: Vec<u8> = (0..w).map(|s| root.bits(s)).collect();
            prop_assert_eq!(NodeWord::from_parts(&prefixes, &bits), Some(root));
            // A prefix its cardinality cannot represent is refused, on
            // keyed and unkeyed segments alike.
            for seg in 0..w {
                let mut bad = prefixes.clone();
                bad[seg] |= 1 << bits[seg];
                prop_assert_eq!(NodeWord::from_parts(&bad, &bits), None);
            }
        }
    }

    /// The node table never bounds a node above the word table's bound for
    /// a word under it — point and interval tables, from roots of every
    /// fan-out down a refinement path — and its dispatched lookup (AVX2 at
    /// 16 segments) agrees with the sequential sum up to the association of
    /// the horizontal add.
    #[test]
    fn node_table_stays_below_the_word_table(
        (w, q, c) in config_and_pair(),
        r_pick in 0usize..16,
        slack in 0.0f32..0.5,
    ) {
        let quant = Quantizer::new(q.len(), w).unwrap();
        let word_c = quant.word(&c);
        let paa_q = paa(&q, w);
        let lo: Vec<f32> = paa_q.iter().map(|v| v - slack).collect();
        let hi: Vec<f32> = paa_q.iter().map(|v| v + slack).collect();
        let lens = quant.segment_lens();
        let tables = [
            (NodeMindistTable::new_point(&paa_q, lens), MindistTable::new_point(&paa_q, lens)),
            (
                NodeMindistTable::new_interval(&lo, &hi, lens),
                MindistTable::new_interval(&lo, &hi, lens),
            ),
        ];
        // No bits anywhere: contains everything, bounds nothing, exactly.
        let whole = NodeWord::from_parts(&vec![0; w], &vec![0; w]).expect("zero bits are a word");
        prop_assert!(whole.contains(&word_c) && whole.matcher().contains(&word_c));
        for (node_table, _) in &tables {
            prop_assert_eq!(node_table.lookup(&whole).to_bits(), 0.0f32.to_bits());
            prop_assert_eq!(node_table.lookup_scalar(&whole).to_bits(), 0.0f32.to_bits());
        }
        let r = 1 + r_pick % w;
        let mut node = NodeWord::root(word_c.root_key(r), r, w);
        for k in 0..=8 * w {
            prop_assert!(node.contains(&word_c));
            for (node_table, word_table) in &tables {
                let fine = word_table.lookup_scalar(&word_c);
                let coarse = node_table.lookup_scalar(&node);
                prop_assert!(coarse <= fine, "node bound {} above word bound {}", coarse, fine);
                let dispatched = node_table.lookup(&node);
                prop_assert!((dispatched - coarse).abs() <= coarse * 1e-5);
            }
            let seg = k % w;
            if node.can_split(seg) {
                let (zero, one) = node.split(seg);
                node = if node.split_bit(&word_c, seg) { one } else { zero };
            }
        }
    }

    /// The coarse pre-filter is sound: a word it rules out has a
    /// `lookup_many` bound at or above the limit — for point and interval
    /// tables with `+inf` slots, random words, reference limits and live
    /// limits set exactly to (or one ulp either side of) a word's own fine
    /// bound. Its masks are the scalar oracle's bit for bit, and the two
    /// stages keep exactly the words `lookup_many` puts below the limit,
    /// in order, with its bits.
    #[test]
    fn the_coarse_stage_rules_out_only_words_bounded_at_or_above_the_limit(
        interval in 0u8..2,
        (a, b) in (prop::collection::vec(table_value(), 16), prop::collection::vec(table_value(), 16)),
        series_len in 16usize..=256,
        symbols in prop::collection::vec(0u8..=255, 16 * 45),
        (reference_pick, reference_scale) in (0usize..45, 0u8..4),
        (limit_pick, nudge) in (0usize..45, 0u8..4),
    ) {
        let quant = Quantizer::new(series_len, 16).unwrap();
        let lens = quant.segment_lens();
        let table = if interval == 0 {
            MindistTable::new_point(&a, lens)
        } else {
            let lo: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
            let hi: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
            MindistTable::new_interval(&lo, &hi, lens)
        };
        let words: Vec<Word> = symbols.chunks_exact(16).map(Word::new).collect();
        let mut exact = vec![0.0f32; words.len()];
        table.lookup_many(&words, &mut exact);
        let finite_positive = |v: f32| v.is_finite() && v > 0.0;
        let mut reference = exact[reference_pick];
        if !finite_positive(reference) {
            reference = 1.0;
        }
        reference *= [1.0, 0.5, 2.0, 37.0][usize::from(reference_scale)];
        let mut limit = exact[limit_pick];
        if !finite_positive(limit) {
            limit = reference;
        }
        match nudge {
            1 => limit = ulp_step(limit, true),
            2 if limit > f32::MIN_POSITIVE => limit = ulp_step(limit, false),
            3 => limit = reference,
            _ => {}
        }
        let coarse = CoarseTable::new(&table, reference).expect("16 segments, valid reference");
        if let Some(threshold) = coarse.threshold(limit) {
            for (block, bounds) in words.chunks(COARSE_BLOCK).zip(exact.chunks(COARSE_BLOCK)) {
                let mask = coarse.may_survive(block, threshold);
                prop_assert_eq!(mask, coarse.may_survive_scalar(block, threshold));
                for (j, &lb) in bounds.iter().enumerate() {
                    if mask & (1 << j) == 0 {
                        prop_assert!(lb >= limit, "ruled out a bound {} below the limit {}", lb, limit);
                    }
                }
            }
        }
        let mut kept = Vec::new();
        table.for_each_below(Some(&coarse), &words, limit, |i, lb| kept.push((i, lb.to_bits())));
        let want: Vec<(usize, u32)> = exact
            .iter()
            .enumerate()
            .filter(|&(_, &lb)| lb < limit)
            .map(|(i, lb)| (i, lb.to_bits()))
            .collect();
        prop_assert_eq!(kept, want);
    }
}
