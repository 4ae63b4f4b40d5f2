//! Property tests: every vectorized kernel must match a scalar reference
//! implementation on arbitrary batches — empty batches, full and partial
//! validity masks, and chained selection vectors included.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use flowmark_columnar::{
    kernels, Column, ColumnBatch, SelVec, StrColumn, StrU64Batch, Validity, WordDict,
};
use flowmark_engine::hash::FxHasher64;

/// Strings over a tiny alphabet so substrings collide often (boundary
/// straddles, repeated prefixes) and needles actually match sometimes.
const ALPHABET: [char; 4] = ['a', 'b', 'x', ' '];

fn arb_string(alphabet_size: usize, max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..alphabet_size, 0..max_len + 1)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn arb_rows() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_string(4, 12), 0..40)
}

fn arb_needle() -> impl Strategy<Value = String> {
    arb_string(3, 3)
}

/// Scalar reference for candidate iteration: validity ∩ selection, in
/// ascending row order.
fn candidates(rows: usize, validity: Option<&Validity>, sel: Option<&SelVec>) -> Vec<usize> {
    let base: Vec<usize> = match sel {
        Some(s) => s.iter().collect(),
        None => (0..rows).collect(),
    };
    base.into_iter()
        .filter(|&i| validity.map(|v| v.is_valid(i)).unwrap_or(true))
        .collect()
}

/// Builds a validity mask over `rows` from a bool seed vector (cycled), or
/// `None` when the seed is empty — exercising the unmasked fast path.
fn mask_from(seed: &[bool], rows: usize) -> Option<Validity> {
    if seed.is_empty() {
        return None;
    }
    let bools: Vec<bool> = (0..rows).map(|i| seed[i % seed.len()]).collect();
    Some(Validity::from_bools(&bools))
}

/// Builds an incoming selection over `rows` by keeping every `step`-th row,
/// or `None` (dense) when `step == 0`.
fn sel_from(step: usize, rows: usize) -> Option<SelVec> {
    if step == 0 {
        return None;
    }
    Some(SelVec::from_indices(
        (0..rows).step_by(step).map(|i| i as u32).collect(),
    ))
}

/// Every char `char::is_whitespace` accepts; the first six are ASCII.
const SPACES: [&str; 25] = [
    " ", "\t", "\n", "\u{0B}", "\u{0C}", "\r", "\u{85}", "\u{A0}", "\u{1680}", "\u{2000}",
    "\u{2001}", "\u{2002}", "\u{2003}", "\u{2004}", "\u{2005}", "\u{2006}", "\u{2007}", "\u{2008}",
    "\u{2009}", "\u{200A}", "\u{2028}", "\u{2029}", "\u{202F}", "\u{205F}", "\u{3000}",
];
const ASCII_SPACES: usize = 6;

/// Word characters, multi-byte ones included; U+001C and U+200B look like
/// separators but are not whitespace. The first three are ASCII.
const LETTERS: [&str; 6] = ["a", "b", "\u{1C}", "é", "日", "\u{200B}"];
const ASCII_LETTERS: usize = 3;

/// One line from `(letter, repeat, separator)` picks: each word is one
/// letter repeated (0 repeats leaves only the separator, 17 or more make a
/// word longer than the dictionary's inline width), then a separator. An
/// `ascii` line draws only ASCII letters and separators.
fn line_from(ascii: bool, picks: &[(usize, usize, usize)]) -> String {
    let (letters, spaces) = if ascii {
        (ASCII_LETTERS, ASCII_SPACES)
    } else {
        (LETTERS.len(), SPACES.len())
    };
    picks
        .iter()
        .map(|&(l, n, s)| LETTERS[l % letters].repeat(n) + SPACES[s % spaces])
        .collect()
}

fn arb_text_lines() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        (
            any::<bool>(),
            prop::collection::vec((0usize..6, 0usize..24, 0usize..25), 0..10),
        )
            .prop_map(|(ascii, picks)| line_from(ascii, &picks)),
        0..30,
    )
}

/// How the word-count shuffle routed a word before the dictionary kernel:
/// FxHash of the `str`, modulo the reducer count.
fn word_partition(word: &str, parts: usize) -> usize {
    let mut h = FxHasher64::default();
    word.hash(&mut h);
    (h.finish() as usize) % parts
}

/// `split_whitespace` into a `HashMap<String, u64>`: the scalar reference.
fn reference_counts(lines: &[String]) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for w in lines.iter().flat_map(|l| l.split_whitespace()) {
        *counts.entry(w.to_owned()).or_default() += 1;
    }
    counts
}

/// `tokenize_count` then `route` equal the reference counts, and every
/// routed word sits in the batch `word_partition` names, once.
fn assert_counts_and_routes_match(lines: &[String], parts: usize) {
    let expect = reference_counts(lines);
    let mut dict = WordDict::new();
    kernels::tokenize_count(lines.iter().map(String::as_str), &mut dict);
    assert_eq!(dict.len(), expect.len());
    let counted: HashMap<String, u64> = dict.iter().map(|(w, c)| (w.to_owned(), c)).collect();
    assert_eq!(counted, expect);
    let routed = dict.route(parts);
    assert_eq!(routed.len(), parts);
    assert_eq!(
        routed.iter().map(StrU64Batch::len).sum::<usize>(),
        expect.len()
    );
    let mut seen = HashMap::new();
    for (p, batch) in routed.iter().enumerate() {
        for (w, c) in batch.iter() {
            assert_eq!(
                word_partition(w, parts),
                p,
                "{w:?} routed to the wrong reducer"
            );
            seen.insert(w.to_owned(), c);
        }
    }
    assert_eq!(seen, expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tokenize-and-count plus route equal `split_whitespace` into a
    /// `HashMap` on any text: every Unicode whitespace char, empty and
    /// whitespace-only lines, multi-byte words and words past the inline
    /// width, on ASCII lines (byte split) and others (`str` split).
    #[test]
    fn tokenize_count_and_route_match_the_scalar_reference(
        lines in arb_text_lines(),
        parts in 1usize..7,
    ) {
        assert_counts_and_routes_match(&lines, parts);
    }

    /// All-distinct vocabularies large enough to grow the dictionary
    /// several times, and all-equal ones, count and route exactly.
    #[test]
    fn distinct_and_equal_vocabularies_count_through_growth(
        words in 1usize..6_000,
        repeats in 1usize..4,
        parts in 1usize..7,
    ) {
        let lines_of = |word: &dyn Fn(usize) -> String| -> Vec<String> {
            let stream: Vec<String> = (0..repeats * words).map(word).collect();
            stream.chunks(10).map(|c| c.join(" ")).collect()
        };
        assert_counts_and_routes_match(&lines_of(&|i| format!("w{}", i % words)), parts);
        assert_counts_and_routes_match(&lines_of(&|_| "same".to_owned()), parts);
    }

    /// A 64 KiB word, ASCII or multi-byte, counts and routes like any other.
    #[test]
    fn a_64_kib_word_counts_like_any_other(
        multi_byte in any::<bool>(),
        extra in 0usize..9,
        parts in 1usize..7,
    ) {
        let giant = if multi_byte {
            "é".repeat((64 << 10) / 2 + extra)
        } else {
            "g".repeat((64 << 10) + extra)
        };
        let lines = vec![
            format!("a {giant} b"),
            giant.clone(),
            format!("{giant}\u{3000}{giant}\ta"),
        ];
        assert_counts_and_routes_match(&lines, parts);
    }

    /// The substring filter (dense flat scan or masked per-row scan) equals
    /// `str::contains` over the candidate rows.
    #[test]
    fn filter_str_contains_matches_scalar(
        rows in arb_rows(),
        needle in arb_needle(),
        mask_seed in prop::collection::vec(any::<bool>(), 0..8),
        sel_step in 0usize..5,
    ) {
        let col = StrColumn::from_lines(&rows);
        let validity = mask_from(&mask_seed, rows.len());
        let sel = sel_from(sel_step, rows.len());
        let got = kernels::filter_str_contains(&col, needle.as_bytes(), validity.as_ref(), sel.as_ref());
        let expect: Vec<u32> = candidates(rows.len(), validity.as_ref(), sel.as_ref())
            .into_iter()
            .filter(|&i| rows[i].contains(&needle))
            .map(|i| i as u32)
            .collect();
        prop_assert_eq!(got.indices(), expect.as_slice());
    }

    /// Chaining two filters equals filtering by the conjunction.
    #[test]
    fn chained_filters_compose(rows in arb_rows(), n1 in arb_needle(), n2 in arb_needle()) {
        let col = StrColumn::from_lines(&rows);
        let first = kernels::filter_str_contains(&col, n1.as_bytes(), None, None);
        let second = kernels::filter_str_contains(&col, n2.as_bytes(), None, Some(&first));
        let expect: Vec<u32> = (0..rows.len())
            .filter(|&i| rows[i].contains(&n1) && rows[i].contains(&n2))
            .map(|i| i as u32)
            .collect();
        prop_assert_eq!(second.indices(), expect.as_slice());
    }

    /// The u64 predicate filter equals a scalar scan.
    #[test]
    fn filter_u64_matches_scalar(
        vals in prop::collection::vec(any::<u64>(), 0..60),
        mask_seed in prop::collection::vec(any::<bool>(), 0..8),
        sel_step in 0usize..5,
        threshold in any::<u64>(),
    ) {
        let validity = mask_from(&mask_seed, vals.len());
        let sel = sel_from(sel_step, vals.len());
        let got = kernels::filter_u64(&vals, validity.as_ref(), sel.as_ref(), |x| x >= threshold);
        let expect: Vec<u32> = candidates(vals.len(), validity.as_ref(), sel.as_ref())
            .into_iter()
            .filter(|&i| vals[i] >= threshold)
            .map(|i| i as u32)
            .collect();
        prop_assert_eq!(got.indices(), expect.as_slice());
    }

    /// Projection materialises exactly the candidate rows, in order.
    #[test]
    fn project_matches_scalar_gather(
        rows in arb_rows(),
        mask_seed in prop::collection::vec(any::<bool>(), 0..8),
        sel_step in 0usize..5,
    ) {
        let vals: Vec<u64> = (0..rows.len() as u64).collect();
        let mut batch = ColumnBatch::new(vec![
            Column::U64(vals.clone()),
            Column::Str(StrColumn::from_lines(&rows)),
        ]);
        let validity = mask_from(&mask_seed, rows.len());
        if let Some(v) = validity.clone() {
            batch = batch.with_validity(v);
        }
        let sel = sel_from(sel_step, rows.len());
        let out = kernels::project(&batch, &[0, 1], sel.as_ref());
        let keep = candidates(rows.len(), validity.as_ref(), sel.as_ref());
        prop_assert_eq!(out.rows(), keep.len());
        let expect_vals: Vec<u64> = keep.iter().map(|&i| vals[i]).collect();
        prop_assert_eq!(out.column(0), &Column::U64(expect_vals));
        match out.column(1) {
            Column::Str(c) => {
                let got: Vec<&str> = c.iter().collect();
                let expect: Vec<&str> = keep.iter().map(|&i| rows[i].as_str()).collect();
                prop_assert_eq!(got, expect);
            }
            other => prop_assert!(false, "wrong column type: {:?}", other),
        }
    }

    /// Batch hash-agg over string keys equals a scalar HashMap fold.
    #[test]
    fn hash_agg_str_matches_scalar(
        pairs in prop::collection::vec((arb_string(2, 3), any::<u64>()), 0..60),
        mask_seed in prop::collection::vec(any::<bool>(), 0..8),
        sel_step in 0usize..5,
    ) {
        let keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
        let vals: Vec<u64> = pairs.iter().map(|(_, v)| *v).collect();
        let col = StrColumn::from_lines(&keys);
        let validity = mask_from(&mask_seed, keys.len());
        let sel = sel_from(sel_step, keys.len());
        let mut got: HashMap<String, u64> = HashMap::new();
        kernels::hash_agg_str(&col, &vals, validity.as_ref(), sel.as_ref(), &mut got,
            |a, v| *a = a.wrapping_add(v));
        let mut expect: HashMap<String, u64> = HashMap::new();
        for i in candidates(keys.len(), validity.as_ref(), sel.as_ref()) {
            match expect.get_mut(&keys[i]) {
                Some(a) => *a = a.wrapping_add(vals[i]),
                None => { expect.insert(keys[i].clone(), vals[i]); }
            }
        }
        prop_assert_eq!(got, expect);
    }

    /// Batch hash-agg over u64 keys equals a scalar HashMap fold.
    #[test]
    fn hash_agg_u64_matches_scalar(
        pairs in prop::collection::vec((0u64..16, any::<u64>()), 0..60),
        mask_seed in prop::collection::vec(any::<bool>(), 0..8),
        sel_step in 0usize..5,
    ) {
        let keys: Vec<u64> = pairs.iter().map(|(k, _)| *k).collect();
        let vals: Vec<u64> = pairs.iter().map(|(_, v)| *v).collect();
        let validity = mask_from(&mask_seed, keys.len());
        let sel = sel_from(sel_step, keys.len());
        let mut got: HashMap<u64, u64> = HashMap::new();
        kernels::hash_agg_u64(&keys, &vals, validity.as_ref(), sel.as_ref(), &mut got,
            |a, v| *a = a.wrapping_add(v));
        let mut expect: HashMap<u64, u64> = HashMap::new();
        for i in candidates(keys.len(), validity.as_ref(), sel.as_ref()) {
            match expect.get_mut(&keys[i]) {
                Some(a) => *a = a.wrapping_add(vals[i]),
                None => { expect.insert(keys[i], vals[i]); }
            }
        }
        prop_assert_eq!(got, expect);
    }

    /// `contains_bytes` equals `str::contains` for arbitrary haystacks and
    /// needles (SWAR first-byte scan included).
    #[test]
    fn contains_bytes_matches_str(hay in arb_string(3, 24), needle in arb_string(3, 5)) {
        prop_assert_eq!(
            kernels::contains_bytes(hay.as_bytes(), needle.as_bytes()),
            hay.contains(&needle)
        );
    }

    /// The radix permutation sorts arbitrary keys exactly like `slice::sort`
    /// and is a bijection over the rows.
    #[test]
    fn radix_sort_matches_comparison_sort(keys in prop::collection::vec(any::<u64>(), 0..200)) {
        let perm = kernels::radix_sort_u64(&keys);
        let mut seen = vec![false; keys.len()];
        for &i in &perm { seen[i as usize] = true; }
        prop_assert!(seen.iter().all(|&s| s), "permutation must visit every row");
        let got: Vec<u64> = perm.iter().map(|&i| keys[i as usize]).collect();
        let mut expect = keys.clone();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    /// Duplicate-heavy keys (tiny domain, so most byte passes are trivial
    /// and get skipped) still sort stably: equal keys keep arrival order.
    #[test]
    fn radix_sort_is_stable_on_duplicate_heavy_keys(
        keys in prop::collection::vec(0u64..4, 0..120),
    ) {
        let perm = kernels::radix_sort_u64(&keys);
        let got: Vec<u64> = perm.iter().map(|&i| keys[i as usize]).collect();
        let mut expect = keys.clone();
        expect.sort();
        prop_assert_eq!(&got, &expect);
        // Stability: indices of equal keys must appear in ascending order.
        for w in perm.windows(2) {
            if keys[w[0] as usize] == keys[w[1] as usize] {
                prop_assert!(w[0] < w[1], "equal keys out of arrival order");
            }
        }
    }

    /// Already-sorted input yields the identity permutation (every counting
    /// pass is order-preserving on sorted data).
    #[test]
    fn radix_sort_on_sorted_input_is_identity(
        mut keys in prop::collection::vec(any::<u64>(), 0..120),
    ) {
        keys.sort();
        let perm = kernels::radix_sort_u64(&keys);
        let identity: Vec<u32> = (0..keys.len() as u32).collect();
        // Equal neighbours make identity the unique *stable* answer too.
        prop_assert_eq!(perm, identity);
    }
}
