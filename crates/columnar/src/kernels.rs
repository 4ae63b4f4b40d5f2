//! Vectorized kernels over column batches.
//!
//! Every kernel follows the same contract:
//!
//! - input rows are the batch rows, narrowed by an optional [`Validity`]
//!   mask and an optional incoming [`SelVec`] (chained selections compose —
//!   the output selection indexes the *original* batch rows);
//! - filters emit a [`SelVec`] and never copy payload bytes;
//! - hash-aggregation probes a **caller-supplied** map batch-at-a-time, so
//!   the engines pass their own pre-sized FxHash maps and this crate stays
//!   dependency-free;
//! - [`tokenize_count`] splits text lines in place and counts the words into
//!   a [`WordDict`], which routes the counts without hashing a word again.

use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::batch::{ColumnBatch, F64Batch, SelVec, StrColumn, Validity};
use crate::dict::WordDict;

// ---------------------------------------------------------------------------
// Byte search primitives
// ---------------------------------------------------------------------------

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// First position of `byte` in `hay`, scanning 8 bytes per step (SWAR:
/// a word has a zero byte iff `(w - LO) & !w & HI != 0` after xoring the
/// broadcast needle in).
#[inline]
fn find_byte(hay: &[u8], byte: u8) -> Option<usize> {
    let broadcast = SWAR_LO.wrapping_mul(byte as u64);
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0usize;
    for chunk in &mut chunks {
        let w = u64::from_le_bytes([
            chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
        ]) ^ broadcast;
        let hit = w.wrapping_sub(SWAR_LO) & !w & SWAR_HI;
        if hit != 0 {
            return Some(base + (hit.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == byte)
        .map(|p| base + p)
}

/// Substring test on raw bytes: first-byte SWAR scan, then a window
/// compare per candidate. The batch equivalent of `str::contains`, minus
/// any per-row `String`.
#[inline]
pub fn contains_bytes(hay: &[u8], needle: &[u8]) -> bool {
    let Some(&first) = needle.first() else {
        return true;
    };
    if hay.len() < needle.len() {
        return false;
    }
    let mut from = 0usize;
    let last_start = hay.len() - needle.len();
    while from <= last_start {
        match find_byte(&hay[from..=last_start], first) {
            Some(off) => {
                let start = from + off;
                if &hay[start..start + needle.len()] == needle {
                    return true;
                }
                from = start + 1;
            }
            None => return false,
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Candidate iteration (validity × chained selection)
// ---------------------------------------------------------------------------

#[inline]
fn for_each_candidate(
    rows: usize,
    validity: Option<&Validity>,
    sel: Option<&SelVec>,
    mut f: impl FnMut(usize),
) {
    match sel {
        Some(sel) => {
            for i in sel.iter() {
                debug_assert!(i < rows);
                if validity.is_none_or(|v| v.is_valid(i)) {
                    f(i);
                }
            }
        }
        None => {
            for i in 0..rows {
                if validity.is_none_or(|v| v.is_valid(i)) {
                    f(i);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Filter kernels
// ---------------------------------------------------------------------------

/// Vectorized substring filter over a string column: rows containing
/// `needle` → selection vector. No payload byte is copied.
///
/// The dense case (no mask, no incoming selection) scans the column's
/// *flat* buffer once — one sequential pass over contiguous memory,
/// whatever the row count — and maps each verified occurrence back to its
/// row through the offset array. Masked or pre-selected batches fall back
/// to a per-row window scan over the candidate rows only.
pub fn filter_str_contains(
    col: &StrColumn,
    needle: &[u8],
    validity: Option<&Validity>,
    sel: Option<&SelVec>,
) -> SelVec {
    let rows = col.len();
    if needle.is_empty() {
        // Empty needle matches every candidate row.
        let mut out = SelVec::with_capacity(rows);
        for_each_candidate(rows, validity, sel, |i| out.push(i as u32));
        return out;
    }
    if validity.is_none() && sel.is_none() {
        return filter_contains_flat(col, needle);
    }
    let mut out = SelVec::new();
    for_each_candidate(rows, validity, sel, |i| {
        if contains_bytes(col.get_bytes(i), needle) {
            out.push(i as u32);
        }
    });
    out
}

/// Dense flat-buffer scan: find candidate first bytes across the whole
/// payload, verify the window, check it does not straddle a row boundary,
/// then skip to the matched row's end (one hit per row).
fn filter_contains_flat(col: &StrColumn, needle: &[u8]) -> SelVec {
    let data = col.data();
    let offsets = col.offsets();
    let first = needle[0];
    let mut out = SelVec::new();
    if data.len() < needle.len() {
        return out;
    }
    let last_start = data.len() - needle.len();
    let mut pos = 0usize;
    let mut row = 0usize;
    while pos <= last_start {
        let Some(off) = find_byte(&data[pos..=last_start], first) else {
            break;
        };
        let start = pos + off;
        if &data[start..start + needle.len()] != needle {
            pos = start + 1;
            continue;
        }
        // Map the occurrence to its row (offsets ascend with `start`).
        while offsets[row + 1] as usize <= start {
            row += 1;
        }
        let row_end = offsets[row + 1] as usize;
        if start + needle.len() <= row_end {
            out.push(row as u32);
            // One hit per row is enough — resume at the row boundary.
            pos = row_end;
        } else {
            // The window straddles a row boundary: not a real match.
            pos = start + 1;
        }
    }
    out
}

/// Vectorized predicate filter over a `u64` column.
pub fn filter_u64(
    col: &[u64],
    validity: Option<&Validity>,
    sel: Option<&SelVec>,
    mut pred: impl FnMut(u64) -> bool,
) -> SelVec {
    let mut out = SelVec::new();
    for_each_candidate(col.len(), validity, sel, |i| {
        if pred(col[i]) {
            out.push(i as u32);
        }
    });
    out
}

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

/// Projection: keeps the named columns, materialising only the selected
/// (and valid) rows. The one place a filter pipeline actually copies.
pub fn project(batch: &ColumnBatch, cols: &[usize], sel: Option<&SelVec>) -> ColumnBatch {
    let full: SelVec;
    let effective: &SelVec = match sel {
        Some(s) if batch.validity().is_none() => s,
        _ => {
            // Materialise the candidate set (validity ∩ selection).
            let mut v = SelVec::new();
            for_each_candidate(batch.rows(), batch.validity(), sel, |i| v.push(i as u32));
            full = v;
            &full
        }
    };
    ColumnBatch::new(
        cols.iter()
            .map(|&c| batch.column(c).gather(effective))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Hash aggregation
// ---------------------------------------------------------------------------

/// Batch-at-a-time hash aggregation over string keys: probes the
/// caller-supplied map (the engines pass their FxHash maps) row by row,
/// allocating a key `String` only on first sight — repeat keys combine
/// through a borrowed `&str` probe.
pub fn hash_agg_str<S: BuildHasher>(
    keys: &StrColumn,
    vals: &[u64],
    validity: Option<&Validity>,
    sel: Option<&SelVec>,
    agg: &mut HashMap<String, u64, S>,
    combine: impl Fn(&mut u64, u64),
) {
    assert_eq!(keys.len(), vals.len(), "key/value column length mismatch");
    for_each_candidate(keys.len(), validity, sel, |i| {
        let k = keys.get(i);
        match agg.get_mut(k) {
            Some(acc) => combine(acc, vals[i]),
            None => {
                agg.insert(k.to_owned(), vals[i]);
            }
        }
    });
}

/// Batch-at-a-time hash aggregation over fixed-width keys.
pub fn hash_agg_u64<S: BuildHasher>(
    keys: &[u64],
    vals: &[u64],
    validity: Option<&Validity>,
    sel: Option<&SelVec>,
    agg: &mut HashMap<u64, u64, S>,
    combine: impl Fn(&mut u64, u64),
) {
    assert_eq!(keys.len(), vals.len(), "key/value column length mismatch");
    for_each_candidate(keys.len(), validity, sel, |i| {
        match agg.entry(keys[i]) {
            std::collections::hash_map::Entry::Occupied(mut e) => combine(e.get_mut(), vals[i]),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(vals[i]);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Tokenize and count
// ---------------------------------------------------------------------------

/// The ASCII bytes `char::is_whitespace` accepts: space and `\t \n VT \f \r`
/// (`0x09..=0x0D`). `u8::is_ascii_whitespace` would miss VT.
#[inline]
fn is_ascii_space(b: u8) -> bool {
    b == b' ' || b.wrapping_sub(b'\t') < 5
}

/// Splits every line on whitespace and counts each word into `dict` — the
/// Word Count map and its combiner in one pass over the caller's lines, with
/// no copy of them. An ASCII line is split on its bytes; any other line goes
/// through `str::split_whitespace`, so the words are exactly the ones
/// `split_whitespace` yields on every input.
pub fn tokenize_count<'a>(lines: impl IntoIterator<Item = &'a str>, dict: &mut WordDict) {
    for line in lines {
        let bytes = line.as_bytes();
        if !bytes.is_ascii() {
            line.split_whitespace().for_each(|w| dict.add(w));
            continue;
        }
        let mut i = 0;
        while i < bytes.len() {
            if is_ascii_space(bytes[i]) {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && !is_ascii_space(bytes[i]) {
                i += 1;
            }
            dict.add(&line[start..i]);
        }
    }
}

// ---------------------------------------------------------------------------
// Numeric point kernels (dim-major F64 batches)
// ---------------------------------------------------------------------------

/// Index of the squared-Euclidean-nearest center for the point at `row`.
/// Ties break to the lowest center index, matching the scalar reference.
#[inline]
fn nearest_row(points: &F64Batch, centers: &F64Batch, row: usize) -> u32 {
    let k = centers.rows();
    let mut best = 0u32;
    let mut best_d = f64::INFINITY;
    if points.dims() == 2 {
        // Unrolled 2-d hot path: both coordinate streams and all center
        // coordinates stay in registers / L1 across the k-loop.
        let (x, y) = (points.dim(0)[row], points.dim(1)[row]);
        let (cx, cy) = (centers.dim(0), centers.dim(1));
        for c in 0..k {
            let dx = x - cx[c];
            let dy = y - cy[c];
            let d = dx * dx + dy * dy;
            if d < best_d {
                best_d = d;
                best = c as u32;
            }
        }
    } else {
        for c in 0..k {
            let mut d = 0.0;
            for dim in 0..points.dims() {
                let delta = points.dim(dim)[row] - centers.dim(dim)[c];
                d += delta * delta;
            }
            if d < best_d {
                best_d = d;
                best = c as u32;
            }
        }
    }
    best
}

/// Scalar fallback for [`assign_columns_2d`]: row-major walk with the
/// running minimum in registers. Strict `<` keeps ties on the lowest
/// center index, matching the record path's `nearest`.
fn assign_columns_2d_scalar(
    xs: &[f64],
    ys: &[f64],
    cx: &[f64],
    cy: &[f64],
    best_c: &mut [f64],
) {
    let k = cx.len();
    for ((bc, &x), &y) in best_c.iter_mut().zip(xs).zip(ys) {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for c in 0..k {
            let dx = x - cx[c];
            let dy = y - cy[c];
            let d = dx * dx + dy * dy;
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        *bc = best as f64;
    }
}

/// AVX2+FMA body for [`assign_columns_2d`]: four rows per iteration, the
/// running minimum and its center index held in vector registers (the
/// index rides in an `f64` lane so the whole body is one vector width),
/// one pass over the coordinate columns. `_CMP_LT_OQ` is strict, so ties
/// stay on the lowest center index — identical to the scalar walk.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA, and that `xs`,
/// `ys` and `best_c` all have equal lengths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn assign_columns_2d_avx2(
    xs: &[f64],
    ys: &[f64],
    cx: &[f64],
    cy: &[f64],
    best_c: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let k = cx.len();
    // Center broadcasts hoisted out of the row loop: three fewer
    // `set1` per center per row-group.
    let cxv: Vec<__m256d> = cx.iter().map(|&v| _mm256_set1_pd(v)).collect();
    let cyv: Vec<__m256d> = cy.iter().map(|&v| _mm256_set1_pd(v)).collect();
    let cv: Vec<__m256d> = (0..k).map(|c| _mm256_set1_pd(c as f64)).collect();
    let mut i = 0;
    // Two independent 4-row groups per iteration: the running-minimum
    // blends form a loop-carried dependency chain per group, so a second
    // group in flight hides the blend latency.
    while i + 8 <= n {
        let x0 = _mm256_loadu_pd(xs.as_ptr().add(i));
        let y0 = _mm256_loadu_pd(ys.as_ptr().add(i));
        let x1 = _mm256_loadu_pd(xs.as_ptr().add(i + 4));
        let y1 = _mm256_loadu_pd(ys.as_ptr().add(i + 4));
        let mut bd0 = _mm256_set1_pd(f64::INFINITY);
        let mut bc0 = _mm256_setzero_pd();
        let mut bd1 = bd0;
        let mut bc1 = bc0;
        for c in 0..k {
            let cxc = *cxv.get_unchecked(c);
            let cyc = *cyv.get_unchecked(c);
            let cc = *cv.get_unchecked(c);
            let dx0 = _mm256_sub_pd(x0, cxc);
            let dy0 = _mm256_sub_pd(y0, cyc);
            let d0 = _mm256_fmadd_pd(dx0, dx0, _mm256_mul_pd(dy0, dy0));
            let m0 = _mm256_cmp_pd::<_CMP_LT_OQ>(d0, bd0);
            bd0 = _mm256_blendv_pd(bd0, d0, m0);
            bc0 = _mm256_blendv_pd(bc0, cc, m0);
            let dx1 = _mm256_sub_pd(x1, cxc);
            let dy1 = _mm256_sub_pd(y1, cyc);
            let d1 = _mm256_fmadd_pd(dx1, dx1, _mm256_mul_pd(dy1, dy1));
            let m1 = _mm256_cmp_pd::<_CMP_LT_OQ>(d1, bd1);
            bd1 = _mm256_blendv_pd(bd1, d1, m1);
            bc1 = _mm256_blendv_pd(bc1, cc, m1);
        }
        _mm256_storeu_pd(best_c.as_mut_ptr().add(i), bc0);
        _mm256_storeu_pd(best_c.as_mut_ptr().add(i + 4), bc1);
        i += 8;
    }
    if i < n {
        assign_columns_2d_scalar(&xs[i..], &ys[i..], cx, cy, &mut best_c[i..]);
    }
}

/// 2-d nearest-center assignment over flat coordinate columns: writes the
/// winning center index (as `f64`, so SIMD lanes stay uniform) per row
/// into `best_c`. Dispatches to an AVX2+FMA kernel where the CPU has it;
/// both paths break ties to the lowest center index, matching the scalar
/// reference.
fn assign_columns_2d(xs: &[f64], ys: &[f64], cx: &[f64], cy: &[f64], best_c: &mut [f64]) {
    let n = xs.len();
    assert!(ys.len() == n && best_c.len() == n, "column length mismatch");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: features checked at runtime; lengths asserted above.
        unsafe { assign_columns_2d_avx2(xs, ys, cx, cy, best_c) };
        return;
    }
    assign_columns_2d_scalar(xs, ys, cx, cy, best_c);
}

/// Vectorized nearest-center assignment: appends one center index per batch
/// row to `out`, scanning each dimension as a flat slice.
pub fn nearest_center(points: &F64Batch, centers: &F64Batch, out: &mut Vec<u32>) {
    assert_eq!(points.dims(), centers.dims(), "dimension mismatch");
    assert!(centers.rows() > 0, "need at least one center");
    let n = points.rows();
    if points.dims() == 2 {
        let mut best_c = vec![0.0; n];
        assign_columns_2d(
            points.dim(0),
            points.dim(1),
            centers.dim(0),
            centers.dim(1),
            &mut best_c,
        );
        out.extend(best_c.iter().map(|&c| c as u32));
    } else {
        out.reserve(n);
        for i in 0..n {
            out.push(nearest_row(points, centers, i));
        }
    }
}

/// Assigns every batch row to its nearest center and folds it straight into
/// dim-major running sums — `sums[d * k + c]` accumulates dimension `d` of
/// center `c`'s members, `counts[c]` their population — without
/// materialising assignments or per-point tuples. Returns the rows folded.
pub fn assign_accumulate(
    points: &F64Batch,
    centers: &F64Batch,
    sums: &mut [f64],
    counts: &mut [u64],
) -> usize {
    assert_eq!(points.dims(), centers.dims(), "dimension mismatch");
    let k = centers.rows();
    assert!(k > 0, "need at least one center");
    assert_eq!(sums.len(), points.dims() * k, "sums must be dims x k");
    assert_eq!(counts.len(), k, "counts must have one slot per center");
    let n = points.rows();
    if points.dims() == 2 {
        let (xs, ys) = (points.dim(0), points.dim(1));
        let mut best_c = vec![0.0; n];
        assign_columns_2d(xs, ys, centers.dim(0), centers.dim(1), &mut best_c);
        for i in 0..n {
            let c = best_c[i] as usize;
            sums[c] += xs[i];
            sums[k + c] += ys[i];
            counts[c] += 1;
        }
    } else {
        for i in 0..n {
            let c = nearest_row(points, centers, i) as usize;
            for d in 0..points.dims() {
                sums[d * k + c] += points.dim(d)[i];
            }
            counts[c] += 1;
        }
    }
    n
}

// ---------------------------------------------------------------------------
// Radix sort (u64 keys)
// ---------------------------------------------------------------------------

/// Stable LSD radix sort over a flat `u64` key column: returns the
/// permutation (as ascending-key row indices) that sorts `keys`, without
/// moving any payload. One histogram pre-pass counts all eight byte
/// positions at once; byte positions where every key agrees are skipped
/// entirely, so narrow key distributions pay only for the bytes that vary.
pub fn radix_sort_u64(keys: &[u64]) -> Vec<u32> {
    let n = keys.len();
    assert!(n <= u32::MAX as usize, "radix permutation indexes with u32");
    if n <= 1 {
        return (0..n as u32).collect();
    }
    let mut hist = vec![[0u32; 256]; 8];
    for &key in keys {
        for (b, h) in hist.iter_mut().enumerate() {
            h[((key >> (8 * b)) & 0xFF) as usize] += 1;
        }
    }
    let mut src: Vec<u32> = (0..n as u32).collect();
    let mut dst: Vec<u32> = vec![0; n];
    for (b, h) in hist.iter().enumerate() {
        // A byte position where one value covers every row permutes nothing.
        if h.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut offsets = [0u32; 256];
        let mut run = 0u32;
        for (o, &c) in offsets.iter_mut().zip(h.iter()) {
            *o = run;
            run += c;
        }
        let shift = 8 * b;
        for &i in &src {
            let byte = ((keys[i as usize] >> shift) & 0xFF) as usize;
            dst[offsets[byte] as usize] = i;
            offsets[byte] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Column;

    #[test]
    fn find_byte_matches_position() {
        let hay = b"abcdefghijklmnop_qrstuvwxyz";
        for (i, &b) in hay.iter().enumerate() {
            assert_eq!(find_byte(hay, b), Some(i), "byte {b}");
        }
        assert_eq!(find_byte(hay, b'0'), None);
        assert_eq!(find_byte(b"", b'a'), None);
        assert_eq!(find_byte(b"short", b't'), Some(4));
    }

    #[test]
    fn contains_bytes_matches_str_contains() {
        let cases = [
            ("hello world", "world", true),
            ("hello world", "worlds", false),
            ("", "", true),
            ("x", "", true),
            ("", "x", false),
            ("aaaab", "aab", true),
            ("abababac", "abac", true),
            ("abababab", "abac", false),
        ];
        for (hay, needle, expect) in cases {
            assert_eq!(
                contains_bytes(hay.as_bytes(), needle.as_bytes()),
                expect,
                "{hay:?} contains {needle:?}"
            );
            assert_eq!(hay.contains(needle), expect, "oracle disagrees");
        }
    }

    #[test]
    fn dense_flat_filter_matches_per_row_scan() {
        let lines: Vec<String> = (0..500)
            .map(|i| {
                if i % 7 == 0 {
                    format!("row {i} has the needle inside")
                } else {
                    format!("row {i} is plain")
                }
            })
            .collect();
        let col = StrColumn::from_lines(&lines);
        let sel = filter_str_contains(&col, b"needle", None, None);
        let expect: Vec<u32> = (0..500u32).filter(|i| i % 7 == 0).collect();
        assert_eq!(sel.indices(), expect.as_slice());
    }

    #[test]
    fn flat_filter_does_not_match_across_row_boundaries() {
        // "ab" + "cd" adjacent in the flat buffer must not match "bc".
        let col = StrColumn::from_lines(&["ab", "cd", "xbcx"]);
        let sel = filter_str_contains(&col, b"bc", None, None);
        assert_eq!(sel.indices(), &[2]);
    }

    #[test]
    fn chained_selection_composes() {
        let col = StrColumn::from_lines(&["ax", "bx", "a", "axx", "b"]);
        let first = filter_str_contains(&col, b"a", None, None);
        assert_eq!(first.indices(), &[0, 2, 3]);
        let second = filter_str_contains(&col, b"x", None, Some(&first));
        assert_eq!(second.indices(), &[0, 3]);
    }

    #[test]
    fn validity_mask_excludes_rows() {
        let col = StrColumn::from_lines(&["hit", "hit", "hit"]);
        let mut v = Validity::all_valid(3);
        v.set_invalid(1);
        let sel = filter_str_contains(&col, b"hit", Some(&v), None);
        assert_eq!(sel.indices(), &[0, 2]);
    }

    #[test]
    fn filter_u64_with_chain() {
        let col = vec![1u64, 4, 9, 16, 25, 36];
        let even = filter_u64(&col, None, None, |x| x % 2 == 0);
        assert_eq!(even.indices(), &[1, 3, 5]);
        let big = filter_u64(&col, None, Some(&even), |x| x > 10);
        assert_eq!(big.indices(), &[3, 5]);
    }

    #[test]
    fn project_gathers_selected_rows() {
        let batch = ColumnBatch::new(vec![
            Column::U64(vec![1, 2, 3, 4]),
            Column::Str(StrColumn::from_lines(&["a", "b", "c", "d"])),
        ]);
        let sel = SelVec::from_indices(vec![0, 2]);
        let out = project(&batch, &[1], Some(&sel));
        assert_eq!(out.rows(), 2);
        match out.column(0) {
            Column::Str(c) => assert_eq!(c.iter().collect::<Vec<_>>(), vec!["a", "c"]),
            other => panic!("wrong column type: {other:?}"),
        }
    }

    #[test]
    fn project_respects_validity() {
        let mut v = Validity::all_valid(3);
        v.set_invalid(0);
        let batch = ColumnBatch::new(vec![Column::U64(vec![7, 8, 9])]).with_validity(v);
        let out = project(&batch, &[0], None);
        assert_eq!(out.column(0), &Column::U64(vec![8, 9]));
    }

    #[test]
    fn hash_agg_str_combines_repeats() {
        let keys = StrColumn::from_lines(&["a", "b", "a", "a", "b"]);
        let vals = vec![1u64, 10, 2, 3, 20];
        let mut agg: HashMap<String, u64> = HashMap::new();
        hash_agg_str(&keys, &vals, None, None, &mut agg, |a, v| *a += v);
        assert_eq!(agg["a"], 6);
        assert_eq!(agg["b"], 30);
    }

    #[test]
    fn hash_agg_u64_respects_selection() {
        let keys = vec![1u64, 2, 1, 2];
        let vals = vec![10u64, 20, 30, 40];
        let sel = SelVec::from_indices(vec![0, 3]);
        let mut agg: HashMap<u64, u64> = HashMap::new();
        hash_agg_u64(&keys, &vals, None, Some(&sel), &mut agg, |a, v| *a += v);
        assert_eq!(agg[&1], 10);
        assert_eq!(agg[&2], 40);
    }

    #[test]
    fn tokenize_count_splits_like_split_whitespace() {
        let lines = [
            "a b\ta",
            "",
            " \t\n\x0B\x0C\r ",
            "a\x0Bb\x1Cc",
            "naïve\u{A0}café a\u{3000}b",
        ];
        let mut dict = WordDict::new();
        tokenize_count(lines, &mut dict);
        let mut expect: HashMap<&str, u64> = HashMap::new();
        for w in lines.iter().flat_map(|l| l.split_whitespace()) {
            *expect.entry(w).or_default() += 1;
        }
        assert_eq!(dict.iter().collect::<HashMap<_, _>>(), expect);
    }

    #[test]
    fn nearest_center_breaks_ties_low_and_matches_scalar() {
        let points = F64Batch::from_dims(vec![vec![0.0, 5.0, 2.5], vec![0.0, 0.0, 0.0]]);
        // Center 0 and 1 are equidistant from x=2.5: ties go to index 0.
        let centers = F64Batch::from_dims(vec![vec![0.0, 5.0], vec![0.0, 0.0]]);
        let mut out = Vec::new();
        nearest_center(&points, &centers, &mut out);
        assert_eq!(out, vec![0, 1, 0]);
    }

    #[test]
    fn assign_accumulate_folds_sums_and_counts() {
        let points = F64Batch::from_dims(vec![vec![1.0, 2.0, 10.0], vec![1.0, 3.0, -1.0]]);
        let centers = F64Batch::from_dims(vec![vec![0.0, 9.0], vec![0.0, 0.0]]);
        let mut sums = vec![0.0; 4];
        let mut counts = vec![0u64; 2];
        let rows = assign_accumulate(&points, &centers, &mut sums, &mut counts);
        assert_eq!(rows, 3);
        assert_eq!(counts, vec![2, 1]);
        assert_eq!(sums, vec![3.0, 10.0, 4.0, -1.0]); // dim-major: xs then ys
    }

    #[test]
    fn radix_sort_matches_comparison_sort_and_is_stable() {
        let keys = vec![5u64, 1, u64::MAX, 5, 0, 1 << 40, 5];
        let perm = radix_sort_u64(&keys);
        let sorted: Vec<u64> = perm.iter().map(|&i| keys[i as usize]).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        // Stability: equal keys keep their original relative order.
        let fives: Vec<u32> = perm
            .iter()
            .copied()
            .filter(|&i| keys[i as usize] == 5)
            .collect();
        assert_eq!(fives, vec![0, 3, 6]);
        assert_eq!(radix_sort_u64(&[]), Vec::<u32>::new());
        assert_eq!(radix_sort_u64(&[7]), vec![0]);
    }
}
