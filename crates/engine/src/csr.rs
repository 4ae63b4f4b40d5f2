//! Graph topology in CSR (compressed sparse row) form over dense vertex
//! ids — the one builder both engines' graph layers start from.
//!
//! [`DenseCsr::from_edges`] turns an edge list into a sorted id dictionary
//! plus `u32` offsets/targets. Both engines split its rows at
//! [`bounds`](DenseCsr::bounds) balanced by edge count: the pipelined
//! engine's [`crate::iterate::PartitionedGraph`] keeps the rows whole and
//! hands each iteration worker a word-aligned range of them; the staged
//! engine's [`crate::graphx::Graph`] [`cut`](DenseCsr::cut)s them into
//! [`EdgePartition`]s, the elements of its edge RDD.

use crate::hash::FxHashMap;

/// A whole graph: dense vertex `v` has id `ids[v]` and out-neighbours
/// `targets[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone)]
pub struct DenseCsr {
    /// Vertex ids, ascending and deduplicated; position = dense id.
    /// Vertices that appear only as targets are included (empty row).
    pub ids: Vec<u64>,
    /// CSR row starts into `targets`; `len == ids.len() + 1`.
    pub offsets: Vec<u32>,
    /// Concatenated dense out-neighbour lists, edge-list order per source.
    pub targets: Vec<u32>,
}

impl DenseCsr {
    /// Builds the CSR in one hashing pass and two array passes: every
    /// endpoint is probed once for a first-seen provisional id, the distinct
    /// ids are sorted into the dictionary, and degree count plus cursor fill
    /// run over `u32` pairs against flat arrays.
    pub fn from_edges(edges: &[(u64, u64)]) -> Self {
        assert!(
            edges.len() < u32::MAX as usize / 2,
            "edge count must fit u32 CSR offsets"
        );
        let mut seen: FxHashMap<u64, u32> = FxHashMap::default();
        let mut first_seen: Vec<u64> = Vec::new();
        let mut provisional = |v: u64| {
            *seen.entry(v).or_insert_with(|| {
                first_seen.push(v);
                (first_seen.len() - 1) as u32
            })
        };
        let pairs: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(s, t)| (provisional(s), provisional(t)))
            .collect();
        let nv = first_seen.len();
        let mut order: Vec<u32> = (0..nv as u32).collect();
        order.sort_unstable_by_key(|&i| first_seen[i as usize]);
        let mut dense = vec![0u32; nv];
        for (rank, &i) in order.iter().enumerate() {
            dense[i as usize] = rank as u32;
        }
        let ids: Vec<u64> = order.iter().map(|&i| first_seen[i as usize]).collect();

        let mut offsets = vec![0u32; nv + 1];
        for &(s, _) in &pairs {
            offsets[dense[s as usize] as usize + 1] += 1;
        }
        for v in 0..nv {
            offsets[v + 1] += offsets[v];
        }
        // Per-row write cursors keep the edge-list order within a row.
        let mut cursors = offsets[..nv].to_vec();
        let mut targets = vec![0u32; edges.len()];
        for &(s, t) in &pairs {
            let c = &mut cursors[dense[s as usize] as usize];
            targets[*c as usize] = dense[t as usize];
            *c += 1;
        }
        Self {
            ids,
            offsets,
            targets,
        }
    }

    /// Vertex count.
    pub fn vertices(&self) -> usize {
        self.ids.len()
    }

    /// Dense out-neighbours of dense vertex `v`.
    pub fn row(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The same vertices with every edge in both directions: row `v` holds
    /// its out-neighbours and its in-neighbours (a self-loop twice), what
    /// `from_edges` builds from the edge list plus its reverse — here as a
    /// transpose-degree count and a cursor fill, with no second dictionary.
    pub fn undirected(self) -> Self {
        let nv = self.vertices();
        let mut offsets = vec![0u32; nv + 1];
        for v in 0..nv {
            offsets[v + 1] = self.offsets[v + 1] - self.offsets[v];
        }
        for &t in &self.targets {
            offsets[t as usize + 1] += 1;
        }
        for v in 0..nv {
            offsets[v + 1] += offsets[v];
        }
        let mut cursors = offsets[..nv].to_vec();
        let mut targets = vec![0u32; 2 * self.targets.len()];
        let mut push = |row: u32, neighbour: u32| {
            let c = &mut cursors[row as usize];
            targets[*c as usize] = neighbour;
            *c += 1;
        };
        for v in 0..nv {
            for &t in self.row(v) {
                push(v as u32, t);
                push(t, v as u32);
            }
        }
        Self {
            ids: self.ids,
            offsets,
            targets,
        }
    }

    /// Row bounds of `parts` contiguous ranges of equal edge count (a range
    /// may be empty), each rounded up to a multiple of `align`; the last
    /// covers every row. Splitting rows evenly instead would hand the first
    /// range most of a skewed graph's edges.
    pub fn bounds(&self, parts: usize, align: usize) -> Vec<usize> {
        let (nv, ne) = (self.vertices(), self.targets.len());
        let end = nv.next_multiple_of(align);
        let bound = |p: usize| {
            self.offsets[..nv]
                .partition_point(|&o| (o as usize) < ne * p / parts)
                .next_multiple_of(align)
        };
        (0..parts).map(bound).chain([end]).collect()
    }

    /// Cuts the rows into `parts` [`bounds`](Self::bounds), so map tasks
    /// scanning them stay balanced however skewed the degrees are.
    pub fn cut(&self, parts: usize) -> Vec<EdgePartition> {
        self.bounds(parts, 1)
            .windows(2)
            .map(|w| {
                let (a, b) = (w[0], w[1]);
                let (lo, hi) = (self.offsets[a], self.offsets[b]);
                EdgePartition {
                    first: a as u32,
                    offsets: self.offsets[a..=b].iter().map(|o| o - lo).collect(),
                    targets: self.targets[lo as usize..hi as usize].to_vec(),
                }
            })
            .collect()
    }
}

/// The CSR rows of a contiguous range of dense source ids.
#[derive(Debug, Clone)]
pub struct EdgePartition {
    first: u32,
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl EdgePartition {
    /// `(dense source, its dense out-neighbours)` for every row, ascending.
    pub fn rows(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.offsets
            .windows(2)
            .zip(self.first..)
            .map(|(w, src)| (src, &self.targets[w[0] as usize..w[1] as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_is_sorted_and_rows_keep_edge_list_order() {
        // Sparse ids, a duplicate edge, a self-loop, a sink-only vertex.
        let edges = [(90u64, 7), (7, 90), (90, 3), (90, 7), (3, 3), (7, 1_000)];
        let csr = DenseCsr::from_edges(&edges);
        assert_eq!(csr.ids, vec![3, 7, 90, 1_000]);
        assert_eq!(csr.offsets, vec![0, 1, 3, 6, 6]);
        let ids = |row: &[u32]| row.iter().map(|&t| csr.ids[t as usize]).collect::<Vec<_>>();
        assert_eq!(ids(csr.row(0)), vec![3]);
        assert_eq!(ids(csr.row(1)), vec![90, 1_000]);
        assert_eq!(ids(csr.row(2)), vec![7, 3, 7]);
        assert!(
            csr.row(3).is_empty(),
            "a sink-only vertex owns an empty row"
        );
        assert_eq!(DenseCsr::from_edges(&[]).offsets, vec![0]);
    }

    #[test]
    fn undirected_matches_the_builder_on_the_symmetric_edge_list() {
        // A self-loop, a triplicated edge, a sink-only vertex behind a
        // sparse id, and a pair nothing else touches.
        let edges = [
            (0u64, 0),
            (4, 2),
            (4, 2),
            (4, 2),
            (2, 9),
            (9, 4),
            (1, 9),
            (3, 5_000),
            (7_000, 9_000),
        ];
        let sym: Vec<(u64, u64)> = edges.iter().flat_map(|&(s, t)| [(s, t), (t, s)]).collect();
        let got = DenseCsr::from_edges(&edges).undirected();
        let expect = DenseCsr::from_edges(&sym);
        assert_eq!(got.ids, expect.ids);
        assert_eq!(got.offsets, expect.offsets);
        // Rows agree as multisets: the builder interleaves the two
        // directions in edge-list order, the array pass goes row by row.
        let sorted_rows = |csr: &DenseCsr| -> Vec<Vec<u32>> {
            (0..csr.vertices())
                .map(|v| {
                    let mut row = csr.row(v).to_vec();
                    row.sort_unstable();
                    row
                })
                .collect()
        };
        assert_eq!(sorted_rows(&got), sorted_rows(&expect));
        assert_eq!(got.row(0), [0, 0], "a self-loop is its own reverse");
        assert_eq!(DenseCsr::from_edges(&[]).undirected().offsets, vec![0]);
    }

    #[test]
    fn bounds_round_up_to_the_alignment_and_cover_every_row() {
        // One hub with 60 out-edges ahead of 40 single-edge rows.
        let mut edges: Vec<(u64, u64)> = (0..60).map(|t| (0, 100 + t)).collect();
        edges.extend((1..41).map(|s| (s, 0)));
        let csr = DenseCsr::from_edges(&edges);
        assert_eq!(csr.vertices(), 101);
        assert_eq!(csr.bounds(3, 1), vec![0, 1, 7, 101]);
        assert_eq!(csr.bounds(3, 4), vec![0, 4, 8, 104]);
        assert_eq!(csr.bounds(3, 64), vec![0, 64, 64, 128]);
        assert_eq!(DenseCsr::from_edges(&[]).bounds(2, 64), vec![0, 0, 0]);
    }

    #[test]
    fn cut_covers_every_row_once_and_balances_edges() {
        // One hub with 60 out-edges ahead of 40 single-edge rows.
        let mut edges: Vec<(u64, u64)> = (0..60).map(|t| (0, 100 + t)).collect();
        edges.extend((1..41).map(|s| (s, 0)));
        let csr = DenseCsr::from_edges(&edges);
        for parts in [1, 2, 3, 7, 200] {
            let cut = csr.cut(parts);
            assert_eq!(cut.len(), parts);
            let rows: Vec<(u32, Vec<u32>)> = cut
                .iter()
                .flat_map(|p| p.rows().map(|(s, ts)| (s, ts.to_vec())))
                .collect();
            let expect: Vec<(u32, Vec<u32>)> = (0..csr.vertices())
                .map(|v| (v as u32, csr.row(v).to_vec()))
                .collect();
            assert_eq!(rows, expect, "{parts} parts");
        }
        // The hub row is indivisible; what follows it splits evenly.
        let sizes: Vec<usize> = csr.cut(3).iter().map(|p| p.targets.len()).collect();
        assert_eq!(sizes, vec![60, 6, 34]);
    }
}
