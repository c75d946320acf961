//! Lexicographically-first clique search on consistency graphs held as
//! bit rows.
//!
//! The share phase needs a clique of size `n − t` in the mutual-OK graph
//! (the dealer's core proposal); reconstruction needs a clique of size
//! `t + 1` among revealed rows. Both keep their graph as a [`BitMatrix`]
//! that gains one bit per message, and the search returns the
//! lexicographically smallest clique so that every party with the same
//! view picks the same set deterministically.
//!
//! **Cost.** A vertex with fewer than `target` bits in its row is in no
//! clique, and with fewer than `target` other vertices there is none: that
//! answer costs `n` popcounts and no allocation, and most calls get it.
//! Otherwise plain backtracking over the `m` surviving vertices walks at
//! most `Σ_{j ≤ m − target} C(m, j)` prefixes: nothing is sized for an `n`
//! (rows are `⌈n/64⌉` words), but the search is exponential in the slack
//! `m − target`. One dealing with all `n` parties voting in random order,
//! searched after every completed edge, costs 10 µs in total at n = 10,
//! 2 ms at n = 22, 49 ms at n = 31, 2 s at n = 40, 49 s at n = 52 — free
//! at the sizes run here, affordable to n ≈ 30 (ROADMAP, large-n item).

/// A square bit matrix over parties: `n` rows of `⌈n/64⌉` words in one
/// allocation. Row `u` is the set of `v` that `u` vouches for — the
/// adjacency [`find_clique`] searches.
#[derive(Default)]
pub struct BitMatrix {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// The all-zero `n × n` matrix: as a graph, no vertex yet.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        let bits = vec![0; n * words];
        BitMatrix { n, words, bits }
    }

    /// The `n × n` matrix with only its diagonal set: as a graph, every
    /// vertex present (see [`find_clique`]) and no edge yet.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::new(n);
        for v in 0..n {
            m.set(v, v);
        }
        m
    }

    /// Number of rows (and of columns); 0 for the `default()` matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bit `(u, v)`.
    pub fn get(&self, u: usize, v: usize) -> bool {
        self.bits[u * self.words + v / 64] >> (v % 64) & 1 == 1
    }

    /// Sets bit `(u, v)`; `false` if it was already set.
    ///
    /// # Panics
    ///
    /// Panics unless both are below `n`: a larger `v` would land in
    /// another party's row, so callers check what a peer names first.
    pub fn set(&mut self, u: usize, v: usize) -> bool {
        assert!(
            u < self.n && v < self.n,
            "bit ({u}, {v}) outside {0} × {0}",
            self.n
        );
        let word = &mut self.bits[u * self.words + v / 64];
        let fresh = *word >> (v % 64) & 1 == 0;
        *word |= 1 << (v % 64);
        fresh
    }

    /// Whether `v` is in the graph with enough bits in its row to sit in
    /// a clique of `target`.
    fn eligible(&self, v: usize, target: usize) -> bool {
        let row = &self.bits[v * self.words..(v + 1) * self.words];
        self.get(v, v) && row.iter().map(|w| w.count_ones() as usize).sum::<usize>() >= target
    }

    /// Extends the clique `chosen` to `target` vertices with vertices from
    /// `start` on, smallest first.
    fn extend(&self, chosen: &mut Vec<usize>, start: usize, target: usize) -> bool {
        if chosen.len() == target {
            return true;
        }
        for v in start..self.n {
            // Prune: not enough vertices left.
            if self.n - v < target - chosen.len() {
                return false;
            }
            let joins = |&u: &usize| self.get(u, v) && self.get(v, u);
            if self.eligible(v, target) && chosen.iter().all(joins) {
                chosen.push(v);
                if self.extend(chosen, v + 1, target) {
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }
}

/// Finds the lexicographically-first clique of exactly `target` vertices
/// in the graph whose adjacency is `adj`: a vertex `v` is in the graph iff
/// bit `(v, v)` is set, and `u`, `v` are adjacent iff **both** `(u, v)`
/// and `(v, u)` are — a one-sided claim is not an edge.
///
/// Returns vertex indices in increasing order, or `None` if no clique of
/// that size exists. `target == 0` returns an empty clique.
///
/// # Examples
///
/// ```
/// use aft_svss::{find_clique, BitMatrix};
/// // Triangle 0-1-2 plus isolated 3.
/// let mut adj = BitMatrix::identity(4);
/// for (u, v) in [(0, 1), (0, 2), (1, 2)] {
///     adj.set(u, v);
///     adj.set(v, u);
/// }
/// assert_eq!(find_clique(&adj, 3), Some(vec![0, 1, 2]));
/// assert_eq!(find_clique(&adj, 4), None);
/// ```
pub fn find_clique(adj: &BitMatrix, target: usize) -> Option<Vec<usize>> {
    if (0..adj.n).filter(|&v| adj.eligible(v, target)).count() < target {
        return None;
    }
    let mut chosen = Vec::with_capacity(target);
    adj.extend(&mut chosen, 0, target).then_some(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` vertices, all present, with the given undirected edges.
    fn graph(n: usize, edges: &[(usize, usize)]) -> BitMatrix {
        let mut adj = BitMatrix::identity(n);
        for &(u, v) in edges {
            adj.set(u, v);
            adj.set(v, u);
        }
        adj
    }

    use super::find_clique as clique;

    #[test]
    fn empty_target_is_empty_clique() {
        assert_eq!(clique(&graph(3, &[]), 0), Some(vec![]));
    }

    #[test]
    fn single_vertices_are_cliques_of_one() {
        assert_eq!(clique(&graph(3, &[]), 1), Some(vec![0]));
    }

    #[test]
    fn absent_vertices_are_never_chosen() {
        // Only 2 and 3 are in the graph: the clique of one is {2}, not {0}.
        let mut adj = BitMatrix::new(4);
        for (u, v) in [(2, 2), (3, 3), (2, 3), (3, 2)] {
            adj.set(u, v);
        }
        assert_eq!(clique(&adj, 1), Some(vec![2]));
        assert_eq!(clique(&adj, 2), Some(vec![2, 3]));
        assert_eq!(clique(&adj, 3), None);
    }

    #[test]
    fn finds_lex_first_among_multiple() {
        // Two triangles: {0,1,2} and {2,3,4}; lex-first is {0,1,2}.
        let adj = graph(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]);
        assert_eq!(clique(&adj, 3), Some(vec![0, 1, 2]));
    }

    #[test]
    fn prefers_smaller_ids_even_when_larger_clique_elsewhere() {
        // K4 on {2,3,4,5}, edge {0,1}: target 2 must return {0,1}.
        let adj = graph(6, &[(0, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]);
        assert_eq!(clique(&adj, 2), Some(vec![0, 1]));
        assert_eq!(clique(&adj, 4), Some(vec![2, 3, 4, 5]));
    }

    #[test]
    fn asymmetric_claims_are_not_edges() {
        // Edge requires both directions.
        let mut adj = BitMatrix::identity(2);
        adj.set(0, 1); // only one direction
        assert_eq!(clique(&adj, 2), None);
        adj.set(1, 0);
        assert_eq!(clique(&adj, 2), Some(vec![0, 1]));
    }

    #[test]
    fn no_clique_returns_none() {
        let adj = graph(4, &[(0, 1), (1, 2), (2, 3)]); // path
        assert_eq!(clique(&adj, 3), None);
    }

    #[test]
    fn target_larger_than_n() {
        assert_eq!(clique(&graph(2, &[(0, 1)]), 3), None);
    }

    #[test]
    fn dense_graph_stress() {
        // Complete graph K12 minus one edge; target 11 must avoid the
        // missing edge's endpoints together.
        let n = 12;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if !(u == 0 && v == 1) {
                    edges.push((u, v));
                }
            }
        }
        let adj = graph(n, &edges);
        let c = clique(&adj, 11).unwrap();
        assert!(!(c.contains(&0) && c.contains(&1)));
        assert_eq!(c.len(), 11);
    }

    #[test]
    fn rows_past_a_word_boundary() {
        // n = 70, t = 23: K70 minus the edges {0,1} and {2,69}. The
        // lex-first 47-clique skips 1 and keeps 2 (69 is never reached).
        let n = 70;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if (u, v) != (0, 1) && (u, v) != (2, 69) {
                    edges.push((u, v));
                }
            }
        }
        let adj = graph(n, &edges);
        let expected: Vec<usize> = (0..48).filter(|&v| v != 1).collect();
        assert_eq!(clique(&adj, 47), Some(expected));
        // A maximum clique drops 0 or 1, and 2 or 69: 68 vertices.
        let expected: Vec<usize> = (0..69).filter(|&v| v != 1).collect();
        assert_eq!(clique(&adj, 68), Some(expected));
        assert_eq!(clique(&adj, 69), None);
    }

    #[test]
    #[should_panic(expected = "outside 2 × 2")]
    fn bit_outside_the_square_panics() {
        // What used to be a non-square `Vec<Vec<bool>>`: the matrix is
        // square by construction, so the shape error left is an index.
        BitMatrix::identity(2).set(1, 2);
    }
}
