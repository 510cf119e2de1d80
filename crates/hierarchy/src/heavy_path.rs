//! Heavy-path decomposition (Sleator–Tarjan \[62\]).
//!
//! Every non-leaf node has exactly one *heavy* edge, to the child with the
//! largest subtree (ties to the smallest id for determinism); all other
//! edges are *light*. Maximal chains of heavy edges are the *heavy paths*.
//! Lemma 9: any root-to-leaf path crosses at most `⌊log N⌋` light edges —
//! the property the paper leverages so that a single document can influence
//! only `O(ℓ log N)` heavy-path roots (Lemma 10).
//!
//! The decomposition is computed on a pre-order parent array, where every
//! node's id is larger than its parent's: subtree sizes come from one
//! reverse scan, heavy children from one forward scan, and path heads are
//! numbered in pre-order. The paths live in one flat array with offsets.

use crate::tree::{NodeId, Tree};

/// Marks "no heavy child" (a leaf).
const NONE: u32 = u32::MAX;

/// Heavy-path decomposition of a rooted tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyPathDecomposition {
    /// Index of each node in `nodes`.
    slot: Vec<u32>,
    /// Every path, each ordered from its root downward, concatenated in
    /// path-id order: path `i` is `nodes[path_start[i]..path_start[i + 1]]`.
    nodes: Vec<NodeId>,
    path_start: Vec<u32>,
}

impl HeavyPathDecomposition {
    /// Computes the decomposition of `tree` in `O(n)` by running
    /// [`from_preorder`](Self::from_preorder) on the tree relabelled to
    /// pre-order; paths, path ids and positions are reported in the tree's
    /// own ids.
    pub fn new(tree: &Tree) -> Self {
        let order = tree.dfs_preorder();
        let mut rank = vec![0u32; order.len()];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        let parent: Vec<NodeId> = order.iter().map(|&v| rank[tree.parent(v) as usize]).collect();
        let pre = Self::from_preorder(&parent);
        // `rank` is reused; every entry is overwritten.
        let mut slot = rank;
        for (i, &v) in order.iter().enumerate() {
            slot[v as usize] = pre.slot[i];
        }
        let nodes = pre.nodes.iter().map(|&i| order[i as usize]).collect();
        Self { slot, nodes, path_start: pre.path_start }
    }

    /// Computes the decomposition in `O(n)` of the tree whose node `v ≥ 1`
    /// has parent `parent[v] < v` (ids in pre-order, root `0`; `parent[0]`
    /// is ignored). Siblings rank by id, so ties between equal subtrees go
    /// to the smallest id.
    pub fn from_preorder(parent: &[NodeId]) -> Self {
        let n = parent.len();
        assert!(n > 0, "tree must be non-empty");
        debug_assert!(parent.iter().enumerate().skip(1).all(|(v, &p)| (p as usize) < v));
        // Every node follows its parent, so one reverse scan sums subtrees.
        let mut size = vec![1u32; n];
        for v in (1..n).rev() {
            size[parent[v] as usize] += size[v];
        }
        // Siblings arrive in increasing id order; a strict `>` keeps the
        // smallest on ties.
        let mut heavy = vec![NONE; n];
        for v in 1..n {
            let p = parent[v] as usize;
            if heavy[p] == NONE || size[v] > size[heavy[p] as usize] {
                heavy[p] = v as u32;
            }
        }
        let leaves = heavy.iter().filter(|&&h| h == NONE).count();
        // Every entry of `size` is overwritten below.
        let mut slot = size;
        let mut nodes = Vec::with_capacity(n);
        let mut path_start = Vec::with_capacity(leaves + 1);
        // A node starts a path iff it is the root or reached by a light
        // edge; heads are met in pre-order, each followed to its leaf.
        for v in 0..n {
            if v != 0 && heavy[parent[v] as usize] == v as u32 {
                continue;
            }
            path_start.push(nodes.len() as u32);
            let mut cur = v as u32;
            while cur != NONE {
                slot[cur as usize] = nodes.len() as u32;
                nodes.push(cur);
                cur = heavy[cur as usize];
            }
        }
        path_start.push(n as u32);
        debug_assert_eq!(nodes.len(), n);
        Self { slot, nodes, path_start }
    }

    /// Number of heavy paths (equals the number of leaves).
    #[inline]
    pub fn num_paths(&self) -> usize {
        self.path_start.len() - 1
    }

    /// Path `id`, from its root downward.
    #[inline]
    pub fn path(&self, id: usize) -> &[NodeId] {
        &self.nodes[self.path_start[id] as usize..self.path_start[id + 1] as usize]
    }

    /// The paths in id order, each from its root downward.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        self.path_start.windows(2).map(|w| &self.nodes[w[0] as usize..w[1] as usize])
    }

    /// Every path concatenated in id order: path `i` occupies
    /// `path_offsets()[i]..path_offsets()[i + 1]`.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Start of each path in [`nodes`](Self::nodes), plus the total node
    /// count as a last entry.
    #[inline]
    pub fn path_offsets(&self) -> &[u32] {
        &self.path_start
    }

    /// Index of `v` in [`nodes`](Self::nodes).
    #[inline]
    pub fn slot(&self, v: NodeId) -> usize {
        self.slot[v as usize] as usize
    }

    /// Path id containing `v`, by binary search over the path offsets.
    pub fn path_of(&self, v: NodeId) -> usize {
        self.path_start.partition_point(|&s| s as usize <= self.slot(v)) - 1
    }

    /// Position of `v` within its path (0 = the path's topmost node).
    #[inline]
    pub fn pos_in_path(&self, v: NodeId) -> usize {
        self.slot(v) - self.path_start[self.path_of(v)] as usize
    }

    /// The root (topmost node) of `v`'s heavy path.
    #[inline]
    pub fn path_root(&self, v: NodeId) -> NodeId {
        self.path(self.path_of(v))[0]
    }

    /// Number of light edges on the path from the root of the tree to `v` —
    /// equivalently, the number of heavy paths the root-to-`v` path crosses,
    /// minus one. Lemma 9 bounds this by `⌊log N⌋`.
    pub fn light_edges_to(&self, tree: &Tree, v: NodeId) -> usize {
        let mut count = 0usize;
        let mut cur = v;
        loop {
            let head = self.path_root(cur);
            if head == tree.root() {
                break;
            }
            // Edge from head's parent to head is light by construction.
            count += 1;
            cur = tree.parent(head);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_invariants(tree: &Tree) {
        let hpd = HeavyPathDecomposition::new(tree);
        let n = tree.n();
        // Every node in exactly one path, positions consistent.
        let mut seen = vec![false; n];
        for (id, path) in hpd.paths().enumerate() {
            for (pos, &v) in path.iter().enumerate() {
                assert!(!seen[v as usize], "node {v} in two paths");
                seen[v as usize] = true;
                assert_eq!(hpd.path_of(v), id);
                assert_eq!(hpd.pos_in_path(v), pos);
                assert_eq!(hpd.nodes()[hpd.slot(v)], v);
                if pos > 0 {
                    assert_eq!(tree.parent(v), path[pos - 1], "path not parent-linked");
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
        // #paths == #leaves (each path ends at a leaf).
        assert_eq!(hpd.num_paths(), tree.leaves().len());
        // Lemma 9: light edges to any node ≤ ⌊log₂ n⌋.
        let bound = if n <= 1 { 0 } else { (usize::BITS - 1 - n.leading_zeros()) as usize };
        for v in 0..n as NodeId {
            assert!(
                hpd.light_edges_to(tree, v) <= bound,
                "node {v}: {} light edges > log bound {bound}",
                hpd.light_edges_to(tree, v)
            );
        }

        // The same tree relabelled to pre-order: the decomposition of its
        // parent array is `new` on the relabelled tree, and it has the same
        // paths under the same ids as the original.
        let order = tree.dfs_preorder();
        let mut rank = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        let parent: Vec<NodeId> = order.iter().map(|&v| rank[tree.parent(v) as usize]).collect();
        let relabelled =
            Tree::from_parents(&(0..n).map(|i| (i > 0).then_some(parent[i])).collect::<Vec<_>>());
        let pre = HeavyPathDecomposition::from_preorder(&parent);
        assert_eq!(pre, HeavyPathDecomposition::new(&relabelled));
        assert_eq!(pre.num_paths(), hpd.num_paths());
        for (a, b) in pre.paths().zip(hpd.paths()) {
            assert!(a.iter().eq(b.iter().map(|&v| &rank[v as usize])), "paths differ");
        }
        for v in 0..n as NodeId {
            assert!(pre.light_edges_to(&relabelled, v) <= bound);
        }
    }

    #[test]
    fn invariants_on_shapes() {
        check_invariants(&Tree::complete_kary(2, 5));
        check_invariants(&Tree::complete_kary(3, 4));
        check_invariants(&Tree::path(17));
        check_invariants(&Tree::from_parents(&[None]));
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..20 {
            check_invariants(&Tree::random_recursive(rng.gen_range(1..300), &mut rng));
        }
    }

    #[test]
    fn path_graph_is_one_heavy_path() {
        let t = Tree::path(10);
        let hpd = HeavyPathDecomposition::new(&t);
        assert_eq!(hpd.num_paths(), 1);
        assert_eq!(hpd.path(0).len(), 10);
    }

    #[test]
    fn heavy_child_is_larger_subtree() {
        // Root with a 1-node child and a 3-node chain: the chain is heavy.
        //        0
        //       / \
        //      1   2-3-4 (chain)
        let t = Tree::from_parents(&[None, Some(0), Some(0), Some(2), Some(3)]);
        let hpd = HeavyPathDecomposition::new(&t);
        assert_eq!(hpd.path_of(0), hpd.path_of(2));
        assert_eq!(hpd.path_of(0), hpd.path_of(4));
        assert_ne!(hpd.path_of(0), hpd.path_of(1));
        assert_eq!(hpd.light_edges_to(&t, 1), 1);
        assert_eq!(hpd.light_edges_to(&t, 4), 0);
    }
}
