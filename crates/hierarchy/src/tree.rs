//! Rooted trees (arena representation).
//!
//! The generic tree type underlying the paper's Section 5 (counting
//! functions on trees) and the heavy-path machinery shared with the trie
//! pipeline of Sections 3–4.

use rand::Rng;

/// Node identifier (arena index).
pub type NodeId = u32;

/// A rooted tree over nodes `0..n`, stored as a parent array and one
/// children array indexed by offsets (no heap block per node).
#[derive(Debug, Clone)]
pub struct Tree {
    parent: Vec<NodeId>,
    /// Children of `v` are `child_list[child_start[v]..child_start[v + 1]]`,
    /// in increasing id order.
    child_start: Vec<u32>,
    child_list: Vec<NodeId>,
    root: NodeId,
}

impl Tree {
    /// Builds from a parent array: `parents[v] == None` exactly for the
    /// root; otherwise `parents[v]` is `v`'s parent.
    ///
    /// # Panics
    /// Panics if there is not exactly one root, a parent index is out of
    /// range, or the structure contains a cycle.
    pub fn from_parents(parents: &[Option<NodeId>]) -> Self {
        let n = parents.len();
        assert!(n > 0, "tree must be non-empty");
        let mut root = None;
        let mut child_start = vec![0u32; n + 1];
        for (v, p) in parents.iter().enumerate() {
            match p {
                None => {
                    assert!(root.is_none(), "multiple roots");
                    root = Some(v as NodeId);
                }
                Some(p) => {
                    assert!((*p as usize) < n, "parent out of range");
                    child_start[*p as usize + 1] += 1;
                }
            }
        }
        let root = root.expect("no root");
        for v in 0..n {
            child_start[v + 1] += child_start[v];
        }
        // Filled in id order, so each node's children stay sorted.
        let mut next = child_start.clone();
        let mut child_list = vec![0; n - 1];
        for (v, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                child_list[next[*p as usize] as usize] = v as NodeId;
                next[*p as usize] += 1;
            }
        }
        let parent: Vec<NodeId> =
            parents.iter().enumerate().map(|(v, p)| p.unwrap_or(v as NodeId)).collect();
        let tree = Self { parent, child_start, child_list, root };
        // Cycle check: every node must be reachable from the root.
        let mut seen = 0usize;
        let mut stack = vec![root];
        let mut visited = vec![false; n];
        visited[root as usize] = true;
        while let Some(v) = stack.pop() {
            seen += 1;
            for &c in tree.children(v) {
                assert!(!visited[c as usize], "cycle detected");
                visited[c as usize] = true;
                stack.push(c);
            }
        }
        assert_eq!(seen, n, "disconnected nodes (cycle among non-root nodes)");
        tree
    }

    /// A complete `b`-ary tree of the given `height` (root at depth 0,
    /// leaves at depth `height`). Nodes are numbered in BFS order.
    pub fn complete_kary(b: usize, height: usize) -> Self {
        assert!(b >= 1);
        let mut parents: Vec<Option<NodeId>> = vec![None];
        let mut level_start = 0usize;
        let mut level_len = 1usize;
        for _ in 0..height {
            let next_start = parents.len();
            for v in level_start..level_start + level_len {
                for _ in 0..b {
                    parents.push(Some(v as NodeId));
                }
            }
            level_start = next_start;
            level_len *= b;
        }
        Self::from_parents(&parents)
    }

    /// A uniformly random recursive tree on `n` nodes (each node `v ≥ 1`
    /// attaches to a uniform node `< v`). Height is `O(log n)` w.h.p.
    pub fn random_recursive<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        assert!(n >= 1);
        let mut parents: Vec<Option<NodeId>> = Vec::with_capacity(n);
        parents.push(None);
        for v in 1..n {
            parents.push(Some(rng.gen_range(0..v) as NodeId));
        }
        Self::from_parents(&parents)
    }

    /// A path graph (worst-case height).
    pub fn path(n: usize) -> Self {
        assert!(n >= 1);
        let parents: Vec<Option<NodeId>> =
            (0..n).map(|v| if v == 0 { None } else { Some(v as NodeId - 1) }).collect();
        Self::from_parents(&parents)
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `v` (the root is its own parent).
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// Children of `v`.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.child_list
            [self.child_start[v as usize] as usize..self.child_start[v as usize + 1] as usize]
    }

    /// Whether `v` is a leaf.
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.children(v).is_empty()
    }

    /// All leaves, in increasing id order.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.n() as NodeId).filter(|&v| self.is_leaf(v)).collect()
    }

    /// Subtree node counts (`size[v]` includes `v`). `O(n)`.
    pub fn subtree_sizes(&self) -> Vec<u32> {
        let order = self.dfs_preorder();
        let mut size = vec![1u32; self.n()];
        for &v in order.iter().rev() {
            if v != self.root {
                size[self.parent(v) as usize] += size[v as usize];
            }
        }
        size
    }

    /// Depth of every node (root = 0). `O(n)`.
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.n()];
        for &v in &self.dfs_preorder() {
            if v != self.root {
                depth[v as usize] = depth[self.parent(v) as usize] + 1;
            }
        }
        depth
    }

    /// Height of the tree (max depth).
    pub fn height(&self) -> usize {
        self.depths().iter().copied().max().unwrap_or(0) as usize
    }

    /// Pre-order DFS of all nodes starting at the root.
    pub fn dfs_preorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.n());
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            order.push(v);
            for &c in self.children(v).iter().rev() {
                stack.push(c);
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_binary_tree_shape() {
        let t = Tree::complete_kary(2, 3);
        assert_eq!(t.n(), 15);
        assert_eq!(t.height(), 3);
        assert_eq!(t.leaves().len(), 8);
        assert_eq!(t.children(0), &[1, 2]);
        assert_eq!(t.parent(14), 6);
        let sizes = t.subtree_sizes();
        assert_eq!(sizes[0], 15);
        assert_eq!(sizes[1], 7);
        assert_eq!(sizes[7], 1);
    }

    #[test]
    fn path_tree() {
        let t = Tree::path(5);
        assert_eq!(t.height(), 4);
        assert_eq!(t.leaves(), vec![4]);
        assert_eq!(t.subtree_sizes(), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn random_recursive_is_valid() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = Tree::random_recursive(200, &mut rng);
        assert_eq!(t.n(), 200);
        assert_eq!(t.subtree_sizes()[0], 200);
        // DFS covers all nodes.
        assert_eq!(t.dfs_preorder().len(), 200);
    }

    #[test]
    #[should_panic(expected = "multiple roots")]
    fn two_roots_panics() {
        let _ = Tree::from_parents(&[None, None]);
    }

    #[test]
    #[should_panic]
    fn cycle_panics() {
        // 0 is root; 1 and 2 form a cycle.
        let _ = Tree::from_parents(&[None, Some(2), Some(1)]);
    }

    #[test]
    fn singleton() {
        let t = Tree::from_parents(&[None]);
        assert_eq!(t.n(), 1);
        assert!(t.is_leaf(0));
        assert_eq!(t.height(), 0);
        assert_eq!(t.leaves(), vec![0]);
    }
}
