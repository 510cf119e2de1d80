//! Counted tries over byte strings.
//!
//! The paper's data structures are tries `T_C` whose nodes `v` represent
//! strings `str(v)` and carry counts (true counts during construction, noisy
//! counts in the published structure). [`Trie`] is an arena-allocated trie
//! generic over the per-node payload, with the operations the pipeline
//! needs: path insertion, in-order bulk appends, pattern walking (`O(|P|)`
//! queries, Theorems 1–4), and DFS traversal for mining.
//!
//! ## Edge layout
//! Each node stores its out-edges as a label-sorted `Vec<(u8, NodeId)>`, so
//! a child lookup is one binary search over a contiguous pair array — no
//! arena indirection per probe. Keeping the label inline (instead of reading
//! it through the child node) matters in the construction hot loops, where
//! `ensure_child` is called once per candidate symbol and the child nodes
//! are scattered across the arena.

/// Identifier of a trie node (index into the arena). The root is always
/// [`Trie::ROOT`].
pub type NodeId = u32;

#[derive(Debug, Clone)]
struct Node<V> {
    parent: NodeId,
    /// Edge label from the parent (undefined for the root).
    symbol: u8,
    /// Out-edges `(label, child)`, sorted by label (binary-searchable).
    edges: Vec<(u8, NodeId)>,
    depth: u32,
    value: V,
}

/// Arena trie with one payload value of type `V` per node.
#[derive(Debug, Clone)]
pub struct Trie<V> {
    nodes: Vec<Node<V>>,
}

impl<V> Trie<V> {
    /// The root node id.
    pub const ROOT: NodeId = 0;

    /// Creates a trie containing only the root, carrying `root_value`.
    pub fn new(root_value: V) -> Self {
        Self {
            nodes: vec![Node {
                parent: Self::ROOT,
                symbol: 0,
                edges: Vec::new(),
                depth: 0,
                value: root_value,
            }],
        }
    }

    /// Creates a trie containing only the root, with arena room for
    /// `capacity` nodes.
    pub fn with_capacity(root_value: V, capacity: usize) -> Self {
        let mut trie = Self::new(root_value);
        trie.nodes.reserve(capacity.saturating_sub(1));
        trie
    }

    /// Releases arena capacity beyond the current node count.
    pub fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
    }

    /// Number of nodes (including the root).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the trie has only the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The child of `node` along `symbol`, if present. `O(log deg)`.
    #[inline]
    pub fn child(&self, node: NodeId, symbol: u8) -> Option<NodeId> {
        let edges = &self.nodes[node as usize].edges;
        edges.binary_search_by_key(&symbol, |e| e.0).ok().map(|i| edges[i].1)
    }

    /// Ensures a child of `node` along `symbol` exists (creating it with
    /// `default` if needed) and returns its id. `O(log deg)` lookup plus an
    /// ordered insert on miss.
    pub fn ensure_child(&mut self, node: NodeId, symbol: u8, default: V) -> NodeId {
        let pos = {
            let edges = &self.nodes[node as usize].edges;
            match edges.binary_search_by_key(&symbol, |e| e.0) {
                Ok(i) => return edges[i].1,
                Err(i) => i,
            }
        };
        let id = self.nodes.len() as NodeId;
        let depth = self.nodes[node as usize].depth + 1;
        self.nodes.push(Node { parent: node, symbol, edges: Vec::new(), depth, value: default });
        self.nodes[node as usize].edges.insert(pos, (symbol, id));
        id
    }

    /// Appends a child whose label sorts strictly after every existing edge
    /// of `node` — the fast path for bulk construction in label order
    /// (the pipeline's Step 6), which skips the binary search and the ordered
    /// insert. Debug-asserts the ordering invariant.
    pub fn append_child(&mut self, node: NodeId, symbol: u8, value: V) -> NodeId {
        debug_assert!(
            self.nodes[node as usize].edges.last().is_none_or(|&(s, _)| s < symbol),
            "append_child labels must arrive in strictly increasing order"
        );
        let id = self.nodes.len() as NodeId;
        let depth = self.nodes[node as usize].depth + 1;
        self.nodes.push(Node { parent: node, symbol, edges: Vec::new(), depth, value });
        self.nodes[node as usize].edges.push((symbol, id));
        id
    }

    /// Inserts the full path for `s`, creating missing nodes with values from
    /// `default(depth)`, and returns the id of the terminal node.
    pub fn insert_path(&mut self, s: &[u8], mut default: impl FnMut(usize) -> V) -> NodeId {
        let mut cur = Self::ROOT;
        for (i, &b) in s.iter().enumerate() {
            cur = self.ensure_child(cur, b, default(i + 1));
        }
        cur
    }

    /// Walks the pattern from the root; returns the node spelling `pattern`
    /// if it exists. `O(|pattern| log |Σ|)`.
    pub fn walk(&self, pattern: &[u8]) -> Option<NodeId> {
        let mut cur = Self::ROOT;
        for &b in pattern {
            cur = self.child(cur, b)?;
        }
        Some(cur)
    }

    /// The payload of `node`.
    #[inline]
    pub fn value(&self, node: NodeId) -> &V {
        &self.nodes[node as usize].value
    }

    /// Mutable payload of `node`.
    #[inline]
    pub fn value_mut(&mut self, node: NodeId) -> &mut V {
        &mut self.nodes[node as usize].value
    }

    /// Parent of `node` (the root is its own parent).
    #[inline]
    pub fn parent(&self, node: NodeId) -> NodeId {
        self.nodes[node as usize].parent
    }

    /// Edge symbol from the parent to `node`. Meaningless for the root.
    #[inline]
    pub fn symbol(&self, node: NodeId) -> u8 {
        self.nodes[node as usize].symbol
    }

    /// Depth (= `|str(node)|`).
    #[inline]
    pub fn depth(&self, node: NodeId) -> usize {
        self.nodes[node as usize].depth as usize
    }

    /// Out-edges of `node` as `(label, child)` pairs, sorted by label.
    #[inline]
    pub fn edges(&self, node: NodeId) -> &[(u8, NodeId)] {
        &self.nodes[node as usize].edges
    }

    /// Children of `node`, in edge-label order.
    #[inline]
    pub fn children(
        &self,
        node: NodeId,
    ) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        self.nodes[node as usize].edges.iter().map(|&(_, c)| c)
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.nodes[node as usize].edges.len()
    }

    /// Reconstructs `str(node)` by walking parent pointers (`O(depth)`).
    pub fn string_of(&self, node: NodeId) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.depth(node));
        let mut cur = node;
        while cur != Self::ROOT {
            out.push(self.symbol(cur));
            cur = self.parent(cur);
        }
        out.reverse();
        out
    }

    /// Pre-order DFS over all node ids.
    pub fn dfs(&self) -> DfsIter<'_, V> {
        DfsIter { trie: self, stack: vec![Self::ROOT] }
    }

    /// Total number of nodes at each depth; index `d` holds the count of
    /// depth-`d` nodes. Useful for size audits (the paper bounds `|T*|` by
    /// `O(nℓ²)`).
    pub fn depth_histogram(&self) -> Vec<usize> {
        let max_d = self.nodes.iter().map(|n| n.depth as usize).max().unwrap_or(0);
        let mut hist = vec![0usize; max_d + 1];
        for n in &self.nodes {
            hist[n.depth as usize] += 1;
        }
        hist
    }
}

/// Pre-order DFS iterator over node ids.
pub struct DfsIter<'a, V> {
    trie: &'a Trie<V>,
    stack: Vec<NodeId>,
}

impl<V> Iterator for DfsIter<'_, V> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let node = self.stack.pop()?;
        for &(_, c) in self.trie.edges(node).iter().rev() {
            self.stack.push(c);
        }
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_walk() {
        let mut t: Trie<u64> = Trie::new(0);
        let ab = t.insert_path(b"ab", |_| 0);
        let abc = t.insert_path(b"abc", |_| 0);
        *t.value_mut(ab) = 5;
        *t.value_mut(abc) = 2;
        assert_eq!(t.walk(b"ab"), Some(ab));
        assert_eq!(t.walk(b"abc"), Some(abc));
        assert_eq!(t.walk(b"abd"), None);
        assert_eq!(t.walk(b""), Some(Trie::<u64>::ROOT));
        assert_eq!(*t.value(ab), 5);
        assert_eq!(t.depth(abc), 3);
        assert_eq!(t.string_of(abc), b"abc".to_vec());
        assert_eq!(t.len(), 4); // root, a, ab, abc
    }

    #[test]
    fn children_sorted() {
        let mut t: Trie<()> = Trie::new(());
        for &b in [b'c', b'a', b'z', b'b'].iter() {
            t.insert_path(&[b], |_| ());
        }
        let syms: Vec<u8> = t.edges(Trie::<()>::ROOT).iter().map(|&(s, _)| s).collect();
        assert_eq!(syms, vec![b'a', b'b', b'c', b'z']);
        // Edge labels agree with the child nodes' own symbols.
        for &(s, c) in t.edges(Trie::<()>::ROOT) {
            assert_eq!(s, t.symbol(c));
        }
    }

    #[test]
    fn full_fanout_stress() {
        // 256-way branching node: every byte value inserted in a scrambled
        // order must stay binary-searchable, and lookups must hit the right
        // node (symbol and value agreement) with no misses or cross-talk.
        let mut t: Trie<u16> = Trie::new(0);
        let mut ids = [0 as NodeId; 256];
        for i in 0..256u16 {
            // LCG-scrambled insertion order covering all 256 residues.
            let b = ((i * 167 + 13) % 256) as u8;
            ids[b as usize] = t.ensure_child(Trie::<u16>::ROOT, b, b as u16 + 1);
        }
        assert_eq!(t.len(), 257);
        assert_eq!(t.degree(Trie::<u16>::ROOT), 256);
        // Edge array strictly sorted by label.
        let edges = t.edges(Trie::<u16>::ROOT);
        assert!(edges.windows(2).all(|w| w[0].0 < w[1].0));
        for b in 0..=255u8 {
            let c = t.child(Trie::<u16>::ROOT, b).expect("every byte present");
            assert_eq!(c, ids[b as usize]);
            assert_eq!(t.symbol(c), b);
            assert_eq!(*t.value(c), b as u16 + 1);
            // Re-ensuring returns the existing node, never a duplicate.
            assert_eq!(t.ensure_child(Trie::<u16>::ROOT, b, 999), c);
        }
        assert_eq!(t.len(), 257);
        // Second level under an arbitrary child keeps its own full fanout.
        let mid = ids[128];
        for b in (0..=255u8).rev() {
            t.ensure_child(mid, b, 0);
        }
        assert_eq!(t.degree(mid), 256);
        assert!(t.walk(&[128, 200]).is_some());
        assert!(t.walk(&[129, 200]).is_none());
    }

    #[test]
    fn append_child_matches_ensure_child() {
        let mut a: Trie<u8> = Trie::new(0);
        let mut b: Trie<u8> = Trie::new(0);
        for s in [1u8, 5, 9, 200] {
            a.append_child(Trie::<u8>::ROOT, s, s);
            b.ensure_child(Trie::<u8>::ROOT, s, s);
        }
        for s in 0..=255u8 {
            assert_eq!(a.child(Trie::<u8>::ROOT, s), b.child(Trie::<u8>::ROOT, s));
        }
    }

    #[test]
    fn dfs_preorder_visits_all() {
        let mut t: Trie<u32> = Trie::new(0);
        for s in [&b"aa"[..], b"ab", b"b"] {
            t.insert_path(s, |_| 0);
        }
        let visited: Vec<Vec<u8>> = t.dfs().map(|n| t.string_of(n)).collect();
        assert_eq!(
            visited,
            vec![b"".to_vec(), b"a".to_vec(), b"aa".to_vec(), b"ab".to_vec(), b"b".to_vec()]
        );
    }

    #[test]
    fn depth_histogram_counts() {
        let mut t: Trie<()> = Trie::new(());
        t.insert_path(b"aa", |_| ());
        t.insert_path(b"ab", |_| ());
        assert_eq!(t.depth_histogram(), vec![1, 1, 2]);
    }
}
