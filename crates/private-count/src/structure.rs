//! The published data structure: a pruned trie of noisy counts.
//!
//! This is the artifact Theorems 1–4 output. Because its *construction* is
//! differentially private, the structure can be queried, mined, and
//! re-mined at arbitrary thresholds with no further privacy loss
//! (post-processing). It has one form: the `DPSF` v3 snapshot of a
//! [`FrozenSynopsis`], laid out once when the release is made.

use dpsc_dpcore::budget::PrivacyParams;
use dpsc_hierarchy::tree::NodeId;

use crate::codec::require_finite;
use crate::codec_v3::{check_privacy_fields, Meta};
use crate::pipeline::{lcp, PreorderTrie};
use crate::synopsis::FrozenSynopsis;

/// Which count the structure stores: `count_Δ` for some clip level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountMode {
    /// `Δ = 1`: Document Count.
    Document,
    /// `Δ = ℓ`: Substring Count.
    Substring,
    /// General `count_Δ`.
    Clipped(usize),
}

impl CountMode {
    /// The clip level `Δ` for a database with maximum document length `ℓ`.
    pub fn delta_clip(&self, ell: usize) -> usize {
        match *self {
            CountMode::Document => 1,
            CountMode::Substring => ell,
            CountMode::Clipped(d) => d.clamp(1, ell),
        }
    }
}

impl std::fmt::Display for CountMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CountMode::Document => write!(f, "document (Δ=1)"),
            CountMode::Substring => write!(f, "substring (Δ=ℓ)"),
            CountMode::Clipped(d) => write!(f, "clipped (Δ={d})"),
        }
    }
}

/// A differentially private `count_Δ` data structure (Theorems 1–4): the
/// released snapshot, with the mining views on top of its queries.
#[derive(Debug, Clone)]
pub struct PrivateCountStructure {
    synopsis: FrozenSynopsis,
}

impl PrivateCountStructure {
    /// Lays out a released pre-order trie with its header fields.
    pub(crate) fn from_preorder(trie: PreorderTrie<f64>, meta: Meta) -> Self {
        Self { synopsis: FrozenSynopsis::lay_out(trie, meta) }
    }

    /// Assembles a structure from `(pattern, noisy count)` pairs — a hand
    /// built release, or one post-processed from the q-gram and baseline
    /// constructions. The pairs are sorted and each pattern is inserted
    /// after its longest common prefix with the previous one, so the trie
    /// comes out in pre-order. A prefix with no entry of its own (the root
    /// included) takes the maximum of its children's counts, or 0 if it
    /// has no children.
    ///
    /// `alpha_counts` bounds the error of stored counts, `alpha_absent`
    /// the true count of absent patterns, and `(n_docs, max_len)` are the
    /// database parameters the guarantees refer to.
    ///
    /// # Errors
    /// A header field the snapshot decoder would refuse (ε not finite and
    /// positive, δ outside `[0, 1)` or negative zero, a non-finite `α`),
    /// a non-finite count or a pattern given twice.
    pub fn from_entries(
        mut entries: Vec<(Vec<u8>, f64)>,
        mode: CountMode,
        privacy: PrivacyParams,
        alpha_counts: f64,
        alpha_absent: f64,
        n_docs: usize,
        max_len: usize,
    ) -> Result<Self, String> {
        // The snapshot decoder's rules, so every release reloads.
        check_privacy_fields(privacy.epsilon, privacy.delta)
            .and(require_finite("alpha_counts", alpha_counts))
            .and(require_finite("alpha_absent", alpha_absent))
            .map_err(|e| e.to_string())?;
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut trie = PreorderTrie::with_root(f64::NAN, entries.len() + 1);
        // path[d] is the node of the previous pattern's length-d prefix.
        let mut path = vec![PreorderTrie::<f64>::ROOT];
        let mut prev: &[u8] = b"";
        for (i, (pattern, value)) in entries.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("non-finite count {value} for pattern {:?}", hex(pattern)));
            }
            if i > 0 && pattern.as_slice() == prev {
                return Err(format!("duplicate pattern {:?}", hex(pattern)));
            }
            path.truncate(lcp(prev, pattern) + 1);
            for &b in &pattern[path.len() - 1..] {
                path.push(trie.push(path[path.len() - 1], b, f64::NAN));
            }
            *trie.value_mut(path[path.len() - 1]) = *value;
            prev = pattern;
        }
        // Children first: a prefix without an entry takes the maximum of
        // its children. (The root counts itself as its own parent, after
        // it is settled.)
        let mut child_max = vec![f64::NEG_INFINITY; trie.len()];
        for v in (0..trie.len() as NodeId).rev() {
            let m = child_max[v as usize];
            let x = trie.value_mut(v);
            if x.is_nan() {
                *x = if m.is_finite() { m } else { 0.0 };
            }
            let (x, p) = (*x, trie.parent(v) as usize);
            child_max[p] = child_max[p].max(x);
        }
        let meta = Meta { mode, privacy, alpha_counts, alpha_absent, n_docs, max_len };
        Ok(Self::from_preorder(trie, meta))
    }

    /// Noisy `count_Δ(P, D)`. Absent patterns return 0 (their true count is
    /// below [`Self::alpha_absent`] w.h.p.). `O(|P|)` time.
    pub fn query(&self, pattern: &[u8]) -> f64 {
        self.synopsis.query(pattern)
    }

    /// Whether the pattern is represented in the structure.
    pub fn contains(&self, pattern: &[u8]) -> bool {
        self.synopsis.contains(pattern)
    }

    /// The count mode (`Δ`).
    #[inline]
    pub fn mode(&self) -> CountMode {
        self.synopsis.mode()
    }

    /// The privacy guarantee of the construction.
    #[inline]
    pub fn privacy(&self) -> PrivacyParams {
        self.synopsis.privacy()
    }

    /// Error bound on stored noisy counts (high probability): for present
    /// strings, `|count* − count_Δ| ≤ alpha_counts` w.p. ≥ 1−β.
    #[inline]
    pub fn alpha_counts(&self) -> f64 {
        self.synopsis.alpha_counts()
    }

    /// True-count bound for strings not present in the structure: any `P`
    /// not in the trie has `count_Δ(P, D) ≤ alpha_absent` w.p. ≥ 1−β.
    #[inline]
    pub fn alpha_absent(&self) -> f64 {
        self.synopsis.alpha_absent()
    }

    /// Overall additive error `α` of the data structure: valid for *all*
    /// patterns, present (count error) or absent (missed mass).
    pub fn alpha(&self) -> f64 {
        self.synopsis.alpha()
    }

    /// Number of trie nodes (paper: `O(nℓ²)` after pruning).
    pub fn node_count(&self) -> usize {
        self.synopsis.node_count()
    }

    /// Database size parameters `(n, ℓ)` the structure was built from.
    pub fn db_params(&self) -> (usize, usize) {
        self.synopsis.db_params()
    }

    /// The serving form of this structure: the snapshot it already is, so
    /// this only clones an `Arc`. Post-processing: no privacy cost.
    pub fn freeze(&self) -> FrozenSynopsis {
        self.synopsis.clone()
    }

    /// Nodes per depth, for size audits.
    pub fn depth_histogram(&self) -> Vec<usize> {
        let mut hist = Vec::new();
        self.synopsis.for_each_preorder(|p, _| {
            if hist.len() <= p.len() {
                hist.resize(p.len() + 1, 0);
            }
            hist[p.len()] += 1;
        });
        hist
    }

    /// The strings passing `keep` with their noisy counts, in lexicographic
    /// order.
    fn strings_where(&self, keep: impl Fn(&[u8], f64) -> bool) -> Vec<(Vec<u8>, f64)> {
        let mut out = Vec::new();
        self.synopsis.for_each_preorder(|p, v| {
            if keep(p, v) {
                out.push((p.to_vec(), v));
            }
        });
        out
    }

    /// `α`-approximate substring mining (Definition 2): every string whose
    /// noisy count is at least `tau`, with its noisy count.
    ///
    /// Guarantee (with the structure's `α`): all strings with
    /// `count_Δ ≥ τ + α` are output; no string with `count_Δ ≤ τ − α` is.
    /// Pure post-processing — call with as many thresholds as you like.
    pub fn mine(&self, tau: f64) -> Vec<(Vec<u8>, f64)> {
        self.strings_where(|p, v| !p.is_empty() && v >= tau)
    }

    /// `α`-approximate q-gram mining: like [`Self::mine`] restricted to
    /// strings of length exactly `q`.
    pub fn mine_qgrams(&self, q: usize, tau: f64) -> Vec<(Vec<u8>, f64)> {
        self.strings_where(|p, v| p.len() == q && v >= tau)
    }

    /// The `k` strings with the largest noisy counts (post-processing;
    /// ties broken lexicographically). Restricting to a fixed length via
    /// `fixed_len` gives top-k q-grams.
    pub fn mine_top_k(&self, k: usize, fixed_len: Option<usize>) -> Vec<(Vec<u8>, f64)> {
        let mut all =
            self.strings_where(|p, _| !p.is_empty() && fixed_len.is_none_or(|q| p.len() == q));
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

/// Lower-case hex spelling of `bytes`.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structure_of(entries: &[(&[u8], f64)]) -> PrivateCountStructure {
        let entries = entries.iter().map(|&(p, v)| (p.to_vec(), v)).collect();
        let (mode, privacy) = (CountMode::Substring, PrivacyParams::pure(1.0));
        PrivateCountStructure::from_entries(entries, mode, privacy, 1.5, 2.5, 6, 5)
            .expect("valid entries")
    }

    fn toy_structure() -> PrivateCountStructure {
        structure_of(&[(b"b", 6.0), (b"ab", 4.1), (b"", 20.0), (b"a", 8.2)])
    }

    #[test]
    fn missing_prefixes_take_their_childrens_maximum() {
        // "a" and "ab" have no entries: "ab" takes max(3, 5), "a" takes
        // max(ab, ac) and the root max(a, b). Absent siblings stay absent.
        let s = structure_of(&[(b"abx", 3.0), (b"aby", 5.0), (b"ac", 4.0), (b"b", 9.0)]);
        assert_eq!(s.query(b"ab"), 5.0);
        assert_eq!(s.query(b"a"), 5.0);
        assert_eq!(s.query(b""), 9.0);
        assert_eq!(s.node_count(), 7);
        assert!(!s.contains(b"abz"));
        // With no entries at all, the lone root takes 0.
        let empty = structure_of(&[]);
        assert_eq!((empty.node_count(), empty.query(b"")), (1, 0.0));
    }

    #[test]
    fn depth_histogram_counts_nodes_per_depth() {
        assert_eq!(toy_structure().depth_histogram(), vec![1, 2, 1]);
    }

    #[test]
    fn query_present_and_absent() {
        let s = toy_structure();
        assert_eq!(s.query(b"ab"), 4.1);
        assert_eq!(s.query(b"zz"), 0.0);
        assert_eq!(s.query(b""), 20.0);
        assert!(s.contains(b"a"));
        assert!(!s.contains(b"abc"));
        assert_eq!(s.alpha(), 2.5);
    }

    #[test]
    fn mining_thresholds() {
        let s = toy_structure();
        let mined = s.mine(5.0);
        let strings: Vec<&[u8]> = mined.iter().map(|(s, _)| s.as_slice()).collect();
        assert_eq!(strings, vec![&b"a"[..], &b"b"[..]]);
        // Lower threshold includes "ab"; the root (empty string) is never
        // reported.
        assert_eq!(s.mine(4.0).len(), 3);
        assert_eq!(s.mine(100.0).len(), 0);
    }

    #[test]
    fn qgram_mining_filters_by_length() {
        let s = toy_structure();
        let grams = s.mine_qgrams(1, 0.0);
        assert_eq!(grams.len(), 2);
        let grams2 = s.mine_qgrams(2, 0.0);
        assert_eq!(grams2.len(), 1);
        assert_eq!(grams2[0].0, b"ab".to_vec());
    }

    #[test]
    fn top_k_mining() {
        let s = toy_structure();
        let top2 = s.mine_top_k(2, None);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].0, b"a".to_vec());
        assert_eq!(top2[1].0, b"b".to_vec());
        let top_len2 = s.mine_top_k(10, Some(2));
        assert_eq!(top_len2.len(), 1);
        assert_eq!(top_len2[0].0, b"ab".to_vec());
    }

    #[test]
    fn from_entries_rejects_malformed_input() {
        let root = || vec![(Vec::new(), 1.0)];
        let mode = CountMode::Document;
        let build = |entries, privacy, a_counts, a_absent| {
            PrivateCountStructure::from_entries(entries, mode, privacy, a_counts, a_absent, 6, 5)
        };
        let pure = PrivacyParams::pure(1.0);

        // Header fields the snapshot decoder would refuse: a release of
        // them could not be reloaded from its own bytes.
        for (privacy, alpha_counts, alpha_absent, field) in [
            (PrivacyParams::pure(f64::INFINITY), 1.0, 2.0, "epsilon"),
            (PrivacyParams { epsilon: -1.0, delta: 0.0 }, 1.0, 2.0, "epsilon"),
            (PrivacyParams::approx(1.0, -0.0), 1.0, 2.0, "delta"),
            (PrivacyParams { epsilon: 1.0, delta: 1.0 }, 1.0, 2.0, "delta"),
            (pure, f64::INFINITY, 2.0, "alpha_counts"),
            (pure, f64::NAN, 2.0, "alpha_counts"),
            (pure, 1.0, f64::INFINITY, "alpha_absent"),
            (pure, 1.0, f64::NAN, "alpha_absent"),
        ] {
            let err = build(root(), privacy, alpha_counts, alpha_absent).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }

        let bad_count = vec![(Vec::new(), f64::NAN), (b"a".to_vec(), f64::INFINITY)];
        let err = build(bad_count, pure, 1.0, 2.0).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
        let duplicate = vec![(Vec::new(), 4.0), (b"a".to_vec(), 2.0), (b"a".to_vec(), 3.0)];
        let err = build(duplicate, pure, 1.0, 2.0).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");

        // A valid release reloads from its own bytes.
        let ok = build(vec![(Vec::new(), 9.5), (b"a".to_vec(), 3.0)], pure, 1.0, 2.0)
            .expect("valid entries");
        let back = FrozenSynopsis::from_bytes(&ok.freeze().to_bytes()).expect("reloads");
        assert_eq!(back, ok.freeze());
        assert_eq!((back.query(b""), back.mode()), (9.5, CountMode::Document));
    }

    #[test]
    fn clipped_mode_roundtrips_through_the_snapshot() {
        let entries = vec![(Vec::new(), 1.0), (b"xy".to_vec(), 3.5)];
        let privacy = PrivacyParams::approx(0.5, 1e-7);
        let s = PrivateCountStructure::from_entries(
            entries,
            CountMode::Clipped(7),
            privacy,
            1.0,
            2.0,
            10,
            20,
        )
        .expect("valid entries");
        let back = FrozenSynopsis::from_bytes(&s.freeze().to_bytes()).unwrap();
        assert_eq!(back.mode(), CountMode::Clipped(7));
        assert!((back.privacy().delta - 1e-7).abs() < 1e-20);
        assert_eq!(back.query(b"xy"), 3.5);
    }

    #[test]
    fn count_mode_delta() {
        assert_eq!(CountMode::Document.delta_clip(10), 1);
        assert_eq!(CountMode::Substring.delta_clip(10), 10);
        assert_eq!(CountMode::Clipped(3).delta_clip(10), 3);
        assert_eq!(CountMode::Clipped(30).delta_clip(10), 10);
        assert_eq!(CountMode::Clipped(0).delta_clip(10), 1);
    }
}
