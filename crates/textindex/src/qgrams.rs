//! Enumeration of distinct fixed-length substrings (depth groups).
//!
//! For a length `d`, the distinct length-`d` substrings of the corpus
//! partition the valid suffix-array ranks into contiguous runs — these are
//! exactly the leaves below the "`d`-minimal nodes" of the suffix tree used
//! by the paper's fast q-gram algorithm (proof of Lemma 21, phase `k` with
//! `d = 2^k`). Enumerating them costs one linear scan of the LCP array.

use dpsc_strkit::search::SaInterval;

use crate::corpus::CorpusIndex;

/// One distinct length-`d` substring of the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthGroup {
    /// Suffix-array interval of all occurrences.
    pub interval: SaInterval,
    /// Text position of one occurrence (the paper's "witness occurrence",
    /// stored as `leaf(v)` in Lemma 21).
    pub witness_pos: u32,
}

impl DepthGroup {
    /// Total occurrences of the substring.
    #[inline]
    pub fn count(&self) -> usize {
        self.interval.count()
    }
}

/// Enumerates all distinct length-`d` substrings of the corpus, in
/// lexicographic order. `O(N)` time.
///
/// A rank participates iff its suffix has at least `d` symbols left in its
/// document (occurrences never cross sentinels); runs are split where the
/// adjacent LCP drops below `d`.
pub fn depth_groups(idx: &CorpusIndex, d: usize) -> Vec<DepthGroup> {
    assert!(d >= 1, "depth must be at least 1");
    let sa = idx.suffix_array().sa();
    let lcp = idx.lcp();
    let n = sa.len();
    let mut out = Vec::new();
    let mut run_start: Option<usize> = None;
    for r in 0..n {
        let pos = sa[r] as usize;
        let valid = idx.remaining_in_doc(pos) >= d;
        if !valid {
            debug_assert!(
                run_start.is_none() || lcp.get(r) < d,
                "invalid rank inside a depth-{d} run"
            );
            if let Some(start) = run_start.take() {
                out.push(DepthGroup {
                    interval: SaInterval { lo: start as u32, hi: r as u32 },
                    witness_pos: sa[start],
                });
            }
            continue;
        }
        match run_start {
            Some(start) if lcp.get(r) >= d => {
                // Same d-prefix; extend the run.
                let _ = start;
            }
            Some(start) => {
                out.push(DepthGroup {
                    interval: SaInterval { lo: start as u32, hi: r as u32 },
                    witness_pos: sa[start],
                });
                run_start = Some(r);
            }
            None => run_start = Some(r),
        }
    }
    if let Some(start) = run_start {
        out.push(DepthGroup {
            interval: SaInterval { lo: start as u32, hi: n as u32 },
            witness_pos: sa[start],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsc_strkit::alphabet::Database;
    use dpsc_strkit::naive_count;
    use std::collections::BTreeMap;

    fn naive_qgram_counts(db: &Database, d: usize) -> BTreeMap<Vec<u8>, usize> {
        let mut map = BTreeMap::new();
        for doc in db.documents() {
            if doc.len() < d {
                continue;
            }
            for w in doc.windows(d) {
                map.entry(w.to_vec()).or_insert(0);
            }
        }
        for (gram, cnt) in map.iter_mut() {
            *cnt = db.documents().iter().map(|doc| naive_count(gram, doc)).sum();
        }
        map
    }

    #[test]
    fn groups_match_naive_qgrams() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        for d in 1..=5 {
            let groups = depth_groups(&idx, d);
            let naive = naive_qgram_counts(&db, d);
            assert_eq!(groups.len(), naive.len(), "number of distinct {d}-grams");
            // Groups are in lexicographic order, matching the BTreeMap.
            for (g, (gram, cnt)) in groups.iter().zip(naive.iter()) {
                let decoded = idx.decode_substring(g.witness_pos as usize, d);
                assert_eq!(&decoded, gram, "d={d}");
                assert_eq!(g.count(), *cnt, "count of {:?}", gram);
            }
        }
    }

    #[test]
    fn depth_exceeding_docs_yields_empty() {
        let db = Database::paper_example();
        let idx = CorpusIndex::build(&db);
        assert!(depth_groups(&idx, 6).is_empty());
    }
}
