//! Answer checks, run outside the timed regions: a matching must be
//! vertex-disjoint and use only edges of the input graph, a cover must cover
//! every input edge, and answers are fingerprinted so runs of the same seed
//! can be compared bit for bit, within a run and against the recorded table
//! in `perfbench/fingerprints.txt`.

use distsim::CommunicationCost;
use graph::{fingerprint_edges, Edge};
use matching::Matching;
use vertexcover::VertexCover;

/// Checks that `m` is a matching of the graph on `n` vertices whose edge
/// set is given by `contains`.
pub fn check_matching(
    n: usize,
    m: &Matching,
    contains: impl Fn(&Edge) -> bool,
) -> Result<(), String> {
    let mut used = vec![false; n];
    for e in m.edges() {
        if !contains(e) {
            return Err(format!("matching edge {e:?} is not in the graph"));
        }
        for v in [e.u, e.v] {
            if std::mem::replace(&mut used[v as usize], true) {
                return Err(format!("vertex {v} is matched twice"));
            }
        }
    }
    Ok(())
}

/// Checks that `cover` covers every edge of `edges`.
pub fn check_cover<'a>(
    n: usize,
    cover: &VertexCover,
    edges: impl IntoIterator<Item = &'a Edge>,
) -> Result<(), String> {
    let mut member = vec![false; n];
    for v in cover.vertices() {
        member[v as usize] = true;
    }
    match edges
        .into_iter()
        .find(|e| !member[e.u as usize] && !member[e.v as usize])
    {
        Some(e) => Err(format!("edge {e:?} is not covered")),
        None => Ok(()),
    }
}

/// A graph's edge set with membership queries, for checking matchings.
#[derive(Debug, Clone)]
pub struct EdgeIndex(Vec<Edge>);

impl EdgeIndex {
    /// Indexes `edges`.
    pub fn new(edges: &[Edge]) -> Self {
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        EdgeIndex(sorted)
    }

    /// Whether `e` is an edge.
    pub fn contains(&self, e: &Edge) -> bool {
        self.0.binary_search(e).is_ok()
    }

    /// Every edge, sorted.
    pub fn edges(&self) -> &[Edge] {
        &self.0
    }
}

/// One workload's answer fingerprint at one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Hash of the matching's edges in answer order.
    pub matching: u64,
    /// Hash of the cover's vertices in ascending order.
    pub cover: u64,
    /// Communication of the messages behind both answers, in words.
    pub comm_words: u64,
}

impl Fingerprint {
    /// Fingerprints a matching, a cover and their communication.
    pub fn of(m: &Matching, c: &VertexCover, comm_words: u64) -> Self {
        Fingerprint {
            matching: fingerprint_matching(m),
            cover: cover_hash(c),
            comm_words,
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:#018x} {:#018x} {}",
            self.matching, self.cover, self.comm_words
        )
    }
}

/// Order-sensitive hash of a matching's edges.
pub fn fingerprint_matching(m: &Matching) -> u64 {
    fingerprint_edges(m.edges())
}

/// Order-sensitive hash of a cover's ascending vertex list.
pub fn cover_hash(c: &VertexCover) -> u64 {
    let edges: Vec<Edge> = c
        .sorted_vertices()
        .into_iter()
        .map(|v| Edge { u: v, v })
        .collect();
    fingerprint_edges(&edges)
}

/// Total words of several runs' communication.
pub fn words(comms: &[&CommunicationCost]) -> u64 {
    comms.iter().map(|c| c.total_words()).sum()
}

/// The recorded fingerprint of `workload` at `seed`, if the table has one.
pub fn recorded(workload: &str, seed: u64) -> Option<Fingerprint> {
    parse_table(include_str!("../fingerprints.txt"))
        .into_iter()
        .find(|(w, s, _)| w == workload && *s == seed)
        .map(|(_, _, fp)| fp)
}

fn parse_table(text: &str) -> Vec<(String, u64, Fingerprint)> {
    let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok();
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [w, seed, m, c, words] => Some((
                    w.to_string(),
                    seed.parse().ok()?,
                    Fingerprint {
                        matching: hex(m)?,
                        cover: hex(c)?,
                        comm_words: words.parse().ok()?,
                    },
                )),
                _ => None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_reject_bad_answers() {
        let g = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)];
        let idx = EdgeIndex::new(&g);
        let ok = Matching::from_edges(vec![Edge::new(0, 1), Edge::new(2, 3)]);
        assert!(check_matching(4, &ok, |e| idx.contains(e)).is_ok());
        let foreign = Matching::from_edges(vec![Edge::new(0, 3)]);
        assert!(check_matching(4, &foreign, |e| idx.contains(e)).is_err());
        assert!(check_cover(4, &VertexCover::from_vertices([1, 2]), &g).is_ok());
        assert!(check_cover(4, &VertexCover::from_vertices([1]), &g).is_err());
    }

    #[test]
    fn table_round_trips() {
        let fp = Fingerprint {
            matching: 0xdead_beef,
            cover: 7,
            comm_words: 42,
        };
        let rows = parse_table(&format!("# header\nflat-gnp 3 {fp}\n"));
        assert_eq!(rows, vec![("flat-gnp".to_string(), 3, fp)]);
    }
}
