//! Reusable, epoch-reset scratch state for the vertex-cover solvers.
//!
//! The pre-engine vertex-cover hot path allocated per call and per round:
//! `peel_with_thresholds` copied the edge set into a working buffer, then
//! every threshold round allocated a fresh `vec![0; n]` degree array and
//! rescanned (and `retain`ed) the whole residual buffer — `O(m · rounds)`
//! plus `O(n · rounds)` on the paper's workloads, where `n` is the *global*
//! vertex count even for sparse pieces. `two_approx_cover`,
//! `greedy_degree_cover`, the LP double cover and the branch-and-bound
//! preamble each allocated their own `vec![false; n]` / `vec![0; n]` scratch
//! per call.
//!
//! [`VcWorkspace`] makes all of that state reusable, following the same
//! epoch-stamp technique as `matching::BlossomWorkspace`:
//!
//! * **Scope stamps.** One shared per-vertex `u32` stamp array serves as the
//!   "peeled" / "matched" / "covered" flags of whichever solver is running:
//!   a vertex is flagged iff its stamp equals the current scope epoch, and
//!   starting a new scope bumps the epoch — invalidating every flag in
//!   `O(1)` with zero memory traffic.
//! * **Stamped degree counts.** Residual degrees are counted into a stamped
//!   array (`degree` valid iff `degree_stamp == epoch`), so counting costs
//!   `O(m)` — independent of the global `n` — and simultaneously collects
//!   the non-isolated vertex list.
//! * **Candidate subgraph.** A peeling round compares residual degrees with
//!   its threshold, and degrees only fall, so only the *candidates* — the
//!   vertices whose initial degree reaches the smallest positive threshold —
//!   can ever be peeled. Their adjacency among themselves is built into
//!   reused buffers, indexed by a sparse set over `pos` (`v` is candidate
//!   `i` iff `pos[v] == i < |C|` and `cand[i] == v`, so entries left by
//!   earlier solves are harmless and `pos` is never cleared). A round scans
//!   the live candidates and decrements the candidate neighbours of the
//!   peeled ones: `O(live candidates + candidate edges removed)`, with no
//!   work at all on the vertices that can never reach a threshold.
//!
//! **Epoch-reset invariant:** a stamped entry is meaningful iff its stamp
//! equals the current epoch; bumping the epoch invalidates all entries in
//! `O(1)`. The only `O(total capacity)` write is a full stamp clear when the
//! `u32` epoch wraps after 2³² scopes — counted in
//! [`VcWorkspace::full_resets`] and asserted zero by the unit tests, the
//! engine-equivalence proptests, and experiment E14.

use graph::{Edge, VertexId};
use std::collections::BinaryHeap;

/// Reusable vertex-cover scratch: scope stamps, stamped degree counts and the
/// candidate subgraph the peeling rounds run on.
///
/// See the [module docs](self) for the invariants. Obtain one via
/// [`VcWorkspace::new`] or let [`VcEngine`](crate::engine::VcEngine) manage
/// it; the free functions in [`crate::peeling`], [`crate::approx`],
/// [`crate::lp`] and [`crate::exact`] run on a per-thread engine.
#[derive(Debug, Clone)]
pub struct VcWorkspace {
    epoch: u32,
    /// Scope flags (`stamp[v] == epoch` ⇒ flagged in the current scope).
    stamp: Vec<u32>,
    /// Stamped residual degrees (`degree[v]` valid iff
    /// `degree_stamp[v] == epoch`).
    degree: Vec<u32>,
    degree_stamp: Vec<u32>,
    /// Non-isolated vertices of the current solve, in first-touch order.
    pub(crate) active: Vec<VertexId>,
    /// Peeling candidates (vertices that can reach a threshold), in
    /// first-touch order…
    pub(crate) cand: Vec<VertexId>,
    /// …the candidate index of each vertex (a sparse set: only entries with
    /// `pos[v] < cand.len()` and `cand[pos[v]] == v` mean anything)…
    pos: Vec<u32>,
    /// …each candidate's residual degree in the whole piece…
    cand_degree: Vec<u32>,
    /// …and its candidate neighbours, `adj[adj_start[i]..adj_end[i]]`, by
    /// candidate index (room for the full degree is reserved, only the
    /// candidate neighbours are written).
    adj_start: Vec<usize>,
    adj_end: Vec<usize>,
    adj: Vec<u32>,
    /// Candidates not yet peeled, by index.
    live: Vec<u32>,
    /// The current round's peeled candidates, by index.
    pub(crate) round: Vec<u32>,
    /// Lazy-deletion heap reused by `greedy_degree_cover`.
    pub(crate) heap: BinaryHeap<(usize, VertexId)>,
    /// The composed 2-approximation's cover vertices (picks, then fixed
    /// vertices), sorted before the cover is built from them.
    pub(crate) picks: Vec<VertexId>,
    solves: u64,
    full_resets: u64,
}

impl Default for VcWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl VcWorkspace {
    /// Creates an empty workspace; arrays grow to the largest graph solved.
    pub fn new() -> Self {
        VcWorkspace {
            // Stamps start at 0 and the epoch at 1, so freshly grown (zeroed)
            // array tails always read as "stale".
            epoch: 1,
            stamp: Vec::new(),
            degree: Vec::new(),
            degree_stamp: Vec::new(),
            active: Vec::new(),
            cand: Vec::new(),
            pos: Vec::new(),
            cand_degree: Vec::new(),
            adj_start: Vec::new(),
            adj_end: Vec::new(),
            adj: Vec::new(),
            live: Vec::new(),
            round: Vec::new(),
            heap: BinaryHeap::new(),
            picks: Vec::new(),
            solves: 0,
            full_resets: 0,
        }
    }

    /// Number of solver scopes opened through this workspace (lifetime).
    #[inline]
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Number of `O(capacity)` stamp clears ever performed. Stays 0 in
    /// practice: a full reset only happens when the `u32` epoch counter wraps
    /// after 2³² scopes. The unit tests, the engine-equivalence proptests and
    /// experiment E14 assert this counter, pinning the "zero per-round
    /// `O(n)` resets" claim.
    #[inline]
    pub fn full_resets(&self) -> u64 {
        self.full_resets
    }

    /// Opens a new solver scope over vertex ids `0..n`: grows the stamp
    /// arrays if needed and bumps the epoch, lazily invalidating every flag
    /// and stamped degree.
    pub(crate) fn begin_scope(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.degree.resize(n, 0);
            self.degree_stamp.resize(n, 0);
            self.pos.resize(n, 0);
        }
        self.solves += 1;
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                for s in self.stamp.iter_mut().chain(self.degree_stamp.iter_mut()) {
                    *s = 0;
                }
                self.full_resets += 1;
                1
            }
        };
        self.active.clear();
    }

    /// Returns `true` if `v` is flagged in the current scope.
    #[inline]
    pub(crate) fn is_flagged(&self, v: VertexId) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// Flags `v` in the current scope (peeled / matched / covered).
    #[inline]
    pub(crate) fn flag(&mut self, v: VertexId) {
        self.stamp[v as usize] = self.epoch;
    }

    /// Counts one more incident edge on `v`, registering `v` as active on
    /// first touch. Returns the new degree so callers can track the maximum
    /// inline (no separate pass over the active list).
    #[inline]
    pub(crate) fn bump_degree(&mut self, v: VertexId) -> u32 {
        if self.degree_stamp[v as usize] == self.epoch {
            self.degree[v as usize] += 1;
        } else {
            self.degree_stamp[v as usize] = self.epoch;
            self.degree[v as usize] = 1;
            self.active.push(v);
        }
        self.degree[v as usize]
    }

    /// The residual degree of an active vertex (0 for untouched ids).
    #[inline]
    pub(crate) fn degree_of(&self, v: VertexId) -> u32 {
        if self.degree_stamp[v as usize] == self.epoch {
            self.degree[v as usize]
        } else {
            0
        }
    }

    /// Sets the degree of `v` directly, registering it as active on first
    /// touch (used when degrees come from a CSR rather than an edge scan).
    #[inline]
    pub(crate) fn set_degree(&mut self, v: VertexId, d: u32) {
        if self.degree_stamp[v as usize] != self.epoch {
            self.degree_stamp[v as usize] = self.epoch;
            self.active.push(v);
        }
        self.degree[v as usize] = d;
    }

    /// Decrements the degree of an active vertex (for the heap-based greedy
    /// cover). Returns the new value.
    #[inline]
    pub(crate) fn dec_degree(&mut self, v: VertexId) -> u32 {
        debug_assert!(self.degree_stamp[v as usize] == self.epoch);
        self.degree[v as usize] -= 1;
        self.degree[v as usize]
    }

    /// The candidate index of `v`, if `v` is a candidate of the current
    /// solve. Stale `pos` entries fail one of the two checks.
    #[inline]
    fn cand_index(&self, v: VertexId) -> Option<usize> {
        let i = self.pos[v as usize] as usize;
        (self.cand.get(i) == Some(&v)).then_some(i)
    }

    /// Builds the candidate subgraph of `edges` for peeling down to
    /// `min_threshold`: the active vertices whose counted degree reaches it,
    /// their degrees, and their adjacency among themselves; every candidate
    /// starts live. Needs the degrees of `edges` counted in the current
    /// scope. `O(active + m)`.
    pub(crate) fn build_candidates(&mut self, edges: &[Edge], min_threshold: usize) {
        self.cand.clear();
        self.cand_degree.clear();
        self.adj_start.clear();
        let mut slots = 0;
        for &v in &self.active {
            let d = self.degree[v as usize];
            if d as usize >= min_threshold {
                self.pos[v as usize] = self.cand.len() as u32;
                self.cand.push(v);
                self.cand_degree.push(d);
                self.adj_start.push(slots);
                slots += d as usize;
            }
        }
        self.adj_end.clear();
        self.adj_end.extend_from_slice(&self.adj_start);
        // Stale contents are fine: only the written prefix of each range is
        // ever read.
        self.adj.resize(self.adj.len().max(slots), 0);
        for e in edges {
            if let (Some(a), Some(b)) = (self.cand_index(e.u), self.cand_index(e.v)) {
                self.adj[self.adj_end[a]] = b as u32;
                self.adj_end[a] += 1;
                self.adj[self.adj_end[b]] = a as u32;
                self.adj_end[b] += 1;
            }
        }
        self.live.clear();
        self.live.extend(0..self.cand.len() as u32);
    }

    /// One peeling round at threshold `t`: moves every live candidate of
    /// residual degree `>= t` into `round` (decided against the round-start
    /// degrees), flags it, and decrements its candidate neighbours.
    /// Decrementing an already peeled neighbour is harmless (its degree is
    /// never read again) and cannot underflow (a vertex loses at most one
    /// per incident edge). `O(live candidates + candidate edges removed)`.
    pub(crate) fn peel_round(&mut self, t: usize) {
        let VcWorkspace {
            cand_degree,
            live,
            round,
            ..
        } = self;
        round.clear();
        live.retain(|&i| {
            let peel = cand_degree[i as usize] as usize >= t;
            if peel {
                round.push(i);
            }
            !peel
        });
        for &i in &self.round {
            self.stamp[self.cand[i as usize] as usize] = self.epoch;
            let (s, e) = (self.adj_start[i as usize], self.adj_end[i as usize]);
            for &j in &self.adj[s..e] {
                self.cand_degree[j as usize] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_bump_invalidates_flags_and_degrees() {
        let mut ws = VcWorkspace::new();
        ws.begin_scope(5);
        ws.flag(2);
        ws.bump_degree(3);
        ws.bump_degree(3);
        assert!(ws.is_flagged(2));
        assert_eq!(ws.degree_of(3), 2);
        assert_eq!(ws.active, vec![3]);
        ws.begin_scope(5);
        assert!(!ws.is_flagged(2));
        assert_eq!(ws.degree_of(3), 0);
        assert!(ws.active.is_empty());
        assert_eq!(ws.full_resets(), 0);
        assert_eq!(ws.solves(), 2);
    }

    #[test]
    fn candidates_index_only_vertices_that_reach_the_threshold() {
        let mut ws = VcWorkspace::new();
        // A first solve leaves `pos` entries behind for 0..4.
        let first = [Edge::new(0, 1), Edge::new(2, 3), Edge::new(0, 3)];
        ws.begin_scope(6);
        for e in &first {
            ws.bump_degree(e.u);
            ws.bump_degree(e.v);
        }
        ws.build_candidates(&first, 1);
        assert_eq!(ws.cand.len(), 4);
        // Star at 4 plus the edge 2-3: only 4 reaches degree 2.
        let second = [
            Edge::new(4, 0),
            Edge::new(4, 1),
            Edge::new(4, 5),
            Edge::new(2, 3),
        ];
        ws.begin_scope(6);
        for e in &second {
            ws.bump_degree(e.u);
            ws.bump_degree(e.v);
        }
        ws.build_candidates(&second, 2);
        assert_eq!(ws.cand, vec![4]);
        assert_eq!(ws.cand_degree, vec![3]);
        // Stale entries from the first solve do not make 0..4 candidates.
        for v in 0..4 {
            assert_eq!(ws.cand_index(v), None, "vertex {v}");
        }
        assert_eq!(
            ws.adj_end[0], ws.adj_start[0],
            "4 has no candidate neighbour"
        );
        ws.peel_round(3);
        assert_eq!(ws.round, vec![0]);
        assert!(ws.is_flagged(4) && !ws.is_flagged(1));
        assert!(ws.live.is_empty());
    }

    #[test]
    fn a_round_decrements_only_candidate_neighbours_of_peeled_vertices() {
        let mut ws = VcWorkspace::new();
        // Triangle 0-1-2 plus a pendant edge 2-3: candidates at degree >= 2
        // are 0, 1, 2.
        let edges = [
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(0, 2),
            Edge::new(2, 3),
        ];
        ws.begin_scope(4);
        for e in &edges {
            ws.bump_degree(e.u);
            ws.bump_degree(e.v);
        }
        ws.build_candidates(&edges, 2);
        assert_eq!(ws.cand, vec![0, 1, 2]);
        ws.peel_round(3);
        let peeled: Vec<VertexId> = ws.round.iter().map(|&i| ws.cand[i as usize]).collect();
        assert_eq!(peeled, vec![2]);
        // 0 and 1 each lost their edge to 2.
        let left: Vec<u32> = ws
            .live
            .iter()
            .map(|&i| ws.cand_degree[i as usize])
            .collect();
        assert_eq!(left, vec![1, 1]);
        ws.peel_round(2);
        assert!(ws.round.is_empty());
    }

    #[test]
    fn growing_capacity_keeps_stale_semantics() {
        let mut ws = VcWorkspace::new();
        ws.begin_scope(2);
        ws.flag(1);
        ws.begin_scope(10);
        assert!(!ws.is_flagged(1));
        assert!(!ws.is_flagged(9));
        assert_eq!(ws.degree_of(9), 0);
    }
}
