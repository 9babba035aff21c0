//! The one refinement core of the partitioning layer: an assignment plus
//! its exact cut state — per-node *part contact* counts, per-part weight
//! and node count, and the cut-neighbor count `Σ_v |{foreign parts v
//! touches}|` (DGC's partition cost, kept incrementally). Moves are priced
//! in integer halo gain and applied in O(degree). Node weights are 1 for
//! [`super::IncrementalPartitioner`] and contracted fine-node counts at
//! [`super::Partitioning::multilevel`]'s coarse levels: the cap bounds part
//! *weight*, the no-empty-part rule counts *nodes*.

use super::SparseGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Greedy passes per [`CutState::refine`] call: the incremental repair,
/// its fresh solve and every multilevel level alike.
const REFINE_PASSES: usize = 4;

/// Shed moves `(halo gain, node, target part)`, best gain first, ties to
/// the lower node and then the lower part.
type Offers = BinaryHeap<(i64, Reverse<usize>, Reverse<usize>)>;

/// A graph plus an assignment and its exactly maintained cut state.
#[derive(Debug, Clone, Default)]
pub(super) struct CutState {
    graph: SparseGraph,
    k: usize,
    assignment: Vec<usize>,
    /// Per-node weights; empty when every node weighs 1, so the finest
    /// level carries no weight array at all.
    node_weight: Vec<usize>,
    part_weight: Vec<usize>,
    part_count: Vec<usize>,
    /// Per node: `(part, count)` of its neighbors by part (zero counts are
    /// dropped), the structure every cut/gain query reads.
    contacts: Vec<Vec<(usize, u32)>>,
    cut: usize,
}

impl CutState {
    /// Exact cut state of `assignment` over `graph`, in one O(E) sweep.
    /// `node_weight` is one weight per node, or empty for unit weights.
    pub(super) fn new(
        graph: SparseGraph,
        assignment: Vec<usize>,
        node_weight: Vec<usize>,
        k: usize,
    ) -> Self {
        let n = graph.num_nodes();
        assert_eq!(assignment.len(), n, "one part per node");
        assert!(
            node_weight.is_empty() || node_weight.len() == n,
            "one weight per node, or none"
        );
        let mut s = CutState {
            graph,
            k,
            assignment,
            node_weight,
            part_weight: vec![0; k],
            part_count: vec![0; k],
            contacts: vec![Vec::new(); n],
            cut: 0,
        };
        for u in 0..n {
            let own = s.assignment[u];
            s.part_weight[own] += s.weight(u);
            s.part_count[own] += 1;
            for &(v, _) in s.graph.neighbors(u) {
                bump(&mut s.contacts[u], s.assignment[v], 1);
            }
            s.cut += s.foreign_contacts(u, own);
        }
        s
    }

    pub(super) fn graph(&self) -> &SparseGraph {
        &self.graph
    }

    pub(super) fn num_parts(&self) -> usize {
        self.k
    }

    pub(super) fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    pub(super) fn part_counts(&self) -> &[usize] {
        &self.part_count
    }

    /// The cut-neighbor count — equals `Partitioning::cut_neighbors`
    /// recomputed from scratch.
    pub(super) fn cut(&self) -> usize {
        self.cut
    }

    pub(super) fn into_graph(self) -> SparseGraph {
        self.graph
    }

    pub(super) fn into_assignment(self) -> Vec<usize> {
        self.assignment
    }

    /// Append one isolated unit-weight node, homed in the lightest part.
    pub(super) fn add_node(&mut self) {
        self.graph.add_nodes(1);
        self.contacts.push(Vec::new());
        let p = (0..self.k)
            .min_by_key(|&p| self.part_weight[p])
            .expect("at least one part");
        self.assignment.push(p);
        if !self.node_weight.is_empty() {
            self.node_weight.push(1);
        }
        self.part_weight[p] += 1;
        self.part_count[p] += 1;
    }

    /// Set the weight of edge `{u, v}` (`0.0` removes it), keeping contacts
    /// and the cut count exact.
    pub(super) fn set_edge(&mut self, u: usize, v: usize, w: f32) {
        let existed = self.graph.set_edge(u, v, w) > 0.0;
        let exists = w > 0.0;
        if existed == exists {
            return; // weight-only change: contact counts are unweighted
        }
        let (pu, pv) = (self.assignment[u], self.assignment[v]);
        for (x, p, own) in [(u, pv, pu), (v, pu, pv)] {
            if exists {
                if bump(&mut self.contacts[x], p, 1) == 1 && p != own {
                    self.cut += 1;
                }
            } else if bump(&mut self.contacts[x], p, -1) == 0 && p != own {
                self.cut -= 1;
            }
        }
    }

    fn weight(&self, u: usize) -> usize {
        self.node_weight.get(u).map_or(1, |&w| w)
    }

    /// Distinct parts other than `own` that `u` touches.
    fn foreign_contacts(&self, u: usize, own: usize) -> usize {
        self.contacts[u].iter().filter(|&&(p, _)| p != own).count()
    }

    /// Neighbors of `u` currently in part `p`.
    fn contact_count(&self, u: usize, p: usize) -> u32 {
        self.contacts[u]
            .iter()
            .find(|&&(q, _)| q == p)
            .map_or(0, |&(_, c)| c)
    }

    /// The cut-neighbor reduction of moving `u` to part `to` (positive =
    /// fewer halo replicas), priced without mutating any state.
    fn halo_gain(&self, u: usize, to: usize) -> i64 {
        let from = self.assignment[u];
        debug_assert_ne!(from, to);
        // u's own replicas change with its notion of "foreign"...
        let mut delta = self.foreign_contacts(u, to) as i64 - self.foreign_contacts(u, from) as i64;
        // ...and each neighbor gains/loses a contact in `to`/`from`.
        for &(v, _) in self.graph.neighbors(u) {
            let pv = self.assignment[v];
            if self.contact_count(v, from) == 1 && from != pv {
                delta -= 1;
            }
            if self.contact_count(v, to) == 0 && to != pv {
                delta += 1;
            }
        }
        -delta
    }

    /// Move `u` to part `to`, updating contacts, weights, and the cut.
    fn move_node(&mut self, u: usize, to: usize) {
        let from = self.assignment[u];
        debug_assert_ne!(from, to);
        self.cut -= self.foreign_contacts(u, from);
        self.cut += self.foreign_contacts(u, to);
        self.assignment[u] = to;
        let w = self.weight(u);
        self.part_weight[from] -= w;
        self.part_weight[to] += w;
        self.part_count[from] -= 1;
        self.part_count[to] += 1;
        let CutState {
            graph,
            contacts,
            assignment,
            cut,
            ..
        } = self;
        for &(v, _) in graph.neighbors(u) {
            let pv = assignment[v];
            if bump(&mut contacts[v], from, -1) == 0 && from != pv {
                *cut -= 1;
            }
            if bump(&mut contacts[v], to, 1) == 1 && to != pv {
                *cut += 1;
            }
        }
    }

    /// Greedy KL/FM passes over `active`, in order: each node may move to
    /// a contacted part of strictly positive halo gain (ties to the lower
    /// part id) whose weight stays within `cap`, never emptying its own
    /// part. The integer cut strictly decreases with every move, so passes
    /// terminate. Returns the moves made.
    pub(super) fn refine(&mut self, active: &[usize], cap: usize) -> usize {
        let mut total = 0usize;
        for _ in 0..REFINE_PASSES {
            let mut moved = 0usize;
            for &u in active {
                let from = self.assignment[u];
                if self.part_count[from] <= 1 || self.foreign_contacts(u, from) == 0 {
                    continue;
                }
                if let Some((_, to)) = self.best_target(u, cap).filter(|&(g, _)| g > 0) {
                    self.move_node(u, to);
                    moved += 1;
                }
            }
            total += moved;
            if moved == 0 {
                break;
            }
        }
        total
    }

    /// Shed nodes of over-cap parts until every part's weight is within
    /// `cap`, best halo gain first: a max-heap of `(gain, node, target)`
    /// offers, re-priced lazily when popped and re-offered for the
    /// neighbors of every moved node, so a move costs O(degree · log) —
    /// never a scan of the graph. A node's targets are its contacted parts
    /// with room, else the lightest part with room. Never empties a part
    /// and never pushes a part past `cap`. A node that fits nowhere is
    /// dropped for good: a shed opens less room in its source part than
    /// the node it sheds, so the largest room anywhere never grows. A part
    /// stays over `cap` only when none of its nodes fits elsewhere.
    /// Returns the moves made.
    pub(super) fn rebalance(&mut self, cap: usize) -> usize {
        let mut heap = Offers::new();
        for u in 0..self.assignment.len() {
            self.offer(u, cap, &mut heap);
        }
        let mut moves = 0usize;
        while let Some((gain, Reverse(u), Reverse(to))) = heap.pop() {
            if self.sheddable(u, cap) && self.shed_target(u, cap) == Some((gain, to)) {
                self.move_node(u, to);
                moves += 1;
                for &(v, _) in self.graph.neighbors(u) {
                    self.offer(v, cap, &mut heap);
                }
            } else {
                self.offer(u, cap, &mut heap); // stale: re-price it
            }
        }
        moves
    }

    /// Whether `u` sits in an over-cap part it may leave.
    fn sheddable(&self, u: usize, cap: usize) -> bool {
        let p = self.assignment[u];
        self.part_weight[p] > cap && self.part_count[p] > 1
    }

    /// Queue `u`'s best shed move, if it may leave and fits somewhere.
    fn offer(&self, u: usize, cap: usize, heap: &mut Offers) {
        if self.sheddable(u, cap) {
            if let Some((g, p)) = self.shed_target(u, cap) {
                heap.push((g, Reverse(u), Reverse(p)));
            }
        }
    }

    /// Whether part `p` can take `u` without passing `cap`.
    fn fits(&self, u: usize, p: usize, cap: usize) -> bool {
        p != self.assignment[u] && self.part_weight[p] + self.weight(u) <= cap
    }

    /// The contacted part that can take `u` at the highest halo gain,
    /// ties to the lower part id.
    fn best_target(&self, u: usize, cap: usize) -> Option<(i64, usize)> {
        self.contacts[u]
            .iter()
            .filter(|&&(p, _)| self.fits(u, p, cap))
            .map(|&(p, _)| (self.halo_gain(u, p), p))
            .max_by_key(|&(g, p)| (g, Reverse(p)))
    }

    /// Where to shed `u`: its best contacted target, else the lightest
    /// part that can take it.
    fn shed_target(&self, u: usize, cap: usize) -> Option<(i64, usize)> {
        self.best_target(u, cap).or_else(|| {
            let p = (0..self.k)
                .filter(|&p| self.fits(u, p, cap))
                .min_by_key(|&p| self.part_weight[p])?;
            Some((self.halo_gain(u, p), p))
        })
    }
}

/// Adjust the `(part, count)` entry for `p` by `delta` and return the
/// resulting count; zero-count entries are dropped.
fn bump(contacts: &mut Vec<(usize, u32)>, p: usize, delta: i32) -> u32 {
    match contacts.iter().position(|&(q, _)| q == p) {
        Some(i) => {
            let c = (contacts[i].1 as i64 + delta as i64).max(0) as u32;
            if c == 0 {
                contacts.swap_remove(i);
            } else {
                contacts[i].1 = c;
            }
            c
        }
        None => {
            if delta > 0 {
                contacts.push((p, delta as u32));
                delta as u32
            } else {
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioning;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// An arbitrary core and cap: 2–23 nodes joined by random edges
    /// (components and isolated nodes included), node weights 1–4 (or
    /// unit weights, given as none), an
    /// arbitrary assignment over 1–5 parts (some possibly empty), and a
    /// cap anywhere from 1 to the total weight.
    fn arb_core() -> impl Strategy<Value = (CutState, usize)> {
        (2usize..24, 1usize..6, any::<u64>(), 0usize..100).prop_map(|(n, k, seed, cap_pct)| {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as usize
            };
            let edges: Vec<(usize, usize, f32)> = (0..2 * n)
                .map(|_| (next() % n, next() % n, 1.0))
                .filter(|&(u, v, _)| u != v)
                .collect();
            let graph = SparseGraph::from_edges(n, &edges);
            let assignment = (0..n).map(|_| next() % k).collect();
            let weights: Vec<usize> = (0..n).map(|_| 1 + next() % 4).collect();
            let total: usize = weights.iter().sum();
            let (weights, total) = if seed % 4 == 0 {
                (Vec::new(), n)
            } else {
                (weights, total)
            };
            let cap = 1 + cap_pct * total / 100;
            (CutState::new(graph, assignment, weights, k), cap)
        })
    }

    /// The maintained state equals a recount from the assignment alone.
    fn assert_exact(s: &CutState) -> Result<(), TestCaseError> {
        let p = Partitioning::from_assignment(s.assignment.clone(), s.k);
        prop_assert_eq!(s.cut, p.cut_neighbors(&s.graph), "maintained cut");
        let mut weight = vec![0usize; s.k];
        for (u, &q) in s.assignment.iter().enumerate() {
            weight[q] += s.weight(u);
        }
        prop_assert_eq!(&s.part_weight, &weight);
        prop_assert_eq!(&s.part_count, &p.part_sizes());
        Ok(())
    }

    /// No part emptied, and no part pushed past `cap` (a part already
    /// over it may only shrink).
    fn assert_moves_legal(
        before: &CutState,
        after: &CutState,
        cap: usize,
    ) -> Result<(), TestCaseError> {
        for p in 0..after.k {
            prop_assert!(
                before.part_count[p] == 0 || after.part_count[p] > 0,
                "part {} emptied",
                p
            );
            prop_assert!(
                after.part_weight[p] <= before.part_weight[p].max(cap),
                "part {} grew to {} past cap {}",
                p,
                after.part_weight[p],
                cap
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `refine` never raises the cut, and `rebalance` leaves no part
        /// over the cap while any node of it fits elsewhere; neither
        /// empties a part or pushes one past the cap, and the maintained
        /// cut, weights and counts stay exact throughout.
        #[test]
        fn refine_and_rebalance_obey_the_core_laws((core, cap) in arb_core()) {
            let mut s = core;
            assert_exact(&s)?;
            let all: Vec<usize> = (0..s.assignment.len()).collect();

            let before = s.clone();
            s.refine(&all, cap);
            prop_assert!(s.cut <= before.cut, "refine raised the cut {} -> {}", before.cut, s.cut);
            assert_moves_legal(&before, &s, cap)?;
            assert_exact(&s)?;

            let before = s.clone();
            s.rebalance(cap);
            assert_moves_legal(&before, &s, cap)?;
            assert_exact(&s)?;
            for (u, &p) in s.assignment.iter().enumerate() {
                if s.part_weight[p] > cap && s.part_count[p] > 1 {
                    let w = s.weight(u);
                    prop_assert!(
                        (0..s.k).all(|q| q == p || s.part_weight[q] + w > cap),
                        "node {} of over-cap part {} still fits elsewhere", u, p
                    );
                }
            }
        }
    }
}
