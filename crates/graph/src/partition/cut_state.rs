//! The one refinement core of the partitioning layer: an assignment plus
//! its exact cut state — per-node *part contact* counts, per-part weight
//! and node count, and the cut-neighbor count `Σ_v |{foreign parts v
//! touches}|` (DGC's partition cost, kept incrementally). Every move of a
//! node is priced in integer halo gain by one walk over its neighbors, and
//! applied in O(degree). Node weights are 1 for
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

    /// Price every move of `u` in one walk over its neighbors, after which
    /// `prices.gain(p, ..)` is the halo gain of moving `u` to any part `p`
    /// other than its own `from`.
    ///
    /// Moving `u` changes the cut by `foreign(u, p) − foreign(u, from)`
    /// for `u` itself, plus one per neighbor that touches `p` nowhere and
    /// sits outside it (it gains a foreign part), minus one per neighbor
    /// outside `from` whose only contact there is `u` (it loses one). The
    /// first term is `[u touches from] − [u touches p]`; the second is the
    /// degree less `near[p]`, the neighbors that touch `p` or sit in it;
    /// the third does not depend on `p`. So one walk that counts `near` per
    /// part, and the lone contacts once, prices every target in integers.
    fn sweep(&self, u: usize, prices: &mut Prices) {
        prices.near.fill(0);
        let from = self.assignment[u];
        let mut base = -i64::from(self.contact_count(u, from) > 0);
        for &(v, _) in self.graph.neighbors(u) {
            let pv = self.assignment[v];
            base -= 1;
            let mut sits_touched = false;
            for &(q, c) in &self.contacts[v] {
                if q == from && c == 1 && pv != from {
                    base += 1;
                }
                sits_touched |= q == pv;
                prices.near[q] += 1;
            }
            if !sits_touched {
                prices.near[pv] += 1;
            }
        }
        prices.base = base;
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
    ///
    /// A node is *settled* once a look finds it no foreign contact, or no
    /// contacted part of positive gain whatever the cap; later passes skip
    /// it. Its prices read only its own and its neighbors' assignment and
    /// contacts, and a move of `w` changes only `w`'s assignment and its
    /// neighbors' contacts, so the move un-settles `w` and everything
    /// within two hops of it. A node alone in its part is never settled.
    /// A skipped node could not have moved, so the moves are those of
    /// looking at every node on every pass.
    pub(super) fn refine(&mut self, active: &[usize], cap: usize) -> usize {
        let mut prices = Prices::new(self.k);
        let mut settled = vec![false; self.assignment.len()];
        let mut total = 0usize;
        for _ in 0..REFINE_PASSES {
            let mut moved = 0usize;
            for &u in active {
                let from = self.assignment[u];
                if settled[u] || self.part_count[from] <= 1 {
                    continue;
                }
                if self.foreign_contacts(u, from) == 0 {
                    settled[u] = true;
                    continue;
                }
                self.sweep(u, &mut prices);
                if self.contacts[u]
                    .iter()
                    .all(|&(p, _)| p == from || prices.gain(p, true) <= 0)
                {
                    settled[u] = true;
                    continue;
                }
                if let Some((_, to)) = self.best_target(u, cap, &prices).filter(|&(g, _)| g > 0) {
                    self.move_node(u, to);
                    moved += 1;
                    for &(x, _) in self.graph.neighbors(u) {
                        for &(y, _) in self.graph.neighbors(x) {
                            settled[y] = false;
                        }
                        settled[x] = false;
                    }
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
        let mut prices = Prices::new(self.k);
        let mut heap = Offers::new();
        for u in 0..self.assignment.len() {
            self.offer(u, cap, &mut heap, &mut prices);
        }
        let mut moves = 0usize;
        while let Some((gain, Reverse(u), Reverse(to))) = heap.pop() {
            if self.sheddable(u, cap) && self.shed_target(u, cap, &mut prices) == Some((gain, to)) {
                self.move_node(u, to);
                moves += 1;
                for &(v, _) in self.graph.neighbors(u) {
                    self.offer(v, cap, &mut heap, &mut prices);
                }
            } else {
                self.offer(u, cap, &mut heap, &mut prices); // stale: re-price it
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
    fn offer(&self, u: usize, cap: usize, heap: &mut Offers, prices: &mut Prices) {
        if self.sheddable(u, cap) {
            if let Some((g, p)) = self.shed_target(u, cap, prices) {
                heap.push((g, Reverse(u), Reverse(p)));
            }
        }
    }

    /// Whether part `p` can take `u` without passing `cap`.
    fn fits(&self, u: usize, p: usize, cap: usize) -> bool {
        p != self.assignment[u] && self.part_weight[p] + self.weight(u) <= cap
    }

    /// The contacted part that can take `u` at the highest halo gain,
    /// ties to the lower part id, priced by `u`'s sweep.
    fn best_target(&self, u: usize, cap: usize, prices: &Prices) -> Option<(i64, usize)> {
        self.contacts[u]
            .iter()
            .filter(|&&(p, _)| self.fits(u, p, cap))
            .map(|&(p, _)| (prices.gain(p, true), p))
            .max_by_key(|&(g, p)| (g, Reverse(p)))
    }

    /// Where to shed `u`: its best contacted target, else the lightest
    /// part that can take it (uncontacted, as no contacted part fits).
    fn shed_target(&self, u: usize, cap: usize, prices: &mut Prices) -> Option<(i64, usize)> {
        self.sweep(u, prices);
        self.best_target(u, cap, prices).or_else(|| {
            let p = (0..self.k)
                .filter(|&p| self.fits(u, p, cap))
                .min_by_key(|&p| self.part_weight[p])?;
            Some((prices.gain(p, false), p))
        })
    }
}

/// What one [`CutState::sweep`] learns about a node: the halo gain of every
/// move it can make. Sized by the part count and reused from node to node.
struct Prices {
    /// Per part `p`: the swept node's neighbors that touch `p` or sit in
    /// it.
    near: Vec<u32>,
    /// The part-independent rest of every gain: lone contacts in the
    /// node's own part, less its degree and whether it touches that part.
    base: i64,
}

impl Prices {
    fn new(k: usize) -> Self {
        Prices {
            near: vec![0; k],
            base: 0,
        }
    }

    /// The swept node's halo gain for a move to `p`, any part but its own;
    /// `contacted` says whether it touches `p`.
    fn gain(&self, p: usize, contacted: bool) -> i64 {
        self.base + i64::from(self.near[p]) + i64::from(contacted)
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

    impl CutState {
        /// The cut-neighbor reduction of moving `u` to part `to`, priced
        /// from its definition, neighbor by neighbor: the oracle for
        /// [`CutState::sweep`].
        fn halo_gain(&self, u: usize, to: usize) -> i64 {
            let from = self.assignment[u];
            assert_ne!(from, to);
            // u's own replicas change with its notion of "foreign"...
            let mut delta =
                self.foreign_contacts(u, to) as i64 - self.foreign_contacts(u, from) as i64;
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

        /// [`CutState::refine`] without settled nodes or sweeps: every
        /// active node is priced part by part with `halo_gain` on every
        /// pass.
        fn refine_reference(&mut self, active: &[usize], cap: usize) -> usize {
            let mut total = 0usize;
            for _ in 0..REFINE_PASSES {
                let mut moved = 0usize;
                for &u in active {
                    let from = self.assignment[u];
                    if self.part_count[from] <= 1 || self.foreign_contacts(u, from) == 0 {
                        continue;
                    }
                    let best = self.contacts[u]
                        .iter()
                        .filter(|&&(p, _)| self.fits(u, p, cap))
                        .map(|&(p, _)| (self.halo_gain(u, p), p))
                        .max_by_key(|&(g, p)| (g, Reverse(p)));
                    if let Some((_, to)) = best.filter(|&(g, _)| g > 0) {
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
    }

    /// An arbitrary core and cap: 2–23 nodes joined by random edges
    /// (components and isolated nodes included), node weights 1–4 (or
    /// unit weights, given as none), an
    /// arbitrary assignment over 1–5 parts, or one time in eight 65–69
    /// parts (some possibly empty), and a cap anywhere from 1 to the total
    /// weight.
    fn arb_core() -> impl Strategy<Value = (CutState, usize)> {
        (2usize..24, 1usize..6, any::<u64>(), 0usize..100).prop_map(|(n, k, seed, cap_pct)| {
            let k = if seed % 8 == 7 { 64 + k } else { k };
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

    /// Two cores hold the same assignment and exact cut state.
    fn assert_same(a: &CutState, b: &CutState) -> Result<(), TestCaseError> {
        prop_assert_eq!(&a.assignment, &b.assignment);
        prop_assert_eq!(&a.contacts, &b.contacts);
        prop_assert_eq!(&a.part_weight, &b.part_weight);
        prop_assert_eq!(&a.part_count, &b.part_count);
        prop_assert_eq!(a.cut, b.cut);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One sweep prices every move of every node exactly as
        /// `halo_gain` does, any part count included.
        #[test]
        fn one_sweep_prices_every_move_like_halo_gain((s, _) in arb_core()) {
            let mut prices = Prices::new(s.k);
            for u in 0..s.assignment.len() {
                s.sweep(u, &mut prices);
                for p in (0..s.k).filter(|&p| p != s.assignment[u]) {
                    prop_assert_eq!(
                        prices.gain(p, s.contact_count(u, p) > 0),
                        s.halo_gain(u, p),
                        "node {} to part {}", u, p
                    );
                }
            }
        }

        /// Skipping settled nodes changes nothing: `refine` makes the moves
        /// of the loop that prices every active node on every pass, over
        /// an arbitrary ascending active set and over all nodes, before
        /// and after a `rebalance`.
        #[test]
        fn refine_moves_like_the_unskipped_loop(((core, cap), mask) in (arb_core(), any::<u64>())) {
            let n = core.assignment.len();
            let some: Vec<usize> = (0..n).filter(|&u| mask >> u & 1 == 1).collect();
            let all: Vec<usize> = (0..n).collect();
            let mut balanced = core.clone();
            balanced.rebalance(cap);
            for start in [core, balanced] {
                for active in [&some, &all] {
                    let (mut a, mut b) = (start.clone(), start.clone());
                    prop_assert_eq!(a.refine(active, cap), b.refine_reference(active, cap));
                    assert_same(&a, &b)?;
                }
            }
        }

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
