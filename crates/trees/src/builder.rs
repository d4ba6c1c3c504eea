//! Tree construction for each scheme.

use crate::rng::{hash2, KeyedRng};
use crate::tree::CollectiveTree;

/// Routing scheme for a restricted collective (paper §III, Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TreeScheme {
    /// Root ↔ every participant directly (Fig. 3a; PSelInv v0.7.3).
    Flat,
    /// Binary tree over the sorted receiver list (Fig. 3b).
    Binary,
    /// Binary tree over a seeded random circular shift of the sorted
    /// receiver list (Fig. 3c; the paper's heuristic).
    ShiftedBinary,
    /// `k`-ary tree over the sorted receiver list — the arity ablation:
    /// higher arity trades tree depth for root fan-out, interpolating
    /// between [`TreeScheme::Binary`] (k = 2) and [`TreeScheme::Flat`]
    /// (k ≥ p̄).
    Kary {
        /// Children per interior node (≥ 2).
        arity: usize,
    },
    /// `k`-ary tree over a seeded random circular shift (the shifted
    /// heuristic applied at arbitrary arity).
    ShiftedKary {
        /// Children per interior node (≥ 2).
        arity: usize,
    },
    /// Binary tree over a full random permutation of the receivers — the
    /// baseline the paper rejects for destroying locality.
    RandomPerm,
    /// [`TreeScheme::Flat`] when the participant count (root included) is
    /// below `flat_threshold`, otherwise [`TreeScheme::ShiftedBinary`] —
    /// the hybrid suggested in the paper's closing discussion. The
    /// threshold counts *participants* (receivers plus the root), matching
    /// the crate-level description; a collective with
    /// `flat_threshold` participants is already routed through the tree.
    Hybrid {
        /// Participant count (root included) at which routing switches to
        /// the shifted binary tree; anything below it stays flat.
        flat_threshold: usize,
    },
}

impl std::fmt::Display for TreeScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeScheme::Flat => write!(f, "Flat-Tree"),
            TreeScheme::Binary => write!(f, "Binary-Tree"),
            TreeScheme::ShiftedBinary => write!(f, "Shifted Binary-Tree"),
            TreeScheme::Kary { arity } => write!(f, "{arity}-ary Tree"),
            TreeScheme::ShiftedKary { arity } => write!(f, "Shifted {arity}-ary Tree"),
            TreeScheme::RandomPerm => write!(f, "Random-Permutation Tree"),
            TreeScheme::Hybrid { flat_threshold } => write!(f, "Hybrid({flat_threshold})"),
        }
    }
}

/// Deterministic tree factory: the same `(scheme, seed)` pair builds the
/// same tree for the same collective `key` on every rank, with no
/// communication.
#[derive(Clone, Copy, Debug)]
pub struct TreeBuilder {
    /// Routing scheme.
    pub scheme: TreeScheme,
    /// Global seed (fixed in a preprocessing step).
    pub seed: u64,
}

impl TreeBuilder {
    /// Creates a builder.
    pub fn new(scheme: TreeScheme, seed: u64) -> Self {
        Self { scheme, seed }
    }

    /// Builds the tree for one collective.
    ///
    /// `root` is the data source (broadcast) or destination (reduction);
    /// `receivers` are the remaining participants in any order, without
    /// duplicates and without `root`; `key` identifies the collective
    /// (e.g. a hash of supernode and block indices) and selects the random
    /// shift.
    ///
    /// ```
    /// use pselinv_trees::{TreeBuilder, TreeScheme};
    ///
    /// // The paper's Fig. 3b example: participants P1..P6, root P4.
    /// let builder = TreeBuilder::new(TreeScheme::Binary, 0);
    /// let tree = builder.build(4, &[1, 2, 3, 5, 6], /* key */ 0);
    /// assert_eq!(tree.children_of(4), vec![1, 5]);
    /// assert_eq!(tree.children_of(1), vec![2, 3]);
    /// assert_eq!(tree.children_of(5), vec![6]);
    ///
    /// // Every rank derives the same tree locally — no communicator setup.
    /// assert_eq!(builder.build(4, &[1, 2, 3, 5, 6], 0), tree);
    /// ```
    pub fn build(&self, root: usize, receivers: &[usize], key: u64) -> CollectiveTree {
        assert!(!receivers.contains(&root), "root must not appear among receivers");
        if receivers.len() <= 1 {
            // One edge or none: every scheme links the receiver to the root,
            // and none draws on the key.
            return Self::build_flat(root, receivers);
        }
        let mut sorted: Vec<usize> = receivers.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), receivers.len(), "duplicate receiver ranks");

        let scheme = self.resolve_scheme(sorted.len() + 1);
        self.build_resolved(scheme, root, sorted, key)
    }

    /// Resolves [`TreeScheme::Hybrid`] to a concrete scheme for a
    /// collective with `participants` members (receivers plus root). The
    /// hybrid routes flat strictly below the threshold and through the
    /// shifted binary tree at or above it; every other scheme is already
    /// concrete. Exposed so degraded-tree rebuilds can pin the scheme at
    /// the *original* build size instead of re-resolving as survivors
    /// shrink.
    pub fn resolve_scheme(&self, participants: usize) -> TreeScheme {
        match self.scheme {
            TreeScheme::Hybrid { flat_threshold } => {
                if participants < flat_threshold {
                    TreeScheme::Flat
                } else {
                    TreeScheme::ShiftedBinary
                }
            }
            s => s,
        }
    }

    /// Builds with an already-resolved (non-hybrid) scheme over a sorted,
    /// deduplicated receiver list.
    fn build_resolved(
        &self,
        scheme: TreeScheme,
        root: usize,
        mut sorted: Vec<usize>,
        key: u64,
    ) -> CollectiveTree {
        match scheme {
            TreeScheme::Flat => Self::build_flat(root, &sorted),
            TreeScheme::Binary => Self::build_kary(root, &sorted, 2),
            TreeScheme::ShiftedBinary => {
                if !sorted.is_empty() {
                    let shift = (hash2(self.seed, key) % sorted.len() as u64) as usize;
                    sorted.rotate_left(shift);
                }
                Self::build_kary(root, &sorted, 2)
            }
            TreeScheme::Kary { arity } => {
                assert!(arity >= 2, "k-ary trees need arity >= 2");
                Self::build_kary(root, &sorted, arity)
            }
            TreeScheme::ShiftedKary { arity } => {
                assert!(arity >= 2, "k-ary trees need arity >= 2");
                if !sorted.is_empty() {
                    let shift = (hash2(self.seed, key) % sorted.len() as u64) as usize;
                    sorted.rotate_left(shift);
                }
                Self::build_kary(root, &sorted, arity)
            }
            TreeScheme::RandomPerm => {
                let mut rng = KeyedRng::new(self.seed, key);
                // Fisher–Yates shuffle.
                for i in (1..sorted.len()).rev() {
                    sorted.swap(i, rng.next_below(i + 1));
                }
                Self::build_kary(root, &sorted, 2)
            }
            TreeScheme::Hybrid { .. } => unreachable!("resolve_scheme returns concrete schemes"),
        }
    }

    /// Rebuilds `tree` without the `dead` ranks: the surviving members are
    /// re-routed with this builder's scheme under the same `key`, so every
    /// survivor derives the identical degraded tree locally once the fault
    /// set is known. If the root itself died, the lowest surviving member
    /// is promoted to root (a reduction's final value then lands there).
    ///
    /// A [`TreeScheme::Hybrid`] is resolved at the tree's *original*
    /// participant count, not the survivor count: a recovery must never
    /// silently switch routing scheme (and with it the hop-accounted
    /// volumes) just because the survivors crossed the flat threshold.
    ///
    /// Panics if no member survives.
    pub fn rebuild_excluding(
        &self,
        tree: &CollectiveTree,
        dead: &[usize],
        key: u64,
    ) -> CollectiveTree {
        let survivors: Vec<usize> =
            tree.members().iter().copied().filter(|m| !dead.contains(m)).collect();
        assert!(!survivors.is_empty(), "no surviving member to rebuild around");
        let root = if dead.contains(&tree.root()) {
            *survivors.iter().min().expect("non-empty survivors")
        } else {
            tree.root()
        };
        let scheme = self.resolve_scheme(tree.len());
        let mut receivers: Vec<usize> = survivors.into_iter().filter(|&m| m != root).collect();
        receivers.sort_unstable();
        self.build_resolved(scheme, root, receivers, key)
    }

    fn build_flat(root: usize, receivers: &[usize]) -> CollectiveTree {
        CollectiveTree::with_parents(root, receivers, |parent| parent[1..].fill(0))
    }

    /// `k`-ary tree per the paper's construction (binary for k = 2):
    /// repeatedly split the ordered receiver list into `k` near-equal
    /// chunks; the first rank of each chunk becomes a child of the current
    /// node and recursively owns the rest of its chunk.
    fn build_kary(root: usize, receivers: &[usize], arity: usize) -> CollectiveTree {
        // Receiver i (0-based) is member i+1.
        fn attach(parent: &mut [usize], node_member: usize, lo: usize, hi: usize, k: usize) {
            // receivers[lo..hi] still need a parent
            if lo >= hi {
                return;
            }
            let len = hi - lo;
            let chunk = len.div_ceil(k);
            let mut start = lo;
            while start < hi {
                let end = (start + chunk).min(hi);
                parent[start + 1] = node_member;
                attach(parent, start + 1, start + 1, end, k);
                start = end;
            }
        }
        CollectiveTree::with_parents(root, receivers, |parent| {
            attach(parent, 0, 0, receivers.len(), arity)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_valid(t: &CollectiveTree) {
        // Every non-root member reachable from the root exactly once.
        let mut seen = vec![t.root()];
        let mut stack = vec![t.root()];
        while let Some(r) = stack.pop() {
            for c in t.children_of(r) {
                assert!(!seen.contains(&c), "rank {c} reached twice");
                seen.push(c);
                stack.push(c);
            }
        }
        assert_eq!(seen.len(), t.len(), "not all members reachable");
        for &m in t.members() {
            if m != t.root() {
                assert!(t.parent_of(m).is_some());
            }
        }
    }

    #[test]
    fn paper_figure3_binary_example() {
        // Participants P1..P6, root P4 → root sends to P1 and P5;
        // P1 → {P2, P3}; P5 → {P6}. (Paper Fig. 3b.)
        let b = TreeBuilder::new(TreeScheme::Binary, 0);
        let t = b.build(4, &[1, 2, 3, 5, 6], 0);
        check_valid(&t);
        assert_eq!(t.children_of(4), vec![1, 5]);
        assert_eq!(t.children_of(1), vec![2, 3]);
        assert_eq!(t.children_of(5), vec![6]);
        assert!(t.children_of(6).is_empty());
    }

    #[test]
    fn paper_figure3_shifted_example_order() {
        // The reordered sequence P4,P6,P1,P2,P3,P5 from the paper is the
        // sorted receiver list [1,2,3,5,6] rotated left by 4 → [6,1,2,3,5].
        // Build through the internal binary builder to pin the topology.
        let t = TreeBuilder::build_kary(4, &[6, 1, 2, 3, 5], 2);
        check_valid(&t);
        assert_eq!(t.children_of(4), vec![6, 3]);
        assert_eq!(t.children_of(6), vec![1, 2]);
        assert_eq!(t.children_of(3), vec![5]);
    }

    #[test]
    fn flat_has_star_topology() {
        let b = TreeBuilder::new(TreeScheme::Flat, 0);
        let t = b.build(9, &[2, 4, 6], 7);
        check_valid(&t);
        assert_eq!(t.children_of(9).len(), 3);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn binary_depth_is_logarithmic() {
        let b = TreeBuilder::new(TreeScheme::Binary, 0);
        for p in [2usize, 5, 16, 33, 100, 257] {
            let receivers: Vec<usize> = (1..p).collect();
            let t = b.build(0, &receivers, 1);
            check_valid(&t);
            let bound = (p as f64).log2().ceil() as usize + 1;
            assert!(t.depth() <= bound, "depth {} > bound {bound} for p={p}", t.depth());
            // every node has at most 2 children
            for &m in t.members() {
                assert!(t.children_of(m).len() <= 2);
            }
        }
    }

    #[test]
    fn shifted_is_deterministic_per_key() {
        let b = TreeBuilder::new(TreeScheme::ShiftedBinary, 42);
        let recv: Vec<usize> = (1..20).collect();
        let t1 = b.build(0, &recv, 5);
        let t2 = b.build(0, &recv, 5);
        assert_eq!(t1, t2);
        // different keys eventually give different trees
        let different = (0..50u64).any(|k| b.build(0, &recv, k) != t1);
        assert!(different);
    }

    #[test]
    fn shifted_varies_interior_nodes_across_keys() {
        // The whole point of the shift: the root's first child should not
        // always be the lowest rank.
        let b = TreeBuilder::new(TreeScheme::ShiftedBinary, 7);
        let recv: Vec<usize> = (1..32).collect();
        let mut first_children = std::collections::HashSet::new();
        for key in 0..64u64 {
            let t = b.build(0, &recv, key);
            check_valid(&t);
            first_children.insert(t.children_of(0)[0]);
        }
        assert!(
            first_children.len() > 8,
            "only {} distinct first children across 64 keys",
            first_children.len()
        );
        // Plain binary always picks rank 1.
        let bb = TreeBuilder::new(TreeScheme::Binary, 7);
        for key in 0..8u64 {
            assert_eq!(bb.build(0, &recv, key).children_of(0)[0], 1);
        }
    }

    #[test]
    fn random_perm_valid_and_deterministic() {
        let b = TreeBuilder::new(TreeScheme::RandomPerm, 3);
        let recv: Vec<usize> = (10..40).collect();
        let t1 = b.build(5, &recv, 11);
        let t2 = b.build(5, &recv, 11);
        assert_eq!(t1, t2);
        check_valid(&t1);
    }

    #[test]
    fn hybrid_switches_on_threshold() {
        let b = TreeBuilder::new(TreeScheme::Hybrid { flat_threshold: 5 }, 0);
        let small = b.build(0, &[1, 2, 3], 0); // 4 participants < 5 → flat
        assert_eq!(small.depth(), 1);
        let recv: Vec<usize> = (1..20).collect();
        let large = b.build(0, &recv, 0); // 20 participants ≥ 5 → binary
        assert!(large.depth() > 1);
        for &m in large.members() {
            assert!(large.children_of(m).len() <= 2);
        }
    }

    fn is_star(t: &CollectiveTree) -> bool {
        t.depth() <= 1 && t.children_of(t.root()).len() == t.len() - 1
    }

    fn is_binaryish(t: &CollectiveTree) -> bool {
        t.depth() > 1 && t.members().iter().all(|&m| t.children_of(m).len() <= 2)
    }

    #[test]
    fn hybrid_boundary_counts_participants_not_receivers() {
        // The threshold counts participants (receivers + root), per the
        // crate doc. With flat_threshold = 5:
        //   3 receivers → 4 participants < 5  → flat
        //   4 receivers → 5 participants == 5 → tree (the boundary the old
        //                 receiver-count comparison got wrong)
        //   5 receivers → 6 participants > 5  → tree
        let b = TreeBuilder::new(TreeScheme::Hybrid { flat_threshold: 5 }, 9);
        let t = b.build(0, &[1, 2, 3], 2);
        check_valid(&t);
        assert!(is_star(&t), "threshold−1 participants must stay flat");

        let t = b.build(0, &[1, 2, 3, 4], 2);
        check_valid(&t);
        assert!(is_binaryish(&t), "exactly threshold participants must route through the tree");

        let t = b.build(0, &[1, 2, 3, 4, 5], 2);
        check_valid(&t);
        assert!(is_binaryish(&t), "threshold+1 participants must route through the tree");
    }

    #[test]
    fn hybrid_resolution_matches_resolve_scheme() {
        let b = TreeBuilder::new(TreeScheme::Hybrid { flat_threshold: 5 }, 9);
        assert_eq!(b.resolve_scheme(4), TreeScheme::Flat);
        assert_eq!(b.resolve_scheme(5), TreeScheme::ShiftedBinary);
        assert_eq!(b.resolve_scheme(6), TreeScheme::ShiftedBinary);
        // Concrete schemes pass through untouched.
        let b = TreeBuilder::new(TreeScheme::Kary { arity: 3 }, 9);
        assert_eq!(b.resolve_scheme(2), TreeScheme::Kary { arity: 3 });
    }

    #[test]
    fn rebuild_excluding_pins_hybrid_scheme_at_original_size() {
        // 8 participants ≥ 6 → the original collective routes through the
        // shifted binary tree. Killing three ranks leaves 5 survivors —
        // *below* the flat threshold — but the rebuild must keep the
        // original scheme rather than silently collapsing to a star
        // mid-recovery.
        let b = TreeBuilder::new(TreeScheme::Hybrid { flat_threshold: 6 }, 13);
        let recv: Vec<usize> = (1..8).collect();
        let t = b.build(0, &recv, 4);
        check_valid(&t);
        assert!(is_binaryish(&t), "original build is above threshold");

        let rebuilt = b.rebuild_excluding(&t, &[2, 5, 7], 4);
        check_valid(&rebuilt);
        assert_eq!(rebuilt.len(), 5);
        assert!(
            is_binaryish(&rebuilt),
            "degraded tree must keep the original shifted-binary routing, got a star"
        );
        // Deterministic: every survivor derives the same degraded tree.
        assert_eq!(b.rebuild_excluding(&t, &[2, 5, 7], 4), rebuilt);
    }

    #[test]
    #[should_panic(expected = "root must not appear among receivers")]
    fn root_among_receivers_rejected_in_release_too() {
        // A hard assert (not debug_assert): a malformed tree with the root
        // duplicated as a receiver must never be constructible.
        TreeBuilder::new(TreeScheme::Binary, 0).build(3, &[1, 2, 3], 0);
    }

    #[test]
    fn kary_respects_arity_and_depth() {
        for arity in [2usize, 3, 4, 8] {
            let b = TreeBuilder::new(TreeScheme::Kary { arity }, 0);
            let receivers: Vec<usize> = (1..100).collect();
            let t = b.build(0, &receivers, 0);
            check_valid(&t);
            for &m in t.members() {
                assert!(t.children_of(m).len() <= arity, "node {m} exceeds arity {arity}");
            }
            // depth shrinks as arity grows: ~log_k(p)
            let bound = (100f64.ln() / (arity as f64).ln()).ceil() as usize + 1;
            assert!(t.depth() <= bound, "arity {arity}: depth {} > {bound}", t.depth());
        }
    }

    #[test]
    fn kary_2_matches_binary() {
        let recv: Vec<usize> = (1..40).collect();
        let a = TreeBuilder::new(TreeScheme::Binary, 5).build(0, &recv, 9);
        let b = TreeBuilder::new(TreeScheme::Kary { arity: 2 }, 5).build(0, &recv, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn shifted_kary_is_deterministic_and_valid() {
        let b = TreeBuilder::new(TreeScheme::ShiftedKary { arity: 4 }, 11);
        let recv: Vec<usize> = (1..50).collect();
        let t1 = b.build(0, &recv, 3);
        let t2 = b.build(0, &recv, 3);
        assert_eq!(t1, t2);
        check_valid(&t1);
        for &m in t1.members() {
            assert!(t1.children_of(m).len() <= 4);
        }
    }

    #[test]
    fn empty_receivers_gives_singleton() {
        for scheme in [
            TreeScheme::Flat,
            TreeScheme::Binary,
            TreeScheme::ShiftedBinary,
            TreeScheme::RandomPerm,
        ] {
            let t = TreeBuilder::new(scheme, 1).build(8, &[], 0);
            assert!(t.is_empty());
            assert_eq!(t.root(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate receiver ranks")]
    fn duplicate_receivers_rejected() {
        TreeBuilder::new(TreeScheme::Binary, 0).build(0, &[1, 1, 2], 0);
    }

    #[test]
    fn rebuild_excluding_drops_dead_interior_rank() {
        let b = TreeBuilder::new(TreeScheme::ShiftedBinary, 42);
        let recv: Vec<usize> = (1..16).collect();
        let t = b.build(0, &recv, 7);
        check_valid(&t);
        // Kill an interior rank (one with children).
        let dead = *t.members().iter().find(|&&m| !t.children_of(m).is_empty() && m != 0).unwrap();
        let rebuilt = b.rebuild_excluding(&t, &[dead], 7);
        check_valid(&rebuilt);
        assert_eq!(rebuilt.root(), 0);
        assert_eq!(rebuilt.len(), t.len() - 1);
        assert!(!rebuilt.members().contains(&dead));
        // Deterministic: every survivor derives the same degraded tree.
        assert_eq!(b.rebuild_excluding(&t, &[dead], 7), rebuilt);
    }

    #[test]
    fn rebuild_excluding_promotes_new_root() {
        let b = TreeBuilder::new(TreeScheme::Binary, 0);
        let t = b.build(4, &[1, 2, 3, 5, 6], 0);
        let rebuilt = b.rebuild_excluding(&t, &[4], 0);
        check_valid(&rebuilt);
        assert_eq!(rebuilt.root(), 1, "lowest survivor promoted");
        assert_eq!(rebuilt.len(), 5);
        // Multiple dead ranks including the root.
        let rebuilt = b.rebuild_excluding(&t, &[4, 1, 6], 0);
        check_valid(&rebuilt);
        assert_eq!(rebuilt.root(), 2);
        assert_eq!(rebuilt.members(), &[2, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "no surviving member")]
    fn rebuild_excluding_needs_a_survivor() {
        let b = TreeBuilder::new(TreeScheme::Flat, 0);
        let t = b.build(0, &[1, 2], 0);
        b.rebuild_excluding(&t, &[0, 1, 2], 0);
    }
}
