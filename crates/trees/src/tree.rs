//! The materialized communication tree.

/// A rooted communication tree over an arbitrary set of participant ranks.
///
/// For a broadcast, data flows root → children; for a reduction the same
/// topology is used with data flowing children → root (each interior node
/// combines its children's contributions with its own before forwarding).
///
/// The whole tree is one allocation: a plan holds a tree per collective,
/// so building and dropping it costs one allocator call, not one per
/// interior member.
#[derive(Clone, PartialEq, Eq)]
pub struct CollectiveTree {
    /// For `n` members, four arrays back to back: the member ranks (`n`,
    /// root first), each member's parent as an index into them (`n`,
    /// [`NO_PARENT`] for the root), the offsets of each member's children
    /// (`n + 1`), and the children as member indices (`n − 1`, ascending
    /// per member).
    data: Box<[usize]>,
}

/// The root's parent index.
const NO_PARENT: usize = usize::MAX;

impl CollectiveTree {
    /// Builds the tree whose members are `root` followed by `receivers`:
    /// `set_parents` writes every receiver's parent index into the parent
    /// array, whose root entry is [`NO_PARENT`]; the children follow in
    /// ascending member order.
    pub(crate) fn with_parents(
        root: usize,
        receivers: &[usize],
        set_parents: impl FnOnce(&mut [usize]),
    ) -> Self {
        let n = receivers.len() + 1;
        let mut data = vec![0usize; 4 * n].into_boxed_slice();
        let (members, rest) = data.split_at_mut(n);
        members[0] = root;
        members[1..].copy_from_slice(receivers);
        let (parent, rest) = rest.split_at_mut(n);
        parent[0] = NO_PARENT;
        set_parents(parent);
        debug_assert!(parent[1..].iter().all(|&p| p < n), "every receiver needs a parent");
        // Counting sort of the members by parent: count, prefix-sum, place
        // (which leaves each offset at the next member's start), shift back.
        let (ptr, children) = rest.split_at_mut(n + 1);
        for &p in &parent[1..] {
            ptr[p + 1] += 1;
        }
        for i in 0..n {
            ptr[i + 1] += ptr[i];
        }
        for (i, &p) in parent.iter().enumerate().skip(1) {
            children[ptr[p]] = i;
            ptr[p] += 1;
        }
        ptr.copy_within(0..n - 1, 1);
        ptr[0] = 0;
        Self { data }
    }

    fn parent(&self) -> &[usize] {
        let n = self.len();
        &self.data[n..2 * n]
    }

    /// The root rank.
    pub fn root(&self) -> usize {
        self.data[0]
    }

    /// Number of participants (root included).
    pub fn len(&self) -> usize {
        self.data.len() / 4
    }

    /// `true` when the tree has a single participant.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// All participant ranks (root first).
    pub fn members(&self) -> &[usize] {
        &self.data[..self.len()]
    }

    /// Children of `members()[i]`, as indices into [`Self::members`] —
    /// the allocation- and search-free way to walk the tree.
    pub fn children_at(&self, i: usize) -> &[usize] {
        let n = self.len();
        let ptr = &self.data[2 * n..3 * n + 1];
        &self.data[3 * n + 1 + ptr[i]..3 * n + 1 + ptr[i + 1]]
    }

    /// Position of `rank` among the members, if it participates.
    fn index_of(&self, rank: usize) -> Option<usize> {
        self.members().iter().position(|&m| m == rank)
    }

    /// Children ranks of `rank` in the tree. Empty for leaves and for
    /// non-participants.
    pub fn children_of(&self, rank: usize) -> Vec<usize> {
        match self.index_of(rank) {
            Some(i) => self.children_at(i).iter().map(|&c| self.members()[c]).collect(),
            None => Vec::new(),
        }
    }

    /// Parent rank of `rank`, or `None` for the root / non-participants.
    pub fn parent_of(&self, rank: usize) -> Option<usize> {
        let i = self.index_of(rank)?;
        let p = self.parent()[i];
        (p != NO_PARENT).then(|| self.members()[p])
    }

    /// All `(sender, receiver)` edges in broadcast direction.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let members = self.members();
        self.parent().iter().zip(members).skip(1).map(|(&p, &m)| (members[p], m)).collect()
    }

    /// Depth of `rank` below the root (root is 0), or `None` for
    /// non-participants.
    pub fn depth_of(&self, rank: usize) -> Option<usize> {
        let mut i = self.index_of(rank)?;
        let mut d = 0;
        while self.parent()[i] != NO_PARENT {
            i = self.parent()[i];
            d += 1;
        }
        Some(d)
    }

    /// Height of the tree (edges on the longest root-leaf path).
    pub fn depth(&self) -> usize {
        fn go(t: &CollectiveTree, i: usize) -> usize {
            t.children_at(i).iter().map(|&c| 1 + go(t, c)).max().unwrap_or(0)
        }
        go(self, 0)
    }

    /// Number of children of each member, keyed by rank — the per-rank
    /// message count of a broadcast over this tree.
    pub fn out_degrees(&self) -> Vec<(usize, usize)> {
        self.members().iter().enumerate().map(|(i, &m)| (m, self.children_at(i).len())).collect()
    }
}

impl std::fmt::Debug for CollectiveTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectiveTree")
            .field("members", &self.members())
            .field("parent", &self.parent())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> CollectiveTree {
        // 5 -> 7 -> 9
        CollectiveTree::with_parents(5, &[7, 9], |p| p[1..].copy_from_slice(&[0, 1]))
    }

    #[test]
    fn navigation() {
        let t = chain();
        assert_eq!(t.root(), 5);
        assert_eq!(t.children_of(5), vec![7]);
        assert_eq!(t.children_of(7), vec![9]);
        assert!(t.children_of(9).is_empty());
        assert_eq!(t.parent_of(9), Some(7));
        assert_eq!(t.parent_of(5), None);
        assert_eq!(t.parent_of(1234), None);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.depth_of(5), Some(0));
        assert_eq!(t.depth_of(7), Some(1));
        assert_eq!(t.depth_of(9), Some(2));
        assert_eq!(t.depth_of(1234), None);
        assert_eq!(t.edges(), vec![(5, 7), (7, 9)]);
    }

    #[test]
    fn children_follow_the_parents_in_member_order() {
        // The compact layout against the per-member lists it replaced:
        // member `i` is pushed onto its parent's list, `i` ascending.
        use crate::{TreeBuilder, TreeScheme};
        for scheme in [TreeScheme::Flat, TreeScheme::ShiftedBinary, TreeScheme::RandomPerm] {
            for n in 0..40 {
                let receivers: Vec<usize> = (1..=n).map(|r| 3 * r).collect();
                let t = TreeBuilder::new(scheme, 11).build(0, &receivers, n as u64);
                let mut lists = vec![Vec::new(); t.len()];
                for (i, &p) in t.parent().iter().enumerate().skip(1) {
                    lists[p].push(i);
                }
                for (i, list) in lists.iter().enumerate() {
                    assert_eq!(t.children_at(i), list.as_slice(), "{scheme} n={n} member {i}");
                }
                assert_eq!(t.edges().len(), n, "{scheme} n={n}");
            }
        }
    }

    #[test]
    fn singleton_tree() {
        let t = CollectiveTree::with_parents(3, &[], |_| {});
        assert!(t.is_empty());
        assert_eq!(t.depth(), 0);
        assert!(t.edges().is_empty());
    }
}
