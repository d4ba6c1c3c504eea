//! The materialized communication tree.

/// A rooted communication tree over an arbitrary set of participant ranks.
///
/// For a broadcast, data flows root → children; for a reduction the same
/// topology is used with data flowing children → root (each interior node
/// combines its children's contributions with its own before forwarding).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectiveTree {
    root: usize,
    /// Participant ranks; `members[0] == root`.
    members: Vec<usize>,
    /// Parent of `members[i]` as an index into `members`
    /// (`usize::MAX` for the root).
    parent: Vec<usize>,
    /// Children of `members[i]` as indices into `members`.
    children: Vec<Vec<usize>>,
}

impl CollectiveTree {
    pub(crate) fn new(root: usize, members: Vec<usize>, parent: Vec<usize>) -> Self {
        debug_assert_eq!(members[0], root);
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
        for (i, &p) in parent.iter().enumerate() {
            if p != usize::MAX {
                children[p].push(i);
            }
        }
        Self { root, members, parent, children }
    }

    /// The root rank.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Number of participants (root included).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the tree has a single participant.
    pub fn is_empty(&self) -> bool {
        self.members.len() <= 1
    }

    /// All participant ranks (root first).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Children of `members()[i]`, as indices into [`Self::members`] —
    /// the allocation- and search-free way to walk the tree.
    pub fn children_at(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Position of `rank` among the members, if it participates.
    fn index_of(&self, rank: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == rank)
    }

    /// Children ranks of `rank` in the tree. Empty for leaves and for
    /// non-participants.
    pub fn children_of(&self, rank: usize) -> Vec<usize> {
        match self.index_of(rank) {
            Some(i) => self.children[i].iter().map(|&c| self.members[c]).collect(),
            None => Vec::new(),
        }
    }

    /// Parent rank of `rank`, or `None` for the root / non-participants.
    pub fn parent_of(&self, rank: usize) -> Option<usize> {
        let i = self.index_of(rank)?;
        let p = self.parent[i];
        (p != usize::MAX).then(|| self.members[p])
    }

    /// All `(sender, receiver)` edges in broadcast direction.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.members.len().saturating_sub(1));
        for (i, &p) in self.parent.iter().enumerate() {
            if p != usize::MAX {
                out.push((self.members[p], self.members[i]));
            }
        }
        out
    }

    /// Depth of `rank` below the root (root is 0), or `None` for
    /// non-participants.
    pub fn depth_of(&self, rank: usize) -> Option<usize> {
        let mut i = self.index_of(rank)?;
        let mut d = 0;
        while self.parent[i] != usize::MAX {
            i = self.parent[i];
            d += 1;
        }
        Some(d)
    }

    /// Height of the tree (edges on the longest root-leaf path).
    pub fn depth(&self) -> usize {
        fn go(t: &CollectiveTree, i: usize) -> usize {
            t.children[i].iter().map(|&c| 1 + go(t, c)).max().unwrap_or(0)
        }
        go(self, 0)
    }

    /// Number of children of each member, keyed by rank — the per-rank
    /// message count of a broadcast over this tree.
    pub fn out_degrees(&self) -> Vec<(usize, usize)> {
        self.members.iter().zip(&self.children).map(|(&m, c)| (m, c.len())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> CollectiveTree {
        // 5 -> 7 -> 9
        CollectiveTree::new(5, vec![5, 7, 9], vec![usize::MAX, 0, 1])
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
    fn singleton_tree() {
        let t = CollectiveTree::new(3, vec![3], vec![usize::MAX]);
        assert!(t.is_empty());
        assert_eq!(t.depth(), 0);
        assert!(t.edges().is_empty());
    }
}
