//! Permutations of `0..n`.

/// A permutation of `0..n`, stored in "old index → new index" form.
///
/// Applying a permutation `p` to a matrix `A` yields `B = P A Pᵀ` with
/// `B[p.new_of(i), p.new_of(j)] = A[i, j]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    new_of_old: Vec<usize>,
    old_of_new: Vec<usize>,
}

impl Permutation {
    /// Identity permutation of size `n`.
    pub fn identity(n: usize) -> Self {
        let v: Vec<usize> = (0..n).collect();
        Self { new_of_old: v.clone(), old_of_new: v }
    }

    /// Builds from an "old → new" map, validating it is a bijection.
    pub fn from_new_of_old(new_of_old: Vec<usize>) -> Self {
        let n = new_of_old.len();
        let mut old_of_new = vec![usize::MAX; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            assert!(new < n, "permutation image {new} out of range");
            assert_eq!(old_of_new[new], usize::MAX, "permutation is not injective at {new}");
            old_of_new[new] = old;
        }
        Self { new_of_old, old_of_new }
    }

    /// Builds from an "new → old" map (i.e. the order in which old indices
    /// should be visited), validating it is a bijection.
    pub fn from_old_of_new(old_of_new: Vec<usize>) -> Self {
        let n = old_of_new.len();
        let mut new_of_old = vec![usize::MAX; n];
        for (new, &old) in old_of_new.iter().enumerate() {
            assert!(old < n, "permutation image {old} out of range");
            assert_eq!(new_of_old[old], usize::MAX, "permutation is not injective at {old}");
            new_of_old[old] = new;
        }
        Self { new_of_old, old_of_new }
    }

    /// Size of the permuted set.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// `true` when `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// New position of old index `i`.
    pub fn new_of(&self, old: usize) -> usize {
        self.new_of_old[old]
    }

    /// Old index occupying new position `i`.
    pub fn old_of(&self, new: usize) -> usize {
        self.old_of_new[new]
    }

    /// The full "old → new" map.
    pub fn new_of_old(&self) -> &[usize] {
        &self.new_of_old
    }

    /// The full "new → old" map.
    pub fn old_of_new(&self) -> &[usize] {
        &self.old_of_new
    }

    /// Inverse permutation.
    pub fn inverse(&self) -> Permutation {
        Permutation { new_of_old: self.old_of_new.clone(), old_of_new: self.new_of_old.clone() }
    }

    /// Composition: applies `self` first, then `after`
    /// (`result.new_of(i) = after.new_of(self.new_of(i))`).
    pub fn then(&self, after: &Permutation) -> Permutation {
        assert_eq!(self.len(), after.len());
        let new_of_old: Vec<usize> = self.new_of_old.iter().map(|&mid| after.new_of(mid)).collect();
        Permutation::from_new_of_old(new_of_old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_identity() {
        let p = Permutation::identity(4);
        for i in 0..4 {
            assert_eq!(p.new_of(i), i);
            assert_eq!(p.old_of(i), i);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let p = Permutation::from_new_of_old(vec![2, 0, 3, 1]);
        let inv = p.inverse();
        for i in 0..4 {
            assert_eq!(inv.new_of(p.new_of(i)), i);
            assert_eq!(p.old_of(p.new_of(i)), i);
        }
    }

    #[test]
    fn composition_order() {
        let p = Permutation::from_new_of_old(vec![1, 2, 0]);
        let q = Permutation::from_new_of_old(vec![2, 1, 0]);
        let pq = p.then(&q);
        for i in 0..3 {
            assert_eq!(pq.new_of(i), q.new_of(p.new_of(i)));
        }
    }

    #[test]
    fn from_old_of_new_matches() {
        // visit old indices in order [2, 0, 1]
        let p = Permutation::from_old_of_new(vec![2, 0, 1]);
        assert_eq!(p.new_of(2), 0);
        assert_eq!(p.new_of(0), 1);
        assert_eq!(p.new_of(1), 2);
    }

    #[test]
    #[should_panic(expected = "not injective")]
    fn rejects_non_bijection() {
        Permutation::from_new_of_old(vec![0, 0, 1]);
    }
}
