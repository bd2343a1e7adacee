//! Dense sets of small component indices, for wake scheduling.
//!
//! A tick loop keeps one [`BitSet`] per class of component (banks, ports,
//! network lanes) holding the indices that may have work. Visiting the
//! members in ascending order reproduces the order of a full `0..n`
//! scan over exactly the components that can act, and
//! [`next_cyclic`](BitSet::next_cyclic) reproduces a round-robin scan
//! that starts at an arbitrary pointer.
//!
//! A [`Cursor`] walks a set while the loop body removes the member it was
//! handed; [`next_from`](BitSet::next_from) walks one whose members may
//! also be added ahead of the walk.

/// A fixed-capacity set of indices, iterated in ascending order.
///
/// # Example
///
/// ```
/// use simkit::BitSet;
/// let mut s = BitSet::new(70);
/// s.insert(3);
/// s.insert(65);
/// assert_eq!(s.next_from(0), Some(3));
/// assert_eq!(s.next_from(4), Some(65));
/// assert_eq!(s.next_cyclic(66), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set able to hold `0..n`.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64).max(1)],
        }
    }

    /// The set holding every index of `0..n`.
    pub fn full(n: usize) -> Self {
        let mut s = BitSet::new(n);
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// Adds `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    /// Removes `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    /// `true` when `i` is a member.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i >> 6] & (1 << (i & 63)) != 0
    }

    /// `true` when the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every member.
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The smallest member `>= from`, if any. Walking a set with
    /// `i = next_from(i)? + 1` visits members in ascending order and
    /// tolerates inserts and removals along the way.
    #[inline]
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        let mut bits = *self.words.get(w)? & (!0u64 << (from & 63));
        loop {
            if bits != 0 {
                return Some(w << 6 | bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut c = self.cursor();
        std::iter::from_fn(move || c.next(self))
    }

    /// A walk over the members in ascending order that does not borrow
    /// the set between steps.
    #[inline]
    pub fn cursor(&self) -> Cursor {
        Cursor {
            w: 0,
            bits: self.words[0],
        }
    }

    /// The first member met scanning upwards from `from` and wrapping to
    /// 0: the grant of a round-robin arbiter whose pointer is `from`.
    #[inline]
    pub fn next_cyclic(&self, from: usize) -> Option<usize> {
        self.next_from(from).or_else(|| self.next_from(0))
    }
}

/// A detached walk over a [`BitSet`]: each 64-member word is read when
/// the walk reaches it, so the loop body may remove the member it was
/// just handed (or any earlier one) without disturbing the walk. Members
/// added to the word being walked are not visited.
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    w: usize,
    bits: u64,
}

impl Cursor {
    /// The next member of `set`, which must be the set the cursor came
    /// from.
    #[inline]
    pub fn next(&mut self, set: &BitSet) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let i = self.w << 6 | self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(i);
            }
            self.w += 1;
            self.bits = *set.words.get(self.w)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_walk_matches_a_filtered_scan() {
        let members = [0usize, 5, 63, 64, 100, 127];
        let mut s = BitSet::new(128);
        for &m in &members {
            s.insert(m);
        }
        let mut seen = Vec::new();
        let mut i = 0;
        while let Some(m) = s.next_from(i) {
            seen.push(m);
            i = m + 1;
        }
        assert_eq!(seen, members);
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
        let mut c = s.cursor();
        let mut kept = Vec::new();
        while let Some(m) = c.next(&s) {
            s.remove(m);
            kept.push(m);
        }
        assert_eq!(kept, members);
        assert!(s.is_empty());
        for &m in &members {
            s.insert(m);
        }
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.next_from(64), Some(100));
        assert_eq!(s.next_from(128), None);
    }

    #[test]
    fn cyclic_pick_matches_a_round_robin_scan() {
        let n = 16;
        for mask in [0u32, 1, 0x8001, 0x0f0, 0xffff] {
            let mut s = BitSet::new(n);
            for i in 0..n {
                if mask >> i & 1 != 0 {
                    s.insert(i);
                }
            }
            for start in 0..n {
                let scan = (0..n)
                    .map(|k| (start + k) % n)
                    .find(|&i| mask >> i & 1 != 0);
                assert_eq!(s.next_cyclic(start), scan, "mask {mask:#x} start {start}");
            }
        }
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(65);
        assert!(s.contains(0) && s.contains(64));
        assert_eq!(s.next_from(65), None);
        s.clear();
        assert!(s.is_empty());
    }
}
