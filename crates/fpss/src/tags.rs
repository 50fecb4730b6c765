//! The DATA3\* identity-tag set (§4.2): which neighbor(s) produced a
//! pricing entry, with the union taken on pricing ties.
//!
//! Every pricing entry and every announced pricing row carries one, and
//! the pricing recompute builds one per priced transit, so the set is
//! stored inline up to five ids and spills to the heap only past that.
//! Counted over the entries honest runs compute, about 96% carry a
//! single tag on a random-cost n=64 network, and about 95% carry at most
//! four on a `Uniform(1)` n=256 scale-free network, where ties are
//! common. The set behaves like a `BTreeSet<NodeId>`:
//! iteration is in ascending id order, equality is set equality, and
//! `len` is the number of distinct ids (the wire size counts 4 bytes per
//! tag).

use specfaith_core::id::NodeId;
use std::fmt;

/// Tag sets up to this size are stored without a heap allocation. Five
/// ids and a length fit in the 24 bytes a `Vec` takes; a sixth would
/// grow every set.
const INLINE_TAGS: usize = 5;

/// A sorted set of node ids, inline up to five ids.
#[derive(Clone)]
pub struct TagSet(Repr);

#[derive(Clone)]
enum Repr {
    /// `ids[..len]`, ascending.
    Inline { len: u8, ids: [NodeId; INLINE_TAGS] },
    /// More than `INLINE_TAGS` ids, ascending. A boxed slice rather
    /// than a `Vec` keeps the whole set the size of a `Vec`; spilled sets
    /// are rare, so each insert into one simply reallocates.
    Spilled(Box<[NodeId]>),
}

impl TagSet {
    /// An empty set.
    pub const fn new() -> Self {
        TagSet(Repr::Inline {
            len: 0,
            ids: [NodeId::new(0); INLINE_TAGS],
        })
    }

    /// The ids in ascending order.
    fn as_slice(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Spilled(ids) => ids,
        }
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeId> {
        self.as_slice().iter()
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Adds `id`, returning whether it was new.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let at = match self.as_slice().binary_search(&id) {
            Ok(_) => return false,
            Err(at) => at,
        };
        match &mut self.0 {
            Repr::Inline { len, ids } if usize::from(*len) < INLINE_TAGS => {
                ids.copy_within(at..usize::from(*len), at + 1);
                ids[at] = id;
                *len += 1;
            }
            Repr::Inline { ids, .. } => {
                let mut spilled = Vec::with_capacity(INLINE_TAGS + 1);
                spilled.extend_from_slice(&ids[..at]);
                spilled.push(id);
                spilled.extend_from_slice(&ids[at..]);
                self.0 = Repr::Spilled(spilled.into_boxed_slice());
            }
            Repr::Spilled(ids) => {
                let mut grown = std::mem::take(ids).into_vec();
                grown.insert(at, id);
                *ids = grown.into_boxed_slice();
            }
        }
        true
    }

    /// Empties the set (and frees a spilled allocation).
    pub fn clear(&mut self) {
        *self = TagSet::new();
    }
}

impl Default for TagSet {
    fn default() -> Self {
        TagSet::new()
    }
}

impl PartialEq for TagSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TagSet {}

impl fmt::Debug for TagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for TagSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = TagSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl<'a> IntoIterator for &'a TagSet {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn inline_sets_need_no_more_room_than_a_vec() {
        assert_eq!(
            std::mem::size_of::<TagSet>(),
            std::mem::size_of::<Vec<NodeId>>()
        );
    }

    #[test]
    fn spills_past_the_inline_capacity_and_back() {
        let mut set = TagSet::new();
        for i in (0..=INLINE_TAGS as u32).rev() {
            assert!(set.insert(n(2 * i)));
        }
        assert!(matches!(set.0, Repr::Spilled(_)));
        assert!(!set.insert(n(4)), "duplicate");
        assert_eq!(set.len(), INLINE_TAGS + 1);
        assert!(set.iter().eq(&[n(0), n(2), n(4), n(6), n(8), n(10)]));
        set.clear();
        assert!(matches!(set.0, Repr::Inline { len: 0, .. }));
        assert_eq!(set, TagSet::new());
        assert_eq!(
            format!("{:?}", [n(3), n(1)].into_iter().collect::<TagSet>()),
            "{n1, n3}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every operation agrees with `BTreeSet<NodeId>`, on ids drawn
        /// from a small range so duplicates, ties and sets past the
        /// inline capacity all occur. Op 0 clears; the others insert.
        #[test]
        fn tag_set_matches_btreeset(
            ops in proptest::collection::vec((0u32..12, 0u32..10), 0..40),
            other in proptest::collection::vec(0u32..10, 0..9),
        ) {
            let mut set = TagSet::new();
            let mut model: BTreeSet<NodeId> = BTreeSet::new();
            for &(op, id) in &ops {
                if op == 0 {
                    set.clear();
                    model.clear();
                } else {
                    prop_assert_eq!(set.insert(n(id)), model.insert(n(id)));
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                prop_assert!(set.iter().eq(model.iter()));
            }
            let other_set: TagSet = other.iter().map(|&i| n(i)).collect();
            let other_model: BTreeSet<NodeId> = other.iter().map(|&i| n(i)).collect();
            prop_assert!(other_set.iter().eq(other_model.iter()));
            prop_assert_eq!(set == other_set, model == other_model);
            prop_assert_eq!(set.clone(), set);
        }
    }
}
