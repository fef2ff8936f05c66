//! [`IdTable`]: per-id state of the happens-before machines and the race
//! detectors, indexed by the runtime's dense ids instead of hashed.

use std::collections::BTreeMap;

/// Ids below this bound index a vector; larger ones go to a map. The
/// runtime numbers threads and variables densely from 0 (threads are
/// bounded by `max_threads`, variables by the program's table), so a live
/// run never leaves the vector. Loading a trace rejects a larger thread id
/// (this is its bound), so only a variable or resource id read from a file
/// can be larger, and it cannot make a table allocate more than this many
/// slots.
const DENSE_IDS: u32 = mtt_trace::THREAD_ID_BOUND;

/// A map from `u32` ids to values, dense for the ids a run hands out.
/// Iteration is in id order, and an id that was never inserted has no
/// entry.
#[derive(Clone, Debug)]
pub struct IdTable<T> {
    dense: Vec<Option<T>>,
    sparse: BTreeMap<u32, T>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable {
            dense: Vec::new(),
            sparse: BTreeMap::new(),
        }
    }
}

impl<T> IdTable<T> {
    /// The value of `id`, if one was inserted.
    pub fn get(&self, id: u32) -> Option<&T> {
        if id < DENSE_IDS {
            self.dense.get(id as usize)?.as_ref()
        } else {
            self.sparse.get(&id)
        }
    }

    /// The value of `id`, inserting `init()` first if there is none.
    pub fn get_or_insert_with(&mut self, id: u32, init: impl FnOnce() -> T) -> &mut T {
        if id >= DENSE_IDS {
            return self.sparse.entry(id).or_insert_with(init);
        }
        let i = id as usize;
        if self.dense.len() <= i {
            self.dense.resize_with(i + 1, || None);
        }
        self.dense[i].get_or_insert_with(init)
    }

    /// Remove and return the value of `id`.
    pub fn take(&mut self, id: u32) -> Option<T> {
        if id < DENSE_IDS {
            self.dense.get_mut(id as usize)?.take()
        } else {
            self.sparse.remove(&id)
        }
    }

    /// Every entry, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((i as u32, v.as_ref()?)));
        dense.chain(self.sparse.iter().map(|(&id, v)| (id, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_sparse_ids_share_one_ordered_table() {
        let mut t = IdTable::default();
        *t.get_or_insert_with(u32::MAX, || 0) += 4;
        *t.get_or_insert_with(3, || 0) += 1;
        *t.get_or_insert_with(DENSE_IDS, || 0) += 3;
        *t.get_or_insert_with(0, || 0) += 2;
        // A gap in the dense ids is no entry, and a huge id allocates
        // nothing in the vector.
        assert_eq!(t.get(1), None);
        assert_eq!(t.dense.len(), 4);
        let entries: Vec<_> = t.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(entries, [(0, 2), (3, 1), (DENSE_IDS, 3), (u32::MAX, 4)]);
        assert_eq!(t.take(3), Some(1));
        assert_eq!(t.take(3), None);
        assert_eq!(t.take(u32::MAX), Some(4));
        assert_eq!(t.get(u32::MAX), None);
        assert_eq!(t.iter().count(), 2);
    }
}
