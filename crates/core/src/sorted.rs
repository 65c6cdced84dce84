//! A small map kept as a `Vec` ascending by key.
//!
//! A rank's `SEQ[]` table and its vcomm member lists hold a handful of
//! entries each, and the checkpoint image writes both ascending by key.
//! Kept in that order, a capture is encoded and a decoded one filled
//! without hashing or sorting, and a lookup is a binary search.

/// A map from `K` to `V`, its entries ascending by key. Two maps with the
/// same entries are equal however they were filled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> SortedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        SortedMap {
            entries: Vec::with_capacity(n),
        }
    }

    fn find(&self, k: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(x, _)| x.cmp(k))
    }

    /// The value of `k`, if held.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.find(k).ok().map(|at| &self.entries[at].1)
    }

    /// The value of `k`, mutably, if held.
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.find(k).ok().map(|at| &mut self.entries[at].1)
    }

    /// Whether `k` is held.
    pub fn contains_key(&self, k: &K) -> bool {
        self.find(k).is_ok()
    }

    /// Sets the value of `k`, returning the one it replaces. A key past
    /// every held one — how a decoder fills the map — is appended.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.entries.last() {
            Some((last, _)) if *last >= k => match self.find(&k) {
                Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, v)),
                Err(at) => {
                    self.entries.insert(at, (k, v));
                    None
                }
            },
            _ => {
                self.entries.push((k, v));
                None
            }
        }
    }

    /// Iterates `(key, value)`, ascending by key.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The values, ascending by key.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The values, mutably, ascending by key.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Sorts once; of two entries for one key the later wins, as inserting
/// them in turn would have it.
impl<K: Ord + Copy, V> FromIterator<(K, V)> for SortedMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(it: I) -> Self {
        let mut entries: Vec<_> = it.into_iter().collect();
        entries.sort_by_key(|(k, _)| *k);
        // `dedup_by` drops the later of two neighbours; swapping first
        // keeps its value instead.
        entries.dedup_by(|later, kept| {
            let dup = later.0 == kept.0;
            if dup {
                std::mem::swap(later, kept);
            }
            dup
        });
        SortedMap { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kept ascending by key whatever the insertion order, so two maps of
    /// the same entries are equal however they were filled; an insert on
    /// a held key replaces its value.
    #[test]
    fn entries_iterate_ascending_and_compare_by_content() {
        let mut inserted = SortedMap::new();
        for k in [6u64, 0, 3, 9, 1] {
            assert_eq!(inserted.insert(k, k * 10), None);
        }
        let collected: SortedMap<u64, u64> = [0u64, 1, 3, 6, 9]
            .into_iter()
            .map(|k| (k, k * 10))
            .collect();
        let keys: Vec<u64> = inserted.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [0, 1, 3, 6, 9]);
        assert_eq!(inserted, collected);
        assert!(inserted.contains_key(&6) && !inserted.contains_key(&2));
        assert_eq!(inserted.get(&9), Some(&90));
        assert_eq!(inserted.insert(3, 7), Some(30));
        *inserted.get_mut(&6).unwrap() += 1;
        let values: Vec<u64> = inserted.values().copied().collect();
        assert_eq!(values, [0, 10, 7, 61, 90]);
        assert_eq!(inserted.len(), 5);
        assert_ne!(inserted, collected);
        // Collecting keeps the later of two entries for one key.
        let twice: SortedMap<u64, u64> = [(2, 0), (1, 1), (2, 5)].into_iter().collect();
        assert_eq!(twice.iter().collect::<Vec<_>>(), [(&1, &1), (&2, &5)]);
    }
}
