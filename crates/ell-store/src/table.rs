//! The shard table: a flat open-addressed map from string keys to
//! values, probed by the fixed-seed key hash the caller already routed
//! the key's shard by, so the table never hashes a key. An entry holds
//! that hash, the key's place in the table's key arena, and the value
//! inline: 56 bytes, under a cache line, for the flat store's slot. A
//! probe starts at the top bits of the hash (the shard took the low
//! ones) and walks linearly, so keys visited in ascending hash order
//! walk the table front to back. Keys are never removed.

use crate::core::Run;

/// Runs [`Table::fold`] resolves ahead of folding them.
const CHUNK: usize = 16;

/// One occupied slot.
#[derive(Debug)]
struct Entry<V> {
    hash: u64,
    /// The key is `keys[key_start..key_start + key_len]`.
    key_start: u32,
    key_len: u32,
    value: V,
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct Table<V> {
    /// None, or a power of two many, at most 7/8 of them occupied.
    slots: Vec<Option<Entry<V>>>,
    len: usize,
    /// Every key's bytes, back to back, in insertion order.
    keys: String,
}

impl<V> Default for Table<V> {
    fn default() -> Self {
        Table {
            slots: Vec::new(),
            len: 0,
            keys: String::new(),
        }
    }
}

impl<V> Table<V> {
    /// Bytes one slot occupies, empty or not.
    pub(crate) const SLOT_BYTES: usize = core::mem::size_of::<Option<Entry<V>>>();

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn key(&self, entry: &Entry<V>) -> &str {
        let start = entry.key_start as usize;
        &self.keys[start..start + entry.key_len as usize]
    }

    /// The slot holding `key`, or else the empty slot its probe ends on
    /// (any index while the table has no slots).
    fn probe(&self, hash: u64, key: &str) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match &self.slots[at] {
                None => return Err(at),
                Some(e) if e.hash == hash && self.key(e) == key => return Ok(at),
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    fn value(&mut self, at: usize) -> &mut V {
        &mut self.slots[at]
            .as_mut()
            .expect("resolved slots are occupied")
            .value
    }

    pub(crate) fn get(&self, hash: u64, key: &str) -> Option<&V> {
        let at = self.probe(hash, key).ok()?;
        self.slots[at].as_ref().map(|e| &e.value)
    }

    pub(crate) fn get_mut(&mut self, hash: u64, key: &str) -> Option<&mut V> {
        let at = self.probe(hash, key).ok()?;
        Some(self.value(at))
    }

    /// Grows the table so that one more key fits. A resize moves every
    /// entry, voiding the slot indices taken before it.
    fn reserve(&mut self) {
        let needed = self.len + 1;
        if needed * 8 <= self.slots.len() * 7 {
            return;
        }
        let slots = (needed * 8 / 7 + 1).next_power_of_two();
        let old = std::mem::replace(&mut self.slots, Vec::with_capacity(slots));
        self.slots.resize_with(slots, || None);
        for entry in old.into_iter().flatten() {
            // Moved keys are distinct: each probe ends on an empty slot.
            let (Ok(at) | Err(at)) = self.probe(entry.hash, self.key(&entry));
            self.slots[at] = Some(entry);
        }
    }

    /// The slot of `key`, holding `new()` first when the key was absent
    /// (the flag). Valid until the next insert, which may resize.
    fn slot(&mut self, hash: u64, key: &str, new: impl FnOnce() -> V) -> (usize, bool) {
        if let Ok(at) = self.probe(hash, key) {
            return (at, false);
        }
        self.reserve();
        let (Ok(at) | Err(at)) = self.probe(hash, key);
        let key_start = u32::try_from(self.keys.len()).expect("key arena exceeds 4 GiB");
        let key_len = u32::try_from(key.len()).expect("key exceeds 4 GiB");
        if self.keys.capacity() - self.keys.len() < key.len() {
            // Grow by an eighth, not twofold: the arena is never emptied,
            // so its spare room would be paid for good.
            self.keys.reserve_exact(key.len().max(self.keys.len() / 8));
        }
        self.keys.push_str(key);
        self.slots[at] = Some(Entry {
            hash,
            key_start,
            key_len,
            value: new(),
        });
        self.len += 1;
        (at, true)
    }

    /// `key`'s value, created with `new()` when the key was absent (the
    /// flag).
    pub(crate) fn entry(
        &mut self,
        hash: u64,
        key: &str,
        new: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        let (at, fresh) = self.slot(hash, key, new);
        (self.value(at), fresh)
    }

    /// Folds every run into its key's value with `merge`, creating
    /// absent keys with `new`. Runs go [`CHUNK`] at a time: the chunk's
    /// slots are resolved, then `touch` reads what `merge` will read
    /// first, so the chunk's cache misses overlap instead of queueing
    /// behind each merge. An insert that resizes the table moves every
    /// resolved slot, so the chunk then resolves again from its start.
    pub(crate) fn fold<T>(
        &mut self,
        runs: &[Run<'_, T>],
        mut new: impl FnMut() -> V,
        touch: impl Fn(&V) -> u64,
        mut merge: impl FnMut(&mut V, &Run<'_, T>),
    ) {
        let mut at = [0; CHUNK];
        for chunk in runs.chunks(CHUNK) {
            let mut i = 0;
            while let Some(run) = chunk.get(i) {
                let slots = self.slots.len();
                at[i] = self.slot(run.key_hash, run.key, &mut new).0;
                i = if self.slots.len() == slots { i + 1 } else { 0 };
            }
            let at = &at[..chunk.len()];
            std::hint::black_box(at.iter().fold(0, |t, &at| t ^ touch(self.value(at))));
            for (run, &at) in chunk.iter().zip(at) {
                merge(self.value(at), run);
            }
        }
    }

    /// Every `(key, value)`, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.slots.iter().flatten().map(|e| (self.key(e), &e.value))
    }

    /// Every value, mutably, in slot order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().flatten().map(|e| &mut e.value)
    }

    /// Heap bytes of the slots (empty ones included) and the key arena.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * Self::SLOT_BYTES + self.keys.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ell_hash::mix64;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn run<'l>(key_hash: u64, key: &'l str) -> Run<'l, ()> {
        Run {
            shard: 0,
            key_hash,
            key,
            tag: (),
            hashes: &[],
        }
    }

    fn sorted(table: &Table<u64>) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = table.iter().map(|(k, v)| (k.to_owned(), *v)).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn keys_sharing_a_hash_stay_apart() {
        let mut table = Table::default();
        assert!(table.entry(7, "left", || 1).1);
        assert!(table.entry(7, "right", || 2).1);
        assert!(
            !table.entry(7, "left", || 3).1,
            "a present key keeps its value"
        );
        assert_eq!(table.get(7, "left"), Some(&1));
        assert_eq!(table.get(7, "right"), Some(&2));
        assert_eq!(table.get(7, "other"), None);
        assert_eq!(table.get(8, "left"), None);
        *table.get_mut(7, "right").unwrap() += 10;
        let (left, fresh) = table.entry(7, "left", || 0);
        assert!(!fresh);
        *left += 100;
        // A fold over both keys and a third on the same hash.
        let runs = [run(7, "right"), run(7, "third"), run(7, "left")];
        table.fold(&runs, || 1_000, |v| *v, |v, run| *v += run.key.len() as u64);
        assert_eq!(table.len(), 3);
        let want = [("left", 105), ("right", 17), ("third", 1_005)];
        assert_eq!(sorted(&table), want.map(|(k, v)| (k.to_owned(), v)));
    }

    #[test]
    fn every_entry_survives_resizes() {
        // Four keys per hash, so the moved probe chains collide too.
        let keys: Vec<String> = (0..2_000).map(|i| format!("key-{i}")).collect();
        let hash = |i: usize| mix64(i as u64 / 4);
        let mut table = Table::default();
        let mut sizes = Vec::new();
        for (i, key) in keys[..1_000].iter().enumerate() {
            assert!(table.entry(hash(i), key, || i as u64).1);
            sizes.push(table.slots.len());
        }
        sizes.dedup();
        assert!(sizes.len() >= 6, "grew through {sizes:?}");
        // One fold of 1 000 present keys and 1 000 new ones resizes in
        // the middle of its chunks.
        let runs: Vec<Run<'_, ()>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| run(hash(i), k))
            .collect();
        table.fold(&runs, || 0, |v| *v, |v, run| *v += run.key.len() as u64);
        assert!(table.slots.len() > *sizes.last().unwrap());
        assert_eq!(table.len(), 2_000);
        for (i, key) in keys.iter().enumerate() {
            let old = if i < 1_000 { i as u64 } else { 0 };
            assert_eq!(table.get(hash(i), key), Some(&(old + key.len() as u64)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every operation answers as a `HashMap` does, with three keys
        /// (one of them empty) on each 64-bit hash.
        #[test]
        fn table_matches_a_hash_map(
            ops in prop::collection::vec((0u8..5, 0usize..48, any::<u64>()), 0..400),
        ) {
            let keys: Vec<String> = (0..68).map(|i| if i == 0 { String::new() } else { format!("k{i}") }).collect();
            let hash = |i: usize| mix64(i as u64 / 3);
            let mut table: Table<u64> = Table::default();
            let mut model: HashMap<String, u64> = HashMap::new();
            for (op, i, x) in ops {
                let (h, key) = (hash(i), &keys[i]);
                let absent = !model.contains_key(key);
                match op {
                    0 => {
                        prop_assert_eq!(table.entry(h, key, || x).1, absent);
                        model.entry(key.clone()).or_insert(x);
                    }
                    1 => {
                        let (value, fresh) = table.entry(h, key, || x);
                        prop_assert_eq!(fresh, absent);
                        *value = value.wrapping_add(1);
                        let value = model.entry(key.clone()).or_insert(x);
                        *value = value.wrapping_add(1);
                    }
                    2 => prop_assert_eq!(table.get(h, key), model.get(key)),
                    3 => {
                        if let Some(value) = table.get_mut(h, key) {
                            *value ^= x;
                        }
                        if let Some(value) = model.get_mut(key) {
                            *value ^= x;
                        }
                    }
                    _ => {
                        // A fold of this key and the next twenty.
                        let runs: Vec<Run<'_, ()>> = (i..i + 21).map(|j| run(hash(j), &keys[j])).collect();
                        table.fold(&runs, || 0, |v| *v, |v, _| *v = v.wrapping_add(x));
                        for key in &keys[i..i + 21] {
                            let value = model.entry(key.clone()).or_insert(0);
                            *value = value.wrapping_add(x);
                        }
                    }
                }
            }
            prop_assert_eq!(table.len(), model.len());
            let mut want: Vec<(String, u64)> = model.into_iter().collect();
            want.sort_unstable();
            prop_assert_eq!(sorted(&table), want);
        }
    }
}
