//! Dense, id-indexed arena maps — the hash-free entity tables behind
//! the audit indexes.
//!
//! The newtype ids ([`crate::ids`]) are small integers handed out by
//! [`crate::ids::IdGen`] counters, so in every trace the simulator or a
//! real platform produces they are *dense*: worker 0, worker 1, …. A
//! `BTreeMap<WorkerId, _>` (or a hash map) pays a pointer chase or a
//! hash per probe for what is morally an array index. [`DenseIdMap`]
//! stores values in a `Vec` indexed directly by the raw id, turning the
//! per-event probes of the audit hot paths (the A1/A2 pair scans, the
//! live monitor's per-event folds) into one bounds check and a branch.
//!
//! Untrusted traces can legally carry *sparse* ids (a platform that
//! shards its id space, a tampered file). A plain `Vec` would let one
//! record with id `4_000_000_000` allocate gigabytes, so the arena
//! bounds its dense region: a key may only grow the `Vec` while the new
//! size stays within `16 × (occupied + 64)` slots; keys beyond that
//! land in a `BTreeMap` spill. Dense traces never touch the spill;
//! hostile ones degrade to tree probes instead of exhausting memory.
//!
//! Iteration is always in ascending id order (the dense region first,
//! then the spill, whose keys are invariantly larger), so encoders and
//! reports that used to iterate a `BTreeMap` stay byte-identical.
//!
//! [`DenseIdSet`] is the set counterpart for the same dense ids: one bit
//! per id in a `Vec<u64>`, so membership, insertion, union and
//! difference are word operations. It has no spill — its memory is one
//! bit per id up to the largest one inserted — so it is meant for ids a
//! market hands out itself (the simulator's task and worker ids), not
//! for ids read from an untrusted file.
//!
//! ```
//! use faircrowd_model::arena::DenseIdMap;
//! use faircrowd_model::ids::WorkerId;
//!
//! let mut earnings: DenseIdMap<WorkerId, i64> = DenseIdMap::new();
//! earnings.insert(WorkerId::new(3), 250);
//! *earnings.entry(WorkerId::new(3)) += 50;
//! assert_eq!(earnings.get(WorkerId::new(3)), Some(&300));
//! assert_eq!(earnings.get(WorkerId::new(7)), None);
//! ```

use std::collections::BTreeMap;
use std::marker::PhantomData;

use crate::ids::{CampaignId, RequesterId, SkillId, SubmissionId, TaskId, WorkerId};

/// A key type backed by a raw `u32` — every newtype id in
/// [`crate::ids`] qualifies. The two conversions must be inverses.
pub trait ArenaKey: Copy + Ord + std::fmt::Debug {
    /// The raw integer behind the id.
    fn raw_index(self) -> u32;
    /// Rebuild the id from its raw integer.
    fn from_raw_index(raw: u32) -> Self;
}

macro_rules! arena_key {
    ($($id:ty),* $(,)?) => {$(
        impl ArenaKey for $id {
            fn raw_index(self) -> u32 {
                self.raw()
            }
            fn from_raw_index(raw: u32) -> Self {
                <$id>::new(raw)
            }
        }
    )*};
}

arena_key!(
    WorkerId,
    TaskId,
    RequesterId,
    SkillId,
    CampaignId,
    SubmissionId
);

/// How far the dense region may grow relative to its occupancy: a new
/// key may extend the `Vec` while `key < 16 × (len + 64)`. Dense id
/// spaces (the only ones honest traces produce) always pass; a hostile
/// outlier id goes to the spill instead of allocating the gap.
fn dense_bound(occupied: usize) -> usize {
    16 * (occupied + 64)
}

/// A map from a dense integer id to `V`: `Vec`-backed for the dense id
/// region, with a `BTreeMap` spill for outlier keys. See the module
/// docs for the growth rule and the ordering guarantee.
#[derive(Clone)]
pub struct DenseIdMap<K, V> {
    slots: Vec<Option<V>>,
    /// Invariant: every spill key is `>= slots.len()`, so chaining the
    /// dense region and the spill iterates in ascending key order.
    spill: BTreeMap<u32, V>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: ArenaKey, V> DenseIdMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        DenseIdMap {
            slots: Vec::new(),
            spill: BTreeMap::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `key`, if present — one bounds check and a branch
    /// for dense keys.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        let raw = key.raw_index() as usize;
        match self.slots.get(raw) {
            Some(slot) => slot.as_ref(),
            None => self.spill.get(&key.raw_index()),
        }
    }

    /// Mutable access to the value at `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let raw = key.raw_index() as usize;
        if raw < self.slots.len() {
            self.slots[raw].as_mut()
        } else {
            self.spill.get_mut(&key.raw_index())
        }
    }

    /// Is `key` present?
    pub fn contains_key(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Insert `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let raw = key.raw_index() as usize;
        if raw < self.slots.len() {
            let old = self.slots[raw].replace(value);
            if old.is_none() {
                self.len += 1;
            }
            return old;
        }
        if raw < dense_bound(self.len) {
            self.grow_to(raw + 1);
            debug_assert!(self.slots[raw].is_none());
            self.slots[raw] = Some(value);
            self.len += 1;
            return None;
        }
        let old = self.spill.insert(key.raw_index(), value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `key`, inserting `f()` first when absent — the
    /// arena's `entry(...).or_insert_with(...)`.
    pub fn get_or_insert_with(&mut self, key: K, f: impl FnOnce() -> V) -> &mut V {
        let raw = key.raw_index() as usize;
        if raw >= self.slots.len() {
            if raw < dense_bound(self.len) {
                self.grow_to(raw + 1);
            } else {
                let len = &mut self.len;
                return self.spill.entry(key.raw_index()).or_insert_with(|| {
                    *len += 1;
                    f()
                });
            }
        }
        let slot = &mut self.slots[raw];
        if slot.is_none() {
            *slot = Some(f());
            self.len += 1;
        }
        slot.as_mut().expect("slot was just filled")
    }

    /// The value at `key`, defaulting it in first when absent.
    pub fn entry(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        self.get_or_insert_with(key, V::default)
    }

    /// Grow the dense region to `new_len` slots, absorbing any spill
    /// keys the region now covers (restores the ordering invariant).
    fn grow_to(&mut self, new_len: usize) {
        if new_len <= self.slots.len() {
            return;
        }
        self.slots.resize_with(new_len, || None);
        // `BTreeMap` has no drain-range; split at the boundary and put
        // the still-spilled tail back.
        let still_spilled = self.spill.split_off(&(new_len as u32));
        for (raw, value) in std::mem::replace(&mut self.spill, still_spilled) {
            self.slots[raw as usize] = Some(value);
        }
    }

    /// Iterate `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(raw, slot)| Some((K::from_raw_index(raw as u32), slot.as_ref()?)))
            .chain(
                self.spill
                    .iter()
                    .map(|(&raw, v)| (K::from_raw_index(raw), v)),
            )
    }

    /// Iterate the keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate the values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// The whole map as an owned `BTreeMap` (for callers that promise a
    /// tree-map view, e.g. [`crate::trace::Trace::visibility_map`]).
    pub fn to_btree_map(&self) -> BTreeMap<K, V>
    where
        V: Clone,
    {
        self.iter().map(|(k, v)| (k, v.clone())).collect()
    }
}

impl<K: ArenaKey, V> Default for DenseIdMap<K, V> {
    fn default() -> Self {
        DenseIdMap::new()
    }
}

impl<K: ArenaKey, V: PartialEq> PartialEq for DenseIdMap<K, V> {
    /// Content equality: same keys, same values — how the backing is
    /// split between dense region and spill is not observable.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .zip(other.iter())
                .all(|((ka, va), (kb, vb))| ka == kb && va == vb)
    }
}

impl<K: ArenaKey, V: std::fmt::Debug> std::fmt::Debug for DenseIdMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: ArenaKey, V> FromIterator<(K, V)> for DenseIdMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = DenseIdMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A set of dense ids as a bitset: bit `k % 64` of word `k / 64` is set
/// when the id with raw index `k` is present. Iteration is ascending;
/// equality is by content, so trailing zero words never matter. See the
/// module docs for when a bitset fits.
#[derive(Clone)]
pub struct DenseIdSet<K> {
    words: Vec<u64>,
    _key: PhantomData<K>,
}

/// The raw indices of the set bits of `word`, ascending, offset by the
/// word's position `base` (in words).
fn word_bits(base: usize, mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros();
            word &= word - 1;
            (base * 64) as u32 + bit
        })
    })
}

impl<K: ArenaKey> DenseIdSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        DenseIdSet {
            words: Vec::new(),
            _key: PhantomData,
        }
    }

    /// Number of ids present.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Is `key` present? Ids past the last word are absent.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        let raw = key.raw_index() as usize;
        self.words
            .get(raw / 64)
            .is_some_and(|w| w & (1 << (raw % 64)) != 0)
    }

    /// Add `key`; `true` when it was not present yet.
    #[inline]
    pub fn insert(&mut self, key: K) -> bool {
        let raw = key.raw_index() as usize;
        let (word, bit) = (raw / 64, 1u64 << (raw % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// Add every id of `other` (one OR per word).
    pub fn union_with(&mut self, other: &Self) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            *mine |= theirs;
        }
    }

    /// The ids of `self` that are not in `other`, ascending — walked
    /// word by word as `self & !other`.
    pub fn difference<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = K> + 'a {
        self.words.iter().enumerate().flat_map(move |(i, &w)| {
            word_bits(i, w & !other.words.get(i).copied().unwrap_or(0)).map(K::from_raw_index)
        })
    }

    /// Iterate the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| word_bits(i, w).map(K::from_raw_index))
    }
}

impl<K: ArenaKey> Default for DenseIdSet<K> {
    fn default() -> Self {
        DenseIdSet::new()
    }
}

impl<K> PartialEq for DenseIdSet<K> {
    /// Content equality: words past the shorter vector must be zero.
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl<K: ArenaKey> std::fmt::Debug for DenseIdSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<K: ArenaKey> Extend<K> for DenseIdSet<K> {
    fn extend<I: IntoIterator<Item = K>>(&mut self, iter: I) {
        for k in iter {
            self.insert(k);
        }
    }
}

impl<K: ArenaKey> FromIterator<K> for DenseIdSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut set = DenseIdSet::new();
        set.extend(iter);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(raw: u32) -> WorkerId {
        WorkerId::new(raw)
    }

    #[test]
    fn insert_get_overwrite() {
        let mut m: DenseIdMap<WorkerId, &str> = DenseIdMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(w(2), "a"), None);
        assert_eq!(m.insert(w(0), "b"), None);
        assert_eq!(m.insert(w(2), "c"), Some("a"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(w(2)), Some(&"c"));
        assert_eq!(m.get(w(1)), None);
        assert!(m.contains_key(w(0)));
        *m.get_mut(w(0)).unwrap() = "d";
        assert_eq!(m.get(w(0)), Some(&"d"));
    }

    #[test]
    fn entry_defaults_like_a_map_entry() {
        let mut m: DenseIdMap<TaskId, Vec<u32>> = DenseIdMap::new();
        m.entry(TaskId::new(5)).push(1);
        m.entry(TaskId::new(5)).push(2);
        assert_eq!(m.get(TaskId::new(5)), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_ascending_and_merges_the_spill() {
        let mut m: DenseIdMap<WorkerId, u32> = DenseIdMap::new();
        // An outlier far past the growth bound spills…
        let outlier = u32::MAX - 1;
        m.insert(w(outlier), 99);
        m.insert(w(3), 3);
        m.insert(w(0), 0);
        let keys: Vec<u32> = m.keys().map(|k| k.raw()).collect();
        assert_eq!(keys, vec![0, 3, outlier]);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![0, 3, 99]);
        assert_eq!(m.get(w(outlier)), Some(&99));
    }

    #[test]
    fn hostile_outlier_does_not_allocate_the_gap() {
        let mut m: DenseIdMap<SubmissionId, u8> = DenseIdMap::new();
        m.insert(SubmissionId::new(4_000_000_000), 1);
        m.insert(SubmissionId::new(0), 2);
        // The dense region never grew to cover the outlier.
        assert!(m.slots.len() < 1024, "slots = {}", m.slots.len());
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(SubmissionId::new(4_000_000_000)), Some(&1));
    }

    #[test]
    fn growth_absorbs_spilled_keys_and_keeps_order() {
        let mut m: DenseIdMap<WorkerId, u32> = DenseIdMap::new();
        // 3000 is past the empty map's bound (16 × 64 = 1024) → spill.
        m.insert(w(3000), 1);
        assert_eq!(m.spill.len(), 1);
        // 300 occupied keys raise the bound past 3000; the next growth
        // must absorb the spilled key into the dense region.
        for i in 0..300 {
            m.insert(w(i), 0);
        }
        m.insert(w(3100), 2);
        assert!(m.spill.is_empty() || m.spill.keys().all(|&k| k as usize >= m.slots.len()));
        let keys: Vec<u32> = m.keys().map(|k| k.raw()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "iteration stays ascending");
        assert_eq!(m.get(w(3000)), Some(&1));
        assert_eq!(m.get(w(3100)), Some(&2));
        assert_eq!(m.len(), 302);
    }

    #[test]
    fn equality_is_by_content_not_backing() {
        // Same content reached via different histories (one spilled,
        // one dense from the start) compares equal.
        let mut a: DenseIdMap<WorkerId, u32> = DenseIdMap::new();
        a.insert(w(2000), 7);
        for i in 0..200 {
            a.insert(w(i), i);
        }
        let mut b: DenseIdMap<WorkerId, u32> = DenseIdMap::new();
        for i in 0..200 {
            b.insert(w(i), i);
        }
        b.insert(w(2000), 7);
        assert_eq!(a, b);
        b.insert(w(2000), 8);
        assert_ne!(a, b);
    }

    #[test]
    fn btree_view_matches_iteration() {
        let m: DenseIdMap<WorkerId, u32> = [(w(4), 4), (w(1), 1)].into_iter().collect();
        let tree = m.to_btree_map();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[&w(1)], 1);
        assert_eq!(tree[&w(4)], 4);
    }

    fn t(raw: u32) -> TaskId {
        TaskId::new(raw)
    }

    #[test]
    fn id_set_iterates_ascending_and_counts_distinct_ids() {
        let mut s: DenseIdSet<TaskId> = DenseIdSet::new();
        assert!(s.is_empty());
        for raw in [130, 3, 64, 3, 0, 130, 63] {
            s.insert(t(raw));
        }
        assert!(!s.insert(t(64)), "a duplicate insert reports false");
        assert_eq!(s.len(), 5, "duplicates count once");
        let raws: Vec<u32> = s.iter().map(|k| k.raw()).collect();
        assert_eq!(raws, vec![0, 3, 63, 64, 130]);
        assert!(s.contains(t(63)) && !s.contains(t(62)));
    }

    #[test]
    fn id_set_contains_past_capacity_is_false() {
        let s: DenseIdSet<TaskId> = [t(1)].into_iter().collect();
        assert!(!s.contains(t(64)));
        assert!(!s.contains(t(u32::MAX)));
        assert!(!DenseIdSet::<TaskId>::new().contains(t(0)));
    }

    #[test]
    fn id_set_union_and_difference() {
        let mut a: DenseIdSet<TaskId> = [t(1), t(70)].into_iter().collect();
        let b: DenseIdSet<TaskId> = [t(2), t(70), t(200)].into_iter().collect();
        let raws = |s: &DenseIdSet<TaskId>| s.iter().map(|k| k.raw()).collect::<Vec<_>>();
        assert_eq!(
            b.difference(&a).map(|k| k.raw()).collect::<Vec<_>>(),
            vec![2, 200]
        );
        assert_eq!(
            a.difference(&b).map(|k| k.raw()).collect::<Vec<_>>(),
            vec![1]
        );
        a.union_with(&b);
        assert_eq!(raws(&a), vec![1, 2, 70, 200]);
        assert_eq!(b.difference(&a).count(), 0);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn id_set_equality_ignores_trailing_zero_words() {
        let short: DenseIdSet<TaskId> = [t(5)].into_iter().collect();
        let mut wide = short.clone();
        wide.words.resize(8, 0);
        assert_eq!(wide, short);
        assert_eq!(short, wide);
        let mut empty_wide = DenseIdSet::<TaskId>::new();
        empty_wide.words.resize(3, 0);
        assert_eq!(empty_wide, DenseIdSet::new());
        wide.insert(t(500));
        assert_ne!(wide, short);
        assert_ne!(short, wide);
    }

    #[test]
    fn id_set_matches_a_btree_set_over_random_inserts_and_unions() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for _ in 0..64 {
            let mut dense: [DenseIdSet<TaskId>; 3] = Default::default();
            let mut tree: [BTreeSet<TaskId>; 3] = Default::default();
            for _ in 0..rng.gen_range(1..200) {
                let i = rng.gen_range(0..3usize);
                if rng.gen_bool(0.8) {
                    let k = t(rng.gen_range(0..400u32));
                    assert_eq!(dense[i].insert(k), tree[i].insert(k));
                } else {
                    let j = rng.gen_range(0..3usize);
                    let (d, tr) = (dense[j].clone(), tree[j].clone());
                    let diff: Vec<TaskId> = tr.difference(&tree[i]).copied().collect();
                    assert_eq!(d.difference(&dense[i]).collect::<Vec<_>>(), diff);
                    dense[i].union_with(&d);
                    tree[i].extend(tr);
                }
                assert_eq!(dense[i].len(), tree[i].len());
                assert!(dense[i].iter().eq(tree[i].iter().copied()));
            }
            for i in 0..3 {
                for j in 0..3 {
                    assert_eq!(dense[i] == dense[j], tree[i] == tree[j]);
                }
                let probe = t(rng.gen_range(0..500u32));
                assert_eq!(dense[i].contains(probe), tree[i].contains(&probe));
            }
        }
    }
}
