//! Flat open-addressing tables: the backing store of the streaming
//! `Storing` structures.
//!
//! The streaming `Storing` structures probe one table per (instance,
//! level, role) on every stream operation. `std::collections::HashMap`
//! pays for SwissTable control bytes and per-entry boxing of the value;
//! these tables instead key cells by *dense packed ids* and keep values
//! in a flat arena:
//!
//! ```text
//!   slots:   [ u32 ; capacity ]      power-of-two, linear probing
//!             EMPTY | TOMB | index into `entries`
//!   entries: [ (K key, V) ; len ]    dense, iterated without gaps
//! ```
//!
//! The key type `K` is a [`TableKey`]: `u64` for cell ids that pack
//! into 64 bits (every geometry with `6 + (L+2)·d ≤ 64`), `u128` for
//! wider packings and for mixing-hash ids. Both widths share this one
//! implementation; a narrow key keeps entries at 48 bytes for the
//! `Storing` cell record, which is why packable geometries never pay
//! for the wide one.
//!
//! Probing hashes the key with a SplitMix64 finalizer and walks `slots`
//! linearly; a hit costs one cache line of `u32`s plus one indexed read
//! of `entries`. Deletion tombstones the slot and `swap_remove`s the
//! entry (patching the moved entry's slot), so `entries` stays dense and
//! iteration is a straight scan — the property the snapshot/finish
//! boundaries rely on when they sort by key to restore canonical order.
//!
//! Tables take no size hint: every table starts at `MIN_CAP` (8) slots and
//! grows from occupancy alone. Growth doubles `slots` when the *live*
//! count crosses ⅞ occupancy; when live + tombstones cross the same
//! bound first, the table is rebuilt at the same capacity to purge
//! tombstones. Capacity therefore never depends on the interleaving of
//! inserts and deletes, only on the peak live count — see [`slots_for`],
//! which space accounting uses to report a deterministic capacity
//! independent of transient physical states (e.g. a freshly restored
//! checkpoint, built in one step by [`OpenTable::from_entries`]).
//!
//! In the streaming `Storing` structures this means a store's cell
//! budget α sizes nothing: it stays the FAIL budget and the floor of the
//! occupancy cap, while the table holds `slots_for(peak_cells)`
//! slots, which is also what space accounting reports. Checkpoint
//! restore builds each table once, at `slots_for` of the restored cell
//! count.

/// Slot sentinel: never occupied.
const EMPTY: u32 = u32::MAX;
/// Slot sentinel: previously occupied, now deleted.
const TOMB: u32 = u32::MAX - 1;
/// Smallest slot array ever allocated.
const MIN_CAP: usize = 8;

/// SplitMix64 finalizer — the same mixer the sharded router uses; packed
/// cell keys differ in few low bits and need the avalanche.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A key an [`OpenTable`] can be keyed by.
pub trait TableKey: Copy + Eq {
    /// The probe hash: full avalanche, since packed ids differ in few
    /// low bits.
    fn probe_hash(self) -> u64;
}

impl TableKey for u64 {
    #[inline]
    fn probe_hash(self) -> u64 {
        splitmix64(self)
    }
}

impl TableKey for u128 {
    #[inline]
    fn probe_hash(self) -> u64 {
        splitmix64(self as u64 ^ splitmix64((self >> 64) as u64))
    }
}

/// Whether `live + 1` more entries would overflow ⅞ of `cap` slots.
#[inline]
fn over_load(occupied: usize, cap: usize) -> bool {
    occupied * 8 > cap * 7
}

/// The deterministic slot capacity an [`OpenTable`] holds after its live
/// count peaked at `peak`: the smallest power-of-two ≥ 8 (`MIN_CAP`) whose
/// ⅞ load bound covers `peak`. Pure in its input — space reports use it
/// so that a restored checkpoint (which never saw the original's
/// transient physical growth) accounts identically to the original run.
pub fn slots_for(peak: usize) -> usize {
    let mut cap = MIN_CAP;
    while over_load(peak, cap) {
        cap *= 2;
    }
    cap
}

/// A flat open-addressing hash table keyed by a [`TableKey`], with dense
/// value storage. See the module docs for layout and invariants.
pub struct OpenTable<K, V> {
    slots: Vec<u32>,
    entries: Vec<(K, V)>,
    /// Number of `TOMB` slots (deleted, not yet purged).
    tombs: usize,
}

impl<K, V> Default for OpenTable<K, V> {
    /// An empty table at `MIN_CAP` (8) slots.
    fn default() -> Self {
        let _mem = sbc_obs::alloc::scope(sbc_obs::alloc::Component::Arena);
        Self {
            slots: vec![EMPTY; MIN_CAP],
            entries: Vec::new(),
            tombs: 0,
        }
    }
}

impl<K: TableKey, V> OpenTable<K, V> {
    /// Builds a table holding `entries` (keys distinct) in one step, at
    /// the [`slots_for`] capacity of their count — the capacity inserting
    /// them one by one would reach, without the intermediate doublings.
    /// Iteration yields them in the given order.
    ///
    /// # Panics
    /// Debug-asserts that the keys are distinct.
    pub fn from_entries(entries: Vec<(K, V)>) -> Self {
        let mut table = Self {
            slots: Vec::new(),
            entries,
            tombs: 0,
        };
        table.rebuild(slots_for(table.entries.len()));
        debug_assert!(
            table
                .entries
                .iter()
                .enumerate()
                .all(|(i, (k, _))| table.find(*k) == Some(i)),
            "from_entries: duplicate keys"
        );
        table
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Physical slot count right now (may exceed the deterministic
    /// [`slots_for`] of the peak live count after merges, or fall short
    /// of it after [`Self::from_entries`]; 0 after
    /// [`Self::clear_shrink`]).
    #[inline]
    pub fn physical_slots(&self) -> usize {
        self.slots.len()
    }

    /// Looks up `key`, returning a reference to its value.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.find(key).map(|e| &self.entries[e].1)
    }

    /// Looks up `key`, returning a mutable reference to its value.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.find(key).map(|e| &mut self.entries[e].1)
    }

    /// Index of `key`'s entry, if present.
    #[inline]
    fn find(&self, key: K) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = key.probe_hash() as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return None,
                TOMB => {}
                e => {
                    if self.entries[e as usize].0 == key {
                        return Some(e as usize);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a key known to be absent (callers probe with
    /// [`Self::get_mut`] first; the two-step shape lets the `Storing`
    /// occupancy cap veto the insert without touching the table).
    /// Returns a reference to the stored value.
    ///
    /// # Panics
    /// Debug-asserts that `key` is indeed absent.
    pub fn insert_absent(&mut self, key: K, value: V) -> &mut V {
        debug_assert!(self.find(key).is_none(), "insert_absent on present key");
        self.maintain_for_insert();
        let mask = self.slots.len() - 1;
        let mut i = key.probe_hash() as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => break,
                TOMB => {
                    self.tombs -= 1;
                    break;
                }
                _ => i = (i + 1) & mask,
            }
        }
        self.slots[i] = self.entries.len() as u32;
        self.entries.push((key, value));
        &mut self.entries.last_mut().expect("just pushed").1
    }

    /// Returns `key`'s value, inserting `make()` first when the key is
    /// absent; the flag says whether it was inserted.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&mut self, key: K, make: F) -> (&mut V, bool) {
        match self.find(key) {
            Some(e) => (&mut self.entries[e].1, false),
            None => (self.insert_absent(key, make()), true),
        }
    }

    /// Removes `key`, returning its value if present. The last entry is
    /// swapped into the hole and its slot patched, keeping `entries`
    /// dense.
    pub fn remove(&mut self, key: K) -> Option<V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = key.probe_hash() as usize & mask;
        let e = loop {
            match self.slots[i] {
                EMPTY => return None,
                TOMB => {}
                e => {
                    if self.entries[e as usize].0 == key {
                        break e as usize;
                    }
                }
            }
            i = (i + 1) & mask;
        };
        self.slots[i] = TOMB;
        self.tombs += 1;
        let last = self.entries.len() - 1;
        let removed = self.entries.swap_remove(e);
        if e != last {
            // Patch the moved entry's slot to its new index.
            let moved_key = self.entries[e].0;
            let mut j = moved_key.probe_hash() as usize & mask;
            loop {
                if self.slots[j] == last as u32 {
                    self.slots[j] = e as u32;
                    break;
                }
                j = (j + 1) & mask;
            }
        }
        Some(removed.1)
    }

    /// Iterates live entries in arena (insertion/swap) order — *not*
    /// key order; boundaries that need canonical order sort the yielded
    /// pairs by key.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Mutable variant of [`Self::iter`].
    #[inline]
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (*k, v))
    }

    /// Keeps only entries for which `f` returns `true`, then rebuilds the
    /// slot array at the current capacity (dropping all tombstones).
    pub fn retain<F: FnMut(K, &mut V) -> bool>(&mut self, mut f: F) {
        self.entries.retain_mut(|(k, v)| f(*k, v));
        self.rebuild(self.slots.len().max(MIN_CAP));
    }

    /// Drops all entries and releases the backing memory (the shape a
    /// killed store leaves behind).
    pub fn clear_shrink(&mut self) {
        self.slots = Vec::new();
        self.entries = Vec::new();
        self.tombs = 0;
    }

    /// Grows or purges ahead of one insertion so that a free slot always
    /// exists and live occupancy stays under ⅞.
    fn maintain_for_insert(&mut self) {
        let cap = self.slots.len();
        if cap == 0 {
            self.rebuild(MIN_CAP);
            return;
        }
        if over_load(self.entries.len() + self.tombs + 1, cap) {
            let new_cap = if over_load(self.entries.len() + 1, cap) {
                cap * 2
            } else {
                cap // same size: purge tombstones only
            };
            self.rebuild(new_cap);
        }
    }

    /// Reconstructs `slots` at `cap` from the dense entries.
    fn rebuild(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && !over_load(self.entries.len(), cap));
        let _mem = sbc_obs::alloc::scope(sbc_obs::alloc::Component::Arena);
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        self.tombs = 0;
        let mask = cap - 1;
        for (idx, (k, _)) in self.entries.iter().enumerate() {
            let mut i = k.probe_hash() as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx as u32;
        }
    }
}

impl<K: Clone, V: Clone> Clone for OpenTable<K, V> {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            entries: self.entries.clone(),
            tombs: self.tombs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t: OpenTable<u64, i64> = OpenTable::default();
        for k in 0..100u64 {
            assert!(t.get(k * 7).is_none());
            t.insert_absent(k * 7, k as i64);
        }
        assert_eq!(t.len(), 100);
        for k in 0..100u64 {
            assert_eq!(t.get(k * 7), Some(&(k as i64)));
        }
        for k in (0..100u64).step_by(2) {
            assert_eq!(t.remove(k * 7), Some(k as i64));
            assert_eq!(t.remove(k * 7), None);
        }
        assert_eq!(t.len(), 50);
        for k in 0..100u64 {
            let want = (k % 2 == 1).then_some(k as i64);
            assert_eq!(t.get(k * 7).copied(), want);
        }
    }

    #[test]
    fn matches_hashmap_under_churn() {
        // Deterministic pseudo-random workload of mixed inserts/deletes
        // against a reference HashMap.
        let mut t: OpenTable<u64, u64> = OpenTable::default();
        let mut m: HashMap<u64, u64> = HashMap::new();
        let mut x = 42u64;
        for step in 0..20_000u64 {
            x = splitmix64(x);
            let key = x % 512; // force collisions and reuse
            if x & 1 == 0 {
                match t.get_mut(key) {
                    Some(v) => *v = v.wrapping_add(step),
                    None => {
                        t.insert_absent(key, step);
                    }
                }
                m.entry(key)
                    .and_modify(|v| *v = v.wrapping_add(step))
                    .or_insert(step);
            } else {
                assert_eq!(t.remove(key), m.remove(&key));
            }
            assert_eq!(t.len(), m.len());
        }
        let mut got: Vec<(u64, u64)> = t.iter().map(|(k, v)| (k, *v)).collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = m.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn wide_keys_resolve_on_their_high_bits() {
        // Keys that differ only above bit 64 (a wide packing's level and
        // leading coordinates) must still spread and resolve.
        let key = |k: u128| (k << 64) | 7;
        let mut t: OpenTable<u128, u64> = OpenTable::default();
        for k in 0..500u128 {
            t.insert_absent(key(k), k as u64);
        }
        for k in (0..500u128).step_by(3) {
            assert_eq!(t.remove(key(k)), Some(k as u64));
        }
        for k in 0..500u128 {
            let want = (k % 3 != 0).then_some(k as u64);
            assert_eq!(t.get(key(k)).copied(), want);
        }
        assert_eq!(t.physical_slots(), slots_for(500));
    }

    #[test]
    fn tombstone_churn_does_not_grow_capacity() {
        // Insert/delete cycling at a fixed live count must trigger purges,
        // not growth: once the live count peaks at 16, capacity is the
        // deterministic slots_for(16) and never changes again.
        let mut t: OpenTable<u64, u8> = OpenTable::default();
        let want_cap = slots_for(16);
        for round in 0..1000u64 {
            let k = round % 16;
            if t.get(k).is_some() {
                t.remove(k);
            }
            t.insert_absent(k, 0);
            assert!(t.len() <= 16);
            if round >= 15 {
                assert_eq!(t.len(), 16);
                assert_eq!(t.physical_slots(), want_cap, "round {round}");
            }
        }
    }

    #[test]
    fn capacity_is_a_function_of_peak_not_order() {
        // Two different interleavings reaching the same peak live count
        // end at the same physical capacity, which matches slots_for.
        let mut a: OpenTable<u64, u8> = OpenTable::default();
        for k in 0..200u64 {
            a.insert_absent(k, 0);
        }
        for k in 100..200u64 {
            a.remove(k);
        }
        let mut b: OpenTable<u64, u8> = OpenTable::default();
        for k in 0..200u64 {
            b.insert_absent(k, 0);
            if k >= 100 {
                b.remove(k);
            }
        }
        assert_eq!(a.physical_slots(), slots_for(200));
        // b's live count peaked at 101.
        assert_eq!(b.physical_slots(), slots_for(101));
        assert_eq!(a.len(), 100);
        assert_eq!(b.len(), 100);
    }

    #[test]
    fn retain_purges_and_keeps_survivors() {
        let mut t: OpenTable<u64, u64> = OpenTable::default();
        for k in 0..300u64 {
            t.insert_absent(k, k * 2);
        }
        t.retain(|k, v| {
            *v += 1;
            k % 3 == 0
        });
        assert_eq!(t.len(), 100);
        for k in 0..300u64 {
            let want = (k % 3 == 0).then_some(k * 2 + 1);
            assert_eq!(t.get(k).copied(), want);
        }
    }

    #[test]
    fn clear_shrink_releases_memory() {
        let mut t: OpenTable<u64, u64> = OpenTable::default();
        for k in 0..1000u64 {
            t.insert_absent(k, k);
        }
        t.clear_shrink();
        assert!(t.is_empty());
        assert_eq!(t.physical_slots(), 0);
        assert!(t.get(5).is_none());
        assert_eq!(t.remove(5), None);
        // And the table is usable again afterwards.
        t.insert_absent(5, 7);
        assert_eq!(t.get(5), Some(&7));
    }

    #[test]
    fn slots_for_respects_load_bound() {
        for peak in [0usize, 1, 6, 7, 8, 13, 14, 100, 1000] {
            let cap = slots_for(peak);
            assert!(cap.is_power_of_two() && cap >= MIN_CAP);
            assert!(!over_load(peak, cap));
            // Minimal: half the capacity would violate the bound
            // (unless already at the floor).
            if cap > MIN_CAP {
                assert!(over_load(peak, cap / 2));
            }
        }
    }

    #[test]
    fn from_entries_matches_one_by_one_inserts() {
        let entries: Vec<(u64, u64)> = (0..300u64).map(|k| (k * 11, k)).collect();
        let built = OpenTable::from_entries(entries.clone());
        let mut grown: OpenTable<u64, u64> = OpenTable::default();
        for (k, v) in &entries {
            grown.insert_absent(*k, *v);
        }
        assert_eq!(built.physical_slots(), slots_for(300));
        assert_eq!(built.physical_slots(), grown.physical_slots());
        let order = |t: &OpenTable<u64, u64>| t.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>();
        assert_eq!(order(&built), order(&grown), "same iteration order");
        for (k, v) in &entries {
            assert_eq!(built.get(*k), Some(v));
        }
        assert!(built.get(1).is_none());
        // The empty case starts at the floor, like a default table.
        let empty: OpenTable<u64, u64> = OpenTable::from_entries(Vec::new());
        assert_eq!(empty.physical_slots(), MIN_CAP);
    }
}
