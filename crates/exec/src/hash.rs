//! Join-build hashing: a fast non-cryptographic hasher and a CSR-layout
//! build table with typed keys.
//!
//! The paper's execution cost is dominated by hash joins (§2.5.3). Three
//! things make the obvious approach slow on this hot path: SipHash
//! (DoS-resistant, but ~4× the cost of a multiply-rotate hash for small
//! keys), a `HashMap<Value, Vec<u32>>` build layout that allocates one
//! `Vec` per distinct key, and a [`Value`] built per row on both sides
//! even though join keys are almost always integer ids. This module
//! replaces all three:
//!
//! * [`FxHasher`] — the rustc-hash multiply-rotate scheme (the same
//!   function rustc itself uses for interning); join keys are not
//!   attacker-controlled, so DoS resistance buys nothing here.
//! * [`JoinTable`] — a counting-sort build producing a CSR (offsets +
//!   one flat row array) layout: key → contiguous `&[u32]` of build rows
//!   in ascending build position. Int key columns are read as `&[i64]`:
//!   when the non-NULL keys span at most twice the build rows, a key's
//!   offset is `key - min` (direct addressing, so the offsets stay within
//!   about twice the rows); otherwise an `FxHashMap<i64, u32>` reserved
//!   to the build size maps it. Float, Str and Bool keys go through an
//!   `FxHashMap<Value, u32>` and keep [`Value`]'s equality (floats by
//!   bits). [`JoinTable::probe_at`] reads each probe key from its typed
//!   column, so the Int paths build no `Value` on either side.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use basilisk_storage::Column;
use basilisk_types::Value;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-hash ("FxHash") 64-bit hasher: fold each word in with a
/// rotate-xor-multiply. Not DoS-resistant — use only for keys the query
/// engine itself produces.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut tail = [0u8; 8];
            tail[..bytes.len()].copy_from_slice(bytes);
            // Length byte keeps "ab" + "c" distinct from "a" + "bc".
            tail[7] = bytes.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into std collections.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// The build side of a hash join in CSR layout: [`probe_at`](Self::probe_at)
/// returns the contiguous slice of build-row ids carrying a key, in
/// ascending build position. NULL keys are skipped at build time (SQL
/// equi-joins never match NULLs).
pub struct JoinTable {
    index: KeyIndex,
    /// `rows[offsets[k]..offsets[k+1]]` are the rows of key id `k`.
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

/// How a key finds its id, the index into [`JoinTable`]'s offsets.
enum KeyIndex {
    /// Int keys whose non-NULL span is at most twice the build rows:
    /// key `k` has id `k - min`, for `span` ids.
    Dense { min: i64, span: u64 },
    /// Any other Int keys.
    Ints(FxHashMap<i64, u32>),
    /// Float, Str and Bool keys, equal as [`Value`]s are (floats by bits).
    Values(FxHashMap<Value, u32>),
}

/// Id of a NULL entry in a build pass's per-entry id list.
const NULL_ID: u32 = u32::MAX;

impl JoinTable {
    /// Build from a key column; entry `j` of the column corresponds to
    /// build row `row_of(j)` (identity for plain joins, a position table
    /// for tagged joins evaluating over a union of slices). Which index
    /// an Int column gets follows from its keys alone.
    pub fn build(keys: &Column, row_of: impl Fn(usize) -> u32) -> JoinTable {
        let Some(ints) = keys.as_ints() else {
            let mut map: FxHashMap<Value, u32> = FxHashMap::default();
            let ids = intern(keys, &mut map, |j| keys.value(j));
            let (offsets, rows) = csr(map.len(), ids.len(), |j| id_of(&ids, j), row_of);
            return JoinTable {
                index: KeyIndex::Values(map),
                offsets,
                rows,
            };
        };
        let (mut min, mut max, mut n) = (i64::MAX, i64::MIN, 0u64);
        for j in (0..ints.len()).filter(|&j| keys.is_valid(j)) {
            min = min.min(ints[j]);
            max = max.max(ints[j]);
            n += 1;
        }
        // `max - min` as an unsigned difference never overflows, even
        // for keys spanning `i64::MIN..=i64::MAX`.
        let gap = max.wrapping_sub(min) as u64;
        if n == 0 || gap < 2 * n {
            let span = if n == 0 { 0 } else { gap + 1 };
            let id = |j: usize| {
                keys.is_valid(j)
                    .then(|| ints[j].wrapping_sub(min) as u64 as usize)
            };
            let (offsets, rows) = csr(span as usize, ints.len(), id, row_of);
            return JoinTable {
                index: KeyIndex::Dense { min, span },
                offsets,
                rows,
            };
        }
        let mut map = FxHashMap::with_capacity_and_hasher(n as usize, FxBuildHasher::default());
        let ids = intern(keys, &mut map, |j| ints[j]);
        let (offsets, rows) = csr(map.len(), ids.len(), |j| id_of(&ids, j), row_of);
        JoinTable {
            index: KeyIndex::Ints(map),
            offsets,
            rows,
        }
    }

    /// Build rows whose key equals entry `j` of `keys`: empty when that
    /// entry is NULL or absent, and when it is of another type than the
    /// build keys (as [`Value`]'s equality decides). Int keys are read
    /// straight from the column; no [`Value`] is built for them.
    pub fn probe_at(&self, keys: &Column, j: usize) -> &[u32] {
        if !keys.is_valid(j) {
            return &[];
        }
        let id = match (keys.as_ints(), &self.index) {
            (Some(ints), _) => self.int_id(ints[j]),
            (None, KeyIndex::Values(map)) => map.get(&keys.value(j)).map(|&id| id as usize),
            (None, _) => None,
        };
        self.rows_of(id)
    }

    /// Build rows matching `key` (empty when absent or NULL).
    pub fn probe(&self, key: &Value) -> &[u32] {
        let id = match (key, &self.index) {
            (Value::Int(k), _) => self.int_id(*k),
            (_, KeyIndex::Values(map)) => map.get(key).map(|&id| id as usize),
            _ => None,
        };
        self.rows_of(id)
    }

    /// Id of Int key `k`, if any build row carries it.
    #[inline]
    fn int_id(&self, k: i64) -> Option<usize> {
        match &self.index {
            KeyIndex::Dense { min, span } => {
                // Keys below `min` wrap to offsets at or past `span`.
                let off = k.wrapping_sub(*min) as u64;
                (off < *span).then_some(off as usize)
            }
            KeyIndex::Ints(map) => map.get(&k).map(|&id| id as usize),
            // Built from a non-Int column: no Int key equals its keys.
            KeyIndex::Values(_) => None,
        }
    }

    #[inline]
    fn rows_of(&self, id: Option<usize>) -> &[u32] {
        match id {
            Some(id) => &self.rows[self.offsets[id] as usize..self.offsets[id + 1] as usize],
            None => &[],
        }
    }

    /// Number of distinct non-NULL keys.
    pub fn num_keys(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[0] < w[1]).count()
    }

    /// Number of build rows stored.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }
}

/// Give each non-NULL entry of `keys` the id of its key `key_at(j)` in
/// `map`, new keys numbered in order of first appearance; NULL entries
/// get [`NULL_ID`].
fn intern<K: std::hash::Hash + Eq>(
    keys: &Column,
    map: &mut FxHashMap<K, u32>,
    key_at: impl Fn(usize) -> K,
) -> Vec<u32> {
    (0..keys.len())
        .map(|j| {
            if !keys.is_valid(j) {
                return NULL_ID;
            }
            let next = map.len() as u32;
            *map.entry(key_at(j)).or_insert(next)
        })
        .collect()
}

#[inline]
fn id_of(ids: &[u32], j: usize) -> Option<usize> {
    (ids[j] != NULL_ID).then_some(ids[j] as usize)
}

/// Counting sort of `len` build entries into CSR: entry `j` has key id
/// `id(j)` (`None` for NULL, else below `ids`) and build row `row_of(j)`.
/// Entries are placed in ascending `j`, so each key's rows keep build
/// order. Returns `(offsets, rows)` with `ids + 1` offsets.
fn csr(
    ids: usize,
    len: usize,
    id: impl Fn(usize) -> Option<usize>,
    row_of: impl Fn(usize) -> u32,
) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; ids + 1];
    for k in (0..len).filter_map(&id) {
        offsets[k + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut rows = vec![0u32; offsets[ids] as usize];
    for j in 0..len {
        if let Some(k) = id(j) {
            rows[cursor[k] as usize] = row_of(j);
            cursor[k] += 1;
        }
    }
    (offsets, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_storage::ColumnBuilder;
    use basilisk_types::DataType;

    #[test]
    fn csr_groups_rows_by_key() {
        let keys = Column::from_ints(vec![7, 3, 7, 9, 3, 7]);
        let table = JoinTable::build(&keys, |j| j as u32);
        assert_eq!(table.num_keys(), 3);
        assert_eq!(table.num_rows(), 6);
        let mut sevens = table.probe(&Value::Int(7)).to_vec();
        sevens.sort_unstable();
        assert_eq!(sevens, vec![0, 2, 5]);
        assert_eq!(table.probe(&Value::Int(3)).len(), 2);
        assert_eq!(table.probe(&Value::Int(9)), &[3]);
        assert_eq!(table.probe(&Value::Int(4)), &[] as &[u32]);
    }

    #[test]
    fn nulls_are_never_stored_or_matched() {
        let mut b = ColumnBuilder::new(DataType::Int);
        for v in [Value::Int(1), Value::Null, Value::Int(1)] {
            b.push(v).unwrap();
        }
        let keys = b.finish();
        let table = JoinTable::build(&keys, |j| j as u32);
        assert_eq!(table.num_rows(), 2);
        assert_eq!(table.probe(&Value::Null), &[] as &[u32]);
        assert_eq!(table.probe(&Value::Int(1)).len(), 2);
    }

    #[test]
    fn row_mapping_applies() {
        let keys = Column::from_ints(vec![5, 5]);
        let positions = [40u32, 90];
        let table = JoinTable::build(&keys, |j| positions[j]);
        let mut rows = table.probe(&Value::Int(5)).to_vec();
        rows.sort_unstable();
        assert_eq!(rows, vec![40, 90]);
    }

    #[test]
    fn string_and_float_keys() {
        let keys = Column::from_strs(&["a", "b", "a"]);
        let table = JoinTable::build(&keys, |j| j as u32);
        assert_eq!(table.probe(&Value::from("a")).len(), 2);
        let keys = Column::from_floats(vec![1.5, 1.5, 2.0]);
        let table = JoinTable::build(&keys, |j| j as u32);
        assert_eq!(table.probe(&Value::Float(1.5)).len(), 2);
    }

    #[test]
    fn int_index_follows_the_key_span() {
        let dense = |v: Vec<i64>| {
            let t = JoinTable::build(&Column::from_ints(v), |j| j as u32);
            matches!(t.index, KeyIndex::Dense { .. })
        };
        // Span 6 over 3 rows is twice the rows: direct-addressed.
        assert!(dense(vec![-3, 2, -1]));
        // Span 7 over 3 rows is past it: hashed.
        assert!(!dense(vec![-3, 3, -1]));
        assert!(dense(vec![]));
        assert!(!dense(vec![i64::MIN, i64::MAX]));
        assert!(dense(vec![i64::MAX, i64::MAX - 1]));
        assert!(dense(vec![i64::MIN, i64::MIN + 1]));
    }

    #[test]
    fn dense_index_rejects_keys_outside_the_span() {
        let keys = Column::from_ints(vec![i64::MAX - 1, i64::MAX]);
        let table = JoinTable::build(&keys, |j| j as u32);
        assert!(matches!(table.index, KeyIndex::Dense { span: 2, .. }));
        assert_eq!(table.probe(&Value::Int(i64::MAX)), &[1]);
        for k in [i64::MIN, i64::MAX - 2, -1, 0, 1] {
            assert_eq!(table.probe(&Value::Int(k)), &[] as &[u32]);
        }
    }

    #[test]
    fn fx_hasher_distinguishes_lengths() {
        use std::hash::Hasher;
        let mut a = FxHasher::default();
        a.write(b"ab");
        a.write(b"c");
        let mut b = FxHasher::default();
        b.write(b"a");
        b.write(b"bc");
        // Not a hard guarantee for every input, but the length-tagged tail
        // makes this canonical pair differ.
        assert_ne!(a.finish(), b.finish());
    }
}
