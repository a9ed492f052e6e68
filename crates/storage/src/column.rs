//! Column-major storage primitives: typed value chunks with null bitmaps
//! and dictionary-encoded strings.
//!
//! A [`ColumnChunk`] holds one column of a table in a dense, typed vector
//! (`Vec<i64>` / `Vec<f64>` / dictionary codes / …) plus a [`Bitmap`] of
//! null positions. The row-oriented [`crate::Table`] API is a façade over
//! these chunks; the vectorized executor in `gridfed-sqlkit` borrows them
//! directly and runs tight per-column loops over selection vectors.
//!
//! Invariants:
//! - A chunk stores exactly one [`DataType`]; values are schema-checked
//!   before they reach `push`, so `Int` chunks only ever see `Int`/`Null`
//!   (the schema widens `Int`→`Float` for `Float` columns on write).
//! - Null positions carry an arbitrary placeholder in the data vector
//!   (0 / 0.0 / dictionary code 0); readers must consult the null bitmap
//!   before trusting the data slot.
//! - String chunks are dictionary-encoded: the data vector holds `u32`
//!   codes into a shared, append-only dictionary. Deleting rows never
//!   shrinks the dictionary; `gather` shares it through its `Arc`.

use crate::error::StorageError;
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A bit-packed bitmap over row positions. Used both for per-column null
/// masks (bit set = NULL) and for table-level tombstones (bit set =
/// deleted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
            ones: 0,
        }
    }

    /// Number of positions tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no positions are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1 << (self.len % 64);
            self.ones += 1;
        }
        self.len += 1;
    }

    /// Bit at `pos` (false when out of range).
    pub fn get(&self, pos: usize) -> bool {
        if pos >= self.len {
            return false;
        }
        self.words[pos / 64] >> (pos % 64) & 1 == 1
    }

    /// Set the bit at `pos` to 1. `pos` must be in range.
    pub fn set(&mut self, pos: usize) {
        assert!(pos < self.len, "bitmap position {pos} out of range");
        let mask = 1u64 << (pos % 64);
        if self.words[pos / 64] & mask == 0 {
            self.words[pos / 64] |= mask;
            self.ones += 1;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// True if any bit is set — lets readers skip per-row null checks on
    /// columns that are entirely non-NULL.
    pub fn any(&self) -> bool {
        self.ones > 0
    }

    /// The bits at `positions`, in order. A bitmap with no set bit gathers
    /// to [`Bitmap::zeros`] without reading a position.
    pub(crate) fn gather(&self, positions: &[u32]) -> Bitmap {
        if !self.any() {
            return Bitmap::zeros(positions.len());
        }
        Bitmap::from_fn(positions.len(), |i| self.get(positions[i] as usize))
    }

    /// [`Bitmap::gather`] with optional positions: a `None` slot is a set
    /// bit (a NULL-padded row).
    pub(crate) fn gather_opt(&self, positions: &[Option<u32>]) -> Bitmap {
        Bitmap::from_fn(positions.len(), |i| {
            positions[i].is_none_or(|p| self.get(p as usize))
        })
    }

    /// A bitmap of `len` bits where bit `i` is `bit(i)`, built a word at a
    /// time. Equal to pushing the same bits one by one.
    fn from_fn(len: usize, mut bit: impl FnMut(usize) -> bool) -> Bitmap {
        let mut words = Vec::with_capacity(len.div_ceil(64));
        let mut ones = 0;
        for base in (0..len).step_by(64) {
            let mut word = 0u64;
            for b in 0..(len - base).min(64) {
                word |= (bit(base + b) as u64) << b;
            }
            ones += word.count_ones() as usize;
            words.push(word);
        }
        Bitmap { words, len, ones }
    }

    /// Drop all positions.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
        self.ones = 0;
    }
}

/// Append-only string dictionary shared by one [`ColumnChunk::Str`] chunk.
///
/// Behind an `Arc` so gathers (join outputs, compaction inputs) share the
/// dictionary without copying the strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrDict {
    strings: Vec<String>,
    lookup: HashMap<String, u32>,
}

impl StrDict {
    /// Intern `s`, returning its code (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.lookup.get(s) {
            return c;
        }
        let c = u32::try_from(self.strings.len()).expect("dictionary overflow");
        self.strings.push(s.to_string());
        self.lookup.insert(s.to_string(), c);
        c
    }

    /// The string behind `code`.
    pub fn get(&self, code: u32) -> &str {
        &self.strings[code as usize]
    }

    /// Code of `s`, if it has ever been interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// All interned strings, in code order.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// One table column stored as a typed, dense chunk plus a null bitmap.
#[derive(Debug, Clone)]
pub enum ColumnChunk {
    /// 64-bit integers.
    Int {
        /// Dense values (placeholder 0 at null positions).
        data: Vec<i64>,
        /// Null positions.
        nulls: Bitmap,
    },
    /// 64-bit floats.
    Float {
        /// Dense values (placeholder 0.0 at null positions).
        data: Vec<f64>,
        /// Null positions.
        nulls: Bitmap,
    },
    /// Booleans.
    Bool {
        /// Dense values (placeholder false at null positions).
        data: Vec<bool>,
        /// Null positions.
        nulls: Bitmap,
    },
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    Str {
        /// Dictionary codes (placeholder 0 at null positions).
        codes: Vec<u32>,
        /// Shared append-only dictionary.
        dict: Arc<StrDict>,
        /// Null positions.
        nulls: Bitmap,
    },
    /// Raw byte strings (no dictionary; BLOB columns are rare and opaque).
    Bytes {
        /// Dense values (placeholder empty at null positions).
        data: Vec<Vec<u8>>,
        /// Null positions.
        nulls: Bitmap,
    },
}

impl ColumnChunk {
    /// An empty chunk for a column of `dt`.
    pub fn for_type(dt: DataType) -> Self {
        match dt {
            DataType::Int => ColumnChunk::Int {
                data: Vec::new(),
                nulls: Bitmap::new(),
            },
            DataType::Float => ColumnChunk::Float {
                data: Vec::new(),
                nulls: Bitmap::new(),
            },
            DataType::Bool => ColumnChunk::Bool {
                data: Vec::new(),
                nulls: Bitmap::new(),
            },
            DataType::Text => ColumnChunk::Str {
                codes: Vec::new(),
                dict: Arc::new(StrDict::default()),
                nulls: Bitmap::new(),
            },
            DataType::Bytes => ColumnChunk::Bytes {
                data: Vec::new(),
                nulls: Bitmap::new(),
            },
        }
    }

    /// The declared type this chunk stores.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnChunk::Int { .. } => DataType::Int,
            ColumnChunk::Float { .. } => DataType::Float,
            ColumnChunk::Bool { .. } => DataType::Bool,
            ColumnChunk::Str { .. } => DataType::Text,
            ColumnChunk::Bytes { .. } => DataType::Bytes,
        }
    }

    /// Number of physical positions (tombstoned rows included).
    pub fn len(&self) -> usize {
        match self {
            ColumnChunk::Int { data, .. } => data.len(),
            ColumnChunk::Float { data, .. } => data.len(),
            ColumnChunk::Bool { data, .. } => data.len(),
            ColumnChunk::Str { codes, .. } => codes.len(),
            ColumnChunk::Bytes { data, .. } => data.len(),
        }
    }

    /// True if the chunk holds no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a schema-checked value. Panics on a type mismatch — callers
    /// (the table write path) validate against the schema first.
    pub fn push(&mut self, v: &Value) {
        match (self, v) {
            (ColumnChunk::Int { data, nulls }, Value::Int(i)) => {
                data.push(*i);
                nulls.push(false);
            }
            (ColumnChunk::Int { data, nulls }, Value::Null) => {
                data.push(0);
                nulls.push(true);
            }
            (ColumnChunk::Float { data, nulls }, Value::Float(f)) => {
                data.push(*f);
                nulls.push(false);
            }
            (ColumnChunk::Float { data, nulls }, Value::Null) => {
                data.push(0.0);
                nulls.push(true);
            }
            (ColumnChunk::Bool { data, nulls }, Value::Bool(b)) => {
                data.push(*b);
                nulls.push(false);
            }
            (ColumnChunk::Bool { data, nulls }, Value::Null) => {
                data.push(false);
                nulls.push(true);
            }
            (ColumnChunk::Str { codes, dict, nulls }, Value::Text(s)) => {
                codes.push(Arc::make_mut(dict).intern(s));
                nulls.push(false);
            }
            (ColumnChunk::Str { codes, nulls, .. }, Value::Null) => {
                codes.push(0);
                nulls.push(true);
            }
            (ColumnChunk::Bytes { data, nulls }, Value::Bytes(b)) => {
                data.push(b.clone());
                nulls.push(false);
            }
            (ColumnChunk::Bytes { data, nulls }, Value::Null) => {
                data.push(Vec::new());
                nulls.push(true);
            }
            (chunk, v) => panic!(
                "type mismatch: {:?} pushed into {} chunk",
                v,
                chunk.data_type().name()
            ),
        }
    }

    /// True if the value at `pos` is NULL.
    pub fn is_null(&self, pos: usize) -> bool {
        match self {
            ColumnChunk::Int { nulls, .. }
            | ColumnChunk::Float { nulls, .. }
            | ColumnChunk::Bool { nulls, .. }
            | ColumnChunk::Str { nulls, .. }
            | ColumnChunk::Bytes { nulls, .. } => nulls.get(pos),
        }
    }

    /// Materialize the value at `pos` (the row-API compatibility path).
    pub fn value_at(&self, pos: usize) -> Value {
        match self {
            ColumnChunk::Int { data, nulls } => {
                if nulls.get(pos) {
                    Value::Null
                } else {
                    Value::Int(data[pos])
                }
            }
            ColumnChunk::Float { data, nulls } => {
                if nulls.get(pos) {
                    Value::Null
                } else {
                    Value::Float(data[pos])
                }
            }
            ColumnChunk::Bool { data, nulls } => {
                if nulls.get(pos) {
                    Value::Null
                } else {
                    Value::Bool(data[pos])
                }
            }
            ColumnChunk::Str { codes, dict, nulls } => {
                if nulls.get(pos) {
                    Value::Null
                } else {
                    Value::Text(dict.get(codes[pos]).to_string())
                }
            }
            ColumnChunk::Bytes { data, nulls } => {
                if nulls.get(pos) {
                    Value::Null
                } else {
                    Value::Bytes(data[pos].clone())
                }
            }
        }
    }

    /// Borrow the string at `pos` without materializing a [`Value`]
    /// (`None` for NULL or non-string chunks).
    pub fn str_at(&self, pos: usize) -> Option<&str> {
        match self {
            ColumnChunk::Str { codes, dict, nulls } if !nulls.get(pos) => {
                Some(dict.get(codes[pos]))
            }
            _ => None,
        }
    }

    /// Typed view of an `Int` chunk: `(data, nulls)`.
    pub fn as_int(&self) -> Option<(&[i64], &Bitmap)> {
        match self {
            ColumnChunk::Int { data, nulls } => Some((data, nulls)),
            _ => None,
        }
    }

    /// Typed view of a `Float` chunk: `(data, nulls)`.
    pub fn as_float(&self) -> Option<(&[f64], &Bitmap)> {
        match self {
            ColumnChunk::Float { data, nulls } => Some((data, nulls)),
            _ => None,
        }
    }

    /// Typed view of a `Bool` chunk: `(data, nulls)`.
    pub fn as_bool(&self) -> Option<(&[bool], &Bitmap)> {
        match self {
            ColumnChunk::Bool { data, nulls } => Some((data, nulls)),
            _ => None,
        }
    }

    /// Typed view of a dictionary-encoded string chunk:
    /// `(codes, dictionary, nulls)`.
    pub fn as_str(&self) -> Option<(&[u32], &StrDict, &Bitmap)> {
        match self {
            ColumnChunk::Str { codes, dict, nulls } => Some((codes, dict, nulls)),
            _ => None,
        }
    }

    /// Gather `positions` into a new chunk (join outputs, compaction).
    ///
    /// Each typed lane is copied directly, slot by slot. A source with no
    /// NULLs gathers to [`Bitmap::zeros`] without reading a bit per row.
    /// String chunks share the dictionary via `Arc` — no string copies.
    pub fn gather(&self, positions: &[u32]) -> ColumnChunk {
        match self {
            ColumnChunk::Int { data, nulls } => ColumnChunk::Int {
                data: take(data, positions),
                nulls: nulls.gather(positions),
            },
            ColumnChunk::Float { data, nulls } => ColumnChunk::Float {
                data: take(data, positions),
                nulls: nulls.gather(positions),
            },
            ColumnChunk::Bool { data, nulls } => ColumnChunk::Bool {
                data: take(data, positions),
                nulls: nulls.gather(positions),
            },
            ColumnChunk::Str { codes, dict, nulls } => ColumnChunk::Str {
                codes: take(codes, positions),
                dict: Arc::clone(dict),
                nulls: nulls.gather(positions),
            },
            ColumnChunk::Bytes { data, nulls } => ColumnChunk::Bytes {
                data: take(data, positions),
                nulls: nulls.gather(positions),
            },
        }
    }

    /// Gather with optional positions: `None` produces a NULL slot (with
    /// the placeholder `push(&Value::Null)` would store). Used for the
    /// unmatched side of LEFT OUTER joins. Lanes are copied directly and
    /// string chunks share the dictionary, as in [`ColumnChunk::gather`].
    pub fn gather_opt(&self, positions: &[Option<u32>]) -> ColumnChunk {
        match self {
            ColumnChunk::Int { data, nulls } => ColumnChunk::Int {
                data: take_opt(data, positions),
                nulls: nulls.gather_opt(positions),
            },
            ColumnChunk::Float { data, nulls } => ColumnChunk::Float {
                data: take_opt(data, positions),
                nulls: nulls.gather_opt(positions),
            },
            ColumnChunk::Bool { data, nulls } => ColumnChunk::Bool {
                data: take_opt(data, positions),
                nulls: nulls.gather_opt(positions),
            },
            ColumnChunk::Str { codes, dict, nulls } => ColumnChunk::Str {
                codes: take_opt(codes, positions),
                dict: Arc::clone(dict),
                nulls: nulls.gather_opt(positions),
            },
            ColumnChunk::Bytes { data, nulls } => ColumnChunk::Bytes {
                data: take_opt(data, positions),
                nulls: nulls.gather_opt(positions),
            },
        }
    }

    /// Reset the chunk to empty (dictionaries are dropped too, so a
    /// truncated table does not pin dead strings).
    pub fn clear(&mut self) {
        *self = Self::for_type(self.data_type());
    }

    /// Build a chunk from one column of untyped values (a decoded wire
    /// frame, a transposed result). The column takes the type of its first
    /// non-NULL value, widened from INT to FLOAT when FLOAT values also
    /// appear; a column with no non-NULL value is FLOAT. Any other mix is a
    /// [`StorageError::TypeMismatch`] naming `column` — never a panic.
    pub fn from_values<'a, I>(column: &str, values: I) -> Result<ColumnChunk, StorageError>
    where
        I: IntoIterator<Item = &'a Value>,
        I::IntoIter: Clone,
    {
        let values = values.into_iter();
        let mut ty: Option<DataType> = None;
        for v in values.clone() {
            let Some(vt) = v.data_type() else { continue };
            ty = match (ty, vt) {
                (None, vt) => Some(vt),
                (Some(DataType::Int), DataType::Float) => Some(DataType::Float),
                (Some(DataType::Float), DataType::Int) => Some(DataType::Float),
                (Some(t), vt) if t == vt => Some(t),
                (Some(t), vt) => {
                    return Err(StorageError::TypeMismatch {
                        column: column.to_string(),
                        expected: t.name().to_string(),
                        got: vt.name().to_string(),
                    })
                }
            };
        }
        let mut chunk = ColumnChunk::for_type(ty.unwrap_or(DataType::Float));
        for v in values {
            match (&chunk, v) {
                (ColumnChunk::Float { .. }, Value::Int(i)) => chunk.push(&Value::Float(*i as f64)),
                _ => chunk.push(v),
            }
        }
        Ok(chunk)
    }

    /// Wire size of every value in the chunk: the sum of
    /// [`Value::wire_size`] over all positions, computed from the typed
    /// lanes without materializing a value.
    pub fn wire_size(&self) -> usize {
        let null_bytes = Value::Null.wire_size();
        // Fixed-width lanes: every non-NULL slot costs the same.
        let fixed = |nulls: &Bitmap, each: usize| {
            nulls.count_ones() * null_bytes + (self.len() - nulls.count_ones()) * each
        };
        match self {
            ColumnChunk::Int { nulls, .. } => fixed(nulls, Value::Int(0).wire_size()),
            ColumnChunk::Float { nulls, .. } => fixed(nulls, Value::Float(0.0).wire_size()),
            ColumnChunk::Bool { nulls, .. } => fixed(nulls, Value::Bool(false).wire_size()),
            ColumnChunk::Str { codes, dict, nulls } => {
                let empty = Value::Text(String::new()).wire_size();
                codes
                    .iter()
                    .enumerate()
                    .map(|(p, &c)| {
                        if nulls.get(p) {
                            null_bytes
                        } else {
                            empty + dict.get(c).len()
                        }
                    })
                    .sum()
            }
            ColumnChunk::Bytes { data, nulls } => {
                let empty = Value::Bytes(Vec::new()).wire_size();
                data.iter()
                    .enumerate()
                    .map(|(p, b)| {
                        if nulls.get(p) {
                            null_bytes
                        } else {
                            empty + 2 * b.len()
                        }
                    })
                    .sum()
            }
        }
    }

    /// Approximate wire size of the value at `pos`, matching
    /// [`Value::wire_size`] without materializing strings.
    pub fn wire_size_at(&self, pos: usize) -> usize {
        match self {
            ColumnChunk::Str { codes, dict, nulls } if !nulls.get(pos) => {
                Value::Text(String::new()).wire_size() + dict.get(codes[pos]).len()
            }
            _ => self.value_at(pos).wire_size(),
        }
    }
}

/// The lane slots at `positions`, in order.
fn take<T: Clone>(data: &[T], positions: &[u32]) -> Vec<T> {
    positions
        .iter()
        .map(|&p| data[p as usize].clone())
        .collect()
}

/// The lane slots at `positions`; `None` takes the NULL placeholder.
fn take_opt<T: Clone + Default>(data: &[T], positions: &[Option<u32>]) -> Vec<T> {
    positions
        .iter()
        .map(|p| p.map_or_else(T::default, |p| data[p as usize].clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_set_get() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 44);
        b.set(1);
        assert!(b.get(1));
        assert_eq!(b.count_ones(), 45);
        // idempotent set
        b.set(1);
        assert_eq!(b.count_ones(), 45);
        // out-of-range reads are false, not panics
        assert!(!b.get(10_000));
    }

    #[test]
    fn int_chunk_round_trips_values_and_nulls() {
        let mut c = ColumnChunk::for_type(DataType::Int);
        c.push(&Value::Int(7));
        c.push(&Value::Null);
        c.push(&Value::Int(-3));
        assert_eq!(c.len(), 3);
        assert_eq!(c.value_at(0), Value::Int(7));
        assert_eq!(c.value_at(1), Value::Null);
        assert_eq!(c.value_at(2), Value::Int(-3));
        assert!(c.is_null(1) && !c.is_null(2));
        let (data, nulls) = c.as_int().unwrap();
        assert_eq!(data, &[7, 0, -3]);
        assert!(nulls.get(1));
    }

    #[test]
    fn str_chunk_dictionary_encodes() {
        let mut c = ColumnChunk::for_type(DataType::Text);
        for s in ["barrel", "endcap", "barrel", "barrel"] {
            c.push(&Value::Text(s.into()));
        }
        c.push(&Value::Null);
        let (codes, dict, nulls) = c.as_str().unwrap();
        assert_eq!(dict.len(), 2, "two distinct strings");
        assert_eq!(codes[0], codes[2]);
        assert_ne!(codes[0], codes[1]);
        assert!(nulls.get(4));
        assert_eq!(c.value_at(3), Value::Text("barrel".into()));
        assert_eq!(c.str_at(1), Some("endcap"));
        assert_eq!(c.str_at(4), None);
        assert_eq!(dict.code_of("endcap"), Some(codes[1]));
        assert_eq!(dict.code_of("nope"), None);
    }

    #[test]
    fn gather_and_gather_opt() {
        let mut c = ColumnChunk::for_type(DataType::Text);
        for s in ["a", "b", "c"] {
            c.push(&Value::Text(s.into()));
        }
        let g = c.gather(&[2, 0]);
        assert_eq!(g.value_at(0), Value::Text("c".into()));
        assert_eq!(g.value_at(1), Value::Text("a".into()));
        let go = c.gather_opt(&[Some(1), None]);
        assert_eq!(go.value_at(0), Value::Text("b".into()));
        assert_eq!(go.value_at(1), Value::Null);

        let mut f = ColumnChunk::for_type(DataType::Float);
        f.push(&Value::Float(1.5));
        f.push(&Value::Null);
        let gf = f.gather_opt(&[None, Some(0), Some(1)]);
        assert_eq!(gf.value_at(0), Value::Null);
        assert_eq!(gf.value_at(1), Value::Float(1.5));
        assert_eq!(gf.value_at(2), Value::Null);
    }

    /// One column of each type, with or without NULLs, as plain values.
    fn gather_sources(nullable: bool) -> Vec<Vec<Value>> {
        let null_or = |i: usize, v: Value| {
            if nullable && i % 3 == 1 {
                Value::Null
            } else {
                v
            }
        };
        // 70 slots: the bitmaps span two words.
        (0..5)
            .map(|ty| {
                (0..70)
                    .map(|i| {
                        null_or(
                            i,
                            match ty {
                                0 => Value::Int(i as i64 * 7 - 100),
                                1 => Value::Float(i as f64 * 0.5 - 3.0),
                                2 => Value::Bool(i % 2 == 0),
                                3 => Value::Text(["a", "bb", "a", "ccc"][i % 4].into()),
                                _ => Value::Bytes(vec![i as u8; i % 3]),
                            },
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn chunk_of(dt: DataType, vals: &[Value]) -> ColumnChunk {
        let mut c = ColumnChunk::for_type(dt);
        for v in vals {
            c.push(v);
        }
        c
    }

    /// `got` holds the same lanes and bitmap as `want`; string chunks hold
    /// the same strings (codes may differ: `want` re-interned them).
    fn assert_same_chunk(got: &ColumnChunk, want: &ColumnChunk) {
        match (got, want) {
            (ColumnChunk::Int { data: a, nulls: na }, ColumnChunk::Int { data: b, nulls: nb }) => {
                assert_eq!((a, na), (b, nb));
            }
            (
                ColumnChunk::Float { data: a, nulls: na },
                ColumnChunk::Float { data: b, nulls: nb },
            ) => {
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!((bits(a), na), (bits(b), nb));
            }
            (
                ColumnChunk::Bool { data: a, nulls: na },
                ColumnChunk::Bool { data: b, nulls: nb },
            ) => {
                assert_eq!((a, na), (b, nb));
            }
            (
                ColumnChunk::Bytes { data: a, nulls: na },
                ColumnChunk::Bytes { data: b, nulls: nb },
            ) => {
                assert_eq!((a, na), (b, nb));
            }
            (ColumnChunk::Str { nulls: na, .. }, ColumnChunk::Str { nulls: nb, .. }) => {
                assert_eq!(na, nb);
                for p in 0..got.len() {
                    assert_eq!(got.str_at(p), want.str_at(p), "slot {p}");
                }
            }
            (a, b) => panic!("type changed: {:?} vs {:?}", a.data_type(), b.data_type()),
        }
        assert_eq!(got.len(), want.len());
    }

    #[test]
    fn gathers_equal_value_by_value_pushes() {
        let positions: Vec<u32> = vec![69, 0, 1, 1, 64, 63, 7, 4, 2, 65];
        let opt_positions: Vec<Option<u32>> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (i % 4 != 2).then_some(p))
            .collect();
        for nullable in [false, true] {
            for vals in gather_sources(nullable) {
                let dt = vals.iter().find_map(Value::data_type).expect("typed");
                let src = chunk_of(dt, &vals);
                let ones = |c: &ColumnChunk| match c {
                    ColumnChunk::Int { nulls, .. }
                    | ColumnChunk::Float { nulls, .. }
                    | ColumnChunk::Bool { nulls, .. }
                    | ColumnChunk::Str { nulls, .. }
                    | ColumnChunk::Bytes { nulls, .. } => nulls.count_ones(),
                };
                assert_eq!(ones(&src) > 0, nullable);

                let g = src.gather(&positions);
                let want: Vec<Value> = positions
                    .iter()
                    .map(|&p| vals[p as usize].clone())
                    .collect();
                assert_same_chunk(&g, &chunk_of(dt, &want));
                assert_eq!(ones(&g), want.iter().filter(|v| v.is_null()).count());

                let go = src.gather_opt(&opt_positions);
                let want: Vec<Value> = opt_positions
                    .iter()
                    .map(|p| p.map_or(Value::Null, |p| vals[p as usize].clone()))
                    .collect();
                assert_same_chunk(&go, &chunk_of(dt, &want));
                assert_eq!(ones(&go), want.iter().filter(|v| v.is_null()).count());

                // Str gathers share the source dictionary, never copy it.
                if let (
                    ColumnChunk::Str { dict: d0, .. },
                    ColumnChunk::Str { dict: d1, .. },
                    ColumnChunk::Str { dict: d2, .. },
                ) = (&src, &g, &go)
                {
                    assert!(Arc::ptr_eq(d0, d1) && Arc::ptr_eq(d0, d2));
                }
            }
        }
    }

    #[test]
    fn gathers_of_empty_and_all_none_positions() {
        let src = chunk_of(DataType::Int, &[Value::Int(1), Value::Int(2)]);
        assert!(src.gather(&[]).is_empty());
        let go = src.gather_opt(&[None, None, None]);
        assert_same_chunk(
            &go,
            &chunk_of(DataType::Int, &[Value::Null, Value::Null, Value::Null]),
        );
        let bm = Bitmap::zeros(3);
        assert_eq!(bm.gather(&[0, 2]), Bitmap::zeros(2));
        assert_eq!(bm.gather_opt(&[Some(1), None]).count_ones(), 1);
    }

    #[test]
    fn from_values_types_widens_and_rejects_mixes() {
        let vals = [Value::Null, Value::Int(1), Value::Float(2.5)];
        let c = ColumnChunk::from_values("a", &vals).unwrap();
        assert_eq!(c.data_type(), DataType::Float);
        assert_eq!(c.value_at(1), Value::Float(1.0));
        assert!(c.is_null(0));
        let none = ColumnChunk::from_values("a", &[Value::Null]).unwrap();
        assert_eq!(none.data_type(), DataType::Float);
        let err = ColumnChunk::from_values("a", &[Value::Int(1), Value::Text("x".into())]);
        assert!(
            matches!(err, Err(StorageError::TypeMismatch { ref column, .. }) if column == "a"),
            "{err:?}"
        );
    }

    #[test]
    fn chunk_wire_size_sums_value_wire_sizes() {
        let cases: Vec<Vec<Value>> = vec![
            vec![Value::Int(7), Value::Null, Value::Int(-1)],
            vec![Value::Float(1.5), Value::Null],
            vec![Value::Bool(true), Value::Null],
            vec![
                Value::Text("barrel".into()),
                Value::Null,
                Value::Text("barrel".into()),
                Value::Text(String::new()),
            ],
            vec![
                Value::Bytes(vec![1, 2, 3]),
                Value::Null,
                Value::Bytes(vec![]),
            ],
        ];
        for vals in cases {
            let c = ColumnChunk::from_values("c", &vals).unwrap();
            let want: usize = vals.iter().map(Value::wire_size).sum();
            assert_eq!(c.wire_size(), want, "{vals:?}");
        }
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn push_rejects_wrong_type() {
        let mut c = ColumnChunk::for_type(DataType::Int);
        c.push(&Value::Text("no".into()));
    }
}
