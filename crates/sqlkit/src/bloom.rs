//! Fixed-seed bloom filters for semi-join reduction.
//!
//! When the mediator ships a reduction to a big table's source, the filter
//! must be expressible in portable SQL text (remote sub-queries are
//! re-parsed by the receiving mediator) and must hash values exactly the
//! way the mediator's own hash join keys them — otherwise a key the join
//! would match could be filtered out at the source, which would change the
//! answer. Both ends therefore use this module: the same fixed seeds, the
//! same fixed probe count, and the same keys: filters hash the
//! [`KeyValue`] of a value (INT and FLOAT fold through
//! canonical IEEE-754 bits, every NaN is one key, `-0.0` folds into
//! `0.0`). SQL NULL has no key: inserting it is a no-op and probing it
//! returns `false`, matching how the inner join drops NULL keys.
//!
//! A filter travels as a hex string literal inside a
//! `BLOOM_HAS(col, '<hex>')` predicate, so only false *positives* are
//! possible: a bit pattern can admit an extra row (harmless — the
//! mediator's join discards it) but can never reject a genuine key.

use crate::compile::KeyValue;
use gridfed_storage::Value;

/// Probes per key. Fixed so every mediator revision computes identical
/// filters from identical key sets.
pub const BLOOM_PROBES: u32 = 4;

/// Bits budgeted per expected key (~2.4% false-positive rate at 4 probes).
const BITS_PER_KEY: usize = 10;

/// Smallest filter ever built, in bits.
const MIN_BITS: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Seeds for the two independent hash streams of the double-hashing
/// scheme. Fixed forever: a filter built by one mediator must probe
/// identically on any other.
const SEED_H1: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_H2: u64 = 0x517c_c1b7_2722_0a95;

/// A fixed-seed bloom filter over SQL values. `bits.len()` is always a
/// power of two so probes reduce with a mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
}

impl BloomFilter {
    /// A filter sized for `keys` expected distinct keys.
    pub fn with_capacity(keys: usize) -> BloomFilter {
        let bits = (keys.saturating_mul(BITS_PER_KEY))
            .max(MIN_BITS)
            .next_power_of_two();
        BloomFilter {
            bits: vec![0u8; bits / 8],
        }
    }

    /// Number of bits in the filter.
    pub fn bit_len(&self) -> usize {
        self.bits.len() * 8
    }

    /// Insert a value's key. SQL NULL has no key and is skipped.
    pub fn insert(&mut self, v: &Value) {
        let Some(key) = KeyValue::of(v) else {
            return;
        };
        let (h1, h2) = hash_pair(&key);
        let mask = (self.bit_len() - 1) as u64;
        for i in 0..BLOOM_PROBES as u64 {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2)) & mask) as usize;
            self.bits[bit / 8] |= 1 << (bit % 8);
        }
    }

    /// Whether the value's key may be in the set (`false` is definitive;
    /// NULL probes `false`, matching the join's NULL-key drop).
    pub fn might_contain(&self, v: &Value) -> bool {
        KeyValue::of(v).is_some_and(|key| self.might_contain_key(&key))
    }

    /// [`BloomFilter::might_contain`] for an already-built hash key, so
    /// column kernels probe without materializing a [`Value`].
    pub(crate) fn might_contain_key(&self, key: &KeyValue<'_>) -> bool {
        let (h1, h2) = hash_pair(key);
        let mask = (self.bit_len() - 1) as u64;
        (0..BLOOM_PROBES as u64).all(|i| {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2)) & mask) as usize;
            self.bits[bit / 8] & (1 << (bit % 8)) != 0
        })
    }

    /// Hex encoding of the bit array — the payload of the SQL literal.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(self.bits.len() * 2);
        for b in &self.bits {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Decode a filter from its hex payload. The byte count must be a
    /// power of two (as `with_capacity` always produces).
    pub fn from_hex(hex: &str) -> Result<BloomFilter, String> {
        if hex.is_empty() || !hex.len().is_multiple_of(2) {
            return Err(format!("bloom payload has odd length {}", hex.len()));
        }
        let mut bits = Vec::with_capacity(hex.len() / 2);
        let raw = hex.as_bytes();
        for pair in raw.chunks(2) {
            let hi = hex_nibble(pair[0])?;
            let lo = hex_nibble(pair[1])?;
            bits.push((hi << 4) | lo);
        }
        if !bits.len().is_power_of_two() {
            return Err(format!(
                "bloom payload must be a power-of-two byte count, got {}",
                bits.len()
            ));
        }
        Ok(BloomFilter { bits })
    }
}

fn hex_nibble(c: u8) -> Result<u8, String> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        other => Err(format!(
            "invalid hex digit {:?} in bloom payload",
            other as char
        )),
    }
}

/// The two double-hashing streams of a canonical key. `h2` is forced odd
/// so probes cycle the whole (power-of-two) bit space.
fn hash_pair(key: &KeyValue<'_>) -> (u64, u64) {
    // Tagged key bytes: equal keys, equal bytes.
    let num;
    let (tag, bytes): (u8, &[u8]) = match key {
        KeyValue::Num(bits) => {
            num = bits.to_le_bytes();
            (b'n', &num)
        }
        KeyValue::Text(s) => (b't', s.as_bytes()),
        KeyValue::Bool(b) => (b'b', if *b { &[1] } else { &[0] }),
        KeyValue::Bytes(b) => (b'y', b),
    };
    let h1 = fnv1a(SEED_H1, tag, bytes);
    let h2 = fnv1a(SEED_H2, tag, bytes) | 1;
    (h1, h2)
}

fn fnv1a(seed: u64, tag: u8, bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ seed;
    h = (h ^ tag as u64).wrapping_mul(FNV_PRIME);
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Probe a hex-encoded filter with a value, decoding the payload on every
/// call. This is the interpreted `BLOOM_HAS` path; compiled expressions
/// decode a literal payload once (`CompiledExpr::BloomHas`).
pub fn probe_hex(hex: &str, v: &Value) -> Result<bool, String> {
    Ok(BloomFilter::from_hex(hex)?.might_contain(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(100);
        let keys: Vec<Value> = (0..100)
            .map(|i| match i % 4 {
                0 => Value::Int(i),
                1 => Value::Float(i as f64 + 0.5),
                2 => Value::Text(format!("k{i}")),
                _ => Value::Bool(i % 8 == 3),
            })
            .collect();
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            assert!(f.might_contain(k), "inserted key missing: {k:?}");
        }
    }

    #[test]
    fn keys_fold_like_the_hash_join() {
        let mut f = BloomFilter::with_capacity(8);
        f.insert(&Value::Int(3));
        assert!(f.might_contain(&Value::Float(3.0)), "INT folds with FLOAT");
        let mut f = BloomFilter::with_capacity(8);
        f.insert(&Value::Float(-0.0));
        assert!(f.might_contain(&Value::Float(0.0)), "-0.0 folds into 0.0");
        let mut f = BloomFilter::with_capacity(8);
        f.insert(&Value::Float(f64::NAN));
        assert!(
            f.might_contain(&Value::Float(-f64::NAN)),
            "all NaNs are one key"
        );
    }

    #[test]
    fn null_has_no_key() {
        let mut f = BloomFilter::with_capacity(8);
        f.insert(&Value::Null);
        assert!(!f.might_contain(&Value::Null));
        assert_eq!(f, BloomFilter::with_capacity(8), "insert was a no-op");
    }

    #[test]
    fn hex_round_trip() {
        let mut f = BloomFilter::with_capacity(50);
        for i in 0..50 {
            f.insert(&Value::Int(i * 7));
        }
        let hex = f.to_hex();
        let back = BloomFilter::from_hex(&hex).expect("decodes");
        assert_eq!(back, f);
        assert!(BloomFilter::from_hex("zz").is_err());
        assert!(BloomFilter::from_hex("abc").is_err(), "odd length");
        assert!(BloomFilter::from_hex("").is_err());
        assert!(
            BloomFilter::from_hex("aabbcc").is_err(),
            "3 bytes is not a power of two"
        );
    }

    #[test]
    fn false_positive_rate_is_modest() {
        let mut f = BloomFilter::with_capacity(1000);
        for i in 0..1000 {
            f.insert(&Value::Int(i));
        }
        let fp = (1000..11_000)
            .filter(|i| f.might_contain(&Value::Int(*i)))
            .count();
        assert!(fp < 800, "false-positive rate too high: {fp}/10000");
    }

    #[test]
    fn probe_hex_matches_direct_probe() {
        let mut f = BloomFilter::with_capacity(16);
        f.insert(&Value::Text("barrel".into()));
        let hex = f.to_hex();
        assert!(probe_hex(&hex, &Value::Text("barrel".into())).unwrap());
        assert!(!probe_hex(&hex, &Value::Null).unwrap());
        assert!(probe_hex("xx", &Value::Int(1)).is_err());
    }
}
