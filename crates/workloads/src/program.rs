//! Trace representation: strided vector accesses grouped into a program.

use serde::{Deserialize, Serialize};

/// One strided vector load (or store) of `length` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorAccess {
    /// Word address of element 0.
    pub base: u64,
    /// Stride in words; negative strides walk backwards.
    pub stride: i64,
    /// Element count.
    pub length: u64,
    /// Access-stream tag (for self- vs cross-interference attribution).
    pub stream: u32,
    /// True when this access is paired with the *next* access in the
    /// program as a simultaneous double-stream load (the paper's `P_ds`
    /// events, one vector per read bus).
    pub paired_with_next: bool,
}

/// Converts a word stride or matrix dimension to the signed stride type
/// used by [`VectorAccess`], rejecting values a raw `as i64` cast would
/// silently wrap negative (lint VC003's extended class for this crate).
///
/// # Panics
///
/// Panics if `value` exceeds `i64::MAX` words.
#[must_use]
pub fn signed_stride(value: u64) -> i64 {
    assert!(
        i64::try_from(value).is_ok(),
        "stride/dimension {value} exceeds the signed stride range"
    );
    // Infallible after the assert above; `unwrap_or_default` keeps the
    // conversion checked without a panicking call in library code.
    i64::try_from(value).unwrap_or_default()
}

impl VectorAccess {
    /// A single-stream access.
    #[must_use]
    pub fn single(base: u64, stride: i64, length: u64, stream: u32) -> Self {
        Self {
            base,
            stride,
            length,
            stream,
            paired_with_next: false,
        }
    }

    /// Word address of element `i` (wrapping).
    #[must_use]
    pub fn word(&self, i: u64) -> u64 {
        self.base.wrapping_add(i.wrapping_mul(self.stride as u64))
    }

    /// Iterator over the words touched, in order.
    pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.length).map(|i| self.word(i))
    }
}

/// An ordered trace of vector accesses with a human-readable name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    /// Workload name for reports.
    pub name: String,
    /// The accesses, in issue order.
    pub accesses: Vec<VectorAccess>,
}

impl Program {
    /// Creates a named program.
    #[must_use]
    pub fn new(name: impl Into<String>, accesses: Vec<VectorAccess>) -> Self {
        Self {
            name: name.into(),
            accesses,
        }
    }

    /// Total elements across all accesses, saturating at `u64::MAX`.
    #[must_use]
    pub fn total_elements(&self) -> u64 {
        self.accesses
            .iter()
            .fold(0u64, |acc, a| acc.saturating_add(a.length))
    }

    /// All words touched, flattened in issue order (pairing ignored).
    pub fn words(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.accesses
            .iter()
            .flat_map(|a| a.words().map(move |w| (w, a.stream)))
    }

    /// The program's footprint in units of `unit` words: the sorted,
    /// deduplicated `(word / unit, stream)` pairs it touches (`unit` 1
    /// gives word addresses, a line size gives lines). Each distinct
    /// `(stream, base, stride, length)` access is expanded once, however
    /// often the program repeats it.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is zero.
    #[must_use]
    pub fn footprint(&self, unit: u64) -> Vec<(u64, u32)> {
        let key = |a: &&VectorAccess| (a.stream, a.base, a.stride, a.length);
        let mut distinct: Vec<&VectorAccess> = self.accesses.iter().collect();
        distinct.sort_unstable_by_key(key);
        distinct.dedup_by_key(|a| key(a));
        let mut pairs: Vec<(u64, u32)> = distinct
            .iter()
            .flat_map(|a| a.words().map(move |w| (w / unit, a.stream)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

impl Extend<VectorAccess> for Program {
    fn extend<T: IntoIterator<Item = VectorAccess>>(&mut self, iter: T) {
        self.accesses.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn word_addressing_forward_and_backward() {
        let a = VectorAccess::single(100, 3, 4, 0);
        assert_eq!(a.words().collect::<Vec<_>>(), vec![100, 103, 106, 109]);
        let b = VectorAccess::single(100, -3, 3, 0);
        assert_eq!(b.words().collect::<Vec<_>>(), vec![100, 97, 94]);
    }

    #[test]
    fn program_totals_and_flatten() {
        let p = Program::new(
            "t",
            vec![
                VectorAccess::single(0, 1, 3, 0),
                VectorAccess::single(10, 2, 2, 1),
            ],
        );
        assert_eq!(p.total_elements(), 5);
        let words: Vec<_> = p.words().collect();
        assert_eq!(words, vec![(0, 0), (1, 0), (2, 0), (10, 1), (12, 1)]);
    }

    #[test]
    fn footprint_is_the_sorted_distinct_pairs_per_unit() {
        // A repeat, and accesses that each differ from `a` in one field of
        // the dedup key, in both orders: a prefix of `a`, then base, stride
        // and stream.
        let a = VectorAccess::single(12, 1, 4, 0);
        let mut accesses = vec![
            VectorAccess::single(12, 1, 2, 0),
            a,
            a,
            VectorAccess::single(20, 1, 4, 0),
            VectorAccess::single(12, -3, 4, 0),
            VectorAccess::single(12, 1, 4, 1),
            VectorAccess::single(12, 0, 4, 1),
        ];
        for _ in 0..2 {
            let p = Program::new("t", accesses.clone());
            for unit in [1, 4] {
                let reference: BTreeSet<(u64, u32)> =
                    p.words().map(|(w, s)| (w / unit, s)).collect();
                assert!(p.footprint(unit).iter().eq(&reference), "unit {unit}");
            }
            accesses.reverse();
        }
        assert!(Program::new("empty", vec![]).footprint(8).is_empty());
    }

    #[test]
    fn signed_stride_round_trips_in_range_values() {
        assert_eq!(signed_stride(0), 0);
        assert_eq!(signed_stride(10_000), 10_000);
        assert_eq!(signed_stride(i64::MAX as u64), i64::MAX);
    }

    #[test]
    #[should_panic(expected = "signed stride range")]
    fn signed_stride_rejects_wrapping_values() {
        let _ = signed_stride(u64::MAX);
    }

    #[test]
    fn extend_appends() {
        let mut p = Program::new("t", vec![]);
        p.extend([VectorAccess::single(0, 1, 1, 0)]);
        assert_eq!(p.accesses.len(), 1);
    }
}
