//! Coverage metrics.
//!
//! AccMoS records the four Simulink coverage metrics (§3.2A of the paper):
//! *actor*, *condition*, *decision* and *MC/DC* coverage, each backed by a
//! bitmap updated from instrumented code; a run's coverage is its
//! [`CoverageBitmaps`]. [`CoverageMap`] enumerates the coverage points of
//! a model once, so that the interpreter and the generated C simulator
//! index the very same bitmap slots.

use std::fmt;

/// One of the four Simulink coverage metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoverageKind {
    /// Has each actor executed at least once?
    Actor,
    /// Has each branch outcome of each branch actor been taken?
    Condition,
    /// Has each boolean decision evaluated to both true and false?
    Decision,
    /// Has each condition independently affected its decision, both ways?
    Mcdc,
}

impl CoverageKind {
    /// All metrics, in report order.
    pub const ALL: [CoverageKind; 4] =
        [CoverageKind::Actor, CoverageKind::Condition, CoverageKind::Decision, CoverageKind::Mcdc];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            CoverageKind::Actor => "Actor",
            CoverageKind::Condition => "Condition",
            CoverageKind::Decision => "Decision",
            CoverageKind::Mcdc => "MC/DC",
        }
    }

    /// A stable ordinal (`0..4`, in [`CoverageKind::ALL`] order) for
    /// per-metric arrays.
    pub fn index(self) -> usize {
        match self {
            CoverageKind::Actor => 0,
            CoverageKind::Condition => 1,
            CoverageKind::Decision => 2,
            CoverageKind::Mcdc => 3,
        }
    }

    /// Identifier-safe short name (bitmap prefix in generated code).
    pub fn ident(self) -> &'static str {
        match self {
            CoverageKind::Actor => "actor",
            CoverageKind::Condition => "cond",
            CoverageKind::Decision => "dec",
            CoverageKind::Mcdc => "mcdc",
        }
    }
}

impl fmt::Display for CoverageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-model count of coverage points, per metric.
///
/// Point ids are dense per metric (each metric gets its own bitmap, as the
/// paper describes: *"AccMoS utilizes a bitmap for each metric"*).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    totals: [usize; 4],
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Register a point, returning its id within the metric's bitmap.
    pub fn add(&mut self, kind: CoverageKind) -> usize {
        let total = &mut self.totals[kind.index()];
        *total += 1;
        *total - 1
    }

    /// Number of points registered for one metric.
    pub fn total(&self, kind: CoverageKind) -> usize {
        self.totals[kind.index()]
    }

    /// A zeroed set of bitmaps sized for this map.
    pub fn new_bitmaps(&self) -> CoverageBitmaps {
        CoverageBitmaps {
            maps: CoverageKind::ALL.map(|k| CoverageBitmap::with_len(self.total(k))),
        }
    }
}

/// A runtime coverage bitmap (one bit per point).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageBitmap {
    len: usize,
    words: Vec<u64>,
}

impl CoverageBitmap {
    /// A zeroed bitmap of `len` bits.
    pub fn with_len(len: usize) -> CoverageBitmap {
        CoverageBitmap { len, words: vec![0; len.div_ceil(64)] }
    }

    /// A bitmap of `len` bits from its 64-bit words, bit `i` in word
    /// `i / 64` at position `i % 64`.
    ///
    /// # Errors
    ///
    /// A message when `words` is not exactly `ceil(len / 64)` long, or
    /// sets a bit at or past `len`.
    pub fn from_words(len: usize, words: Vec<u64>) -> Result<CoverageBitmap, String> {
        let want = len.div_ceil(64);
        if words.len() != want {
            return Err(format!("{} word(s) for {len} bit(s), want {want}", words.len()));
        }
        let spare = (want * 64 - len) as u32;
        if spare > 0 && words[want - 1].leading_zeros() < spare {
            return Err(format!("a bit at or past {len} is set"));
        }
        Ok(CoverageBitmap { len, words })
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if there are no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&mut self, id: usize) {
        assert!(id < self.len, "coverage point {id} out of range {}", self.len);
        self.words[id / 64] |= 1u64 << (id % 64);
    }

    /// Read bit `id` (out-of-range reads return `false`).
    pub fn get(&self, id: usize) -> bool {
        if id >= self.len {
            return false;
        }
        self.words[id / 64] >> (id % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Merge another bitmap of the same length (bitwise or).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn merge(&mut self, other: &CoverageBitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }
}

/// The four bitmaps of one simulation run: its coverage results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageBitmaps {
    maps: [CoverageBitmap; 4],
}

impl CoverageBitmaps {
    /// The bitmap of one metric.
    pub fn bitmap(&self, kind: CoverageKind) -> &CoverageBitmap {
        &self.maps[kind.index()]
    }

    /// Mutable access to the bitmap of one metric.
    pub fn bitmap_mut(&mut self, kind: CoverageKind) -> &mut CoverageBitmap {
        &mut self.maps[kind.index()]
    }

    /// The counters of one metric: its set bits over its length.
    pub fn counts(&self, kind: CoverageKind) -> CoverageCounts {
        let bitmap = self.bitmap(kind);
        CoverageCounts { covered: bitmap.count_ones(), total: bitmap.len() }
    }

    /// Percentage of one metric.
    pub fn percent(&self, kind: CoverageKind) -> f64 {
        self.counts(kind).percent()
    }

    /// Set one point.
    pub fn set(&mut self, kind: CoverageKind, id: usize) {
        self.bitmap_mut(kind).set(id);
    }

    /// OR every metric's bitmap from `other` into this set: the union
    /// that folds the coverage of a job's lanes into one.
    pub fn merge(&mut self, other: &CoverageBitmaps) {
        for kind in CoverageKind::ALL {
            self.bitmap_mut(kind).merge(other.bitmap(kind));
        }
    }
}

/// Covered/total counters for one metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageCounts {
    /// Points hit at least once.
    pub covered: usize,
    /// Points instrumented.
    pub total: usize,
}

impl CoverageCounts {
    /// Percentage covered. A metric with no points is reported as 100 %
    /// (there is nothing left to cover), matching Simulink's convention.
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.covered as f64 / self.total as f64
        }
    }
}

impl fmt::Display for CoverageBitmaps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, kind) in CoverageKind::ALL.into_iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            let c = self.counts(kind);
            write!(f, "{}: {:.1}% ({}/{})", kind.name(), c.percent(), c.covered, c.total)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_assigns_dense_ids_per_metric() {
        let mut map = CoverageMap::new();
        let a0 = map.add(CoverageKind::Actor);
        let c0 = map.add(CoverageKind::Condition);
        let a1 = map.add(CoverageKind::Actor);
        assert_eq!((a0, c0, a1), (0, 0, 1));
        assert_eq!(map.total(CoverageKind::Actor), 2);
        assert_eq!(map.total(CoverageKind::Condition), 1);
        assert_eq!(map.total(CoverageKind::Mcdc), 0);
    }

    #[test]
    fn kind_index_follows_report_order() {
        for (i, kind) in CoverageKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind}");
        }
    }

    #[test]
    fn bitmap_set_get_count() {
        let mut bm = CoverageBitmap::with_len(130);
        assert!(!bm.is_empty());
        bm.set(0);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1));
        assert!(!bm.get(1000));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn bitmap_from_words_round_trips_and_rejects_bad_shapes() {
        let mut bm = CoverageBitmap::with_len(70);
        bm.set(3);
        bm.set(69);
        let back = CoverageBitmap::from_words(70, vec![1 << 3, 1 << 5]).unwrap();
        assert_eq!(back, bm);
        assert_eq!(CoverageBitmap::from_words(0, Vec::new()).unwrap().len(), 0);
        assert_eq!(CoverageBitmap::from_words(64, vec![u64::MAX]).unwrap().count_ones(), 64);
        assert!(CoverageBitmap::from_words(70, vec![1]).unwrap_err().contains("want 2"));
        assert!(CoverageBitmap::from_words(0, vec![0]).is_err());
        let err = CoverageBitmap::from_words(70, vec![0, 1 << 6]).unwrap_err();
        assert!(err.contains("past 70"), "{err}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmap_set_out_of_range_panics() {
        CoverageBitmap::with_len(4).set(4);
    }

    #[test]
    fn merge_ors_bits() {
        let mut a = CoverageBitmap::with_len(10);
        let mut b = CoverageBitmap::with_len(10);
        a.set(1);
        b.set(2);
        a.merge(&b);
        assert!(a.get(1) && a.get(2));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn counts_are_set_bits_over_bitmap_length() {
        let mut map = CoverageMap::new();
        for _ in 0..4 {
            map.add(CoverageKind::Actor);
        }
        map.add(CoverageKind::Decision);
        let mut bm = map.new_bitmaps();
        bm.set(CoverageKind::Actor, 0);
        bm.set(CoverageKind::Actor, 2);
        assert_eq!(bm.counts(CoverageKind::Actor), CoverageCounts { covered: 2, total: 4 });
        assert_eq!(bm.percent(CoverageKind::Actor), 50.0);
        assert_eq!(bm.percent(CoverageKind::Decision), 0.0);
        // No condition points -> trivially fully covered.
        assert_eq!(bm.percent(CoverageKind::Condition), 100.0);
    }

    #[test]
    fn display_shows_every_metric() {
        let mut map = CoverageMap::new();
        map.add(CoverageKind::Actor);
        map.add(CoverageKind::Actor);
        let mut bm = map.new_bitmaps();
        bm.set(CoverageKind::Actor, 1);
        assert_eq!(
            bm.to_string(),
            "Actor: 50.0% (1/2)  Condition: 100.0% (0/0)  Decision: 100.0% (0/0)  MC/DC: 100.0% (0/0)"
        );
    }
}
