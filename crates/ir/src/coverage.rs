//! Coverage metrics.
//!
//! AccMoS records the four Simulink coverage metrics (§3.2A of the paper):
//! *actor*, *condition*, *decision* and *MC/DC* coverage, each backed by a
//! bitmap updated from instrumented code. [`CoverageMap`] enumerates the
//! coverage points of a model once, so that the interpreter and the
//! generated C simulator index the very same bitmap slots.

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

/// One instrumentable coverage point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoveragePoint {
    /// The metric this point belongs to.
    pub kind: CoverageKind,
    /// Path key of the owning actor (or conditional group).
    pub actor: String,
    /// Human-readable description, e.g. `branch 2 of 3` or `output true`.
    pub detail: String,
}

/// The per-model enumeration of all coverage points.
///
/// Point ids are dense per metric (each metric gets its own bitmap, as the
/// paper describes: *"AccMoS utilizes a bitmap for each metric"*).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    points: [Vec<CoveragePoint>; 4],
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    fn slot(kind: CoverageKind) -> usize {
        match kind {
            CoverageKind::Actor => 0,
            CoverageKind::Condition => 1,
            CoverageKind::Decision => 2,
            CoverageKind::Mcdc => 3,
        }
    }

    /// Register a point, returning its id within the metric's bitmap.
    pub fn add(&mut self, kind: CoverageKind, actor: &str, detail: impl Into<String>) -> usize {
        let list = &mut self.points[Self::slot(kind)];
        list.push(CoveragePoint { kind, actor: actor.to_owned(), detail: detail.into() });
        list.len() - 1
    }

    /// The points of one metric, in id order.
    pub fn points(&self, kind: CoverageKind) -> &[CoveragePoint] {
        &self.points[Self::slot(kind)]
    }

    /// Number of points registered for one metric.
    pub fn total(&self, kind: CoverageKind) -> usize {
        self.points[Self::slot(kind)].len()
    }

    /// A zeroed set of bitmaps sized for this map.
    pub fn new_bitmaps(&self) -> CoverageBitmaps {
        CoverageBitmaps {
            maps: CoverageKind::ALL.map(|k| CoverageBitmap::with_len(self.total(k))),
        }
    }

    /// Summarize a set of bitmaps against this map.
    pub fn summarize(&self, bitmaps: &CoverageBitmaps) -> CoverageSummary {
        let mut summary = CoverageSummary::default();
        for kind in CoverageKind::ALL {
            let counts = summary.counts_mut(kind);
            counts.total = self.total(kind);
            counts.covered = bitmaps.bitmap(kind).count_ones().min(counts.total);
        }
        summary
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

/// The four bitmaps of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageBitmaps {
    maps: [CoverageBitmap; 4],
}

impl CoverageBitmaps {
    /// The bitmap of one metric.
    pub fn bitmap(&self, kind: CoverageKind) -> &CoverageBitmap {
        &self.maps[CoverageMap::slot(kind)]
    }

    /// Mutable access to the bitmap of one metric.
    pub fn bitmap_mut(&mut self, kind: CoverageKind) -> &mut CoverageBitmap {
        &mut self.maps[CoverageMap::slot(kind)]
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

/// Coverage results across all four metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageSummary {
    counts: [CoverageCounts; 4],
    /// Objectives the static analyzer proved unsatisfiable, per metric.
    /// Kept separate from [`CoverageCounts`] so the raw covered/total
    /// counters stay engine-comparable; these only refine the
    /// *denominator* used by [`CoverageSummary::reachable_percent`].
    unsat: [usize; 4],
}

impl CoverageSummary {
    /// The counters of one metric.
    pub fn counts(&self, kind: CoverageKind) -> CoverageCounts {
        self.counts[CoverageMap::slot(kind)]
    }

    /// Mutable counters of one metric.
    pub fn counts_mut(&mut self, kind: CoverageKind) -> &mut CoverageCounts {
        &mut self.counts[CoverageMap::slot(kind)]
    }

    /// Percentage of one metric.
    pub fn percent(&self, kind: CoverageKind) -> f64 {
        self.counts(kind).percent()
    }

    /// Objectives of one metric proven unsatisfiable by static analysis
    /// (0 unless the report came from an analyzer-pruned simulator),
    /// clamped so the reachable denominator never goes below `covered`.
    ///
    /// The clamp happens here, at *read* time, against the live counters.
    /// Clamping at write time made the result depend on whether the
    /// `ACCMOS:UNSAT` protocol line arrived before or after the
    /// `ACCMOS:COV` counters for the same metric — an `UNSAT` line parsed
    /// first saw `total == 0` and was silently clamped to nothing.
    pub fn unsatisfiable(&self, kind: CoverageKind) -> usize {
        let c = self.counts(kind);
        self.unsat[CoverageMap::slot(kind)].min(c.total.saturating_sub(c.covered))
    }

    /// Record `n` statically unsatisfiable objectives for one metric.
    /// The raw value is stored; [`CoverageSummary::unsatisfiable`] clamps
    /// on read so call order against the counters does not matter.
    pub fn set_unsatisfiable(&mut self, kind: CoverageKind, n: usize) {
        self.unsat[CoverageMap::slot(kind)] = n;
    }

    /// Percentage of one metric over the *reachable* denominator
    /// (total minus statically unsatisfiable objectives).
    ///
    /// A metric whose every point is proven unsatisfiable has an empty
    /// denominator; that is defined as 100 % — nothing reachable is left
    /// to cover — never NaN, which would corrupt batch aggregates and
    /// ledger-derived medians.
    pub fn reachable_percent(&self, kind: CoverageKind) -> f64 {
        let c = self.counts(kind);
        let denom = c.total.saturating_sub(self.unsatisfiable(kind));
        if denom == 0 {
            return 100.0;
        }
        100.0 * c.covered as f64 / denom as f64
    }
}

impl fmt::Display for CoverageSummary {
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
        let a0 = map.add(CoverageKind::Actor, "M_A", "executed");
        let c0 = map.add(CoverageKind::Condition, "M_Sw", "branch 0");
        let a1 = map.add(CoverageKind::Actor, "M_B", "executed");
        assert_eq!((a0, c0, a1), (0, 0, 1));
        assert_eq!(map.total(CoverageKind::Actor), 2);
        assert_eq!(map.total(CoverageKind::Condition), 1);
        assert_eq!(map.points(CoverageKind::Actor)[1].actor, "M_B");
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
    fn summarize_counts_hits() {
        let mut map = CoverageMap::new();
        for i in 0..4 {
            map.add(CoverageKind::Actor, &format!("A{i}"), "executed");
        }
        map.add(CoverageKind::Decision, "D", "true");
        let mut bm = map.new_bitmaps();
        bm.set(CoverageKind::Actor, 0);
        bm.set(CoverageKind::Actor, 2);
        let s = map.summarize(&bm);
        assert_eq!(s.counts(CoverageKind::Actor).covered, 2);
        assert_eq!(s.percent(CoverageKind::Actor), 50.0);
        assert_eq!(s.percent(CoverageKind::Decision), 0.0);
        // No condition points -> trivially fully covered.
        assert_eq!(s.percent(CoverageKind::Condition), 100.0);
    }

    #[test]
    fn reachable_percent_with_empty_denominator_is_100_never_nan() {
        // Regression: every point of a kind proven unsatisfiable empties
        // the reachable denominator. That must read as "nothing left to
        // cover" (100 %), not NaN — NaN poisons batch aggregates and
        // ledger-derived medians (NaN != NaN, min/max/median all break).
        let mut s = CoverageSummary::default();
        *s.counts_mut(CoverageKind::Decision) = CoverageCounts { covered: 0, total: 3 };
        s.set_unsatisfiable(CoverageKind::Decision, 3);
        let pct = s.reachable_percent(CoverageKind::Decision);
        assert!(!pct.is_nan(), "empty denominator must not produce NaN");
        assert_eq!(pct, 100.0);
        // Over-reported unsatisfiable counts clamp the same way.
        s.set_unsatisfiable(CoverageKind::Decision, 99);
        assert_eq!(s.unsatisfiable(CoverageKind::Decision), 3);
        assert_eq!(s.reachable_percent(CoverageKind::Decision), 100.0);
    }

    #[test]
    fn unsatisfiable_is_order_independent_against_the_counters() {
        // Regression: the clamp used to happen at write time, so an
        // ACCMOS:UNSAT protocol line parsed before the ACCMOS:COV
        // counters was clamped against total == 0 and silently dropped.
        let mut early = CoverageSummary::default();
        early.set_unsatisfiable(CoverageKind::Condition, 2); // UNSAT first
        *early.counts_mut(CoverageKind::Condition) = CoverageCounts { covered: 1, total: 4 };

        let mut late = CoverageSummary::default();
        *late.counts_mut(CoverageKind::Condition) = CoverageCounts { covered: 1, total: 4 };
        late.set_unsatisfiable(CoverageKind::Condition, 2); // COV first

        for s in [&early, &late] {
            assert_eq!(s.unsatisfiable(CoverageKind::Condition), 2);
            assert_eq!(s.reachable_percent(CoverageKind::Condition), 50.0);
        }
    }

    #[test]
    fn summary_display_mentions_all_metrics() {
        let s = CoverageSummary::default();
        let text = s.to_string();
        for kind in CoverageKind::ALL {
            assert!(text.contains(kind.name()), "missing {kind} in `{text}`");
        }
    }
}
