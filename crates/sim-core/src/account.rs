//! Per-category virtual-time accounting.
//!
//! Figure 6 (right) of the paper breaks the eight-host execution time of
//! each application into *Comp*, *Prefetch*, *Read Fault*, *Write Fault*
//! and *Synch*. Application threads in the reproduction attribute every
//! virtual nanosecond to one of these categories as it is charged, so the
//! breakdown is exact rather than sampled.

use crate::clock::Ns;

/// Where a slice of virtual time was spent (Figure 6 categories).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// Application computation (including local memory access).
    Comp,
    /// Waiting for data that a prefetch had already requested.
    Prefetch,
    /// Blocked on a read access fault.
    ReadFault,
    /// Blocked on a write access fault.
    WriteFault,
    /// Barriers and locks.
    Synch,
}

impl Category {
    /// All categories in the order the paper's figure lists them.
    pub const ALL: [Category; 5] = [
        Category::Comp,
        Category::Prefetch,
        Category::ReadFault,
        Category::WriteFault,
        Category::Synch,
    ];

    /// Short label used by the `repro` harness output.
    pub fn label(self) -> &'static str {
        match self {
            Category::Comp => "Comp",
            Category::Prefetch => "Prefetch",
            Category::ReadFault => "Read Fault",
            Category::WriteFault => "Write Fault",
            Category::Synch => "Synch",
        }
    }
}

/// Accumulated virtual time per [`Category`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct TimeBreakdown {
    totals: [Ns; 5],
}

impl TimeBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `dt` virtual nanoseconds to `cat`.
    #[inline]
    pub fn charge(&mut self, cat: Category, dt: Ns) {
        self.totals[Self::slot(cat)] += dt;
    }

    /// Time accumulated in `cat`.
    #[inline]
    pub fn get(&self, cat: Category) -> Ns {
        self.totals[Self::slot(cat)]
    }

    /// Sum over all categories.
    pub fn total(&self) -> Ns {
        self.totals.iter().sum()
    }

    /// Fraction of the total spent in `cat` (0 when the total is 0).
    pub fn fraction(&self, cat: Category) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(cat) as f64 / total as f64
        }
    }

    /// Element-wise sum with another breakdown (used to aggregate the
    /// per-thread breakdowns of one run).
    pub fn merge(&mut self, other: &TimeBreakdown) {
        for i in 0..self.totals.len() {
            self.totals[i] += other.totals[i];
        }
    }

    /// Element-wise saturating difference: the time accumulated since the
    /// `earlier` snapshot (used for timed regions).
    pub fn since(&self, earlier: &TimeBreakdown) -> TimeBreakdown {
        let mut out = TimeBreakdown::new();
        for i in 0..self.totals.len() {
            out.totals[i] = self.totals[i].saturating_sub(earlier.totals[i]);
        }
        out
    }

    fn slot(cat: Category) -> usize {
        match cat {
            Category::Comp => 0,
            Category::Prefetch => 1,
            Category::ReadFault => 2,
            Category::WriteFault => 3,
            Category::Synch => 4,
        }
    }
}

impl std::fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total().max(1);
        let mut first = true;
        for cat in Category::ALL {
            if !first {
                write!(f, "  ")?;
            }
            first = false;
            write!(
                f,
                "{} {:.1}%",
                cat.label(),
                100.0 * self.get(cat) as f64 / total as f64
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_category() {
        let mut b = TimeBreakdown::new();
        b.charge(Category::Comp, 10);
        b.charge(Category::Comp, 5);
        b.charge(Category::Synch, 7);
        assert_eq!(b.get(Category::Comp), 15);
        assert_eq!(b.get(Category::Synch), 7);
        assert_eq!(b.get(Category::ReadFault), 0);
        assert_eq!(b.total(), 22);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut b = TimeBreakdown::new();
        for (i, cat) in Category::ALL.into_iter().enumerate() {
            b.charge(cat, (i as Ns + 1) * 100);
        }
        let sum: f64 = Category::ALL.iter().map(|&c| b.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        let b = TimeBreakdown::new();
        assert_eq!(b.fraction(Category::Comp), 0.0);
        assert_eq!(b.total(), 0);
    }

    #[test]
    fn since_subtracts_snapshots() {
        let mut b = TimeBreakdown::new();
        b.charge(Category::Comp, 100);
        let mark = b;
        b.charge(Category::Comp, 40);
        b.charge(Category::Synch, 7);
        let d = b.since(&mark);
        assert_eq!(d.get(Category::Comp), 40);
        assert_eq!(d.get(Category::Synch), 7);
        assert_eq!(mark.since(&b).total(), 0, "saturating");
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = TimeBreakdown::new();
        a.charge(Category::Comp, 1);
        a.charge(Category::Prefetch, 2);
        let mut b = TimeBreakdown::new();
        b.charge(Category::Comp, 10);
        b.charge(Category::WriteFault, 4);
        a.merge(&b);
        assert_eq!(a.get(Category::Comp), 11);
        assert_eq!(a.get(Category::Prefetch), 2);
        assert_eq!(a.get(Category::WriteFault), 4);
    }

    #[test]
    fn display_mentions_every_label() {
        let mut b = TimeBreakdown::new();
        b.charge(Category::Comp, 50);
        b.charge(Category::Synch, 50);
        let s = b.to_string();
        for cat in Category::ALL {
            assert!(s.contains(cat.label()), "missing {:?} in {s}", cat);
        }
    }
}
