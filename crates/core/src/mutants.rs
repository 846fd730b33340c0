//! Planted protocol bugs: fixed faults brought back on purpose, so the
//! schedule explorer and the auditor can show they catch real ones.
//!
//! Compiled only under this crate's `mutants` feature, which the
//! reproduction harness (`millipage-bench`) turns on and no plain build
//! does: without it the protocol's check for a mutant is the constant
//! `false`, and none of this module is linked.
//!
//! [`MUTANTS`] is the one table of planted bugs, and the protocol reads
//! each at exactly one site. [`with`] selects a mutant on the calling
//! thread while a closure runs. A simulated [`run`](crate::run) keeps
//! every fiber on its caller's thread, so a run inside the closure plants
//! the bug; the real-memory backend's server thread never sees one.

use std::cell::Cell;

/// One planted bug. Its name and what it breaks are its row of
/// [`MUTANTS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutant {
    /// `stale-reinstall`.
    StaleReinstall,
}

/// Every mutant: `(mutant, name, what it breaks)`. The name is what
/// `repro explore --inject` takes.
pub const MUTANTS: &[(Mutant, &str, &str)] = &[(
    Mutant::StaleReinstall,
    "stale-reinstall",
    "a home installs its own serve-time snapshot of a minipage over a \
     release diff applied since, losing that release (Figure 3's install step)",
)];

impl Mutant {
    /// The mutant named `name` in [`MUTANTS`].
    pub fn named(name: &str) -> Option<Self> {
        MUTANTS.iter().find(|row| row.1 == name).map(|row| row.0)
    }
}

thread_local! {
    static SELECTED: Cell<Option<Mutant>> = const { Cell::new(None) };
}

/// The mutant selected on the calling thread: `None` outside [`with`].
pub fn selected() -> Option<Mutant> {
    SELECTED.with(Cell::get)
}

/// Runs `f` with `mutant` selected on the calling thread, and restores
/// the previous selection when `f` returns or unwinds.
pub fn with<R>(mutant: Mutant, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Mutant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SELECTED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SELECTED.with(|s| s.replace(Some(mutant))));
    f()
}
