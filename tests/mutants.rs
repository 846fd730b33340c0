//! The planted-bug selector: `mutants::with` selects a mutant on its
//! thread for exactly the span of its closure, and a thread that never
//! selected one runs the fixed protocol.

use millipage::mutants::{self, Mutant, MUTANTS};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn with_restores_the_previous_selection_on_return_and_on_unwind() {
    // A fresh thread, so no other test's selection can leak in.
    std::thread::spawn(|| {
        assert_eq!(mutants::selected(), None, "a new thread plants no mutant");
        for &(m, name, _) in MUTANTS {
            assert_eq!(Mutant::named(name), Some(m));
            let got = mutants::with(m, || {
                assert_eq!(mutants::selected(), Some(m));
                // Another thread, as a concurrent test runs on, sees every
                // mutant off meanwhile.
                let elsewhere = std::thread::spawn(mutants::selected).join();
                assert_eq!(elsewhere.expect("thread"), None);
                // Nested: the inner scope's end restores the outer
                // selection instead of clearing it, on return...
                mutants::with(m, || ());
                assert_eq!(mutants::selected(), Some(m));
                // ...and on unwind.
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    mutants::with(m, || panic!("planted"));
                }));
                assert!(unwound.is_err());
                assert_eq!(mutants::selected(), Some(m));
                7
            });
            assert_eq!(got, 7, "with returns its closure's value");
            assert_eq!(mutants::selected(), None, "restored on return");

            let unwound = catch_unwind(|| mutants::with(m, || panic!("planted")));
            assert!(unwound.is_err());
            assert_eq!(mutants::selected(), None, "restored on unwind");
        }
        assert_eq!(Mutant::named("nope"), None);
    })
    .join()
    .expect("selector checks");
}
