//! Machine-speed calibration.
//!
//! The box this runs on is a small VM whose speed changes under it: for
//! seconds to minutes at a time everything costs 20-80% more (a neighbour
//! on the host), then as suddenly less. A run lasts seconds, so most of it
//! falls in one such period and no median within the run can see it; two
//! runs of the same commit then differ by more than any bound.
//!
//! So every timed interval is bracketed by a fixed piece of work of the
//! kind the simulator's wall is made of — condvar hand-offs between two
//! threads on the one pinned CPU — and the interval is reported at
//! reference speed: its wall divided by how much slower than
//! [`REFERENCE_S`] its brackets ran. The kernel uses only `std`, so no
//! change to the repository can move it. Measured over 45 minutes on the
//! reference box, this takes the quartile spread of `wall_s` between runs
//! from 10-49% of the median down to 3-10% (README, Measurement
//! conditions).

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// What [`calibrate`] reads on the reference box (2 vCPU Xeon 2.1 GHz
/// Firecracker guest) in its fast state. A constant, so that a slow period
/// reads as a factor above 1 rather than as the new normal; on another
/// machine it only rescales every reported time by one factor.
pub const REFERENCE_S: f64 = 0.0054;

/// Condvar round trips per sample (two hand-offs each).
const ROUND_TRIPS: u32 = 1_000;
/// Samples per calibration; the median is the calibration.
const SAMPLES: usize = 9;

/// Seconds one sample of the fixed work takes now: the median of
/// [`SAMPLES`] (about 50 ms in all).
pub fn calibrate() -> f64 {
    let turn = Arc::new((Mutex::new(0u32), Condvar::new()));
    let theirs = Arc::clone(&turn);
    let total = ROUND_TRIPS * SAMPLES as u32;
    // The partner answers every odd count with the next even one.
    let partner = std::thread::spawn(move || {
        let (lock, cv) = &*theirs;
        let mut n = lock.lock().expect("calibration lock");
        for _ in 0..total {
            while *n % 2 == 0 {
                n = cv.wait(n).expect("calibration lock");
            }
            *n += 1;
            cv.notify_one();
        }
    });
    let (lock, cv) = &*turn;
    let mut n = lock.lock().expect("calibration lock");
    let mut samples = [0.0; SAMPLES];
    for sample in &mut samples {
        let t = Instant::now();
        for _ in 0..ROUND_TRIPS {
            *n += 1;
            cv.notify_one();
            while *n % 2 == 1 {
                n = cv.wait(n).expect("calibration lock");
            }
        }
        *sample = t.elapsed().as_secs_f64();
    }
    drop(n);
    partner.join().expect("calibration partner");
    crate::metrics::median(&samples)
}

/// `wall` seconds measured between two calibrations, at reference speed.
pub fn at_reference_speed(wall: f64, before: f64, after: f64) -> f64 {
    wall * REFERENCE_S / ((before + after) / 2.0)
}
