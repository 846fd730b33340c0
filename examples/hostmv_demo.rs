//! MultiView on the real MMU (Linux): the paper's §2 mechanism live.
//!
//! Run with `cargo run --release --example hostmv_demo`.
//!
//! Creates one memory object (`memfd`), maps it through three application
//! views plus the privileged view, installs a SIGSEGV handler, and then:
//!
//! 1. takes real page faults through sealed views and upgrades their
//!    protection on the fly (the DSM fault path),
//! 2. shows the same physical page carrying different protections through
//!    different views,
//! 3. performs a privileged-view update while application views are
//!    sealed (§2.3.1's atomic update / zero-copy receive),
//! 4. measures the real cost of a fault + mprotect upgrade cycle,
//! 5. shows the record a DSM's resolver receives: the same `Fault`
//!    (canonical address, vpage, access) the simulator raises.

#[cfg(target_os = "linux")]
fn main() {
    use hostmv::{install_dsm_handler, install_handler, MultiViewRegion, Unserved};
    use sim_core::{Access, Fault, Prot, VAddr};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    let region = Arc::new(MultiViewRegion::new(16, 3).expect("mmap views"));
    let counters = install_handler(Arc::clone(&region)).expect("install handler");
    println!(
        "memory object: {} pages of {} B, {} app views + privileged view",
        region.geometry().pages(),
        region.geometry().page_size(),
        region.geometry().views()
    );

    // 1. Fault-driven upgrades.
    region.priv_write(0, 0, b"hello through the privileged view");
    println!("\n-- fault-driven upgrade ladder --");
    println!("view 0 page 0: {:?}", region.prot(0, 0));
    let b = region.read_u8(0, 0, 0); // SIGSEGV -> ReadOnly -> retry.
    println!(
        "read through sealed view 0 returned {:?} after {} read fault(s); prot now {:?}",
        b as char,
        counters.read_faults(),
        region.prot(0, 0)
    );
    region.write_u8(0, 0, 0, b'H'); // SIGSEGV -> ReadWrite -> retry.
    println!(
        "write upgraded to {:?} ({} write faults so far)",
        region.prot(0, 0),
        counters.write_faults()
    );

    // 2. Independent protections over one physical page.
    println!("\n-- one physical page, three protections --");
    region.protect(1, 0, Prot::ReadOnly).expect("mprotect");
    println!(
        "page 0: view0={:?} view1={:?} view2={:?} (same bytes: view1 reads {:?})",
        region.prot(0, 0),
        region.prot(1, 0),
        region.prot(2, 0),
        region.read_u8(1, 0, 0) as char,
    );

    // 3. Privileged update while sealed.
    println!("\n-- privileged update while application views are sealed --");
    region.protect(0, 1, Prot::NoAccess).expect("mprotect");
    region.priv_write(1, 0, b"minipage contents arriving off the wire");
    region.protect(0, 1, Prot::ReadOnly).expect("mprotect");
    println!(
        "after grant, view 0 reads: {:?}",
        (0..8)
            .map(|i| region.read_u8(0, 1, i) as char)
            .collect::<String>()
    );

    // 4. Real fault cost.
    println!("\n-- real fault + upgrade cost --");
    let rounds = 2_000u32;
    let t0 = Instant::now();
    for i in 0..rounds {
        region.protect(0, 2, Prot::NoAccess).expect("mprotect");
        region.write_u8(0, 2, 0, i as u8); // One SIGSEGV round trip each.
    }
    let per = t0.elapsed().as_nanos() as f64 / rounds as f64;
    println!(
        "{rounds} seal+fault+upgrade cycles: {per:.0} ns each \
         (paper's NT access fault alone: 26 us on a 300 MHz P-II)"
    );
    println!(
        "\ntotals: {} read faults, {} write faults — all recovered",
        counters.read_faults(),
        counters.write_faults()
    );

    // 5. A DSM resolver's view of a fault. It runs in signal context, so
    // it only stores the record into atomics (and opens the page).
    static ADDR: AtomicU64 = AtomicU64::new(0);
    static VPAGE: AtomicUsize = AtomicUsize::new(0);
    static WRITE: AtomicBool = AtomicBool::new(false);
    fn record(region: &MultiViewRegion, f: &Fault, _token: usize) -> Result<(), Unserved> {
        ADDR.store(f.addr.0, Ordering::Relaxed);
        VPAGE.store(f.vpage, Ordering::Relaxed);
        WRITE.store(f.access == Access::Write, Ordering::Relaxed);
        let unserved = Unserved { reason: "mprotect" };
        let loc = region.geometry().decode(f.addr).ok_or(unserved)?;
        region
            .protect(loc.view, loc.page, Prot::ReadWrite)
            .map_err(|_| unserved)
    }
    println!("\n-- the fault record a DSM resolver receives --");
    let dsm = Arc::new(MultiViewRegion::new(4, 2).expect("mmap views"));
    install_dsm_handler(Arc::clone(&dsm), record, 0).expect("install handler");
    dsm.write_u8(1, 2, 40, 7);
    let fault = Fault {
        addr: VAddr(ADDR.load(Ordering::Relaxed)),
        vpage: VPAGE.load(Ordering::Relaxed),
        access: if WRITE.load(Ordering::Relaxed) {
            Access::Write
        } else {
            Access::Read
        },
    };
    println!(
        "store through view 1, page 2, offset 40: {fault} = {:?}",
        dsm.geometry()
            .decode(fault.addr)
            .expect("canonical address")
    );
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("hostmv_demo requires Linux (mmap/mprotect/SIGSEGV).");
}
