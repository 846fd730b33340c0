//! The SIGSEGV-driven access-fault path.
//!
//! The paper's application threads "invoke a wrapper routine that installs
//! the millipage exception handler" (§3.5.1). Here the handler implements
//! the local half of that design: when an access faults inside a
//! registered [`MultiViewRegion`], it builds the canonical [`Fault`] —
//! the address in the region's [`geometry`](MultiViewRegion::geometry),
//! its vpage, and the access the page-fault error code reports — and
//! hands it to the region's resolver:
//!
//! * the built-in **upgrade ladder** (`NoAccess → ReadOnly`, anything →
//!   `ReadWrite` on a write) — [`install_handler`], the standalone
//!   mechanism demo — or
//! * a **DSM resolver** — [`install_dsm_handler`] — which runs the
//!   coherence protocol (send a request, block on the reply, let the
//!   embedder's DSM server thread — one for every host of a run — open
//!   the protection).
//!
//! `Ok` retries the faulting instruction; an [`Unserved`] verdict, like a
//! fault outside every region, takes the default SIGSEGV action.
//!
//! # Async-signal-safety
//!
//! The handler runs on the faulting thread with no guarantees about what
//! locks the rest of the process holds, so everything on the handler path
//! must be async-signal-safe (POSIX 2017, XSH 2.4.3):
//!
//! * registry scan: `AtomicPtr` loads and address arithmetic — safe;
//! * fault decoding: pointer compares and arithmetic on leaked, immutable
//!   layout metadata (the registration's own copy of the view bases and
//!   geometry) — safe;
//! * the upgrade ladder: one `mprotect` syscall + one atomic store
//!   ([`MultiViewRegion::protect_raw`]) — both listed as signal-safe;
//! * counters: relaxed atomic increments — safe;
//! * a DSM resolver is a plain `fn` pointer the *embedder* promises keeps
//!   the same discipline: atomics (a lock-free ring push), bare syscalls
//!   (a `futex` wait or wake, `sched_yield`), and thread-locals that were
//!   initialized before the first fault (const-initialized TLS takes no
//!   lazy path).
//!   No allocation, no mutexes, no `println!`.
//! * resolver-side diagnostics (the embedder's sharing-stats table): the
//!   same discipline holds because the table is pre-allocated and leaked
//!   before the run, recording is relaxed atomic RMWs on fixed cells
//!   (`fetch_add`/`fetch_min`/`fetch_max` are lock-free on x86-64), and
//!   fault→minipage attribution is an index into a pre-built immutable
//!   map — no hashing, no allocation, no locks.
//!
//! Nothing here allocates, takes a lock, or calls into libc beyond
//! signal-safe entry points; registration (the only allocating step)
//! happens in normal context before any fault can hit the slot.
//!
//! # Lifetime
//!
//! A registration lasts until [`FaultCounters::retire`] is called on it —
//! explicitly, never on `Drop`, so a discarded handle means "registered
//! for the life of the process". Retiring frees the slot and drops the
//! registry's hold on the region. A handler on another thread may be in
//! the middle of its slot scan just then, so nothing a scan dereferences
//! is ever freed: the entry (counters, resolver, its own copy of the view
//! layout — some 200 bytes) stays leaked, and a scan decodes against that
//! copy. Only a fault *inside* a region reaches the region itself, and the
//! caller of `retire` promises there are none left.

use crate::error::HostMvError;
use crate::region::{MultiViewRegion, ViewLayout};
use sim_core::{Access, Fault, Prot};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Once};

/// Fixed registry capacity: how many regions can be fault-managed at once
/// (live registrations, not registrations ever made — a retired slot is
/// reused). A DSM run registers one region per simulated host and retires
/// them when it ends.
const MAX_REGIONS: usize = 64;

/// Why a resolver left a fault unserved. The fault then takes the
/// default SIGSEGV action: the process dies with a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unserved {
    /// What declined the fault.
    pub reason: &'static str,
}

/// A fault resolver: serves one [`Fault`] in `region` — opens the
/// faulting vpage, through the coherence protocol or the built-in upgrade
/// ladder — so that the faulting instruction may retry, or says why not.
///
/// The resolver executes in signal context; it must stick to
/// async-signal-safe operations (see the module docs). `token` is the
/// opaque word passed to [`install_dsm_handler`] — typically a leaked
/// runtime pointer, since the resolver is a plain `fn` and cannot capture.
pub type FaultResolver =
    fn(region: &MultiViewRegion, fault: &Fault, token: usize) -> Result<(), Unserved>;

struct Registered {
    /// What a slot scan decodes against: a copy, so that a scan racing
    /// [`FaultCounters::retire`] never touches the region.
    layout: ViewLayout,
    /// `Arc::into_raw` of the region (the registry's hold); null if retired.
    region: AtomicPtr<MultiViewRegion>,
    reads: AtomicU64,
    writes: AtomicU64,
    resolver: FaultResolver,
    token: usize,
}

static SLOTS: [AtomicPtr<Registered>; MAX_REGIONS] =
    [const { AtomicPtr::new(ptr::null_mut()) }; MAX_REGIONS];
static INSTALL: Once = Once::new();

/// Fault counters of a registered region.
#[derive(Clone)]
pub struct FaultCounters {
    inner: *const Registered,
}

// SAFETY: the pointee is leaked for the process lifetime and only holds
// atomics, immutable layout metadata and plain `fn`/`usize` words; the
// region behind its `AtomicPtr` is itself Send + Sync.
unsafe impl Send for FaultCounters {}
// SAFETY: as above — all access is through atomics.
unsafe impl Sync for FaultCounters {}

impl FaultCounters {
    /// Read faults taken (NoAccess → ReadOnly upgrades, or read faults
    /// handed to the DSM resolver).
    pub fn read_faults(&self) -> u64 {
        // SAFETY: `inner` points to a leaked, never-freed Registered.
        unsafe { (*self.inner).reads.load(Ordering::Relaxed) }
    }

    /// Write faults taken (→ ReadWrite upgrades, or write faults handed
    /// to the DSM resolver).
    pub fn write_faults(&self) -> u64 {
        // SAFETY: as above.
        unsafe { (*self.inner).writes.load(Ordering::Relaxed) }
    }

    /// Retires the registration: its slot is free for the next one, the
    /// registry's hold on the region is dropped (the last holder's drop
    /// unmaps it) and these counters keep reading what they read.
    /// Idempotent. Call it once no thread can fault inside the region any
    /// more — a later fault there is a crash, as on any unregistered
    /// address; scans for other regions' faults may run concurrently.
    pub fn retire(&self) {
        let me = self.inner.cast_mut();
        for slot in &SLOTS {
            // Same ordering as the claiming exchange in `register`, which
            // this one hands the slot back to.
            if slot
                .compare_exchange(me, ptr::null_mut(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        // SAFETY: `inner` points to a leaked, never-freed Registered.
        let region = unsafe { &(*self.inner).region }.swap(ptr::null_mut(), Ordering::AcqRel);
        if !region.is_null() {
            // SAFETY: the pointer came from `Arc::into_raw` in `register`
            // and the swap above hands it to exactly one caller.
            drop(unsafe { Arc::from_raw(region) });
        }
    }
}

/// How many more regions can be registered right now.
pub fn free_slots() -> usize {
    SLOTS
        .iter()
        .filter(|s| s.load(Ordering::Relaxed).is_null())
        .count()
}

/// Installs the process-wide SIGSEGV handler (once) and registers
/// `region` with the built-in protection-upgrade ladder. Returns the
/// region's fault counters. A region whose protections are still staged
/// is a [`HostMvError::BadTarget`].
///
/// The registration holds the region alive (and its slot occupied) until
/// [`FaultCounters::retire`] is called on the returned handle; dropping
/// the handle retires nothing, so a discarded result means "registered
/// for the rest of the process" — fault handling and `Drop` cannot race
/// that way.
pub fn install_handler(region: Arc<MultiViewRegion>) -> Result<FaultCounters, HostMvError> {
    register(region, upgrade_ladder, 0)
}

/// The built-in resolver: opens the faulting vpage to `ReadOnly` on a
/// read and to `ReadWrite` on a write (one `mprotect` + one atomic store).
fn upgrade_ladder(region: &MultiViewRegion, fault: &Fault, _token: usize) -> Result<(), Unserved> {
    let pages = region.geometry().pages();
    let prot = match fault.access {
        Access::Read => Prot::ReadOnly,
        Access::Write => Prot::ReadWrite,
    };
    region
        .protect_raw(fault.vpage / pages, fault.vpage % pages, prot)
        .map_err(|_| Unserved {
            reason: "mprotect failed",
        })
}

/// Installs the process-wide SIGSEGV handler (once) and registers
/// `region` with a DSM fault resolver: every access fault in the region
/// is handed to `resolver`, together with `token`, instead of the
/// built-in upgrade ladder. Faults on the privileged view still crash (it
/// is always writable; such a fault means the mapping is gone).
pub fn install_dsm_handler(
    region: Arc<MultiViewRegion>,
    resolver: FaultResolver,
    token: usize,
) -> Result<FaultCounters, HostMvError> {
    register(region, resolver, token)
}

fn register(
    region: Arc<MultiViewRegion>,
    resolver: FaultResolver,
    token: usize,
) -> Result<FaultCounters, HostMvError> {
    if region.is_staged() {
        // Its real protections still lag the shadow table the handler's
        // decisions read.
        return Err(HostMvError::BadTarget {
            what: "staged protections not yet applied",
        });
    }
    let mut install_err = None;
    INSTALL.call_once(|| {
        // SAFETY: installing a SA_SIGINFO handler with an otherwise
        // zeroed sigaction; the handler only uses async-signal-safe
        // operations.
        unsafe {
            let mut sa: libc::sigaction = std::mem::zeroed();
            let f: extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut libc::c_void) = handler;
            sa.sa_sigaction = f as usize;
            sa.sa_flags = libc::SA_SIGINFO;
            libc::sigemptyset(&mut sa.sa_mask);
            if libc::sigaction(libc::SIGSEGV, &sa, ptr::null_mut()) != 0 {
                install_err = Some(HostMvError::last_os("sigaction"));
            }
        }
    });
    if let Some(e) = install_err {
        return Err(e);
    }
    let entry = Box::into_raw(Box::new(Registered {
        layout: region.layout.clone(),
        region: AtomicPtr::new(Arc::into_raw(region).cast_mut()),
        reads: AtomicU64::new(0),
        writes: AtomicU64::new(0),
        resolver,
        token,
    }));
    for slot in &SLOTS {
        if slot
            .compare_exchange(ptr::null_mut(), entry, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return Ok(FaultCounters { inner: entry });
        }
    }
    // SAFETY: `entry` came from `Box::into_raw` above and was published in
    // no slot, so no handler can have seen it: take it all back.
    let entry = unsafe { Box::from_raw(entry) };
    // SAFETY: the pointer from `Arc::into_raw` above; nobody else has it.
    drop(unsafe { Arc::from_raw(entry.region.into_inner()) });
    Err(HostMvError::RegistryFull {
        capacity: MAX_REGIONS,
    })
}

/// The faulting access, from the x86-64 page-fault error code the kernel
/// saves in the signal context.
#[cfg(target_arch = "x86_64")]
fn fault_access(ctx: *mut libc::c_void) -> Access {
    // SAFETY: the kernel hands SA_SIGINFO handlers a valid ucontext_t.
    let uc = unsafe { &*(ctx as *const libc::ucontext_t) };
    Access::from_x86_error_code(uc.uc_mcontext.gregs[libc::REG_ERR as usize] as u64)
}

/// Fallback for other architectures: assume write (the stronger upgrade).
#[cfg(not(target_arch = "x86_64"))]
fn fault_access(_ctx: *mut libc::c_void) -> Access {
    Access::Write
}

extern "C" fn handler(_sig: libc::c_int, info: *mut libc::siginfo_t, ctx: *mut libc::c_void) {
    // SAFETY: the kernel provides a valid siginfo for SIGSEGV.
    let addr = unsafe { (*info).si_addr() } as usize;
    for slot in &SLOTS {
        let p = slot.load(Ordering::Acquire);
        if p.is_null() {
            continue;
        }
        // SAFETY: non-null slots point to leaked Registered entries.
        let reg = unsafe { &*p };
        let Some(addr) = reg.layout.canonical(addr) else {
            continue;
        };
        let geo = &reg.layout.geo;
        let region = reg.region.load(Ordering::Acquire);
        // Neither the privileged view nor a region retired under this scan
        // faults legitimately: crash.
        let vpage = match geo.vpage_of(addr) {
            Some(vp) if vp < geo.vpage_index(geo.priv_view(), 0) && !region.is_null() => vp,
            _ => break,
        };
        // SAFETY: non-null means the registry still holds its strong count
        // on the region, and `retire`'s caller promises that no thread can
        // fault inside it any more — which this one just did.
        let region = unsafe { &*region };
        let access = fault_access(ctx);
        match access {
            Access::Read => reg.reads.fetch_add(1, Ordering::Relaxed),
            Access::Write => reg.writes.fetch_add(1, Ordering::Relaxed),
        };
        let fault = Fault {
            addr,
            vpage,
            access,
        };
        if (reg.resolver)(region, &fault, reg.token).is_ok() {
            return; // The vpage is open: retry the faulting instruction.
        }
        break;
    }
    // Not one of ours, or unserved: restore the default action and let the
    // fault kill the process with a proper core.
    // SAFETY: resetting a signal disposition is async-signal-safe.
    unsafe {
        libc::signal(libc::SIGSEGV, libc::SIG_DFL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Barrier, Mutex};

    /// Both tests reason about which slot the next registration takes.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn slot_of(c: &FaultCounters) -> Option<usize> {
        SLOTS
            .iter()
            .position(|s| s.load(Ordering::Acquire).cast_const() == c.inner)
    }

    fn region(pages: usize) -> Arc<MultiViewRegion> {
        Arc::new(MultiViewRegion::new(pages, 1).expect("mmap views"))
    }

    #[test]
    fn a_retired_slot_is_reused_and_its_counters_still_read() {
        let _g = SERIAL.lock().unwrap();
        let free = free_slots();
        let r = region(2);
        let registry_hold = Arc::downgrade(&r);
        let c = install_handler(Arc::clone(&r)).expect("install handler");
        let slot = slot_of(&c).expect("registered");
        assert_eq!(free_slots(), free - 1);
        r.write_u8(0, 1, 3, 7);
        assert_eq!(r.read_u8(0, 0, 0), 0);
        assert_eq!((c.read_faults(), c.write_faults()), (1, 1));
        drop(r);
        assert!(registry_hold.upgrade().is_some(), "registered: kept alive");

        c.retire();
        assert_eq!((slot_of(&c), free_slots()), (None, free));
        assert!(registry_hold.upgrade().is_none(), "retired: unmapped");
        assert_eq!((c.read_faults(), c.write_faults()), (1, 1));
        c.retire(); // Idempotent.
        assert_eq!(free_slots(), free);

        let next = install_handler(region(1)).expect("install handler");
        assert_eq!(slot_of(&next), Some(slot), "lowest free slot is reused");
        next.retire();
    }

    /// The concurrent-scan case: handlers on other threads walk the
    /// registry while one slot *below* their own regions' slots — so every
    /// scan crosses it — is registered and retired in a loop.
    #[test]
    fn scans_survive_a_slot_churning_under_them() {
        let _g = SERIAL.lock().unwrap();
        const THREADS: usize = 8;
        let low = install_handler(region(1)).expect("install handler");
        let low_slot = slot_of(&low).expect("registered");
        let registered = Barrier::new(THREADS + 1);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let r = region(1);
                    let c = install_handler(Arc::clone(&r)).expect("install handler");
                    assert!(slot_of(&c).expect("registered") > low_slot);
                    registered.wait();
                    let mut faults = 0;
                    while !stop.load(Ordering::Relaxed) || faults == 0 {
                        r.protect(0, 0, Prot::NoAccess).expect("mprotect");
                        r.write_u8(0, 0, 0, 1);
                        faults += 1;
                    }
                    assert_eq!(c.write_faults(), faults);
                    c.retire();
                });
            }
            registered.wait();
            low.retire();
            for _ in 0..2_000 {
                let c = install_handler(region(1)).expect("install handler");
                assert_eq!(slot_of(&c), Some(low_slot));
                c.retire();
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
