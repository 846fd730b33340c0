//! Fibers: stackful user-level threads switched on the calling OS thread.
//!
//! [`run`] runs a group of closures ("bodies") as fibers on the calling
//! thread — the *root* — each on a stack of its own, and returns once the
//! root has nothing more to resume. A fiber gives up the thread only by
//! naming who runs next ([`switch`]): another fiber of the group, or the
//! root. Nothing preempts it, nothing else can run meanwhile, and a switch
//! is a stack switch — callee-saved registers, MXCSR and the x87 control
//! word saved on one stack and restored from the other — not an OS
//! context switch. This is how the deterministic scheduler
//! ([`crate::sched`]) runs application threads: the schedule allows one
//! running thread at a time anyway.
//!
//! The API is scoped and safe: a body may borrow anything that outlives
//! the [`run`] call, and every check that keeps a switch sound is made at
//! run time. A switch targets only a fiber of the calling thread's current
//! group that is suspended or not yet started, so no stack is ever entered
//! twice; a body's return value names where its fiber goes when it exits,
//! after the body and everything it owned are dropped; and a group whose
//! root stops with a fiber still suspended mid-body aborts the process
//! rather than free a stack under live frames. The `unsafe` is in this
//! module only: the stack mapping, the first frame written on a stack, and
//! the switch itself.
//!
//! Limits:
//!
//! * **x86-64 Linux only**, like the offline `libc` stub this workspace
//!   builds against.
//! * **Stacks are 2 MiB** (a spawned Rust thread's default), reserved and
//!   not committed (`MAP_NORESERVE`): a fiber costs the pages it touches.
//!   A guard page sits below each; overflowing it kills the process with
//!   `SIGSEGV` instead of writing past the stack.
//! * **Thread-locals and locks are the root's.** Every fiber sees the
//!   root's `thread::current()` and thread-locals, and an OS lock held
//!   across a switch blocks the only thread there is when another fiber
//!   takes it: a hang, not a wait.
//! * **A panic must not escape a body.** Bodies run under an `extern "C"`
//!   entry, so one that unwinds out aborts the process instead of unwinding
//!   through the switch; catch it inside the body (the scheduler does).

use std::cell::Cell;
use std::ptr;

/// Usable bytes of each fiber stack (the guard page comes on top).
const STACK_BYTES: usize = 2 << 20;

/// Zeroed bytes kept above a fiber's first frame: whatever walks the stack
/// past the entry frame (a backtrace) reads a null return address there,
/// which ends the walk, instead of reading past the mapping.
const TOP_PAD: usize = 16;

/// MXCSR and x87 control word of a fresh fiber: the ABI's defaults (all
/// exceptions masked, round to nearest, double extended precision).
const MXCSR_DEFAULT: u64 = 0x1F80;
const FCW_DEFAULT: u64 = 0x037F;

/// A fiber's body: runs on the fiber's stack and returns the fiber to
/// switch to once it has exited (`None`: the root).
pub type Body<'a> = Box<dyn FnOnce() -> Option<usize> + 'a>;

/// An `mmap`'d fiber stack above a guard page.
struct Stack {
    base: *mut libc::c_void,
    len: usize,
}

impl Stack {
    fn new() -> Self {
        // SAFETY: `sysconf` reads a constant of the system.
        let page = usize::try_from(unsafe { libc::sysconf(libc::_SC_PAGESIZE) }).unwrap_or(4096);
        let len = STACK_BYTES + page;
        let flags = libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE | libc::MAP_STACK;
        let prot = libc::PROT_READ | libc::PROT_WRITE;
        // SAFETY: a fresh anonymous mapping aliases nothing.
        let base = unsafe { libc::mmap(ptr::null_mut(), len, prot, flags, -1, 0) };
        assert!(
            base != libc::MAP_FAILED,
            "mapping a fiber stack: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the first page of the mapping just made, used by nobody.
        let guarded = unsafe { libc::mprotect(base, page, libc::PROT_NONE) } == 0;
        let stack = Self { base, len };
        assert!(guarded, "{}", std::io::Error::last_os_error());
        #[cfg(test)]
        LIVE_STACKS.with(|n| n.set(n.get() + 1));
        stack
    }

    /// Writes the frame [`switch_stacks`] pops the first time it enters
    /// this stack — it "returns" into [`trampoline`], which calls
    /// [`entry`]`(fiber)` — and returns the stack pointer to enter with.
    fn first_frame(&self, fiber: usize) -> *mut u8 {
        let top = self.base.cast::<u8>().wrapping_add(self.len - TOP_PAD);
        // Popped bottom-up: MXCSR and FCW, r15, r14, r13, r12 (the fiber's
        // index), rbx, rbp, then the return address.
        let frame: [u64; 8] = [
            MXCSR_DEFAULT | FCW_DEFAULT << 32,
            0,
            0,
            0,
            fiber as u64,
            0,
            0,
            trampoline as *const () as u64,
        ];
        let sp = top.wrapping_sub(std::mem::size_of_val(&frame));
        // SAFETY: `sp..top + TOP_PAD` is the writable, 16-aligned top of
        // this mapping, which no frame uses yet; `mmap` zeroed the pad.
        unsafe { sp.cast::<[u64; 8]>().write(frame) };
        sp
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is this stack's own, and no frame lives on
        // it any more: `Group`'s drop aborts while one could.
        unsafe { libc::munmap(self.base, self.len) };
        #[cfg(test)]
        LIVE_STACKS.with(|n| n.set(n.get() - 1));
    }
}

#[cfg(test)]
thread_local! {
    /// Fiber stacks currently mapped by this thread.
    static LIVE_STACKS: Cell<usize> = const { Cell::new(0) };
}

/// Fiber stacks currently mapped by the calling thread.
#[cfg(test)]
pub(crate) fn live_stacks() -> usize {
    LIVE_STACKS.with(Cell::get)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Not entered yet; `sp` is its first frame.
    Fresh,
    Suspended,
    Running,
    Exited,
}

struct Fiber<'a> {
    /// Owned for its mapping, unmapped with the fiber.
    _stack: Stack,
    /// The saved stack pointer while the fiber is not running.
    sp: Cell<*mut u8>,
    phase: Cell<Phase>,
    body: Cell<Option<Body<'a>>>,
}

/// The fibers of one [`run`] and its root, on the root's stack.
struct Group<'a> {
    fibers: Vec<Fiber<'a>>,
    /// The root's saved stack pointer while a fiber runs.
    root_sp: Cell<*mut u8>,
    /// The running fiber; `None` while the root runs.
    current: Cell<Option<usize>>,
}

thread_local! {
    /// The group of the innermost [`run`] on this thread (null outside).
    /// Its lifetime is erased: the group outlives every use, because
    /// `run` clears this before the group goes.
    static GROUP: Cell<*const Group<'static>> = const { Cell::new(ptr::null()) };
}

impl Drop for Group<'_> {
    fn drop(&mut self) {
        if self
            .fibers
            .iter()
            .any(|f| f.phase.get() == Phase::Suspended)
        {
            // Unmapping the stack would free live frames (and whatever the
            // scheduler still points at in them). Nothing can unwind them.
            eprintln!("fiber::run ended with a fiber suspended mid-body");
            std::process::abort();
        }
    }
}

/// Runs `bodies` as fibers on the calling thread. `next` runs on the
/// caller's own stack, first and then whenever a fiber switches to the
/// root, and names the fiber to resume; `run` returns when it names none.
/// A fiber that was never started is dropped unstarted.
///
/// # Panics
///
/// Panics if `next` names a fiber that is running or has exited. Aborts
/// the process if `next` ends the run while a fiber is suspended mid-body.
pub fn run<'a>(bodies: Vec<Body<'a>>, mut next: impl FnMut() -> Option<usize>) {
    let group = Group {
        fibers: bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| {
                let stack = Stack::new();
                let sp = Cell::new(stack.first_frame(i));
                Fiber {
                    _stack: stack,
                    sp,
                    phase: Cell::new(Phase::Fresh),
                    body: Cell::new(Some(body)),
                }
            })
            .collect(),
        root_sp: Cell::new(ptr::null_mut()),
        current: Cell::new(None),
    };
    // Declared after `group`, so dropped before it, unwinding or not.
    let _installed = Installed(GROUP.replace(ptr::from_ref(&group).cast()));
    while let Some(i) = next() {
        switch_in(&group, Some(i));
    }
}

/// Puts back the enclosing [`run`]'s group (or none) when dropped.
struct Installed(*const Group<'static>);

impl Drop for Installed {
    fn drop(&mut self) {
        GROUP.set(self.0);
    }
}

/// Switches from whoever runs — the root or a fiber of the calling
/// thread's innermost [`run`] — to fiber `to`, or to the root for `None`,
/// and returns once something switches back. Switching to oneself returns
/// at once.
///
/// # Panics
///
/// Panics outside [`run`], or if `to` is running, exited or out of range.
pub fn switch(to: Option<usize>) {
    let group = GROUP.get();
    assert!(!group.is_null(), "fiber::switch outside fiber::run");
    // SAFETY: a non-null `GROUP` is the live group of the innermost `run`
    // on this thread (see `GROUP`).
    switch_in(unsafe { &*group }, to);
}

fn switch_in(group: &Group<'_>, to: Option<usize>) {
    let from = group.current.get();
    if from == to {
        return;
    }
    group.check_resumable(to);
    let save = match from {
        Some(i) => {
            group.fibers[i].phase.set(Phase::Suspended);
            group.fibers[i].sp.as_ptr()
        }
        None => group.root_sp.as_ptr(),
    };
    // SAFETY: the caller's context is the current one, now marked
    // suspended, and `save` is its stack-pointer slot; `to` is resumable.
    unsafe { enter(group, to, save) };
}

impl Group<'_> {
    /// Panics unless `to` may be switched to: the root (suspended whenever
    /// a fiber runs) or a fiber suspended or not yet started.
    fn check_resumable(&self, to: Option<usize>) {
        if let Some(i) = to {
            let phase = self.fibers[i].phase.get();
            assert!(
                matches!(phase, Phase::Fresh | Phase::Suspended),
                "fiber {i} is {phase:?}: only a suspended fiber can be resumed"
            );
        }
    }
}

/// Makes `to` the running context and switches to it, saving the caller's
/// stack pointer at `save`.
///
/// # Safety
///
/// The caller's context must be the group's current one, marked as it
/// should be found when resumed, `save` its stack-pointer slot, and `to`
/// have passed [`Group::check_resumable`].
unsafe fn enter(group: &Group<'_>, to: Option<usize>, save: *mut *mut u8) {
    let sp = match to {
        Some(i) => {
            group.fibers[i].phase.set(Phase::Running);
            group.fibers[i].sp.get()
        }
        None => group.root_sp.get(),
    };
    group.current.set(to);
    // SAFETY: `sp` is the stack pointer saved by the suspended target's
    // own last switch, or its first frame: a running or exited context is
    // never a target.
    unsafe { switch_stacks(save, sp) };
}

/// Where a fresh fiber starts: runs its body, then leaves for good.
///
/// # Safety
///
/// Only [`trampoline`] calls it, on the first entry into fiber `fiber`'s
/// stack, which a switch of the group `GROUP` names made.
unsafe extern "C" fn entry(fiber: usize) -> ! {
    // SAFETY: a fiber is entered only by a switch of its own group, the
    // innermost `run`'s (see `GROUP`), which outlives the fiber.
    let group = unsafe { &*GROUP.get() };
    let body = group.fibers[fiber]
        .body
        .take()
        .expect("a fiber starts once");
    let to = body();
    // Nothing of the body is left on this stack: it is never resumed.
    group.check_resumable(to);
    group.fibers[fiber].phase.set(Phase::Exited);
    // SAFETY: this context is exited and will never be resumed, so its
    // saved stack pointer is written and never read; `to` is resumable.
    unsafe { enter(group, to, group.fibers[fiber].sp.as_ptr()) };
    unreachable!("an exited fiber was resumed");
}

/// The first return address of a fiber stack: calls [`entry`] with the
/// fiber's index, which [`Stack::first_frame`] put in `r12`.
///
/// # Safety
///
/// Never called: only returned into from a first frame.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    std::arch::naked_asm!("mov rdi, r12", "call {entry}", "ud2", entry = sym entry)
}

/// Saves the callee-saved state of the calling context on its stack,
/// stores its stack pointer at `save`, and resumes the context whose
/// stack pointer is `to` by popping the same state off its stack.
///
/// # Safety
///
/// `to` must be the stack pointer a suspended context saved here, or a
/// [`Stack::first_frame`], and `save` writable.
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(save: *mut *mut u8, to: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn fibers_interleave_at_their_switches() {
        let log = RefCell::new(Vec::new());
        let log = &log;
        let bodies: Vec<Body> = (0..3)
            .map(|i| {
                Box::new(move || {
                    for round in 0..3 {
                        log.borrow_mut().push((i, round));
                        // Round-robin, 0 → 1 → 2 → 0 …, until fiber 2's
                        // last round; then 2 → 0 → 1 → root, by exits.
                        if (i, round) != (2, 2) {
                            switch(Some((i + 1) % 3));
                        }
                    }
                    [Some(1usize), None, Some(0)][i]
                }) as Body
            })
            .collect();
        let mut starts = 0;
        run(bodies, || {
            starts += 1;
            (starts == 1).then_some(0)
        });
        let want: Vec<(usize, usize)> = (0..3).flat_map(|r| (0..3).map(move |i| (i, r))).collect();
        assert_eq!(*log.borrow(), want);
        assert_eq!(starts, 2, "the root resumed once, at the end");
        assert_eq!(live_stacks(), 0);
    }

    #[test]
    fn exits_chain_to_the_next_fiber() {
        let seen = RefCell::new(Vec::new());
        let seen = &seen;
        let bodies: Vec<Body> = (0..4)
            .map(|i| {
                Box::new(move || {
                    let x = 1.5f64 * i as f64;
                    seen.borrow_mut().push((i, std::thread::current().id(), x));
                    (i + 1 < 4).then_some(i + 1)
                }) as Body
            })
            .collect();
        let mut first = Some(0);
        run(bodies, || first.take());
        let me = std::thread::current().id();
        let seen = seen.borrow();
        assert_eq!(seen.len(), 4);
        for (n, &(i, id, x)) in seen.iter().enumerate() {
            assert_eq!((i, id, x), (n, me, 1.5 * n as f64));
        }
        assert_eq!(live_stacks(), 0);
    }
}
