//! Stackful coroutines: how the model engine runs its threads on the OS
//! thread that called [`crate::Execution::run`].
//!
//! Only one model thread ever runs at a time, so the model needs no OS
//! threads of its own. Each model thread is a [`Coroutine`] with a stack of
//! its own, and the harness in `exec.rs` resumes the one that holds the
//! execution token; a thread that must wait calls [`suspend`], which
//! switches back to the harness. A handoff is therefore two stack switches
//! on one OS thread (thread to harness, harness to the scheduler's pick)
//! instead of a futex wake of another OS thread.
//!
//! On Linux x86_64 this module holds all of the crate's `unsafe`, in three
//! parts:
//!
//! * **the switch**: a naked function that saves the callee-saved registers
//!   (`rbx`, `rbp`, `r12`–`r15`) and `rsp` of one side and loads the
//!   other's. The System V ABI lets any call clobber every other general
//!   and vector register, and the compiler assumes that of this one too;
//!   the MXCSR and x87 control words stay as Rust code always leaves them;
//! * **the trampoline**: the first code a new stack runs. It calls
//!   `coroutine_main`, which runs the body under `catch_unwind`, so no
//!   unwind ever leaves the stack. A null return address and a null frame
//!   pointer at the bottom of the stack, and `rip` marked undefined in the
//!   trampoline's unwind info, end every backtrace there;
//! * **the stack pool**: each stack is a 2 MiB private mapping (what std
//!   gives a thread) with `MAP_NORESERVE | MAP_STACK`, never pre-touched,
//!   whose lowest page is a `PROT_NONE` guard, so unbounded recursion dies
//!   with SIGSEGV instead of running into a neighbour. Finished stacks are
//!   kept per OS thread and reused last-in first-out.
//!
//! Two rules keep the switch sound and invisible to program code:
//!
//! * **Never switch while unwinding.** The panic count belongs to the OS
//!   thread: a coroutine suspended mid-unwind would make every other
//!   coroutine see `std::thread::panicking()` and print its own panic as a
//!   nested one. [`suspend`] and [`Coroutine::resume`] abort the process
//!   rather than do it; the engine never asks them to (see `Run::step` and
//!   `Run::block`).
//! * **Never switch while holding a lock** the next coroutine may take:
//!   the runtime's locks are not reentrant, and the next coroutine runs on
//!   the same OS thread. The engine releases the book lock around
//!   [`suspend`].
//!
//! Other targets have no switch. There each coroutine is an OS thread of
//! its own, and a baton (a mutex and a condition variable) lets exactly one
//! of it and its resumer run at a time. The API is the same, so the engine
//! has one model harness on every target; only a handoff costs more. Unit
//! tests run both implementations on Linux x86_64.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) use switched::{suspend, Coroutine};

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub(crate) use threaded::{suspend, Coroutine};

/// Print `msg` and abort the process: for states that no unwind can leave
/// safely.
pub(crate) fn fatal(msg: &str) -> ! {
    eprintln!("mtt-runtime: {msg}");
    std::process::abort()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod switched {
    use super::fatal;
    use std::any::Any;
    use std::cell::{Cell, RefCell};
    use std::ffi::c_void;
    use std::panic::{self, AssertUnwindSafe};
    use std::ptr;

    /// Bytes mapped per stack, guard page included.
    const STACK_SIZE: usize = 2 << 20;
    /// The guard: the lowest page of each stack.
    const GUARD: usize = 4096;

    // From <sys/mman.h> on Linux x86_64.
    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_NORESERVE: i32 = 0x4000;
    const MAP_STACK: i32 = 0x20000;
    const MAP_FAILED: *mut c_void = !0 as *mut c_void;

    // std already links libc.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// One mapped stack; dropping it unmaps it.
    struct Stack {
        base: *mut c_void,
    }

    impl Stack {
        fn map() -> Stack {
            let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
            // SAFETY: an anonymous mapping at an address the kernel picks
            // overlaps no memory that exists yet.
            let base = unsafe {
                mmap(
                    ptr::null_mut(),
                    STACK_SIZE,
                    PROT_READ | PROT_WRITE,
                    flags,
                    -1,
                    0,
                )
            };
            if base == MAP_FAILED {
                let e = std::io::Error::last_os_error();
                panic!("mtt-runtime: cannot map a {STACK_SIZE}-byte coroutine stack: {e}");
            }
            let stack = Stack { base };
            // SAFETY: the guard is the first page of the mapping just made,
            // which nothing references yet.
            if unsafe { mprotect(base, GUARD, PROT_NONE) } != 0 {
                let e = std::io::Error::last_os_error();
                panic!("mtt-runtime: cannot protect a coroutine stack's guard page: {e}");
            }
            stack
        }

        /// One past the highest byte: page-aligned, so 16-byte aligned.
        fn top(&self) -> *mut usize {
            self.base.cast::<u8>().wrapping_add(STACK_SIZE).cast()
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: `base` is a mapping of `STACK_SIZE` bytes that this
            // value owns, and no coroutine's frames live on it any more.
            unsafe { munmap(self.base, STACK_SIZE) };
        }
    }

    thread_local! {
        /// Stacks of finished coroutines, reused last-in first-out.
        static POOL: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
        /// The coroutine running on this OS thread; null on a thread's own
        /// stack.
        static CURRENT: Cell<*const Shared> = const { Cell::new(ptr::null()) };
    }

    /// What a coroutine and its resumer exchange, at a fixed heap address.
    struct Shared {
        /// The resumer's stack pointer, saved while the coroutine runs.
        resumer_sp: Cell<*mut usize>,
        /// The coroutine's stack pointer, saved while it is suspended.
        own_sp: Cell<*mut usize>,
        /// The body, until the coroutine first runs.
        body: Cell<Option<Box<dyn FnOnce()>>>,
        /// The body returned or panicked.
        done: Cell<bool>,
        /// The body's panic, re-raised in the resumer.
        panic: Cell<Option<Box<dyn Any + Send>>>,
    }

    /// A body running on a stack of its own, resumed and suspended on the
    /// OS thread that created it. Not `Send`: its frames may hold values
    /// tied to that thread.
    pub(crate) struct Coroutine {
        shared: Box<Shared>,
        /// `None` once the stack went back to the pool.
        stack: Option<Stack>,
        started: bool,
    }

    impl Coroutine {
        /// A coroutine that runs `body` when first resumed, on a stack
        /// from this OS thread's pool.
        pub(crate) fn new(body: impl FnOnce() + Send + 'static) -> Coroutine {
            let stack = POOL
                .with(|p| p.borrow_mut().pop())
                .unwrap_or_else(Stack::map);
            let shared = Box::new(Shared {
                resumer_sp: Cell::new(ptr::null_mut()),
                own_sp: Cell::new(ptr::null_mut()),
                body: Cell::new(Some(Box::new(body))),
                done: Cell::new(false),
                panic: Cell::new(None),
            });
            // The frame the first switch into the coroutine pops: the six
            // callee-saved registers in `switch`'s order (r15, r14, r13,
            // r12, rbx, rbp), the trampoline as the return address, and a
            // null return address above it for the trampoline's own frame.
            let frame: [usize; 8] = [
                0,
                0,
                0,
                &*shared as *const Shared as usize, // r12: coroutine_main's argument
                0,
                0, // rbp: the end of the frame-pointer chain
                trampoline as *const () as usize,
                0,
            ];
            let sp = stack.top().wrapping_sub(frame.len());
            // SAFETY: the eight words below the top of the stack lie in its
            // writable part, and no coroutine runs on this stack now.
            unsafe { sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len()) };
            shared.own_sp.set(sp);
            Coroutine {
                shared,
                stack: Some(stack),
                started: false,
            }
        }

        /// Run the coroutine until it suspends or its body ends; returns
        /// whether the body has ended (then or earlier). A body's panic is
        /// re-raised here.
        pub(crate) fn resume(&mut self) -> bool {
            if self.shared.done.get() {
                return true;
            }
            if std::thread::panicking() {
                fatal("a coroutine was resumed while its resumer unwinds");
            }
            self.started = true;
            let outer = CURRENT.replace(&*self.shared);
            // SAFETY: `own_sp` is the frame `new` built or the one the
            // coroutine's last `suspend` saved, on the stack this value
            // owns; the coroutine is not running (that would need a second
            // `&mut self`). Our own registers go to `resumer_sp`, which its
            // next `suspend`, or `coroutine_main` at the end, switches back
            // to.
            unsafe { switch(self.shared.resumer_sp.as_ptr(), self.shared.own_sp.get()) };
            CURRENT.set(outer);
            if !self.shared.done.get() {
                return false;
            }
            if let Some(stack) = self.stack.take() {
                // The body has returned: nothing lives on the stack any more.
                let _ = POOL.try_with(|p| p.borrow_mut().push(stack));
            }
            if let Some(payload) = self.shared.panic.take() {
                panic::resume_unwind(payload);
            }
            true
        }
    }

    impl Drop for Coroutine {
        fn drop(&mut self) {
            if self.started && !self.shared.done.get() {
                // A suspended body's frames still live on the stack, and
                // pinned values among them may be pointed to: leak the
                // stack rather than reuse or unmap that memory.
                std::mem::forget(self.stack.take());
            } else if let Some(stack) = self.stack.take() {
                let _ = POOL.try_with(|p| p.borrow_mut().push(stack));
            }
        }
    }

    /// Switch from the running coroutine back to whoever resumed it; returns
    /// when it is resumed again.
    ///
    /// # Panics
    ///
    /// Outside a coroutine.
    pub(crate) fn suspend() {
        let shared = CURRENT.get();
        assert!(!shared.is_null(), "suspend called outside a coroutine");
        if std::thread::panicking() {
            fatal("a coroutine suspended while it unwinds");
        }
        // SAFETY: `CURRENT` points at the `Shared` of the coroutine running
        // now: `resume` set it before switching here, and keeps it alive by
        // borrowing its coroutine until we switch back. So `resumer_sp`
        // holds the frame that `resume` saved, and our registers go to
        // `own_sp`, which the next `resume` switches back to.
        unsafe { switch((*shared).own_sp.as_ptr(), (*shared).resumer_sp.get()) };
    }

    /// The Rust side of a new stack: run the body, then switch back for
    /// good.
    extern "C" fn coroutine_main(shared: *const Shared) -> ! {
        // SAFETY: the trampoline passes the `Shared` that `new` boxed. Its
        // coroutine is borrowed by `resume` whenever this stack runs.
        let shared = unsafe { &*shared };
        if let Some(body) = shared.body.take() {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(body)) {
                shared.panic.set(Some(payload));
            }
        }
        shared.done.set(true);
        // SAFETY: as in `suspend`, `resumer_sp` holds the frame `resume`
        // saved. `done` is set, so nothing switches back to this stack.
        unsafe { switch(shared.own_sp.as_ptr(), shared.resumer_sp.get()) };
        fatal("a finished coroutine was resumed")
    }

    /// Save the callee-saved registers on the current stack and its stack
    /// pointer in `*from`, then load the stack pointer `to` and pop the
    /// registers saved there: the caller returns from the `switch` call that
    /// saved `to` (or enters the trampoline of a new stack).
    ///
    /// # Safety
    ///
    /// `from` must be valid for a write. `to` must be a stack pointer that
    /// an earlier `switch` saved, or the initial frame `Coroutine::new`
    /// builds, on a stack that is still mapped and that nothing has run on
    /// since; each saved frame may be resumed once.
    #[unsafe(naked)]
    unsafe extern "sysv64" fn switch(from: *mut *mut usize, to: *mut usize) {
        std::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// Entered by `ret` from the first switch into a new stack, with `rbp`
    /// null and the coroutine's `Shared` in `r12`. Marks itself as the
    /// outermost frame, aligns the stack and calls [`coroutine_main`],
    /// which never returns.
    ///
    /// # Safety
    ///
    /// Never call it: only `switch` may enter it, through the initial frame
    /// `Coroutine::new` builds, whose `r12` slot holds a live `Shared`.
    #[unsafe(naked)]
    unsafe extern "sysv64" fn trampoline() {
        std::arch::naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined rip",
            "push rbp",
            ".cfi_adjust_cfa_offset 8",
            ".cfi_offset rbp, -16",
            "mov rbp, rsp",
            ".cfi_def_cfa_register rbp",
            "mov rdi, r12",
            "call {main}",
            "ud2",
            ".cfi_endproc",
            main = sym coroutine_main,
        )
    }
}

/// Coroutines without a switch: each body runs on an OS thread of its own,
/// and a baton lets exactly one of it and its resumer run at a time.
#[cfg(any(test, not(all(target_os = "linux", target_arch = "x86_64"))))]
mod threaded {
    use parking_lot::{Condvar, Mutex};
    use std::any::Any;
    use std::cell::RefCell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// Whose turn it is, and how the body ended.
    #[derive(Default)]
    struct Turn {
        /// The coroutine runs; otherwise its resumer does.
        coroutine: bool,
        /// The body returned or panicked.
        done: bool,
        /// The body's panic, re-raised in the resumer.
        panic: Option<Box<dyn Any + Send>>,
    }

    /// What a coroutine and its resumer pass between them.
    #[derive(Default)]
    struct Baton {
        turn: Mutex<Turn>,
        passed: Condvar,
    }

    thread_local! {
        /// The baton of the coroutine this OS thread runs.
        static CURRENT: RefCell<Option<Arc<Baton>>> = const { RefCell::new(None) };
    }

    /// A body on an OS thread of its own, started by the first `resume`.
    /// Dropping one that is still suspended leaks its thread, as the
    /// switched one leaks its stack.
    pub(crate) struct Coroutine {
        baton: Arc<Baton>,
        /// The body, until the coroutine first runs.
        body: Option<Box<dyn FnOnce() + Send>>,
        /// The body's thread, until it is joined once the body has ended.
        thread: Option<JoinHandle<()>>,
    }

    impl Coroutine {
        /// A coroutine that runs `body` when first resumed.
        pub(crate) fn new(body: impl FnOnce() + Send + 'static) -> Coroutine {
            Coroutine {
                baton: Arc::default(),
                body: Some(Box::new(body)),
                thread: None,
            }
        }

        /// Run the coroutine until it suspends or its body ends; returns
        /// whether the body has ended (then or earlier). A body's panic is
        /// re-raised here.
        pub(crate) fn resume(&mut self) -> bool {
            let mut t = self.baton.turn.lock();
            if t.done {
                return true;
            }
            t.coroutine = true;
            match self.body.take() {
                Some(body) => {
                    let baton = Arc::clone(&self.baton);
                    let thread = std::thread::Builder::new()
                        .name("mtt-coroutine".to_string())
                        .spawn(move || run(&baton, body))
                        .expect("failed to spawn a coroutine's thread");
                    self.thread = Some(thread);
                }
                None => self.baton.passed.notify_one(),
            }
            while t.coroutine {
                self.baton.passed.wait(&mut t);
            }
            if !t.done {
                return false;
            }
            let panic = t.panic.take();
            drop(t);
            if let Some(thread) = self.thread.take() {
                // `run` catches the body's panic, so the thread returns.
                thread.join().expect("a coroutine's thread panicked");
            }
            if let Some(payload) = panic {
                panic::resume_unwind(payload);
            }
            true
        }
    }

    /// A coroutine's OS thread, which starts with the turn: run the body,
    /// then hand the turn back for good.
    fn run(baton: &Arc<Baton>, body: Box<dyn FnOnce() + Send>) {
        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(baton)));
        let panic = panic::catch_unwind(AssertUnwindSafe(body)).err();
        let mut t = baton.turn.lock();
        t.done = true;
        t.panic = panic;
        t.coroutine = false;
        baton.passed.notify_one();
    }

    /// Hand the turn back to whoever resumed the running coroutine; returns
    /// when it is resumed again.
    ///
    /// # Panics
    ///
    /// Outside a coroutine.
    pub(crate) fn suspend() {
        let baton = CURRENT
            .with(|c| c.borrow().clone())
            .expect("suspend called outside a coroutine");
        let mut t = baton.turn.lock();
        t.coroutine = false;
        baton.passed.notify_one();
        while !t.coroutine {
            baton.passed.wait(&mut t);
        }
    }
}

#[cfg(test)]
mod tests {
    /// The API's contract, for one implementation.
    macro_rules! coroutine_tests {
        ($imp:ident) => {
            mod $imp {
                use super::super::$imp::{suspend, Coroutine};
                use std::panic::{self, AssertUnwindSafe};
                use std::sync::{Arc, Mutex};

                type Log = Arc<Mutex<Vec<u32>>>;

                fn push(log: &Log, v: u32) {
                    log.lock().unwrap().push(v);
                }

                #[test]
                fn resume_runs_the_body_up_to_each_suspend() {
                    let log = Log::default();
                    let l = Arc::clone(&log);
                    let mut c = Coroutine::new(move || {
                        push(&l, 1);
                        suspend();
                        push(&l, 3);
                    });
                    assert!(log.lock().unwrap().is_empty(), "`new` ran the body");
                    assert!(!c.resume());
                    push(&log, 2);
                    assert!(c.resume());
                    assert!(c.resume(), "a finished coroutine stays finished");
                    assert_eq!(*log.lock().unwrap(), [1, 2, 3]);
                }

                #[test]
                fn coroutines_resumed_in_turn_interleave_in_that_order() {
                    let log = Log::default();
                    let mut cs: Vec<Coroutine> = (0..3)
                        .map(|i| {
                            let l = Arc::clone(&log);
                            Coroutine::new(move || {
                                for step in 0..3 {
                                    push(&l, 10 * step + i);
                                    suspend();
                                }
                            })
                        })
                        .collect();
                    for _ in 0..3 {
                        for c in cs.iter_mut().rev() {
                            assert!(!c.resume());
                        }
                    }
                    assert!(cs.iter_mut().all(|c| c.resume()));
                    let expected = [2, 1, 0, 12, 11, 10, 22, 21, 20];
                    assert_eq!(*log.lock().unwrap(), expected);
                }

                #[test]
                fn a_panic_in_the_body_is_raised_in_the_resumer() {
                    let mut c = Coroutine::new(|| {
                        suspend();
                        panic::panic_any(7_u32);
                    });
                    assert!(!c.resume());
                    let payload = panic::catch_unwind(AssertUnwindSafe(|| c.resume()))
                        .expect_err("the body's panic reaches the resumer");
                    assert_eq!(payload.downcast_ref::<u32>(), Some(&7));
                    assert!(c.resume(), "the panicked body is finished");
                }
            }
        };
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    coroutine_tests!(switched);
    coroutine_tests!(threaded);

    /// A finished coroutine's stack is the next one's (last-in first-out):
    /// the same frame lands at the same address.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn finished_stacks_are_reused() {
        use super::switched::Coroutine;
        use std::sync::{Arc, Mutex};
        let frames: Arc<Mutex<Vec<usize>>> = Arc::default();
        for _ in 0..2 {
            let f = Arc::clone(&frames);
            let mut c = Coroutine::new(move || {
                let local = 0_u8;
                let at = std::hint::black_box(&local) as *const u8 as usize;
                f.lock().unwrap().push(at);
            });
            assert!(c.resume());
        }
        let frames = frames.lock().unwrap();
        assert_eq!(frames[0], frames[1], "the second coroutine got a new stack");
    }
}
