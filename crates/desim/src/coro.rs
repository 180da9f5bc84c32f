//! Stackful coroutines: the mechanism under simulated processes.
//!
//! Each process runs on its own [`Stack`] and the executor enters and leaves
//! it with [`switch`], a plain function call that swaps stack pointers on the
//! executor's own OS thread. A resume therefore costs a few dozen
//! instructions instead of a futex handoff between two threads.
//!
//! x86_64 Linux only. `mmap`/`mprotect`/`munmap` come from the libc that
//! `std` already links, as in [`crate::affinity`], so no dependency is added.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("desim runs simulated processes on x86_64 Linux coroutines only");

use std::ffi::c_void;
use std::ops::Range;
use std::ptr;

use parking_lot::Mutex;

/// Usable stack per process: std's default thread stack size, so process
/// code nests as deeply as it did on an OS thread.
const STACK_SIZE: usize = 2 << 20;
/// One `PROT_NONE` page below the stack: an overflow faults (SIGSEGV)
/// instead of silently corrupting a neighbouring mapping.
const GUARD_SIZE: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
const MAP_FAILED: *mut c_void = !0 as *mut c_void;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// Stacks of finished processes, kept for the next spawn: unmapping a stack
/// and mapping and faulting in a fresh one costs several µs, as much as
/// dozens of resumes.
static SPARE: Mutex<Vec<Stack>> = Mutex::new(Vec::new());
/// Most stacks kept in [`SPARE`]; beyond this a released stack is unmapped.
const SPARE_CAP: usize = 256;

/// A guarded, lazily committed process stack; unmapped on drop.
pub(crate) struct Stack {
    base: *mut u8,
}

// SAFETY: `base` is the start of an anonymous mapping owned by this value
// alone; it is plain memory that any thread may map, run on or unmap.
unsafe impl Send for Stack {}

impl Stack {
    /// A spare stack if there is one, else a fresh mapping. Panics if the
    /// host refuses the mapping.
    pub(crate) fn new() -> Stack {
        if let Some(stack) = SPARE.lock().pop() {
            return stack;
        }
        let len = GUARD_SIZE + STACK_SIZE;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: a fresh anonymous mapping at an address the kernel picks
        // touches no existing memory.
        let base = unsafe { mmap(ptr::null_mut(), len, PROT_READ | PROT_WRITE, flags, -1, 0) };
        assert!(base != MAP_FAILED, "mmap of a process stack failed");
        // SAFETY: the guard page is the first page of the mapping just made.
        let rc = unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) };
        assert!(rc == 0, "mprotect of a stack guard page failed");
        Stack { base: base.cast() }
    }

    /// Hand back the stack of a process that can never run again: kept for
    /// reuse while [`SPARE`] has room, else unmapped.
    pub(crate) fn release(self) {
        let mut spare = SPARE.lock();
        if spare.len() < SPARE_CAP {
            spare.push(self);
        }
    }

    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(GUARD_SIZE + STACK_SIZE)
    }

    /// Addresses of the usable stack, guard page excluded.
    pub(crate) fn bounds(&self) -> Range<usize> {
        self.base as usize + GUARD_SIZE..self.top() as usize
    }

    /// Lay out a frame so that the first [`switch`] to the returned stack
    /// pointer calls `entry(arg)` on this stack. `entry` must never return.
    pub(crate) fn prepare(
        &self,
        entry: unsafe extern "C" fn(*mut u8) -> !,
        arg: *mut u8,
    ) -> *mut u8 {
        // Slots from the saved stack pointer up, in the order `switch` pops
        // them: FP control words, r15, r14, r13, r12, rbx, rbp, return
        // address. Returning into `trampoline` leaves the stack 16-aligned
        // for its call.
        let frame: [usize; 8] = [
            DEFAULT_FP_CONTROL,
            0,
            0,
            entry as usize,
            arg as usize,
            0,
            0,
            trampoline as *const () as usize,
        ];
        // SAFETY: the frame is the top 64 bytes of the mapped, writable
        // stack, which no process is running on while it is being prepared.
        unsafe {
            let sp = self.top().cast::<usize>().sub(frame.len());
            sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            sp.cast()
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is this value's own. A stack is dropped only
        // when no process can run on it again: it never started, or it
        // finished (a process whose frames are still live is forgotten).
        unsafe { munmap(self.base.cast(), GUARD_SIZE + STACK_SIZE) };
    }
}

/// MXCSR (all exceptions masked, round to nearest) in the low word and the
/// x87 control word (extended precision, all exceptions masked) above it:
/// the values every x86_64 Linux thread starts with.
const DEFAULT_FP_CONTROL: usize = 0x1F80 | (0x037F << 32);

/// First code run on a fresh stack: calls `entry(arg)` (r13, r12 from the
/// prepared frame). Its CFI marks the return address undefined, so unwinders
/// and backtraces stop here instead of walking off the stack.
///
/// # Safety
/// Never called: only entered by a [`switch`] to a frame made by
/// [`Stack::prepare`].
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    core::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call r13",
        "ud2",
        ".cfi_endproc",
    )
}

/// Save the callee-saved state on the current stack, store the stack pointer
/// in `*save`, and continue on the stack saved at `to` — either inside its
/// own `switch` call or, for a fresh stack, in [`trampoline`]. Returns when
/// some later `switch` hands control back to `*save`.
///
/// # Safety
/// `to` must be a stack pointer saved by `switch` or made by
/// [`Stack::prepare`], on a stack that is still mapped and not running.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
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
