//! The two things the benchmark needs from the kernel that std does not
//! offer: confining the process to one core, and CPU clocks with ns
//! resolution (`/proc/<pid>/stat` counts in 10 ms ticks, coarser than a
//! measurement round). Linux only, like the `/proc` ledger.

use std::ffi::{c_int, c_long};
use std::sync::OnceLock;

const CPU_SET_WORDS: usize = 16; // 1024 CPUs, glibc's `cpu_set_t`

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// The highest-numbered CPU in an affinity mask (CPU 0 is where a small
/// guest's housekeeping tends to land).
fn last_cpu(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, &word)| word != 0)
        .map(|(index, &word)| index * 64 + 63 - word.leading_zeros() as usize)
}

/// Confines the calling thread, and every thread it starts from now on, to
/// one of the CPUs it is allowed on; returns which. On a guest with a few
/// virtual cores where the scheduler places the program's five threads and
/// the load generator decides what a query costs (a wake-up across cores
/// is an inter-processor interrupt and an idle exit, tens of µs through the
/// hypervisor; one on the same core is a context switch), and that
/// placement differs from run to run. On one core it cannot.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = last_cpu(&allowed)?;
    let mut only = [0u64; CPU_SET_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed, which
    // the kernel only reads.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) } != 0 {
        return None;
    }
    let _ = PINNED.set(cpu);
    Some(cpu)
}

static PINNED: OnceLock<usize> = OnceLock::new();

/// The CPU [`pin_to_one_cpu`] confined the process to, if it has.
pub fn pinned_cpu() -> Option<usize> {
    PINNED.get().copied()
}

fn clock_ns(clock: c_int) -> u64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `struct timespec` (two C longs on
    // every 64-bit Linux ABI).
    if unsafe { clock_gettime(clock, &mut time) } != 0 {
        return 0;
    }
    time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64
}

/// On-CPU ns of the whole process so far, threads that have exited
/// included.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU ns of the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_of_a_mask() {
        assert_eq!(last_cpu(&[0, 0]), None);
        assert_eq!(last_cpu(&[0b1, 0]), Some(0));
        assert_eq!(last_cpu(&[0b1011, 0]), Some(3));
        assert_eq!(last_cpu(&[0b11, 0b100]), Some(66));
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (process, thread) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > thread);
        assert!(process_cpu_ns() > process);
        assert!(process_cpu_ns() >= thread_cpu_ns() - thread);
    }
}
