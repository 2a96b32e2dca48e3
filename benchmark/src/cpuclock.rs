//! CPU time of this process, as the kernel accounts it.
//!
//! On a virtual machine the hypervisor can take a vCPU away for a while
//! ("steal"); wall time counts those pauses, so it measures the host's
//! neighbours as much as the program. The process CPU clock counts only
//! the time a thread of this process ran — threads that have exited
//! included — and leaves stolen time out where the guest kernel accounts
//! for steal (Linux with paravirtual time accounting).

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, over all its threads.
/// Panics if the clock cannot be read, which POSIX systems do not allow.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
