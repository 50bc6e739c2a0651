//! One CPU for the whole benchmark.
//!
//! The acceptance runner is a guest with a few virtual CPUs on a shared
//! host. Whatever crosses from one of them to another — a thread woken on
//! the other CPU, the scheduler moving the loop there with cold caches, the
//! loopback socket handing a frame from the agent's CPU to the
//! controller's — goes through the host and takes as long as the host's
//! other guests allow. Measured on the two-CPU guest the workloads were
//! sized on, ten single rounds each way: `scale128_tcp`'s median reaction
//! read 655–799 µs free and 593–606 µs on one CPU, `scale128_inproc`'s
//! 354–376 µs and 282–290 µs. So a workload process pins itself, before
//! it starts a thread, to one of the CPUs it is allowed, and runs `llc-par`
//! on one worker: it then measures the program and not the host's
//! scheduler, and is faster for it.

/// Restrict the calling thread, and so every thread it starts from here
/// on, to the last CPU it is allowed to run on (the first one takes most
/// of a guest's interrupts). Returns that CPU, or `None` where the
/// platform has no such call or refuses it — the run then goes on
/// unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of exactly `bytes` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rfind(|(_, bits)| **bits != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
