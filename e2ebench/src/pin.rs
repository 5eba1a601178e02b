//! CPU placement of the benchmark's own threads.
//!
//! On a small virtual host a keep-alive round trip between the client
//! and the daemon's connection thread costs a third more when they run on
//! two CPUs (each answer wakes the other virtual CPU), and how much more
//! changes with the host's load: over 6 pairs of 8 s what-if runs, a
//! keep-alive hit took 0.133-0.145 ms with both on one CPU and
//! 0.193-0.239 ms with each on its own. The client is one closed loop, so
//! the two never run at once anyway. To measure the program rather than
//! the hypervisor's wake-ups, the client thread and the daemon's accept
//! loop (and so every connection thread it spawns) are pinned to the first
//! allowed CPU. The daemon's job worker is started unpinned and keeps the
//! whole allowed set, as it would on a multi-core host. With fewer than
//! two allowed CPUs nothing is pinned.

use std::sync::OnceLock;

const WORDS: usize = 16;
type CpuMask = [u64; WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

struct Placement {
    all: CpuMask,
    /// The first allowed CPU: the client's and the daemon's.
    first: CpuMask,
}

static PLACEMENT: OnceLock<Option<Placement>> = OnceLock::new();

fn current() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; WORDS];
    // SAFETY: `mask` is an owned, initialised buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set(mask: &CpuMask) {
    // SAFETY: `mask` points to a buffer of exactly the size passed; the
    // call only reads it. Failure leaves the placement unchanged, which
    // is harmless.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr());
    }
}

fn only(cpu: usize) -> CpuMask {
    let mut mask: CpuMask = [0; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    mask
}

/// The allowed CPUs in `mask`, ascending.
fn cpus(mask: &CpuMask) -> Vec<usize> {
    (0..WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Pins the calling (client) thread. Call once, first thing in `main`.
/// Returns the number of CPUs the process may use.
pub fn init() -> usize {
    let all = current();
    let n = all.as_ref().map_or(0, |m| cpus(m).len());
    let placement = all.and_then(|all| {
        let allowed = cpus(&all);
        (allowed.len() >= 2).then(|| Placement {
            all,
            first: only(allowed[0]),
        })
    });
    if let Some(p) = &placement {
        set(&p.first);
    }
    PLACEMENT.get_or_init(|| placement);
    n
}

/// Runs `f` with the calling thread unpinned, so threads `f` spawns
/// inherit the whole allowed set; pins the caller back afterwards.
pub fn unpinned<T>(f: impl FnOnce() -> T) -> T {
    let Some(Some(p)) = PLACEMENT.get() else {
        return f();
    };
    set(&p.all);
    let out = f();
    set(&p.first);
    out
}

/// Pins the calling thread to the client's CPU.
pub fn daemon_thread() {
    if let Some(Some(p)) = PLACEMENT.get() {
        set(&p.first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_round_trip() {
        assert_eq!(cpus(&only(0)), vec![0]);
        assert_eq!(cpus(&only(70)), vec![70]);
        let here = current().expect("sched_getaffinity works on Linux");
        assert!(!cpus(&here).is_empty());
    }
}
