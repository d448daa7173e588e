//! Pins the measuring thread to one CPU at a time.
//!
//! On a shared machine the CPUs a process may use are not equally fast:
//! another tenant on a sibling hardware thread can slow one of them by a
//! third for minutes, and a single-threaded run stays on whichever CPU it
//! started on. The benchmark therefore runs round `r` on the `r`-th
//! allowed CPU in turn and reports each input's fastest round.

/// Words in the kernel's CPU mask as glibc's `cpu_set_t` sizes it
/// (1,024 CPUs).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU mask; `None` when the kernel refuses.
#[cfg(target_os = "linux")]
fn get() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Restricts the calling thread to `mask`; `false` when the kernel refuses.
#[cfg(target_os = "linux")]
fn set(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte size passed,
    // only read by the call, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// The CPUs the calling thread may run on, as it found them, and a way to
/// move it among them. Dropping it restores the original mask.
#[derive(Debug)]
pub struct Rotation {
    #[cfg(target_os = "linux")]
    original: Option<[u64; MASK_WORDS]>,
    cpus: Vec<usize>,
}

impl Rotation {
    /// Reads the calling thread's allowed CPUs.
    pub fn new() -> Rotation {
        #[cfg(target_os = "linux")]
        {
            let original = get();
            let cpus = original.map_or_else(Vec::new, |mask| {
                (0..MASK_WORDS * 64)
                    .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                    .collect()
            });
            Rotation { original, cpus }
        }
        #[cfg(not(target_os = "linux"))]
        Rotation { cpus: Vec::new() }
    }

    /// Pins the calling thread to the `turn`-th allowed CPU (cyclically)
    /// and returns that CPU's slot in the rotation (0 where pinning is
    /// unavailable; the work then runs wherever the scheduler puts it).
    pub fn pin(&self, turn: usize) -> usize {
        if self.cpus.is_empty() {
            return 0;
        }
        let slot = turn % self.cpus.len();
        #[cfg(target_os = "linux")]
        {
            let cpu = self.cpus[slot];
            let mut mask = [0u64; MASK_WORDS];
            mask[cpu / 64] |= 1 << (cpu % 64);
            set(&mask);
        }
        slot
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(mask) = &self.original {
            set(mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_in_turn_and_restores_the_mask() {
        let before = std::thread::available_parallelism().map_or(1, |n| n.get());
        {
            let rotation = Rotation::new();
            let slots: Vec<usize> = (0..4).map(|turn| rotation.pin(turn)).collect();
            assert_eq!(slots[0], 0);
            if !rotation.cpus.is_empty() {
                assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
                // Slots cycle through the allowed CPUs.
                assert_eq!(rotation.pin(4 * rotation.cpus.len()), 0);
            }
        }
        let after = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(before, after);
    }
}
