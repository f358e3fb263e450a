//! What the benchmark reads about its own process and the machine.

use std::fs;
use std::process::Command;

use crate::json::Json;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perf reads /proc and calls clock_gettime and sched_setaffinity with their 64-bit Linux layouts");

/// CPU seconds (user + system) this process has used so far, every thread
/// included, from the kernel's nanosecond accounting. `/proc/self/stat`
/// carries the same total rounded to 10 ms ticks, which is a tenth of what a
/// whole serve repetition uses.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library std already links; it writes
    // one `struct timespec` (two 64-bit fields on 64-bit Linux, as declared
    // above) through the pointer, which is valid and exclusive for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// The kernel's `cpu_set_t`: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Keeps the calling thread on one CPU until dropped; a thread spawned
/// meanwhile inherits the mask for good.
///
/// On the 2-core reference host the two CPUs differ by a quarter on the
/// memory-bound loops (CPU 0 also serves the machine's interrupts), and the
/// scheduler moves a lone busy thread between them every few seconds: a
/// single-threaded repetition read 28 or 37 M op/s by where it happened to
/// sit. The single-threaded workloads therefore measure on one CPU, the last
/// one the process may use. `dispatch` places its two threads on the first
/// and the last; the server's seven are left to the scheduler.
pub struct Pinned {
    previous: CpuSet,
}

impl Pinned {
    pub fn to_first_cpu() -> Option<Pinned> {
        Pinned::to(|allowed| {
            let word = allowed.iter().position(|&w| w != 0)?;
            Some((word, allowed[word].trailing_zeros()))
        })
    }

    pub fn to_last_cpu() -> Option<Pinned> {
        Pinned::to(|allowed| {
            let word = allowed.iter().rposition(|&w| w != 0)?;
            Some((word, 63 - allowed[word].leading_zeros()))
        })
    }

    /// `pick` names one of the allowed CPUs as (word, bit). `None` where the
    /// kernel refuses (the measurement then runs unpinned).
    fn to(pick: impl Fn(&CpuSet) -> Option<(usize, u32)>) -> Option<Pinned> {
        let mut previous: CpuSet = [0; 16];
        // SAFETY: both calls are the C library's wrappers std already links;
        // pid 0 is the calling thread, and each pointer is to a live
        // `CpuSet` of exactly the size passed with it.
        unsafe {
            if sched_getaffinity(0, size_of::<CpuSet>(), &mut previous) != 0 {
                return None;
            }
            let (word, bit) = pick(&previous)?;
            let mut one: CpuSet = [0; 16];
            one[word] = 1 << bit;
            (sched_setaffinity(0, size_of::<CpuSet>(), &one) == 0).then_some(Pinned { previous })
        }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: as in `to_last_cpu`; restoring a mask the kernel gave us.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &self.previous) };
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The facts a result file records about where it was measured.
pub fn facts() -> Json {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::from(nproc() as u64)),
        ("cpu_model", Json::str(cpu_model)),
        ("kernel", Json::str(command_line("uname", &["-sr"]))),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_and_cpu_time_advances() {
        let before = cpu_seconds();
        let mut x = 1u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 5 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }

    fn allowed_cpus() -> u32 {
        let mut set: CpuSet = [0; 16];
        // SAFETY: as in `Pinned::to_last_cpu`.
        assert_eq!(
            unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) },
            0
        );
        set.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn pinning_narrows_to_one_cpu_and_the_guard_restores_the_mask() {
        let before = allowed_cpus();
        for pin in [Pinned::to_first_cpu, Pinned::to_last_cpu] {
            let pinned = pin().expect("the kernel lets a thread narrow its own mask");
            assert_eq!(allowed_cpus(), 1);
            drop(pinned);
            assert_eq!(allowed_cpus(), before);
        }
    }
}
