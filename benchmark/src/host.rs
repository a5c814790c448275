//! Host control and identity: CPU pinning, peak RSS, and the
//! fingerprint stamped on every output.

use std::process::Command;

/// `cpu_set_t` is a 1024-bit mask on Linux.
const CPU_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `mallopt` parameters (`malloc.h`).
const M_TRIM_THRESHOLD: i32 = -1;
const M_TOP_PAD: i32 = -2;
const M_MMAP_THRESHOLD: i32 = -3;

/// Tell glibc malloc to keep freed memory instead of returning it to
/// the kernel: no heap trimming, no `mmap` for large blocks, 64 MiB of
/// head-room per growth. With the defaults every bulk op (a decoded
/// `Database`, a replayed WAL) hands its pages back and faults them in
/// again on the next op, and what those faults cost on a shared host
/// swings by tens of percent from one process to the next - noise of
/// the kernel's, not a property of the code under test. Returns false
/// if the allocator refused (the run goes on, noisier).
pub fn steady_allocator() -> bool {
    // SAFETY: `mallopt` only stores tunables in the allocator's own
    // state; called from `main` before any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
            && mallopt(M_MMAP_THRESHOLD, 1 << 30) == 1
            && mallopt(M_TOP_PAD, 64 << 20) == 1
    }
}

/// The CPUs this process may run on, ascending; empty if the kernel
/// refuses to say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin this process (and every thread or child it starts afterwards)
/// to the highest-numbered CPU it is allowed on. All server, session,
/// worker and client threads then share one CPU, so a latency is path
/// length plus context switches rather than a cross-core wake-up whose
/// cost depends on where the scheduler happened to place the threads.
/// Returns the CPU, or `None` if pinning failed.
pub fn pin_to_highest_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut mask = [0u64; CPU_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length
    // passed; pid 0 names the calling thread, which is the only thread
    // because `main` pins before it starts anything.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0 && allowed_cpus() == [cpu]).then_some(cpu)
}

/// How outputs name the pin: `cpu1`, or `false` if pinning failed.
pub fn pinned_label(pinned: Option<usize>) -> String {
    pinned.map_or_else(|| "false".to_string(), |cpu| format!("cpu{cpu}"))
}

/// `VmHWM` (peak resident set) in MiB out of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb / 1024.0)
}

/// This process's peak resident set so far, in MiB (0 if unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// One line naming everything a number from this host depends on.
/// Call before pinning so `allowed` shows the unpinned set.
pub struct Fingerprint {
    allowed: Vec<usize>,
    kernel: String,
    rustc: String,
    git: String,
}

impl Fingerprint {
    pub fn capture() -> Fingerprint {
        let unknown = || "unknown".to_string();
        Fingerprint {
            allowed: allowed_cpus(),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            // A driver checkout is not a git repository.
            git: command_line(
                "git",
                &[
                    "-C",
                    env!("CARGO_MANIFEST_DIR"),
                    "rev-parse",
                    "--short",
                    "HEAD",
                ],
            )
            .unwrap_or_else(unknown),
        }
    }

    pub fn line(&self, pinned: Option<usize>, seed: u64, wire_telemetry: bool) -> String {
        format!(
            "host nproc={} allowed={:?} pinned={} kernel={} rustc=\"{}\" git={} seed={seed} \
             wire_telemetry={} storage=MemStorage transport=loopback-tcp",
            self.allowed.len(),
            self.allowed,
            pinned_label(pinned),
            self.kernel,
            self.rustc,
            self.git,
            if wire_telemetry { "on" } else { "off" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_a_status_file() {
        let status = "Name:\tmmbench\nVmPeak:\t  999999 kB\nVmHWM:\t   52224 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(51.0));
    }

    #[test]
    fn vm_hwm_rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 100 pages\n"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb() > 0.0);
    }
}
