//! What the harness asks of the host: CPU pinning, CPU-time clocks, and
//! the `/proc` counters that explain an outlier run.
//!
//! Noise rule (a): the process pins itself to one CPU before it spawns
//! anything, so every tier's thread inherits the mask. Each node of the
//! stack is single-reactor by design and every op is a serial wake-up
//! chain; spread over two shared cores the chain pays cross-CPU wake-ups
//! whose cost depends on what else the host schedules.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Pin the calling thread (and every thread it later spawns) to the
/// highest CPU in its allowed set. `None` when the kernel refuses; the
/// run carries on unpinned and says so.
pub fn pin_to_highest_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1u64 << (c % 64)) != 0)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; both clock ids exist on
    // every Linux this runs on.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU of the whole process, nanosecond resolution (the
/// scheduler's own runtime sum — the same source as per-task
/// `schedstat`, not the 10 ms ticks of `/proc/self/stat`).
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU of the calling thread alone.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Voluntary context switches summed over every thread of the process.
pub fn voluntary_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("status")).ok())
        .filter_map(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
pub fn steal_and_total_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// A fixed amount of integer work (about 2 ms on the host this was
/// written on); its wall time tracks host speed, so a window whose
/// calibration reads slow was disturbed from outside the process.
pub fn calib_spin_us() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..1_500_000u32 {
        x = std::hint::black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e6
}

/// The environment a result was measured in.
#[derive(Debug, Clone)]
pub struct Env {
    pub nproc: usize,
    pub kernel: String,
    pub rustc: &'static str,
    pub commit: String,
    pub pinned_cpu: Option<usize>,
}

impl Env {
    /// `nproc` is the caller's reading from before it pinned itself
    /// (afterwards the process is allowed one CPU and would say 1).
    pub fn record(nproc: usize, pinned_cpu: Option<usize>) -> Env {
        Env {
            nproc,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
            rustc: env!("RZU_BENCH_RUSTC"),
            commit: head_commit().unwrap_or_else(|| "unknown".to_owned()),
            pinned_cpu,
        }
    }

    /// One line, `key=value` pairs.
    pub fn line(&self) -> String {
        format!(
            "nproc={} kernel={} rustc=\"{}\" commit={} pinned={} pinned_cpu={} link=\"loopback TCP\"",
            self.nproc,
            self.kernel,
            self.rustc,
            self.commit,
            self.pinned_cpu.is_some(),
            self.pinned_cpu.map_or_else(|| "none".to_owned(), |c| c.to_string()),
        )
    }
}

/// The commit of the enclosing repository, read from `.git` directly (a
/// driver checkout is not a repository: then the answer is `None`).
fn head_commit() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()?
        .join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_owned()))
}
