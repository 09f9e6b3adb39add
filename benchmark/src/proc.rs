//! Process-level counters read from `/proc/self`: resident memory, page
//! faults and CPU time. Linux only; a missing field reads as 0 so the
//! benchmark still runs elsewhere, reporting nothing for these rows.

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Resident set size now, MB (`VmRSS`).
    pub rss_mb: f64,
    /// Peak resident set size so far, MB (`VmHWM`).
    pub peak_rss_mb: f64,
    /// Minor page faults since process start.
    pub minor_faults: f64,
    /// User CPU seconds since process start, all threads.
    pub cpu_user_s: f64,
    /// System CPU seconds since process start, all threads.
    pub cpu_sys_s: f64,
}

/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux configuration in use; the
/// std library offers no way to ask.
const CLOCK_TICKS_PER_S: f64 = 100.0;

fn status_kb(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Read the counters now.
pub fn sample() -> ProcSample {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) is parenthesised and may hold spaces:
    // count fields from the closing parenthesis, where field 3 starts.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let field = |n: usize| -> f64 {
        fields
            .get(n - 3)
            .and_then(|f| f.parse().ok())
            .unwrap_or(0.0)
    };
    ProcSample {
        rss_mb: status_kb(&status, "VmRSS:") / 1024.0,
        peak_rss_mb: status_kb(&status, "VmHWM:") / 1024.0,
        minor_faults: field(10),
        cpu_user_s: field(14) / CLOCK_TICKS_PER_S,
        cpu_sys_s: field(15) / CLOCK_TICKS_PER_S,
    }
}

/// Reset the peak-RSS high-water mark to the current RSS, so `VmHWM` can be
/// read per rep. Returns false where the kernel offers no such reset; peaks
/// then accumulate over the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(target_os = "linux")]
extern "C" {
    // Both are in the C library the standard library already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict this process, and every thread it starts from here on, to the
/// highest-numbered CPU it may run on (CPU 0 takes most interrupts). Returns
/// `(CPUs allowed before, the one kept)`, or `None` where the call is
/// missing or refused; the run then goes on unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<(usize, usize)> {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is WORDS * 8 writable bytes, the size passed.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let allowed = mask.iter().map(|w| w.count_ones() as usize).sum();
    let word = mask.iter().rposition(|&w| w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is WORDS * 8 readable bytes, the size passed.
    (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0)
        .then_some((allowed, word * 64 + bit))
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<(usize, usize)> {
    None
}

/// Hand the allocator's free pages back to the kernel, so what runs next
/// faults its memory in afresh, as a new process would. Does nothing where
/// the C library has no `malloc_trim`.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: takes no pointer; safe to call at any time from any thread.
        unsafe { malloc_trim(0) };
    }
}

/// Cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}
