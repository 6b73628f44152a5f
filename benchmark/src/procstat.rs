//! Process CPU time, page faults and peak RSS from `/proc/self`.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI; reading it
/// properly needs `sysconf`, which needs libc, which is not vendored.
const TICKS_PER_S: f64 = 100.0;

/// A reading of the process-wide (all threads) counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcSample {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
}

impl ProcSample {
    /// Read the current process's counters; `None` off Linux.
    pub fn now() -> Option<ProcSample> {
        parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt - earlier.minflt,
        }
    }
}

/// CPU seconds (user + kernel, every thread, living or reaped) the process
/// has consumed, at the kernel's nanosecond resolution; `None` if the
/// clock cannot be read. `/proc/self/stat` counts the same time in 10 ms
/// ticks — 4 % of a 0.25 s sweep — and a quartile of tick-quantised
/// samples reads exactly the same from run to run.
pub fn process_cpu_s() -> Option<f64> {
    use std::ffi::{c_int, c_long};
    /// glibc's `struct timespec` on Linux: `time_t` is `long` there.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is valid, aligned and exclusively borrowed for the
    // call; `Timespec` has that struct's layout on Linux.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (status == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds the hypervisor has taken from this guest since boot (all
/// CPUs): time a virtual CPU wanted to run and was not run. Zero where the
/// kernel reports none — bare metal, or no `/proc/stat`.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| parse_steal_ticks(&text))
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_S)
}

/// `f`'s result, its wall-clock, and the CPU time the hypervisor stole
/// from the guest while it ran.
pub fn timed_with_steal<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let stolen = steal_s();
    let t = std::time::Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    (out, wall, steal_s() - stolen)
}

/// The `steal` field (the eighth) of the aggregate `cpu` line of
/// `/proc/stat`, in ticks (`man 5 proc`).
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let mut fields = stat.lines().next()?.split_whitespace();
    (fields.next() == Some("cpu")).then_some(())?;
    fields.nth(7)?.parse().ok()
}

/// Parse one `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesised and may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`: `minflt` is field 10, `utime` 14,
/// `stime` 15 (1-indexed, `man 5 proc`).
pub fn parse_stat(line: &str) -> Option<ProcSample> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcSample {
        user_s: field(14)? as f64 / TICKS_PER_S,
        sys_s: field(15)? as f64 / TICKS_PER_S,
        minflt: field(10)?,
    })
}

/// Peak resident set size (`VmHWM`) in MiB; `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)
        .map(|kib| kib as f64 / 1024.0)
}

/// Reset the peak-RSS high-water mark to the current RSS, so that the next
/// [`peak_rss_mib`] reads the peak since this call (`man 5 proc`,
/// `clear_refs` value 5). Where the kernel refuses, the mark keeps its
/// process-wide meaning and nothing else changes.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Extract `VmHWM` (in KiB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (haten2 (bench) x) R 1 4242 4242 0 -1 4194304 \
        51234 0 7 0 1234 56 0 0 20 0 3 0 100 123456789 2345 18446744073709551615 \
        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_fields_counted_after_last_paren() {
        let s = parse_stat(STAT).unwrap();
        assert_eq!(s.minflt, 51234);
        assert_eq!(s.user_s, 12.34);
        assert_eq!(s.sys_s, 0.56);
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert!(parse_stat("1 (x) R 1 2 3").is_none());
        assert!(parse_stat("no parens here").is_none());
    }

    #[test]
    fn since_subtracts() {
        let a = parse_stat(STAT).unwrap();
        let b = ProcSample {
            user_s: 13.0,
            sys_s: 1.0,
            minflt: 51300,
        };
        let d = b.since(&a);
        assert!((d.user_s - 0.66).abs() < 1e-9);
        assert!((d.sys_s - 0.44).abs() < 1e-9);
        assert_eq!(d.minflt, 66);
    }

    #[test]
    fn steal_is_the_eighth_field_of_the_cpu_line() {
        let stat = "cpu  1289370 0 391469 1984616 20097 0 5350 99034 0 0\n\
                    cpu0 665317 0 188984 916056 11309 0 3435 44798 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(99034));
        // Kernels before 2.6.11 stop at softirq.
        assert_eq!(parse_steal_ticks("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(parse_steal_ticks("intr 1 2 3 4 5 6 7 8 9\n"), None);
        assert_eq!(parse_steal_ticks(""), None);
        assert!(steal_s() >= 0.0);
    }

    #[test]
    fn vm_hwm_parsed_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_sane_and_agree() {
        let s = ProcSample::now().unwrap();
        reset_peak_rss();
        assert!(peak_rss_mib().unwrap() > 0.0);
        // Burn CPU until both clocks have visibly advanced.
        let start = process_cpu_s().unwrap();
        let mut x = 0u64;
        while process_cpu_s().unwrap() - start < 0.2 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let ticks = ProcSample::now().unwrap().since(&s);
        let (ticks, fine) = (ticks.user_s + ticks.sys_s, process_cpu_s().unwrap() - start);
        assert!((ticks - fine).abs() < 0.1, "ticks {ticks}, clock {fine}");
    }
}
