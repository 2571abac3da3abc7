//! Process accounting read from `/proc`: CPU time, peak resident memory
//! and context switches of this process (all threads).

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100
/// on every Linux architecture; reading it properly needs `sysconf`,
/// which safe std does not offer.
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so the
/// numbered fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Name:   123 kB`-style numeric field of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// User + system CPU seconds consumed by this process so far, exited
/// threads included.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 / TICKS_PER_SEC)
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_field(&status, "VmHWM")? as f64 / 1024.0)
}

/// Current resident set size (`VmRSS`) in bytes.
pub fn rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_field(&status, "VmRSS")? * 1024)
}

/// Voluntary + involuntary context switches summed over the live threads
/// of this process (the counters are per task; an exited thread takes
/// its count with it, so read this while the threads still run).
pub fn context_switches() -> Option<u64> {
    let mut total = 0;
    for task in fs::read_dir("/proc/self/task").ok()?.flatten() {
        // A thread may exit between the listing and the read.
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        total += parse_status_field(&status, "voluntary_ctxt_switches")?
            + parse_status_field(&status, "nonvoluntary_ctxt_switches")?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (coop bench) x) S 1 4242 4242 0 -1 4194304 903 0 0 0 \
                    137 58 0 0 20 0 3 0 1234 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(137 + 58));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_name() {
        let status = "Name:\tcoopbench\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\n\
                      VmRSS:\t   1024 kB\nvoluntary_ctxt_switches:\t17\n\
                      nonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_field(status, "VmRSS"), Some(1024));
        // "voluntary…" must not match the "nonvoluntary…" line or vice versa.
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(5)
        );
        assert_eq!(parse_status_field(status, "VmSwap"), None);
    }

    #[test]
    fn live_readings_are_available_on_linux() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(rss_bytes().unwrap() > 0);
        assert!(context_switches().is_some());
    }
}
