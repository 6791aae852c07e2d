//! Process-level measurements shared by the benchmark binaries.

/// Peak resident set size (high-water mark) of the current process, in
/// bytes.
///
/// Reads `VmHWM` from `/proc/self/status`, so it reflects the maximum
/// RSS over the whole process lifetime — exactly what a scale benchmark
/// wants to prove memory stayed sub-linear in the registered population.
/// Returns `None` off Linux or if the field cannot be parsed, so callers
/// can report "unavailable" instead of a bogus number.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Current resident set size of this process, in bytes (`VmRSS`);
/// `None` where [`peak_rss_bytes`] is.
pub fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, "VmRSS:")
}

/// Parses the `VmHWM:    1234 kB` line out of a `/proc/<pid>/status` dump.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    parse_status_kb(status, "VmHWM:")
}

/// Parses a `<field>    1234 kB` line out of a `/proc/<pid>/status` dump.
fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line
        .strip_prefix(field)?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
    }

    #[test]
    fn missing_or_malformed_field_is_none() {
        assert_eq!(parse_vm_hwm("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t12 MB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_reading_is_positive_on_linux() {
        let rss = peak_rss_bytes().expect("Linux exposes /proc/self/status");
        assert!(rss > 0);
    }
}
