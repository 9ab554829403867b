//! Process figures read from `/proc/self/status` (0 where unreadable).

fn status_field(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Current thread count.
pub fn threads() -> usize {
    status_field("Threads:") as usize
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// Current resident set (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_field("VmRSS:") as f64 / 1024.0
}
