//! Readers for the Linux `/proc` figures the benchmark reports: peak
//! resident memory, and the CPU time of individual threads.

use std::fs;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`, …), in bytes.
fn status_kb(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok()
        })
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
        * 1024
}

/// Peak resident set size of the process so far, in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM")
}

/// Current resident set size, in bytes.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS")
}

/// Resets the peak-RSS watermark to the current RSS (writing `5` to
/// `clear_refs`), so a later [`peak_rss_bytes`] covers only what follows.
/// Returns false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Thread ids of this process whose name (`comm`) is `name`.
pub fn threads_named(name: &str) -> Vec<u32> {
    let mut tids: Vec<u32> = fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|tid| {
            fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                .is_ok_and(|comm| comm.trim_end() == name)
        })
        .collect();
    tids.sort_unstable();
    tids
}

/// Nanoseconds thread `tid` has spent on a CPU (`schedstat`, first
/// field). A thread that has exited reads as `None`.
pub fn thread_cpu_ns(tid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Summed on-CPU nanoseconds of `tids` (exited threads count as 0).
pub fn threads_cpu_ns(tids: &[u32]) -> u64 {
    tids.iter().filter_map(|&t| thread_cpu_ns(t)).sum()
}

/// CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim()
        .to_string();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let mut ends = part.split('-').map(|x| x.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            (Some(Ok(a)), None) => cpus.push(a),
            _ => {}
        }
    }
    cpus
}

/// The calling thread's id.
pub fn current_tid() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// Restricts thread `tid` to `cpus` with the `taskset` tool, waiting for
/// it to finish. Returns false if the tool is missing or refuses.
pub fn pin(tid: u32, cpus: &[usize]) -> bool {
    let list: Vec<String> = cpus.iter().map(usize::to_string).collect();
    std::process::Command::new("taskset")
        .args(["-pc", &list.join(","), &tid.to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}
