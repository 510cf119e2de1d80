//! The allocator settings of the benchmark's process.
//!
//! The process keeps the memory it frees: glibc makes no `mmap`ed chunks
//! (so none is unmapped on free) and never trims its heap. On a VM,
//! faulting half a gigabyte in afresh costs 0.1–0.4 s and swings 2× from
//! run to run; with this, the release jobs after the first reuse resident
//! pages, and `build_s` times the build rather than the host's page
//! faults. The memory figures that need fresh pages call
//! [`return_freed_memory`] first.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    extern "C" {
        pub fn mallopt(param: i32, value: i32) -> i32;
        pub fn malloc_trim(pad: usize) -> i32;
    }
    pub const M_TRIM_THRESHOLD: i32 = -1;
    pub const M_MMAP_MAX: i32 = -4;
}

/// Sets the process to keep freed memory. Call before any thread starts.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `mallopt` only changes allocator tunables, and no other
    // thread is allocating yet.
    unsafe {
        glibc::mallopt(glibc::M_MMAP_MAX, 0);
        glibc::mallopt(glibc::M_TRIM_THRESHOLD, i32::MAX);
    }
}

/// Hands the free memory the process kept back to the kernel, so the
/// resident set grows again as memory is reused.
pub fn return_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` is thread-safe and frees nothing in use.
    unsafe {
        glibc::malloc_trim(0);
    }
}
