//! Facts about the host that every run records, and resident memory.

use std::process::Command;

/// Resident set size of this process in bytes, from `/proc/self/statm`
/// (second field, in pages).
pub fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|field| field.parse().ok())
        .expect("statm has a resident field");
    pages * PAGE_BYTES
}

/// Linux on every architecture this repository builds for uses 4 KiB pages for
/// `statm`; there is no libc in the dependency set to ask.
const PAGE_BYTES: u64 = 4096;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// `nproc`, the commit (unknown outside a git checkout) and the compiler.
pub fn facts() -> String {
    format!(
        "nproc {} git {} {}",
        nproc(),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
        first_line("rustc", &["-V"])
    )
}
