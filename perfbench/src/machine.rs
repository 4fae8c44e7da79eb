//! The machine fingerprint printed with every result, and the process's
//! peak resident set.

use std::fs;
use std::path::Path;

/// Where a result was measured, as one JSON object: CPU model, logical
/// cores, the compiler that built the benchmark, and the checkout's
/// commit (`unknown` outside a git checkout).
pub fn fingerprint_json() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git = git_head(Path::new(".git")).unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cpu\": {}, \"logical_cores\": {cores}, \"rustc\": {}, \"git\": {}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&git)
    )
}

/// The commit `HEAD` names, read from the git directory's files (no
/// process, no lookup above the working directory).
fn git_head(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(git_dir.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The process's peak resident set so far (`VmHWM`), KiB.
pub fn peak_rss_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .expect("/proc/self/status reports VmHWM")
}
