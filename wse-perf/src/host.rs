//! The host block printed into every result file, and the process's peak
//! resident set.

use wse_sim::Isa;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process in MB (`VmHWM`).  One workload runs
/// per process, so this is the workload's own high-water mark.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The host block as a JSON object.
pub fn host_json(workload: &str, seed: u64) -> String {
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {}, \"cpu\": \"{}\", \
         \"isa\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\"}}",
        nproc(),
        cpu.replace('"', "'"),
        Isa::detect().name(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
    )
}
