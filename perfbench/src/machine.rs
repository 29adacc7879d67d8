//! The machine a result was measured on, recorded with every result.

use std::collections::BTreeMap;
use std::process::Command;

use rvnv_obs::Json;

/// First line of a command's stdout, or `None` if it cannot run.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Machine facts plus the workload seed, as a JSON object.
pub fn facts(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let text = |v: Option<String>, missing: &str| Json::Str(v.unwrap_or_else(|| missing.into()));
    let mut m = BTreeMap::new();
    m.insert("nproc".to_string(), Json::Int(nproc as u64));
    m.insert(
        "rustc".to_string(),
        text(first_line("rustc", &["--version"]), "unknown"),
    );
    m.insert("cpu".to_string(), text(cpu_model(), "unknown"));
    m.insert(
        "git_commit".to_string(),
        text(
            first_line("git", &["rev-parse", "HEAD"]),
            "none (not a git checkout)",
        ),
    );
    m.insert("seed".to_string(), Json::Int(seed));
    Json::Obj(m)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
