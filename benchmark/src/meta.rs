//! Where and with what a result was measured. A number without its
//! machine means little: thread-dependent results in particular are only
//! comparable at equal `nproc`.

use std::process::Command;

#[derive(Debug, Clone)]
pub struct Meta {
    pub nproc: usize,
    pub rustc: String,
    pub kernel: String,
    pub commit: String,
}

/// First line of a command's standard output, if it ran and succeeded.
/// The child has exited by the time this returns.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

impl Meta {
    pub fn collect() -> Self {
        let unknown = || "unknown".to_string();
        Self {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            rustc: first_line("rustc", &["-V"]).unwrap_or_else(unknown),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            // A checkout exported without its history has no commit.
            commit: first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        }
    }
}
