//! What the benchmark reads from the host: its own process figures
//! (`/proc/self`), the facts recorded with every result, and the scratch
//! directory stores live in.

use std::path::{Path, PathBuf};
use std::process::Command;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used, all threads, live
/// or joined. `/proc/self/stat` counts in `USER_HZ` ticks, which Linux
/// fixes at 100 per second on every architecture Rust targets.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / 100.0
}

/// CPU seconds the calling thread has run, to the nanosecond (the first
/// field of `/proc/thread-self/schedstat`).
pub fn thread_cpu_seconds() -> f64 {
    read("/proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Seconds the hypervisor ran someone else while this guest wanted the
/// CPU (`steal` in `/proc/stat`, all CPUs) — printed with every run, so a
/// noisy figure can be told from a noisy host.
pub fn steal_seconds() -> f64 {
    read("/proc/stat")
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default()
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(String::new, |(_, fstype)| fstype)
}

/// Host facts as `(key, value)` pairs, recorded with every result so two
/// result files can be told apart before their numbers are compared.
pub fn facts(seed: u64, scratch: &Path) -> Vec<(&'static str, String)> {
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        ),
        ("rustc", command_line("rustc", &["--version"])),
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        ("seed", seed.to_string()),
        (
            "shard_obs",
            std::env::var("SHARD_OBS").unwrap_or_else(|_| "unset (on)".to_string()),
        ),
        ("scratch_fs", filesystem_of(scratch)),
    ]
}

/// The benchmark's directory: where `cargo run` says the manifest is,
/// else `benchmark/` under the current directory (the driver and
/// `run.sh` both start at the root of a checkout).
pub fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .filter(|p| p.is_dir())
        .unwrap_or_else(|| PathBuf::from("benchmark"))
}

/// A scratch directory under `benchmark/out/tmp`, removed on drop —
/// also while a failed oracle unwinds.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = benchmark_dir()
            .join("out")
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Drop must not panic; a leftover directory is named by pid and
        // lives under the ignored `out/`.
        let _ = std::fs::remove_dir_all(&self.dir);
        // `tmp/` itself goes once the last concurrent run has left it.
        if let Some(tmp) = self.dir.parent() {
            let _ = std::fs::remove_dir(tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_figures_read_as_positive_numbers() {
        assert!(peak_rss_mb() > 0.5, "a running process has resident pages");
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > before);
        assert!(
            thread_cpu_seconds() > 0.0,
            "this thread spun until a tick passed"
        );
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let kept;
        {
            let s = Scratch::new("host-test").expect("scratch dir");
            kept = s.path().to_path_buf();
            std::fs::write(s.path().join("f"), b"x").expect("write inside scratch");
            assert!(kept.is_dir());
        }
        assert!(!kept.exists());
    }
}
