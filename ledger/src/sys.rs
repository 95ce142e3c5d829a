//! The process side of a hermetic run: a scrubbed environment, CPU and
//! memory of the process under test read from `/proc`, scratch
//! directories that always go away, and an `overlapd` child that is
//! always reaped.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Variables that change what the program under test does. A run takes
/// its inputs from `--seed` alone, so these are removed from the
/// ledger's environment (which the daemon child inherits).
const SCRUBBED_PREFIXES: [&str; 2] = ["OVERLAP_CACHE", "OVERLAP_SERVE_"];
const SCRUBBED: [&str; 2] = ["OVERLAP_FULL_VERIFY", "RAYON_NUM_THREADS"];

fn is_scrubbed(name: &str) -> bool {
    SCRUBBED.contains(&name) || SCRUBBED_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Call first thing in `main`, before any thread exists.
pub fn scrub_env() {
    let doomed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| is_scrubbed(k))
        .collect();
    for name in doomed {
        std::env::remove_var(name);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, sig: i32) -> i32;
}

fn clock_ticks_per_second() -> f64 {
    const SC_CLK_TCK: i32 = 2; // Linux, every architecture
                               // SAFETY: sysconf takes an integer selector, touches no memory of
                               // ours and has no preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// User + system CPU the process `pid` has used so far, in milliseconds
/// (all its threads; `/proc/<pid>/stat` fields 14 and 15).
pub fn cpu_ms(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').ok_or_else(|| format!("{path}: no ')'"))?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: field {i}"))
    };
    Ok((tick(11)? + tick(12)?) * 1e3 / clock_ticks_per_second())
}

/// Peak resident set (`VmHWM`) of `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// A directory beside the ledger executable (inside the checkout's build
/// directory, never `/tmp`), removed on drop — also when the run fails.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<Self, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            exe_dir()?.join("ledger-scratch").join(format!("{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

pub fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent().map(Path::to_path_buf).ok_or_else(|| "executable has no directory".to_string())
}

/// A running `overlapd`. Dropping it drains the daemon (SIGTERM), kills
/// it if it has not exited within five seconds, waits for it, and
/// removes its scratch directory.
pub struct Daemon {
    child: Child,
    pub port: u16,
    /// Held for its `Drop`: port file and disk cache go when the daemon does.
    _scratch: ScratchDir,
}

impl Daemon {
    /// Starts the daemon on an ephemeral port; with `disk_cache` it
    /// persists artifacts under a fresh scratch directory.
    pub fn spawn(overlapd: &Path, disk_cache: bool) -> Result<Daemon, String> {
        let scratch = ScratchDir::new("overlapd")?;
        let port_file = scratch.path().join("port");
        let mut cmd = Command::new(overlapd);
        cmd.arg("--port-file").arg(&port_file);
        if disk_cache {
            cmd.arg("--cache-dir").arg(scratch.path().join("cache"));
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", overlapd.display()))?;
        // From here on `daemon` owns the child: every early return reaps it.
        let mut daemon = Daemon { child, port: 0, _scratch: scratch };
        let started = Instant::now();
        loop {
            if let Some(port) =
                std::fs::read_to_string(&port_file).ok().and_then(|s| s.trim().parse::<u16>().ok())
            {
                daemon.port = port;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("overlapd exited during start-up: {status}"));
            }
            if started.elapsed() > Duration::from_secs(10) {
                return Err("overlapd wrote no port file within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        const SIGTERM: i32 = 15;
        if matches!(self.child.try_wait(), Ok(None)) {
            // SAFETY: kill takes two integers. The pid is our own child,
            // not yet waited for, so it cannot have been recycled.
            unsafe { kill(self.child.id() as i32, SIGTERM) };
            let asked = Instant::now();
            while matches!(self.child.try_wait(), Ok(None)) {
                if asked.elapsed() > Duration::from_secs(5) {
                    self.child.kill().ok();
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.child.wait().ok();
    }
}

/// `overlapd` is built beside `ledger` (both are binaries of this
/// package); `--overlapd PATH` overrides.
pub fn locate_overlapd(flag: Option<&str>) -> Result<PathBuf, String> {
    let path = match flag {
        Some(p) => PathBuf::from(p),
        None => exe_dir()?.join("overlapd"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "no overlapd at {} (build the whole package, or pass --overlapd)",
            path.display()
        ))
    }
}

/// A fixed amount of the two kinds of work the workspace does most —
/// byte hashing and an einsum — timed at the start and end of every
/// run. If the two readings drift apart, the machine was not steady and
/// the run's numbers are not to be compared with another run's.
pub fn calibrate() -> f64 {
    // One discarded pass pages the kernel's memory in and lets the clock
    // settle; the reading is the median of three more.
    calibration_pass();
    let mut passes = [calibration_pass(), calibration_pass(), calibration_pass()];
    passes.sort_by(f64::total_cmp);
    passes[1]
}

fn calibration_pass() -> f64 {
    use overlap_hlo::{DType, DotDims, Shape};
    use overlap_numerics::{kernels, Literal};

    let t0 = Instant::now();
    // 64 MiB through the hasher, 1 MiB at a time so the buffer does not
    // show up as the run's peak memory.
    let block: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
    let mut h = overlap_json::StableHasher::new("ledger-calibration/1");
    for _ in 0..64 {
        h.write_bytes(std::hint::black_box(&block));
    }
    std::hint::black_box(h.finish());
    let side = 96;
    let square = Shape::new(DType::F32, vec![side, side]);
    let a = Literal::from_fn(square.clone(), |i| (i % 17) as f64 / 16.0);
    let b = Literal::from_fn(square, |i| (i % 13) as f64 / 12.0);
    std::hint::black_box(kernels::einsum(&a, &b, &DotDims::matmul()));
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_list_covers_the_knobs_and_nothing_else() {
        for name in [
            "OVERLAP_CACHE",
            "OVERLAP_CACHE_DIR",
            "OVERLAP_CACHE_VERIFY",
            "OVERLAP_SERVE_WORKERS",
            "OVERLAP_SERVE_QUEUE",
            "OVERLAP_FULL_VERIFY",
            "RAYON_NUM_THREADS",
        ] {
            assert!(is_scrubbed(name), "{name}");
        }
        for name in ["PATH", "HOME", "CARGO_TARGET_DIR", "OVERLAP", "RAYON"] {
            assert!(!is_scrubbed(name), "{name}");
        }
    }

    #[test]
    fn own_process_accounting_reads_back() {
        let me = std::process::id();
        assert!(cpu_ms(me).expect("own stat") >= 0.0);
        assert!(peak_rss_mb(me).expect("own status") > 0.5);
        assert!(cpu_ms(u32::MAX).is_err());
    }

    #[test]
    fn scratch_dirs_are_distinct_and_removed_on_drop() {
        let a = ScratchDir::new("t").expect("scratch");
        let b = ScratchDir::new("t").expect("scratch");
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        std::fs::write(kept.join("f"), "x").expect("write");
        drop(a);
        assert!(!kept.exists());
    }
}
