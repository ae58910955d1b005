//! The `hrdmd` child process: build, start, first answer, `/proc`
//! readings, SIGKILL.

use hrdm_net::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Instant;

/// Result caps large enough for the full-relation durability check; the
/// server's defaults (1M rows, 256 MiB) are below a 1M-tuple relation.
const MAX_ROWS: &str = "4000000";
const MAX_BYTES: &str = "2147483648";

/// Builds `hrdmd` from the repository's sources into `target_dir`.
pub fn build_hrdmd(repo: &Path, target_dir: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "hrdm-net",
            "--bin",
            "hrdmd",
        ])
        .current_dir(repo)
        .env("CARGO_TARGET_DIR", target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building hrdmd failed: {status}"));
    }
    Ok(target_dir.join("release").join("hrdmd"))
}

pub struct Hrdmd {
    child: Child,
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Hrdmd {
    /// Starts `hrdmd` on `dir` and waits until it answers `probe`.
    /// Returns the server, a connected client and the seconds from spawn
    /// to the first answer.
    pub fn start(bin: &Path, dir: &Path, probe: &str) -> Result<(Hrdmd, Client, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--max-rows", MAX_ROWS])
            .args(["--max-bytes", MAX_BYTES, "--read-timeout-secs", "0"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("reading hrdmd stderr: {e}"))?;
            if let Some(a) = line.strip_prefix("hrdmd: listening on ") {
                addr = Some(a.trim().to_string());
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let status = child.wait();
            return Err(format!("hrdmd exited before listening: {status:?}"));
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || lines.for_each(drop));
        let mut server = Hrdmd {
            child,
            addr,
            stderr: Some(stderr),
        };
        let answered = Client::connect_as(server.addr.as_str(), "perfbench")
            .and_then(|mut c| c.query(probe).map(|_| c));
        match answered {
            Ok(client) => Ok((server, client, started.elapsed().as_secs_f64())),
            Err(e) => {
                server.kill();
                Err(format!("first query failed: {e}"))
            }
        }
    }

    /// `(utime + stime)` of the server in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks: f64 = f.get(11..13).map_or(0.0, |v| {
            v.iter().filter_map(|x| x.parse::<f64>().ok()).sum()
        });
        ticks * 1000.0 / clock_ticks_per_s()
    }

    /// Peak resident set size of the server in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGKILL, then reap the process and its stderr reader.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Hrdmd {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `sysconf(_SC_CLK_TCK)`, asked of `getconf` once; Linux uses 100.
fn clock_ticks_per_s() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100.0)
    })
}
