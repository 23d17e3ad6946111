//! The `eelserved` process: spawn, readiness, counters, resource use,
//! shutdown.

use eel_serve::{Client, Response};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every architecture Linux supports.
const TICKS_PER_SECOND: f64 = 100.0;

/// A running daemon, stopped (and waited for) on drop at the latest.
pub struct Daemon {
    child: Child,
    addr: String,
    /// Held open so a late write by the daemon never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns `eelserved` on an ephemeral loopback port and waits for
    /// its `listening on` line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a daemon that exits before it is ready.
    pub fn spawn(bin: &Path, cache_bytes: usize) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--cache-bytes"])
            .arg(cache_bytes.to_string())
            .env_remove("EEL_OBS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("eelserved: listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "eelserved did not start: {line:?}"
            )));
        };
        let addr = addr.to_string();
        Ok(Daemon {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// A client for the daemon, with a generous I/O timeout.
    pub fn client(&self) -> Client {
        Client::connect(self.addr.clone()).with_timeout(Some(Duration::from_secs(60)))
    }

    /// The daemon's `metrics` op, parsed.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`Ok` reply.
    pub fn metrics(&self) -> io::Result<Metrics> {
        match self.client().control("metrics")? {
            Response::Ok { body, .. } => Ok(Metrics::parse(&String::from_utf8_lossy(&body))),
            other => Err(io::Error::other(format!("metrics op failed: {other:?}"))),
        }
    }

    /// User plus system CPU the daemon has used, in milliseconds.
    ///
    /// # Errors
    ///
    /// `/proc` read failures.
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        Ok((ticks(11) + ticks(12)) * 1e3 / TICKS_PER_SECOND)
    }

    /// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`).
    ///
    /// # Errors
    ///
    /// `/proc` read failures, or a missing field.
    pub fn status_kb(&self, field: &str) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| io::Error::other(format!("no {field} in /proc status")))
    }

    /// Asks the daemon to shut down and waits for it to exit; kills it
    /// if it has not exited within ten seconds.
    ///
    /// # Errors
    ///
    /// A daemon that had to be killed, or wait failures.
    pub fn stop(mut self) -> io::Result<()> {
        let _ = self.client().control("shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other("eelserved did not shut down within 10s"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One parsed `metrics` reply: counters and gauges by name, and each
/// histogram's `(count, sum)`.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: HashMap<String, f64>,
    histograms: HashMap<String, (f64, f64)>,
}

impl Metrics {
    fn parse(text: &str) -> Metrics {
        let mut m = Metrics::default();
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("counter" | "gauge"), Some(name)) => {
                    if let Some(v) = parts.next().and_then(|v| v.parse().ok()) {
                        m.values.insert(name.to_string(), v);
                    }
                }
                (Some("histogram"), Some(name)) => {
                    let mut count = 0.0;
                    let mut sum = 0.0;
                    for kv in parts {
                        match kv.split_once('=') {
                            Some(("count", v)) => count = v.parse().unwrap_or(0.0),
                            Some(("sum", v)) => sum = v.parse().unwrap_or(0.0),
                            _ => {}
                        }
                    }
                    m.histograms.insert(name.to_string(), (count, sum));
                }
                _ => {}
            }
        }
        m
    }

    /// A counter or gauge (0 when the daemon never touched it).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The sum of every counter whose name starts with `prefix` and
    /// ends with `suffix`.
    pub fn sum_matching(&self, prefix: &str, suffix: &str) -> f64 {
        self.values
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// A histogram's `(count, sum)`.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        self.histograms.get(name).copied().unwrap_or((0.0, 0.0))
    }

    /// `self - earlier`, name by name: the activity between two
    /// snapshots.
    pub fn since(&self, earlier: &Metrics) -> Metrics {
        Metrics {
            values: self
                .values
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.value(k)))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, (c, s))| {
                    let (c0, s0) = earlier.histogram(k);
                    (k.clone(), (c - c0, s - s0))
                })
                .collect(),
        }
    }
}
