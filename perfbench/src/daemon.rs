//! The system under test as child processes: `lahd serve` daemons and the
//! pipeline runner, plus the raw framed connection the load generator
//! drives.
//!
//! Children run this executable in a child mode that forwards to the
//! `lahd` command line (see `main.rs`), so a daemon here is the real
//! `lahd serve` in its own address space: its peak RSS is its own, and a
//! restart is a real process restart.

use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lahd::serve::{read_frame, write_frame, Request, Response};

/// A spawned child process, killed and reaped if dropped while running.
pub struct Proc {
    child: Child,
}

impl Proc {
    /// Spawns this executable with `args`; stdout is captured when `pipe`
    /// (the pipeline child's report), otherwise discarded.
    pub fn spawn(args: &[String], pipe: bool) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(if pipe { Stdio::piped() } else { Stdio::null() })
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        Ok(Self { child })
    }

    /// OS process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (VmHWM) in MiB; 0 when unreadable.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Waits up to `timeout` for a clean exit, returning captured stdout.
    pub fn wait(mut self, timeout: Duration) -> Result<String, String> {
        let mut out = String::new();
        if let Some(mut stdout) = self.child.stdout.take() {
            use std::io::Read;
            stdout
                .read_to_string(&mut out)
                .map_err(|e| format!("read child stdout: {e}"))?;
        }
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(out),
                Ok(Some(status)) => return Err(format!("child exited with {status}")),
                Ok(None) if Instant::now() >= deadline => {
                    return Err("child did not exit in time".to_string())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait child: {e}")),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string(status_path) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A running `lahd serve` child.
pub struct Daemon {
    proc: Proc,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `lahd serve <serve_args> --socket <socket>`.
    pub fn spawn(serve_args: &[String], socket: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_file(socket);
        let mut args = vec!["lahd".to_string(), "serve".to_string()];
        args.extend_from_slice(serve_args);
        args.push("--socket".to_string());
        args.push(socket.display().to_string());
        Ok(Self {
            proc: Proc::spawn(&args, false)?,
            socket: socket.to_path_buf(),
        })
    }

    /// Connects, waiting up to 60 s for the daemon to bind its socket.
    pub fn connect(&self) -> Result<Conn, String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => return Conn::new(stream),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("connect {}: {e}", self.socket.display()))
                }
                Err(_) => std::thread::sleep(Duration::from_micros(100)),
            }
        }
    }

    /// OS process id of the daemon.
    pub fn pid(&self) -> u32 {
        self.proc.pid()
    }

    /// Peak RSS of the daemon process so far, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.proc.peak_rss_mb()
    }

    /// Graceful stop: a shutdown request (the daemon drains and writes its
    /// final checkpoint), then waits for the process to exit.
    pub fn shutdown(self) -> Result<(), String> {
        let mut conn = self.connect()?;
        conn.send(&Request::Shutdown)
            .map_err(|e| format!("send shutdown: {e}"))?;
        let _ = conn.recv();
        drop(conn);
        self.proc.wait(Duration::from_secs(60)).map(|_| ())
    }
}

/// One framed connection, using the protocol's own encode/decode and
/// frame functions so client framing can be timed per call.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Self, String> {
        // A lost reply or a daemon that stops reading must end the run, not
        // hang it.
        let limit = Some(Duration::from_secs(20));
        stream
            .set_read_timeout(limit)
            .and_then(|()| stream.set_write_timeout(limit))
            .map_err(|e| format!("socket timeouts: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Splits into an independently owned writer (for a sender thread).
    pub fn try_clone_writer(&self) -> Result<UnixStream, String> {
        self.writer
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))
    }

    /// Writes one already-encoded payload.
    pub fn send_payload(&mut self, payload: &[u8]) -> std::io::Result<()> {
        write_frame(&mut self.writer, payload)
    }

    /// Encodes and writes one request.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        self.send_payload(&req.encode())
    }

    /// Reads one raw frame payload; EOF is an error.
    pub fn recv_payload(&mut self) -> std::io::Result<Vec<u8>> {
        read_frame(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed connection",
            )
        })
    }

    /// Reads and decodes one response.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        decode(&self.recv_payload()?)
    }

    /// The daemon's stats document. Only valid with no decisions in flight.
    pub fn stats(&mut self) -> Result<Stats, String> {
        self.send(&Request::Stats)
            .map_err(|e| format!("send stats: {e}"))?;
        match self.recv() {
            Ok(Response::StatsJson(json)) => Ok(Stats(json)),
            other => Err(format!("stats request answered with {other:?}")),
        }
    }
}

/// Decodes a response payload.
pub fn decode(payload: &[u8]) -> std::io::Result<Response> {
    Response::decode(payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// The daemon's stats JSON with typed accessors for the counters read here.
#[derive(Clone, Debug, Default)]
pub struct Stats(pub String);

impl Stats {
    /// The first unsigned integer after `"name":` (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        let needle = format!("\"{name}\":");
        self.0
            .find(&needle)
            .map(|at| {
                self.0[at + needle.len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }

    /// Per-tier decision counts (FSM, quant, exact, baseline).
    pub fn tiers(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        if let Some(at) = self.0.find("\"tier_decisions\":[") {
            let rest = &self.0[at + "\"tier_decisions\":[".len()..];
            let list = &rest[..rest.find(']').unwrap_or(0)];
            for (slot, v) in out.iter_mut().zip(list.split(',')) {
                *slot = v.trim().parse().unwrap_or(0);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accessors_read_the_daemon_document() {
        let s = Stats(
            "{\"served\":12,\"shed\":3,\"tier_decisions\":[7,2,1,2],\
             \"streams\":{\"compact\":4,\"resident\":1,\"hibernated\":5},\
             \"latency\":{\"p50_ns\":1500}}"
                .to_string(),
        );
        assert_eq!(s.get("served"), 12);
        assert_eq!(s.get("p50_ns"), 1500);
        assert_eq!(s.get("missing"), 0);
        assert_eq!(s.tiers(), [7, 2, 1, 2]);
        assert_eq!(s.get("hibernated"), 5);
    }
}
