//! A minimal synchronous client for the serving protocol.
//!
//! [`ServeClient`] is a thin framing wrapper over a Unix-socket stream.
//! Decision responses arrive whenever their shard answers, so callers with
//! multiple decisions in flight must correlate by `req_id`; [`ServeClient::call`]
//! (send one, wait one) is only safe when no decisions are outstanding —
//! the pattern every control message (stats, reload, shutdown, chaos)
//! follows.
//!
//! Transient-fault handling: [`ServeClient::connect_backoff`] and
//! [`ServeClient::call_idempotent`] retry through a [`RetryPolicy`] —
//! bounded attempts, exponential backoff capped at `max_backoff`, and
//! deterministic jitter from the policy's seed (so two clients spawned
//! together don't hammer the socket in lockstep). Exhaustion is a typed
//! [`ClientError::Exhausted`] carrying the last underlying error. Decide
//! requests are deliberately *not* retryable: a retry after a lost reply
//! would advance the stream's cursor twice.

use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::metrics::MetricsSnapshot;
use crate::protocol::{read_frame, write_frame, Request, Response};

/// Bounded-retry knobs for [`ServeClient::connect_backoff`] and
/// [`ServeClient::call_idempotent`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts before giving up (at least 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Jitter stream seed; same seed → same backoff schedule (the chaos
    /// harness's reproducibility requirement).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 5,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before attempt `attempt + 1` (attempt is
    /// 0-based): half the capped exponential delay plus a deterministic
    /// pseudo-random slice of the other half.
    fn backoff(&self, attempt: u32) -> Duration {
        let base = self.base_backoff.as_micros().max(1) as u64;
        let cap = self.max_backoff.as_micros().max(1) as u64;
        let delay = base
            .checked_shl(attempt.min(32))
            .unwrap_or(u64::MAX)
            .min(cap);
        // xorshift over (seed, attempt): deterministic, cheap, seed-keyed.
        let mut x = self.jitter_seed ^ ((attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Duration::from_micros(delay / 2 + x % (delay / 2 + 1))
    }
}

/// A typed client failure.
#[derive(Debug)]
pub enum ClientError {
    /// A non-retryable I/O or protocol failure.
    Io(std::io::Error),
    /// Every retry attempt failed; `last` is the final underlying error.
    Exhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The last error observed.
        last: std::io::Error,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o error: {e}"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Error kinds worth retrying: the daemon hasn't bound yet, dropped the
/// connection mid-restart, or closed a half-written frame.
fn transient(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        kind,
        NotFound
            | ConnectionRefused
            | ConnectionReset
            | ConnectionAborted
            | BrokenPipe
            | UnexpectedEof
            | Interrupted
            | WouldBlock
    )
}

/// One connection to a serving daemon.
pub struct ServeClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// Remembered for reconnects on the retrying paths.
    socket: PathBuf,
}

impl ServeClient {
    /// Connects to the daemon at `socket`.
    pub fn connect(socket: &Path) -> std::io::Result<Self> {
        let stream = UnixStream::connect(socket)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            socket: socket.to_path_buf(),
        })
    }

    /// Connects, retrying for up to `timeout` while the daemon binds its
    /// socket (for harnesses that just spawned it).
    pub fn connect_retry(socket: &Path, timeout: Duration) -> std::io::Result<Self> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match Self::connect(socket) {
                Ok(client) => return Ok(client),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Connects under `policy`: up to `attempts` tries with capped,
    /// jittered exponential backoff between them. Non-transient errors
    /// fail immediately; exhaustion is typed.
    pub fn connect_backoff(socket: &Path, policy: &RetryPolicy) -> Result<Self, ClientError> {
        let attempts = policy.attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            match Self::connect(socket) {
                Ok(client) => return Ok(client),
                Err(e) if !transient(e.kind()) => return Err(ClientError::Io(e)),
                Err(e) => last = Some(e),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(policy.backoff(attempt));
            }
        }
        Err(ClientError::Exhausted {
            attempts,
            last: last.expect("at least one attempt ran"),
        })
    }

    /// Bounds every blocking receive: a reply that does not arrive within
    /// `timeout` fails [`ServeClient::recv`] with `WouldBlock`/`TimedOut`
    /// instead of hanging (`None` waits forever, the default).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request without waiting for anything.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        write_frame(&mut self.writer, &req.encode())
    }

    /// Receives the next response (blocking); EOF is an error.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let frame = read_frame(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed connection",
            )
        })?;
        Response::decode(&frame)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends one request and waits for one response. Only valid when no
    /// decision replies are outstanding on this connection.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        self.send(req)?;
        self.recv()
    }

    /// Health probe: one [`Request::Ping`] round trip.
    pub fn ping(&mut self) -> std::io::Result<()> {
        match self.call(&Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected ping response {other:?}"),
            )),
        }
    }

    /// One [`Request::Stats`] round trip, parsed into a snapshot.
    pub fn stats(&mut self) -> std::io::Result<MetricsSnapshot> {
        match self.call(&Request::Stats)? {
            Response::StatsJson(json) => Ok(MetricsSnapshot::from_json(&json)),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected stats response {other:?}"),
            )),
        }
    }

    /// [`ServeClient::call`] with transient-error retry: on a retryable
    /// failure the client reconnects (jittered backoff) and resends.
    /// Only for *idempotent* requests — pings, stats, reloads of the same
    /// bundle. [`Request::Decide`] is rejected outright: resending a
    /// decision after a lost reply would advance the stream twice.
    pub fn call_idempotent(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> Result<Response, ClientError> {
        if matches!(req, Request::Decide { .. }) {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "decide requests are not idempotent and cannot be auto-retried",
            )));
        }
        let attempts = policy.attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            match self.call(req) {
                Ok(resp) => return Ok(resp),
                Err(e) if !transient(e.kind()) => return Err(ClientError::Io(e)),
                Err(e) => last = Some(e),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(policy.backoff(attempt));
                if let Ok(fresh) = Self::connect(&self.socket) {
                    *self = fresh;
                }
            }
        }
        Err(ClientError::Exhausted {
            attempts,
            last: last.expect("at least one attempt ran"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_backoff_exhausts_with_a_typed_error() {
        let nowhere = std::env::temp_dir().join("lahd_client_no_such_daemon.sock");
        let _ = std::fs::remove_file(&nowhere);
        let policy = RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(200),
            jitter_seed: 1,
        };
        match ServeClient::connect_backoff(&nowhere, &policy) {
            Err(ClientError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(transient(last.kind()), "kind {:?}", last.kind());
            }
            Ok(_) => panic!("expected exhaustion, got a connection"),
            Err(other) => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn decide_is_never_auto_retried() {
        let nowhere = std::env::temp_dir().join("lahd_client_decide_guard.sock");
        let _ = std::fs::remove_file(&nowhere);
        // A client that never connected still enforces the guard first.
        let listener =
            std::os::unix::net::UnixListener::bind(&nowhere).expect("bind scratch socket");
        let mut client = ServeClient::connect(&nowhere).expect("connect to scratch socket");
        let err = client
            .call_idempotent(
                &Request::Decide {
                    req_id: 1,
                    stream: 1,
                    deadline_us: 0,
                    obs: vec![],
                },
                &RetryPolicy::default(),
            )
            .unwrap_err();
        match err {
            ClientError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        drop(listener);
        let _ = std::fs::remove_file(&nowhere);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            attempts: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            jitter_seed: 99,
        };
        let a: Vec<Duration> = (0..8).map(|i| policy.backoff(i)).collect();
        let b: Vec<Duration> = (0..8).map(|i| policy.backoff(i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (i, d) in a.iter().enumerate() {
            assert!(
                *d <= policy.max_backoff,
                "attempt {i} backoff {d:?} over cap"
            );
            assert!(*d >= policy.base_backoff / 2, "attempt {i} below half-base");
        }
        let other = RetryPolicy {
            jitter_seed: 100,
            ..policy
        };
        assert_ne!(
            (0..8).map(|i| other.backoff(i)).collect::<Vec<_>>(),
            a,
            "different seed, different jitter"
        );
    }
}
