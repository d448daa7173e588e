//! The retrying client half of the `alive serve` protocol.
//!
//! A daemon built for crash-only operation makes three promises the
//! client must exploit: every refusal is an explicit `busy` line with a
//! retry hint, every verdict is idempotent (re-asking a question the
//! store already answered costs microseconds), and a killed daemon's
//! socket closes rather than wedging. [`Client`] therefore treats every
//! failure the same way — drop the connection, back off with jitter,
//! reconnect, resubmit — bounded by [`ClientConfig::max_retries`].
//!
//! Backoff is exponential (`base_backoff * 2^attempt`, capped at
//! `max_backoff`) with a multiplicative jitter in `[0.5, 1.5)` from a
//! deterministic splitmix64 stream, so a fleet of clients created with
//! different seeds does not stampede a restarting daemon in lockstep.
//! A `busy` hint raises the floor: the client waits at least
//! `retry_after_ms`, jitter included.
//!
//! ```no_run
//! use alive_serve::client::{Client, ClientConfig};
//!
//! let mut client = Client::new(ClientConfig {
//!     socket: "/tmp/alive.sock".into(),
//!     ..ClientConfig::default()
//! });
//! let verdict = client.verify("%r = add %x, 0\n=>\n%r = %x").unwrap();
//! assert_eq!(verdict.verdict, "valid");
//! ```

use crate::proto::{parse_response, Response, StatsLine, VerdictLine};
use alive_trace::sealed::json_escape;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::time::Duration;

/// Settings for [`Client::new`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Path of the daemon's unix socket.
    pub socket: PathBuf,
    /// Retries after the first attempt before giving up (`Unavailable`).
    pub max_retries: u32,
    /// First backoff step; doubles every retry.
    pub base_backoff: Duration,
    /// Backoff ceiling (before jitter).
    pub max_backoff: Duration,
    /// Read timeout per response line; a daemon that answers nothing for
    /// this long counts as a connection failure and is retried.
    pub io_timeout: Duration,
    /// Jitter seed. Give every fleet member its own.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            socket: PathBuf::from("alive.sock"),
            max_retries: 8,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            io_timeout: Duration::from_secs(120),
            seed: 0x5eed_a11e,
        }
    }
}

/// Why a client call gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// Could not get an answer within `max_retries` (daemon down,
    /// perpetually busy, or answering garbage).
    Unavailable(String),
    /// The daemon answered with a request-level error (parse failure,
    /// invalid transform). Retrying would re-earn the same answer.
    Request(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unavailable(m) => write!(f, "server unavailable: {m}"),
            ClientError::Request(m) => write!(f, "request failed: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

struct Conn {
    reader: BufReader<std::os::unix::net::UnixStream>,
    writer: std::os::unix::net::UnixStream,
}

/// A reconnecting, backoff-retrying connection to one daemon socket.
pub struct Client {
    config: ClientConfig,
    conn: Option<Conn>,
    rng: u64,
    next_id: u64,
    retries: u64,
    busy_seen: u64,
    attempts: u64,
    backoff_total: Duration,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("socket", &self.config.socket)
            .field("connected", &self.conn.is_some())
            .field("retries", &self.retries)
            .finish()
    }
}

/// One round's outcome, before retry policy is applied.
enum Round<T> {
    Done(T),
    RequestError(String),
    Busy(u64),
    ConnFailed,
}

impl Client {
    /// Builds a client. No I/O happens until the first call — a daemon
    /// that is still starting up costs retries, not a constructor error.
    pub fn new(config: ClientConfig) -> Client {
        let rng = config.seed | 1;
        Client {
            config,
            conn: None,
            rng,
            next_id: 0,
            retries: 0,
            busy_seen: 0,
            attempts: 0,
            backoff_total: Duration::ZERO,
        }
    }

    /// Total reconnect/backoff retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Total `busy` refusals absorbed so far.
    pub fn busy_seen(&self) -> u64 {
        self.busy_seen
    }

    /// Total request rounds attempted (first tries plus retries).
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Total time spent sleeping in backoff, milliseconds.
    pub fn backoff_total_ms(&self) -> u64 {
        self.backoff_total.as_millis() as u64
    }

    /// Verifies one transform, retrying through `busy`, disconnects, and
    /// malformed responses.
    ///
    /// # Errors
    ///
    /// [`ClientError::Request`] for answers that would not change on
    /// retry; [`ClientError::Unavailable`] when retries run out.
    pub fn verify(&mut self, text: &str) -> Result<VerdictLine, ClientError> {
        let id = self.fresh_id();
        let request = format!(
            "{{\"op\":\"verify\",\"id\":\"{}\",\"text\":\"{}\"}}",
            json_escape(&id),
            json_escape(text)
        );
        self.with_retries(|client| {
            let round = client.round_trip(&request, |response, _: &mut ()| match response {
                Response::Verdict(v) => Some(Round::Done(v)),
                Response::Busy { retry_after_ms, .. } => Some(Round::Busy(retry_after_ms)),
                Response::Error { message, .. } => Some(Round::RequestError(message)),
                // Any other line here is protocol confusion: re-ask.
                _ => Some(Round::ConnFailed),
            });
            round.unwrap_or(Round::ConnFailed)
        })
    }

    /// Verifies every transform in a multi-transform text, returning
    /// verdicts in submission order. A mid-batch disconnect retries the
    /// whole batch — idempotent, and the repeats are store hits.
    ///
    /// # Errors
    ///
    /// As for [`Client::verify`].
    pub fn batch(&mut self, text: &str) -> Result<Vec<VerdictLine>, ClientError> {
        let id = self.fresh_id();
        let request = format!(
            "{{\"op\":\"batch\",\"id\":\"{}\",\"text\":\"{}\"}}",
            json_escape(&id),
            json_escape(text)
        );
        self.with_retries(|client| {
            client
                .round_trip(&request, |response, acc: &mut Vec<VerdictLine>| {
                    match response {
                        Response::Verdict(v) => {
                            acc.push(v);
                            None // keep reading until the done line
                        }
                        Response::Done { .. } => {
                            let mut out = std::mem::take(acc);
                            out.sort_by_key(|v| v.index);
                            Some(Round::Done(out))
                        }
                        Response::Busy { retry_after_ms, .. } => Some(Round::Busy(retry_after_ms)),
                        Response::Error { message, .. } => Some(Round::RequestError(message)),
                        _ => Some(Round::ConnFailed),
                    }
                })
                .unwrap_or(Round::ConnFailed)
        })
    }

    /// Fetches the daemon's counter snapshot.
    ///
    /// # Errors
    ///
    /// As for [`Client::verify`].
    pub fn stats(&mut self) -> Result<StatsLine, ClientError> {
        let id = self.fresh_id();
        let request = format!("{{\"op\":\"stats\",\"id\":\"{}\"}}", json_escape(&id));
        self.with_retries(|client| {
            let round = client.round_trip(&request, |response, _: &mut ()| match response {
                Response::Stats(s) => Some(Round::Done(*s)),
                Response::Busy { retry_after_ms, .. } => Some(Round::Busy(retry_after_ms)),
                Response::Error { message, .. } => Some(Round::RequestError(message)),
                _ => Some(Round::ConnFailed),
            });
            round.unwrap_or(Round::ConnFailed)
        })
    }

    /// Asks the daemon to shut down. One attempt, no retries: if the
    /// connection fails there is nothing left to stop.
    ///
    /// # Errors
    ///
    /// [`ClientError::Unavailable`] when no daemon answered the socket.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        let request = format!("{{\"op\":\"shutdown\",\"id\":\"{}\"}}", json_escape(&id));
        match self.round_trip(&request, |response, _: &mut ()| match response {
            Response::Shutdown { .. } => Some(Round::Done(())),
            _ => Some(Round::ConnFailed),
        }) {
            Some(Round::Done(())) => Ok(()),
            _ => Err(ClientError::Unavailable(
                "no shutdown acknowledgement".to_string(),
            )),
        }
    }

    fn fresh_id(&mut self) -> String {
        self.next_id += 1;
        format!("c{:x}-{}", self.config.seed & 0xffff, self.next_id)
    }

    /// Runs `attempt` until it yields a terminal outcome, applying the
    /// backoff policy between rounds.
    fn with_retries<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Client) -> Round<T>,
    ) -> Result<T, ClientError> {
        let mut tries = 0u32;
        loop {
            self.attempts += 1;
            match attempt(self) {
                Round::Done(v) => return Ok(v),
                Round::RequestError(m) => return Err(ClientError::Request(m)),
                Round::Busy(hint_ms) => {
                    self.busy_seen += 1;
                    self.backoff(&mut tries, Some(hint_ms))?;
                }
                Round::ConnFailed => {
                    self.conn = None;
                    self.backoff(&mut tries, None)?;
                }
            }
        }
    }

    fn backoff(&mut self, tries: &mut u32, hint_ms: Option<u64>) -> Result<(), ClientError> {
        if *tries >= self.config.max_retries {
            return Err(ClientError::Unavailable(format!(
                "gave up after {} retries to {}",
                tries,
                self.config.socket.display()
            )));
        }
        let exp = self
            .config
            .base_backoff
            .saturating_mul(1u32 << (*tries).min(16));
        let jittered = exp.min(self.config.max_backoff).mul_f64(self.jitter());
        let wait = match hint_ms {
            Some(ms) => jittered.max(Duration::from_millis(ms)),
            None => jittered,
        };
        std::thread::sleep(wait);
        self.backoff_total += wait;
        *tries += 1;
        self.retries += 1;
        Ok(())
    }

    /// Multiplicative jitter in `[0.5, 1.5)` (splitmix64).
    fn jitter(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn connect(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = std::os::unix::net::UnixStream::connect(&self.config.socket)?;
            stream.set_read_timeout(Some(self.config.io_timeout))?;
            let writer = stream.try_clone()?;
            self.conn = Some(Conn {
                reader: BufReader::new(stream),
                writer,
            });
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Sends one request line and feeds response lines to `step` until it
    /// yields an outcome. `None` means the connection failed (connect,
    /// write, EOF, timeout, or an unparseable line).
    fn round_trip<T, A: Default>(
        &mut self,
        request: &str,
        mut step: impl FnMut(Response, &mut A) -> Option<Round<T>>,
    ) -> Option<Round<T>> {
        let scratch = &mut A::default();
        let conn = self.connect().ok()?;
        writeln!(conn.writer, "{request}").ok()?;
        conn.writer.flush().ok()?;
        loop {
            let mut line = String::new();
            match conn.reader.read_line(&mut line) {
                Ok(0) => return None, // daemon closed the connection
                Ok(_) => {}
                Err(_) => return None, // timeout or hard error
            }
            if line.trim().is_empty() {
                continue;
            }
            // A torn response line fails to parse: connection failure.
            let response = parse_response(line.trim_end()).ok()?;
            if let Some(outcome) = step(response, scratch) {
                return Some(outcome);
            }
        }
    }
}
