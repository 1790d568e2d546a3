//! Driving the real `moche` binary: spawning the daemon, timestamping its
//! log lines as they are read, and the client side of the binary wire
//! protocol (pipelined `OBS` frames behind `SERIES` barriers).

use moche_cli::protocol::{self, op};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long any single daemon reply or state change may take before the
/// run is abandoned (far above anything a healthy run sees).
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One line of the daemon's stdout, stamped when the benchmark read it.
#[derive(Debug, Clone)]
pub struct Line {
    pub at: Instant,
    pub text: String,
}

/// A running `moche serve` child process.
pub struct Daemon {
    child: Child,
    pub addr: String,
    pub spawned: Instant,
    lines: Receiver<Line>,
    pump: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `moche serve --listen 127.0.0.1:0 ARGS` and waits for the
    /// startup line naming the bound address.
    pub fn spawn(moche: &Path, args: &[String]) -> Result<Self, String> {
        let spawned = Instant::now();
        let mut child = Command::new(moche)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .env_remove("MOCHE_FAULTS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", moche.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let pump = std::thread::spawn(move || {
            for text in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(Line { at: Instant::now(), text }).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon { child, addr: String::new(), spawned, lines, pump: Some(pump) };
        loop {
            let line = daemon
                .lines
                .recv_timeout(REPLY_TIMEOUT)
                .map_err(|_| "the daemon never printed its listening address".to_string())?;
            if let Some(addr) = line.text.strip_prefix("moche serve: listening on ") {
                daemon.addr = addr.trim().to_string();
                return Ok(daemon);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Client, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        Ok(Client { stream })
    }

    /// Every log line read so far that has not been taken yet.
    pub fn take_lines(&self) -> Vec<Line> {
        self.lines.try_iter().collect()
    }

    /// Waits up to `timeout` for the next log line.
    pub fn next_line(&self, timeout: Duration) -> Option<Line> {
        self.lines.recv_timeout(timeout).ok()
    }

    /// Asks for a graceful shutdown, waits for the process to exit, and
    /// returns the log lines it printed meanwhile.
    pub fn shutdown(mut self) -> Result<Vec<Line>, String> {
        let mut client = self.connect()?;
        client.send(&protocol::encode_op(op::SHUTDOWN))?;
        client.reply()?;
        drop(client);
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("moche serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(None) => return Err("moche serve did not exit after SHUTDOWN".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
        Ok(self.lines.try_iter().collect())
    }
}

impl Drop for Daemon {
    /// A run that failed part-way must not leave the daemon behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

/// One client connection speaking the binary protocol.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream.write_all(bytes).map_err(|e| format!("send: {e}"))
    }

    /// Reads one reply frame: `(opcode, JSON body)`.
    pub fn reply(&mut self) -> Result<(u8, String), String> {
        read_reply(&mut self.stream)
    }

    pub fn status(&mut self) -> Result<String, String> {
        self.send(&protocol::encode_op(op::STATUS))?;
        expect_reply(self.reply()?, op::STATUS)
    }

    pub fn series(&mut self, id: u64) -> Result<SeriesReply, String> {
        self.send(&protocol::encode_series(id))?;
        expect_reply(self.reply()?, op::SERIES).map(|body| SeriesReply::parse(&body))
    }

    /// A second handle on the same socket, for a reader thread.
    pub fn try_clone(&self) -> Result<Client, String> {
        Ok(Client { stream: self.stream.try_clone().map_err(|e| e.to_string())? })
    }
}

fn read_reply(stream: &mut TcpStream) -> Result<(u8, String), String> {
    let (opcode, body) = protocol::read_reply(stream).map_err(|e| format!("reply: {e}"))?;
    Ok((opcode, String::from_utf8_lossy(&body).into_owned()))
}

/// The body of a reply to `request`, or an error naming what came instead
/// (an `ERR` or `BUSY` reply counts as a failed operation).
pub fn expect_reply((opcode, body): (u8, String), request: u8) -> Result<String, String> {
    if opcode == request | op::REPLY {
        Ok(body)
    } else {
        Err(format!("expected reply {:#04x}, got {opcode:#04x}: {body}", request | op::REPLY))
    }
}

/// `"key":N` from a flat JSON object.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// A `SERIES` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesReply {
    pub found: bool,
    pub pushes: u64,
    pub alarms: u64,
}

impl SeriesReply {
    pub fn parse(body: &str) -> Self {
        SeriesReply {
            found: body.contains("\"found\":true"),
            pushes: json_u64(body, "pushes").unwrap_or(0),
            alarms: json_u64(body, "alarms").unwrap_or(0),
        }
    }
}

/// When one closed-loop batch went out and when its barrier came back.
#[derive(Debug, Clone, Copy)]
pub struct BatchTiming {
    pub sent: Instant,
    pub done: Instant,
    pub obs: u64,
}

/// What a closed loop did.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub batches: Vec<BatchTiming>,
    /// Barrier replies per batch (one per shard), in batch order.
    pub barriers: Vec<Vec<SeriesReply>>,
    /// Replies that were not the expected `SERIES` reply (`ERR`, `BUSY`).
    pub bad_replies: u64,
}

impl ClosedLoop {
    pub fn obs(&self) -> u64 {
        self.batches.iter().map(|b| b.obs).sum()
    }
}

/// Runs a closed loop on `client`: `fill` appends the next batch of `OBS`
/// frames and returns its observation count (0 ends the loop); each batch
/// is followed by one `SERIES` barrier per shard, and at most `in_flight`
/// batches are outstanding. A batch is done when its last barrier reply
/// arrives, which proves the daemon applied every observation in it.
pub fn closed_loop(
    client: &mut Client,
    barrier_ids: &[u64],
    in_flight: usize,
    mut fill: impl FnMut(&mut Vec<u8>) -> u64,
) -> Result<ClosedLoop, String> {
    let mut reader = client.try_clone()?;
    let shards = barrier_ids.len();
    let (done_tx, done_rx) = mpsc::channel::<Result<(Instant, Vec<SeriesReply>, u64), String>>();
    let (count_tx, count_rx) = mpsc::channel::<()>();
    let reader_thread = std::thread::spawn(move || {
        // One message per batch the writer announces; ends when it hangs up.
        while count_rx.recv().is_ok() {
            let mut replies = Vec::with_capacity(shards);
            let mut bad = 0;
            for _ in 0..shards {
                match reader.reply() {
                    Ok(reply) => match expect_reply(reply, op::SERIES) {
                        Ok(body) => replies.push(SeriesReply::parse(&body)),
                        Err(_) => bad += 1,
                    },
                    Err(e) => {
                        let _ = done_tx.send(Err(e));
                        return;
                    }
                }
            }
            if done_tx.send(Ok((Instant::now(), replies, bad))).is_err() {
                return;
            }
        }
    });

    let mut out = ClosedLoop::default();
    let mut pending: std::collections::VecDeque<(Instant, u64)> = Default::default();
    let mut buf = Vec::new();
    let mut result = Ok(());
    let collect = |pending: &mut std::collections::VecDeque<(Instant, u64)>,
                   out: &mut ClosedLoop|
     -> Result<(), String> {
        let (done, replies, bad) =
            done_rx.recv().map_err(|_| "the reply reader stopped".to_string()).and_then(|r| r)?;
        let (sent, obs) = pending.pop_front().expect("a batch is outstanding");
        out.batches.push(BatchTiming { sent, done, obs });
        out.barriers.push(replies);
        out.bad_replies += bad;
        Ok(())
    };
    loop {
        if pending.len() >= in_flight {
            if let Err(e) = collect(&mut pending, &mut out) {
                result = Err(e);
                break;
            }
        }
        buf.clear();
        let obs = fill(&mut buf);
        if obs == 0 {
            break;
        }
        for &id in barrier_ids {
            buf.extend_from_slice(&protocol::encode_series(id));
        }
        let sent = Instant::now();
        pending.push_back((sent, obs));
        let _ = count_tx.send(());
        if let Err(e) = client.send(&buf) {
            result = Err(e);
            break;
        }
    }
    while result.is_ok() && !pending.is_empty() {
        result = collect(&mut pending, &mut out);
    }
    drop(count_tx);
    if result.is_err() {
        // Unblock a reader still waiting on replies that will never come.
        let _ = client.stream.shutdown(std::net::Shutdown::Both);
    }
    let _ = reader_thread.join();
    result.map(|()| out)
}
