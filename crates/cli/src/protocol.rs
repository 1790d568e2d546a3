//! The `moche serve` wire protocol: length-prefixed binary frames, with a
//! newline-JSON fallback for shells and scripting.
//!
//! ## Binary framing
//!
//! Every frame is a little-endian `u32` payload length followed by that
//! many payload bytes; the first payload byte is the opcode. Requests:
//!
//! | Opcode | Name | Payload after the opcode | Reply |
//! |---|---|---|---|
//! | `0x01` | `OBS` | `u64` series id + `f64` value (both LE; 17 bytes total) | none |
//! | `0x02` | `STATUS` | none | `0x82` + JSON stats object |
//! | `0x03` | `SERIES` | `u64` series id (9 bytes total) | `0x83` + JSON per-series object |
//! | `0x04` | `SHUTDOWN` | none | `0x84` + JSON stats object, then a graceful daemon exit |
//!
//! Replies reuse the same framing with the high bit of the request opcode
//! set. `OBS` is fire-and-forget — the common path pays no round trip; a
//! client that needs a write barrier sends `STATUS` (connections are
//! handled in order, so the reply proves every earlier `OBS` on that
//! connection was routed).
//!
//! Two opcodes are **server-initiated** and appear only with the reply
//! bit set (there is no request form):
//!
//! | Opcode | Name | When | Body |
//! |---|---|---|---|
//! | `0x85` | `BUSY` | the daemon is at `--max-connections` | `{"busy":true,"retry_after_ms":…,"max_connections":…}` |
//! | `0x86` | `ERR` | a malformed frame/line, or an eviction notice | `{"error":…,"budget_remaining":…}` or `{"error":…,"fatal":true}` |
//!
//! A `BUSY` reply is always binary-framed — it is written before the
//! first client byte arrives, so the connection's wire mode is still
//! unknown. `ERR` uses the connection's negotiated mode; `"fatal":true`
//! means framing can no longer be trusted and the connection closes right
//! after the reply.
//!
//! ## Newline-JSON mode
//!
//! A connection whose first byte is `{` speaks JSON instead: one object
//! per `\n`-terminated line — `{"series":7,"value":1.5}`,
//! `{"cmd":"status"}`, `{"cmd":"series","series":7}`,
//! `{"cmd":"shutdown"}` — with one JSON object line per reply. The mode is
//! fixed for the connection's lifetime (binary frames never start with
//! `0x7b` because the length prefix of any sane frame is small).

use std::io::{self, Read, Write};

/// Cap on accepted frame payloads. The largest legitimate request is an
/// `OBS` frame (17 bytes); anything bigger than this is a corrupt stream
/// or a hostile client, and is rejected before any allocation.
pub const MAX_FRAME_LEN: u32 = 4096;

/// Request opcodes.
pub mod op {
    /// One observation: series id + value.
    pub const OBS: u8 = 0x01;
    /// Fleet-wide stats request.
    pub const STATUS: u8 = 0x02;
    /// Per-series stats request.
    pub const SERIES: u8 = 0x03;
    /// Graceful shutdown request.
    pub const SHUTDOWN: u8 = 0x04;
    /// Server-initiated: the daemon is at `--max-connections` (sent with
    /// [`REPLY`] set, then the connection closes).
    pub const BUSY: u8 = 0x05;
    /// Server-initiated: a structured protocol error or eviction notice
    /// (sent with [`REPLY`] set).
    pub const ERR: u8 = 0x06;
    /// Reply bit: a reply's opcode is its request's opcode with this set.
    pub const REPLY: u8 = 0x80;
}

/// A decoded request, either wire mode.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Feed one observation to a series.
    Obs {
        /// Series id.
        series: u64,
        /// Observed value.
        value: f64,
    },
    /// Fleet-wide stats.
    Status,
    /// Per-series stats.
    Series {
        /// Series id.
        series: u64,
    },
    /// Graceful shutdown.
    Shutdown,
}

/// Why a request could not be decoded.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The peer closed the connection cleanly (between frames/lines).
    Closed,
    /// The bytes are not a valid frame or JSON line.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::Closed => f.write_str("connection closed"),
            ProtocolError::Malformed(why) => write!(f, "malformed request: {why}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Closed
        } else {
            ProtocolError::Io(e)
        }
    }
}

/// Encodes an `OBS` frame (the client side of the hot path).
pub fn encode_obs(series: u64, value: f64) -> [u8; 21] {
    let mut frame = [0u8; 21];
    frame[..4].copy_from_slice(&17u32.to_le_bytes());
    frame[4] = op::OBS;
    frame[5..13].copy_from_slice(&series.to_le_bytes());
    frame[13..21].copy_from_slice(&value.to_le_bytes());
    frame
}

/// Encodes a payload-free request frame (`STATUS` / `SHUTDOWN`).
pub fn encode_op(opcode: u8) -> [u8; 5] {
    let mut frame = [0u8; 5];
    frame[..4].copy_from_slice(&1u32.to_le_bytes());
    frame[4] = opcode;
    frame
}

/// Encodes a `SERIES` request frame.
pub fn encode_series(series: u64) -> [u8; 13] {
    let mut frame = [0u8; 13];
    frame[..4].copy_from_slice(&9u32.to_le_bytes());
    frame[4] = op::SERIES;
    frame[5..13].copy_from_slice(&series.to_le_bytes());
    frame
}

/// Writes a reply frame: `request_opcode | REPLY`, then the JSON body.
///
/// The frame goes out in one write: split into small writes, the later
/// segments of a reply wait for the client's delayed ACK (Nagle), which
/// adds tens of milliseconds to every round trip.
///
/// # Errors
///
/// Any transport write failure.
pub fn write_reply(w: &mut dyn Write, request_opcode: u8, json: &str) -> io::Result<()> {
    let len = 1 + json.len();
    let len = u32::try_from(len).map_err(|_| io::Error::other("reply too large"))?;
    let mut frame = Vec::with_capacity(5 + json.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.push(request_opcode | op::REPLY);
    frame.extend_from_slice(json.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Writes a newline-JSON reply line, in one write for the same reason as
/// [`write_reply`].
///
/// # Errors
///
/// Any transport write failure.
pub(crate) fn write_json_line(w: &mut dyn Write, json: &str) -> io::Result<()> {
    let mut line = Vec::with_capacity(json.len() + 1);
    line.extend_from_slice(json.as_bytes());
    line.push(b'\n');
    w.write_all(&line)?;
    w.flush()
}

/// Reads one reply frame, returning `(opcode, body)` — the client side of
/// `STATUS`/`SERIES`/`SHUTDOWN` round trips (used by the soak harness).
///
/// # Errors
///
/// Transport failures, a clean close, or an oversized/invalid frame.
pub fn read_reply(r: &mut dyn Read) -> Result<(u8, Vec<u8>), ProtocolError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(ProtocolError::Malformed(format!("reply frame length {len}")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let opcode = payload[0];
    payload.remove(0);
    Ok((opcode, payload))
}

/// Reads and decodes one binary request frame.
///
/// # Errors
///
/// [`ProtocolError::Closed`] on a clean close between frames, `Io` on
/// transport failure, `Malformed` on an invalid length, opcode, or
/// payload shape (the connection should be dropped: framing is lost).
pub fn read_request(r: &mut dyn Read) -> Result<Request, ProtocolError> {
    let mut len = [0u8; 4];
    if let Err(e) = r.read_exact(&mut len) {
        // A clean EOF on the very first byte of a frame is a normal
        // disconnect, not a protocol violation.
        return Err(ProtocolError::from(e));
    }
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(ProtocolError::Malformed(format!("frame length {len}")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode_request(&payload)
}

/// Decodes a binary request payload (opcode + body).
///
/// # Errors
///
/// [`ProtocolError::Malformed`] for unknown opcodes or wrong body sizes.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    match payload {
        [o, rest @ ..] if *o == op::OBS => {
            if rest.len() != 16 {
                return Err(ProtocolError::Malformed(format!(
                    "OBS payload must be 16 bytes, got {}",
                    rest.len()
                )));
            }
            // lint:allow(panic): infallible — `rest.len() == 16` was checked
            let series = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
            // lint:allow(panic): infallible — `rest.len() == 16` was checked
            let value = f64::from_le_bytes(rest[8..].try_into().expect("8 bytes"));
            Ok(Request::Obs { series, value })
        }
        [o, rest @ ..] if *o == op::STATUS => {
            if !rest.is_empty() {
                return Err(ProtocolError::Malformed(format!(
                    "STATUS payload must be empty, got {} byte(s)",
                    rest.len()
                )));
            }
            Ok(Request::Status)
        }
        [o, rest @ ..] if *o == op::SERIES => {
            if rest.len() != 8 {
                return Err(ProtocolError::Malformed(format!(
                    "SERIES payload must be 8 bytes, got {}",
                    rest.len()
                )));
            }
            // lint:allow(panic): infallible — `rest.len() == 8` was checked
            Ok(Request::Series { series: u64::from_le_bytes(rest.try_into().expect("8 bytes")) })
        }
        [o, rest @ ..] if *o == op::SHUTDOWN => {
            if !rest.is_empty() {
                return Err(ProtocolError::Malformed(format!(
                    "SHUTDOWN payload must be empty, got {} byte(s)",
                    rest.len()
                )));
            }
            Ok(Request::Shutdown)
        }
        [o, ..] => Err(ProtocolError::Malformed(format!("unknown opcode {o:#04x}"))),
        [] => Err(ProtocolError::Malformed("empty payload".into())),
    }
}

/// The wire mode a connection's first byte selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Length-prefixed binary frames.
    Binary,
    /// One JSON object per newline-terminated line.
    JsonLines,
}

/// One step of [`FrameAssembler::next_frame`].
#[derive(Debug)]
pub enum Assembled {
    /// A complete, valid request was consumed from the buffer.
    Request(Request),
    /// A complete frame/line was consumed but could not be decoded.
    /// Framing is intact — the connection may answer with a structured
    /// error and keep going (subject to its error budget).
    Malformed(String),
    /// The byte stream itself can no longer be framed (an out-of-range
    /// binary length prefix, or a JSON line past the length bound with no
    /// terminator in sight). Nothing was consumed; the connection must
    /// close after a best-effort error reply.
    Fatal(String),
    /// No complete frame is buffered yet; read more bytes.
    NeedMore,
}

/// Incremental, timeout-tolerant request framing for the daemon.
///
/// The supervised read loop runs the socket with a short `read_timeout`
/// tick so it can check deadlines and the shutdown flag; that rules out
/// `read_exact` (a timeout mid-`read_exact` loses the bytes already
/// read). This assembler owns the partial-input state instead: feed every
/// chunk to [`extend`](Self::extend), then drain complete requests with
/// [`next_frame`](Self::next_frame). The connection's wire mode is fixed by its first
/// byte (`{` selects JSON lines), exactly like the blocking path.
///
/// Both modes are bounded by [`MAX_FRAME_LEN`]: binary length prefixes
/// outside `1..=MAX_FRAME_LEN` and JSON lines longer than `MAX_FRAME_LEN`
/// bytes are [`Assembled::Fatal`] — buffer growth is capped no matter
/// what the peer sends.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted away between calls).
    start: usize,
    mode: Option<WireMode>,
}

impl FrameAssembler {
    /// An empty assembler; the mode locks on the first byte received.
    pub fn new() -> Self {
        Self::default()
    }

    /// The connection's wire mode, once at least one byte has arrived.
    pub fn mode(&self) -> Option<WireMode> {
        self.mode
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.mode.is_none() {
            if let Some(&first) = bytes.first() {
                self.mode =
                    Some(if first == b'{' { WireMode::JsonLines } else { WireMode::Binary });
            }
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Whether unconsumed bytes are buffered — a partial frame in flight.
    /// The supervisor's mid-frame stall deadline keys off this.
    pub fn is_mid_frame(&self) -> bool {
        self.start < self.buf.len()
    }

    /// Consumes and returns the next complete request, if any.
    pub fn next_frame(&mut self) -> Assembled {
        let step = match self.mode {
            None => Assembled::NeedMore,
            Some(WireMode::Binary) => self.next_binary(),
            Some(WireMode::JsonLines) => self.next_json(),
        };
        // Compact eagerly when fully drained, lazily otherwise: the hot
        // path (one frame per read) hits the cheap `start == len` case.
        if self.start >= self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4 * MAX_FRAME_LEN as usize {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        step
    }

    fn next_binary(&mut self) -> Assembled {
        let avail = &self.buf[self.start..];
        let Some(prefix) = avail.get(..4) else { return Assembled::NeedMore };
        // lint:allow(panic): infallible — `prefix` is `.get(..4)` of the buffer
        let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_LEN {
            return Assembled::Fatal(format!(
                "frame length {len} outside 1..={MAX_FRAME_LEN}; framing lost"
            ));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Assembled::NeedMore;
        }
        let decoded = decode_request(&avail[4..total]);
        self.start += total;
        match decoded {
            Ok(request) => Assembled::Request(request),
            Err(e) => Assembled::Malformed(malformed_reason(e)),
        }
    }

    fn next_json(&mut self) -> Assembled {
        let avail = &self.buf[self.start..];
        let Some(newline) = avail.iter().position(|&b| b == b'\n') else {
            if avail.len() > MAX_FRAME_LEN as usize {
                return Assembled::Fatal(format!(
                    "JSON line exceeds {MAX_FRAME_LEN} bytes with no terminator"
                ));
            }
            return Assembled::NeedMore;
        };
        if newline > MAX_FRAME_LEN as usize {
            return Assembled::Fatal(format!("JSON line exceeds {MAX_FRAME_LEN} bytes"));
        }
        let parsed = match std::str::from_utf8(&avail[..newline]) {
            Ok(line) => parse_json_request(line),
            Err(_) => Err(ProtocolError::Malformed("line is not UTF-8".into())),
        };
        self.start += newline + 1;
        match parsed {
            Ok(request) => Assembled::Request(request),
            Err(e) => Assembled::Malformed(malformed_reason(e)),
        }
    }
}

/// The bare reason out of a decode error (the only kind the pure decoders
/// produce) — what goes verbatim into an `ERR` reply's `"error"` field.
fn malformed_reason(e: ProtocolError) -> String {
    match e {
        ProtocolError::Malformed(why) => why,
        other => other.to_string(),
    }
}

/// Decodes one newline-JSON request line.
///
/// This is not a general JSON parser — it accepts exactly the four
/// request shapes the protocol defines, with any key order and
/// insignificant whitespace, and rejects everything else loudly.
///
/// # Errors
///
/// [`ProtocolError::Malformed`] with a description of what was wrong.
pub fn parse_json_request(line: &str) -> Result<Request, ProtocolError> {
    let line = line.trim();
    if !(line.starts_with('{') && line.ends_with('}')) {
        return Err(ProtocolError::Malformed("expected a JSON object line".into()));
    }
    if let Some(cmd) = json_string_field(line, "cmd") {
        return match cmd.as_str() {
            "obs" => parse_json_obs(line),
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            "series" => {
                let series = json_u64_field(line, "series").ok_or_else(|| {
                    ProtocolError::Malformed("series command needs a \"series\" id".into())
                })?;
                Ok(Request::Series { series })
            }
            other => Err(ProtocolError::Malformed(format!("unknown cmd \"{other}\""))),
        };
    }
    parse_json_obs(line)
}

/// An observation line: `{"cmd":"obs","series":N,"value":X}` — the `cmd`
/// field is optional for this (and only this) request, so high-rate
/// producers can drop the constant field.
fn parse_json_obs(line: &str) -> Result<Request, ProtocolError> {
    let series = json_u64_field(line, "series")
        .ok_or_else(|| ProtocolError::Malformed("observation needs a \"series\" id".into()))?;
    let value = json_f64_field(line, "value")
        .ok_or_else(|| ProtocolError::Malformed("observation needs a \"value\"".into()))?;
    Ok(Request::Obs { series, value })
}

/// Finds `"key"` used as a key (followed by `:`) and returns the rest of
/// the line after the colon — skipping occurrences of the same text as a
/// string *value* (`{"cmd":"series"}` must not satisfy a "series" key
/// lookup).
fn json_after_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let mut search = line;
    loop {
        let at = search.find(&needle)?;
        let rest = search[at + needle.len()..].trim_start();
        if let Some(after_colon) = rest.strip_prefix(':') {
            return Some(after_colon.trim_start());
        }
        search = &search[at + needle.len()..];
    }
}

/// Extracts `"key": <number token>` from a flat JSON object line.
fn json_raw_number(line: &str, key: &str) -> Option<String> {
    let rest = json_after_key(line, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    Some(rest[..end].to_string())
}

fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    json_raw_number(line, key)?.parse().ok()
}

fn json_f64_field(line: &str, key: &str) -> Option<f64> {
    json_raw_number(line, key)?.parse().ok()
}

/// Extracts `"key": "value"` from a flat JSON object line (no escape
/// handling — the protocol's strings are bare command words).
fn json_string_field(line: &str, key: &str) -> Option<String> {
    let rest = json_after_key(line, key)?;
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// A minimal JSON object builder for the reply bodies (numbers, booleans
/// and pre-quoted strings only — everything the status endpoint needs).
#[derive(Debug, Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push('"');
        self.body.push_str(key);
        self.body.push_str("\":");
    }

    /// Adds an unsigned-integer field.
    #[must_use]
    pub fn field_u64(mut self, key: &str, value: u64) -> Self {
        self.push_key(key);
        self.body.push_str(&value.to_string());
        self
    }

    /// Adds a float field (JSON `null` for non-finite values).
    #[must_use]
    pub fn field_f64(mut self, key: &str, value: f64) -> Self {
        self.push_key(key);
        if value.is_finite() {
            self.body.push_str(&format!("{value}"));
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn field_bool(mut self, key: &str, value: bool) -> Self {
        self.push_key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a string field (the value must not need escaping).
    #[must_use]
    pub fn field_str(mut self, key: &str, value: &str) -> Self {
        debug_assert!(!value.contains(['"', '\\']), "JsonObject does not escape");
        self.push_key(key);
        self.body.push('"');
        self.body.push_str(value);
        self.body.push('"');
        self
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that counts the `write` calls reaching the transport.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_is_one_write() {
        let body = r#"{"accepted":7}"#;
        let mut binary = CountingWriter::default();
        write_reply(&mut binary, op::STATUS, body).unwrap();
        assert_eq!(binary.writes, 1, "a binary reply frame must be one write");
        let mut cursor = &binary.bytes[..];
        assert_eq!(read_reply(&mut cursor).unwrap(), (op::STATUS | op::REPLY, body.into()));

        let mut lines = CountingWriter::default();
        write_json_line(&mut lines, body).unwrap();
        assert_eq!(lines.writes, 1, "a JSON-lines reply must be one write");
        assert_eq!(lines.bytes, format!("{body}\n").into_bytes());
    }

    #[test]
    fn binary_obs_round_trips() {
        let frame = encode_obs(42, -1.5);
        let mut cursor = &frame[..];
        assert_eq!(read_request(&mut cursor).unwrap(), Request::Obs { series: 42, value: -1.5 });
        assert!(cursor.is_empty(), "the frame must be consumed exactly");
    }

    #[test]
    fn binary_control_frames_round_trip() {
        let mut cursor = &encode_op(op::STATUS)[..];
        assert_eq!(read_request(&mut cursor).unwrap(), Request::Status);
        let mut cursor = &encode_op(op::SHUTDOWN)[..];
        assert_eq!(read_request(&mut cursor).unwrap(), Request::Shutdown);
        let mut cursor = &encode_series(7)[..];
        assert_eq!(read_request(&mut cursor).unwrap(), Request::Series { series: 7 });
    }

    #[test]
    fn oversized_and_empty_frames_are_rejected() {
        let mut zero = &[0u8, 0, 0, 0][..];
        assert!(matches!(read_request(&mut zero), Err(ProtocolError::Malformed(_))));
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut huge = &huge[..];
        assert!(matches!(read_request(&mut huge), Err(ProtocolError::Malformed(_))));
    }

    #[test]
    fn clean_eof_between_frames_is_closed_not_error() {
        let mut empty = &[][..];
        assert!(matches!(read_request(&mut empty), Err(ProtocolError::Closed)));
        // EOF *inside* a frame is also surfaced as Closed (torn stream).
        let mut torn = &encode_obs(1, 1.0)[..10];
        assert!(matches!(read_request(&mut torn), Err(ProtocolError::Closed)));
    }

    #[test]
    fn wrong_payload_sizes_are_rejected() {
        for payload in [&[op::OBS, 0u8][..], &[op::SERIES][..], &[0x7f][..], &[][..]] {
            assert!(matches!(decode_request(payload), Err(ProtocolError::Malformed(_))));
        }
    }

    #[test]
    fn json_requests_parse() {
        assert_eq!(
            parse_json_request("{\"series\": 3, \"value\": -2.25}").unwrap(),
            Request::Obs { series: 3, value: -2.25 }
        );
        assert_eq!(
            parse_json_request("{\"value\":1e3,\"series\":12}").unwrap(),
            Request::Obs { series: 12, value: 1000.0 }
        );
        assert_eq!(
            parse_json_request("{\"cmd\":\"obs\",\"series\":4,\"value\":0.5}").unwrap(),
            Request::Obs { series: 4, value: 0.5 }
        );
        assert_eq!(parse_json_request("{\"cmd\":\"status\"}").unwrap(), Request::Status);
        assert_eq!(parse_json_request("{\"cmd\":\"shutdown\"}").unwrap(), Request::Shutdown);
        assert_eq!(
            parse_json_request("{\"cmd\":\"series\",\"series\":9}").unwrap(),
            Request::Series { series: 9 }
        );
    }

    #[test]
    fn malformed_json_is_rejected_with_a_reason() {
        for bad in [
            "not json",
            "{}",
            "{\"cmd\":\"frobnicate\"}",
            "{\"series\":1}",
            "{\"value\":1.0}",
            "{\"cmd\":\"series\"}",
            "{\"series\":\"nope\",\"value\":1}",
        ] {
            assert!(
                matches!(parse_json_request(bad), Err(ProtocolError::Malformed(_))),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn reply_framing_round_trips() {
        let mut buf = Vec::new();
        write_reply(&mut buf, op::STATUS, "{\"ok\":true}").unwrap();
        let mut cursor = &buf[..];
        let (opcode, body) = read_reply(&mut cursor).unwrap();
        assert_eq!(opcode, op::STATUS | op::REPLY);
        assert_eq!(body, b"{\"ok\":true}");
    }

    /// A frame with the given opcode and a deliberately wrong payload
    /// length.
    fn bad_frame(opcode: u8, body_len: usize) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::try_from(1 + body_len).unwrap().to_le_bytes());
        frame.push(opcode);
        frame.extend(std::iter::repeat_n(0u8, body_len));
        frame
    }

    /// Satellite coverage: every op with a wrong payload length decodes to
    /// a *specific* structured message (these exact strings are what the
    /// daemon's `ERR` replies carry, so they are pinned here).
    #[test]
    fn every_op_with_a_wrong_length_names_the_problem() {
        let cases: [(u8, usize, &str); 5] = [
            (op::OBS, 3, "OBS payload must be 16 bytes, got 3"),
            (op::STATUS, 2, "STATUS payload must be empty, got 2 byte(s)"),
            (op::SERIES, 11, "SERIES payload must be 8 bytes, got 11"),
            (op::SHUTDOWN, 1, "SHUTDOWN payload must be empty, got 1 byte(s)"),
            (0x7f, 0, "unknown opcode 0x7f"),
        ];
        for (opcode, body_len, expected) in cases {
            let mut asm = FrameAssembler::new();
            asm.extend(&bad_frame(opcode, body_len));
            match asm.next_frame() {
                Assembled::Malformed(why) => assert_eq!(why, expected),
                other => panic!("opcode {opcode:#04x}: expected Malformed, got {other:?}"),
            }
            // Framing is intact: a valid frame right after still decodes.
            asm.extend(&encode_obs(1, 2.0));
            assert!(matches!(asm.next_frame(), Assembled::Request(Request::Obs { series: 1, .. })));
        }
    }

    #[test]
    fn assembler_reassembles_split_binary_frames() {
        let mut asm = FrameAssembler::new();
        let frame = encode_obs(42, -1.5);
        // One byte at a time: every prefix is NeedMore, the last byte
        // completes the request.
        for &byte in &frame[..frame.len() - 1] {
            asm.extend(&[byte]);
            assert!(matches!(asm.next_frame(), Assembled::NeedMore));
            assert!(asm.is_mid_frame());
        }
        asm.extend(&frame[frame.len() - 1..]);
        match asm.next_frame() {
            Assembled::Request(Request::Obs { series, value }) => {
                assert_eq!((series, value), (42, -1.5));
            }
            other => panic!("expected the completed OBS, got {other:?}"),
        }
        assert!(!asm.is_mid_frame(), "the frame must be fully consumed");
        // Two frames in one chunk drain back-to-back.
        asm.extend(&encode_series(7));
        asm.extend(&encode_op(op::STATUS));
        assert!(matches!(asm.next_frame(), Assembled::Request(Request::Series { series: 7 })));
        assert!(matches!(asm.next_frame(), Assembled::Request(Request::Status)));
        assert!(matches!(asm.next_frame(), Assembled::NeedMore));
    }

    #[test]
    fn assembler_out_of_range_lengths_are_fatal() {
        for len in [0u32, MAX_FRAME_LEN + 1] {
            let mut asm = FrameAssembler::new();
            asm.extend(&len.to_le_bytes());
            assert!(matches!(asm.next_frame(), Assembled::Fatal(_)), "length {len} must be fatal");
        }
    }

    #[test]
    fn assembler_selects_json_mode_and_bounds_lines() {
        let mut asm = FrameAssembler::new();
        asm.extend(b"{\"series\":3,\"value\":1.5}\n{\"cmd\":\"status\"}\n");
        assert_eq!(asm.mode(), Some(WireMode::JsonLines));
        assert!(matches!(asm.next_frame(), Assembled::Request(Request::Obs { series: 3, .. })));
        assert!(matches!(asm.next_frame(), Assembled::Request(Request::Status)));
        // A malformed line is recoverable (framing resyncs at newline)...
        asm.extend(b"{\"cmd\":\"frobnicate\"}\n{\"cmd\":\"status\"}\n");
        assert!(matches!(asm.next_frame(), Assembled::Malformed(_)));
        assert!(matches!(asm.next_frame(), Assembled::Request(Request::Status)));
        // ...but an unterminated line past MAX_FRAME_LEN is fatal: the
        // buffer must not grow without bound (the satellite case).
        let mut asm = FrameAssembler::new();
        let oversized = vec![b'{'; MAX_FRAME_LEN as usize + 2];
        asm.extend(&oversized);
        match asm.next_frame() {
            Assembled::Fatal(why) => assert!(why.contains("no terminator"), "{why}"),
            other => panic!("unbounded line must be fatal, got {other:?}"),
        }
        // A terminated-but-oversized line is fatal too (same bound).
        let mut asm = FrameAssembler::new();
        let mut line = vec![b'{'; MAX_FRAME_LEN as usize + 2];
        line.push(b'\n');
        asm.extend(&line);
        assert!(matches!(asm.next_frame(), Assembled::Fatal(_)));
    }

    #[test]
    fn json_builder_emits_valid_objects() {
        let json = JsonObject::new()
            .field_u64("series", 5)
            .field_f64("alpha", 0.05)
            .field_bool("clean", true)
            .field_str("mode", "binary")
            .build();
        assert_eq!(json, "{\"series\":5,\"alpha\":0.05,\"clean\":true,\"mode\":\"binary\"}");
        assert_eq!(JsonObject::new().build(), "{}");
    }
}
