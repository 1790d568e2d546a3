//! Checkpoint/restore for [`DriftMonitor`]: a versioned, checksummed
//! binary snapshot, written atomically.
//!
//! A process restart without checkpoints loses every monitor's window
//! state and forces an `O(w)` re-warm per series — during which drift goes
//! undetected. A [`MonitorSnapshot`] captures everything a monitor needs
//! to continue *exactly* where it stopped: the configuration, both window
//! contents (oldest first), and the alarm/degradation counters. Derived
//! structures are deliberately **not** serialized — the sorted windows
//! are rebuilt from the window values on restore — which keeps the format
//! small and forward-compatible with internal data-structure changes.
//!
//! ## The byte-identity guarantee
//!
//! A restored monitor emits **byte-identical** alarms to one that was
//! never interrupted (pinned by `tests/snapshot_roundtrip.rs`). This is a
//! theorem about the implementation, not luck: the KS decision is
//! computed in *exact integer arithmetic* (`max |#{r <= x} - #{t <= x}|`
//! over the sorted windows, divided by `w` once at the end), so it depends
//! only on the window **multisets**, never on when the sorted windows were
//! last checked; a push skips its check only when it provably cannot
//! reject; Spectral-Residual preference scores depend only
//! on the test window **values**; and the explanation construction is a
//! deterministic function of windows, preference, and `α`. Re-sorting
//! the window values therefore reconstructs an observably equivalent
//! monitor.
//!
//! ## On-disk format (version 2)
//!
//! All integers little-endian; `f64` as IEEE-754 bits (signed zeros and
//! subnormals round-trip exactly; non-finite values are rejected).
//!
//! ```text
//! magic     8 B   "MOCHESNP"
//! version   4 B   u32 = 2
//! length    8 B   u64 payload byte count
//! payload   ...   window, alpha, flags, SR windows, counters, both windows
//! crc32     4 B   CRC-32 (IEEE) of the payload bytes
//! ```
//!
//! Version 2 added the two Spectral-Residual preference parameters
//! (`sr_filter_window`, `sr_score_window`) right after the flags byte.
//! Version-1 files (which predate configurable SR) are still read; their
//! SR parameters decode to the defaults every version-1 monitor used.
//!
//! The CRC detects every single-bit flip and all burst errors up to 32
//! bits; [`MonitorSnapshot::from_bytes`] rejects torn files (truncation
//! anywhere, including mid-header) with [`SnapshotError::Truncated`],
//! foreign files with [`SnapshotError::BadMagic`], future formats with
//! [`SnapshotError::UnsupportedVersion`], and corruption with
//! [`SnapshotError::ChecksumMismatch`].
//!
//! [`MonitorSnapshot::write_atomic`] stages the bytes in a sibling
//! temporary file, `fsync`s it, and renames it over the destination (with
//! a best-effort directory sync), so a crash mid-checkpoint leaves either
//! the old snapshot or the new one — never a torn file at the final path.

use crate::monitor::DriftMonitor;
use moche_core::fault::{self, Fault};
use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// Leading bytes identifying a MOCHE monitor snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MOCHESNP";
/// The format version this build writes. Version 1 (no Spectral-Residual
/// parameters) is still read.
pub const SNAPSHOT_VERSION: u32 = 2;

const HEADER_LEN: usize = 8 + 4 + 8;
const FLAG_EXPLAIN_ON_DRIFT: u8 = 1;
const FLAG_SIZE_ONLY: u8 = 1 << 1;
const FLAG_RESET_ON_DRIFT: u8 = 1 << 2;

/// Why a snapshot could not be written, read, or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The byte stream ends before the declared structure does — a torn or
    /// truncated file.
    Truncated,
    /// The leading bytes are not [`SNAPSHOT_MAGIC`]: not a snapshot file.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The payload checksum does not match: bit rot or tampering.
    ChecksumMismatch,
    /// The bytes decode but describe an impossible monitor state.
    Invalid(&'static str),
    /// Rebuilding the monitor from the decoded state failed (bad window
    /// size or significance level).
    Moche(moche_core::MocheError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapshotError::Truncated => f.write_str("snapshot file is truncated"),
            SnapshotError::BadMagic => f.write_str("not a monitor snapshot (bad magic bytes)"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "snapshot format version {v} is not supported \
                 (this build reads version {SNAPSHOT_VERSION})"
            ),
            SnapshotError::ChecksumMismatch => {
                f.write_str("snapshot payload checksum mismatch (corrupted file)")
            }
            SnapshotError::Invalid(why) => write!(f, "snapshot describes invalid state: {why}"),
            SnapshotError::Moche(e) => write!(f, "snapshot could not be restored: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Moche(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<moche_core::MocheError> for SnapshotError {
    fn from(e: moche_core::MocheError) -> Self {
        SnapshotError::Moche(e)
    }
}

/// A point-in-time capture of a [`DriftMonitor`]'s restorable state.
///
/// Obtain one with [`DriftMonitor::snapshot`], rebuild a monitor with
/// [`DriftMonitor::restore`]. The fields are public so tooling (and the
/// rejection tests) can inspect and construct snapshots directly;
/// [`DriftMonitor::restore`] validates everything, so a hand-built
/// snapshot cannot corrupt a monitor — it can only be rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSnapshot {
    /// Window size `w`.
    pub window: usize,
    /// KS significance level.
    pub alpha: f64,
    /// [`crate::MonitorConfig::explain_on_drift`].
    pub explain_on_drift: bool,
    /// [`crate::MonitorConfig::size_only`].
    pub size_only: bool,
    /// [`crate::MonitorConfig::reset_on_drift`].
    pub reset_on_drift: bool,
    /// [`crate::MonitorConfig::sr_filter_window`] (format version ≥ 2;
    /// version-1 files decode to the default every v1 monitor used).
    pub sr_filter_window: usize,
    /// [`crate::MonitorConfig::sr_score_window`] (format version ≥ 2).
    pub sr_score_window: usize,
    /// Total observations accepted when the snapshot was taken.
    pub pushes: u64,
    /// Total alarms raised when the snapshot was taken.
    pub alarms: u64,
    /// Identity-fallback explanations produced (see
    /// [`DriftMonitor::degraded_preferences`]).
    pub degraded_preferences: u64,
    /// Reference window contents, oldest first.
    pub reference: Vec<f64>,
    /// Test window contents, oldest first.
    pub test: Vec<f64>,
}

impl MonitorSnapshot {
    /// Serializes to the version-2 binary format (header, payload, CRC).
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload_len = 8 * 6 // window, alpha, three counters, two lengths packed below
            + 1 // flags
            + 8 * 2 // the SR preference parameters (format version 2)
            + 8 // second length field
            + 8 * (self.reference.len() + self.test.len());
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload_len + 4);
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload_len as u64).to_le_bytes());

        let payload_start = bytes.len();
        bytes.extend_from_slice(&(self.window as u64).to_le_bytes());
        bytes.extend_from_slice(&self.alpha.to_bits().to_le_bytes());
        let mut flags = 0u8;
        if self.explain_on_drift {
            flags |= FLAG_EXPLAIN_ON_DRIFT;
        }
        if self.size_only {
            flags |= FLAG_SIZE_ONLY;
        }
        if self.reset_on_drift {
            flags |= FLAG_RESET_ON_DRIFT;
        }
        bytes.push(flags);
        bytes.extend_from_slice(&(self.sr_filter_window as u64).to_le_bytes());
        bytes.extend_from_slice(&(self.sr_score_window as u64).to_le_bytes());
        bytes.extend_from_slice(&self.pushes.to_le_bytes());
        bytes.extend_from_slice(&self.alarms.to_le_bytes());
        bytes.extend_from_slice(&self.degraded_preferences.to_le_bytes());
        bytes.extend_from_slice(&(self.reference.len() as u64).to_le_bytes());
        for &v in &self.reference {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&(self.test.len() as u64).to_le_bytes());
        for &v in &self.test {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        debug_assert_eq!(bytes.len() - payload_start, payload_len);

        let crc = crc32(&bytes[payload_start..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Deserializes and verifies a version-1 snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] for any short read (including inside
    /// the header), [`SnapshotError::BadMagic`] /
    /// [`SnapshotError::UnsupportedVersion`] for foreign or future files,
    /// [`SnapshotError::ChecksumMismatch`] when the payload CRC fails, and
    /// [`SnapshotError::Invalid`] for structurally impossible contents
    /// (trailing garbage, window lengths exceeding the declared payload).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        // lint:allow(panic): infallible — fixed-width slices of a buffer
        // whose length was checked against HEADER_LEN above
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
        if version == 0 || version > SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        // lint:allow(panic): infallible — same header-length guard
        let payload_len = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes"));
        let payload_len = usize::try_from(payload_len)
            .map_err(|_| SnapshotError::Invalid("payload length overflows this platform"))?;
        let total = HEADER_LEN
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(4))
            .ok_or(SnapshotError::Invalid("payload length overflows this platform"))?;
        if bytes.len() < total {
            return Err(SnapshotError::Truncated);
        }
        if bytes.len() > total {
            return Err(SnapshotError::Invalid("trailing bytes after the checksum"));
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
        // lint:allow(panic): infallible — `bytes.len() == total` was checked
        let stored_crc = u32::from_le_bytes(bytes[total - 4..].try_into().expect("4-byte slice"));
        if crc32(payload) != stored_crc {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut cursor = Cursor { bytes: payload };
        let window = usize::try_from(cursor.u64()?)
            .map_err(|_| SnapshotError::Invalid("window size overflows this platform"))?;
        let alpha = f64::from_bits(cursor.u64()?);
        let flags = cursor.u8()?;
        if flags & !(FLAG_EXPLAIN_ON_DRIFT | FLAG_SIZE_ONLY | FLAG_RESET_ON_DRIFT) != 0 {
            return Err(SnapshotError::Invalid("unknown flag bits set"));
        }
        let (sr_filter_window, sr_score_window) = if version >= 2 {
            let filter = usize::try_from(cursor.u64()?)
                .map_err(|_| SnapshotError::Invalid("SR filter window overflows this platform"))?;
            let score = usize::try_from(cursor.u64()?)
                .map_err(|_| SnapshotError::Invalid("SR score window overflows this platform"))?;
            (filter, score)
        } else {
            // Version-1 monitors always ranked with the SR defaults.
            let sr = moche_sigproc::SpectralResidual::default();
            (sr.filter_window, sr.score_window)
        };
        let pushes = cursor.u64()?;
        let alarms = cursor.u64()?;
        let degraded_preferences = cursor.u64()?;
        let reference = cursor.values(window)?;
        let test = cursor.values(window)?;
        if !cursor.bytes.is_empty() {
            return Err(SnapshotError::Invalid("payload longer than its contents"));
        }
        Ok(Self {
            window,
            alpha,
            explain_on_drift: flags & FLAG_EXPLAIN_ON_DRIFT != 0,
            size_only: flags & FLAG_SIZE_ONLY != 0,
            reset_on_drift: flags & FLAG_RESET_ON_DRIFT != 0,
            sr_filter_window,
            sr_score_window,
            pushes,
            alarms,
            degraded_preferences,
            reference,
            test,
        })
    }

    /// Writes the snapshot to `path` atomically: the bytes are staged in a
    /// sibling `.tmp` file, flushed to disk (`fsync`), and renamed over
    /// the destination, followed by a best-effort directory sync. A crash
    /// at any point leaves `path` holding either the previous complete
    /// snapshot or this one — never a torn write.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if staging, syncing, or renaming fails (the
    /// temporary file is cleaned up on a best-effort basis).
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let bytes = self.to_bytes();
        match fault::failpoint("checkpoint.write") {
            Some(Fault::Error) => {
                return Err(SnapshotError::Io(std::io::Error::other(
                    "injected checkpoint write failure",
                )));
            }
            Some(Fault::TruncateWrite(keep)) => {
                // Simulate the torn write the atomic protocol exists to
                // prevent (a crash mid-write without the rename dance):
                // only the first `keep` bytes reach the *final* path.
                let keep = keep.min(bytes.len());
                std::fs::write(path, &bytes[..keep])?;
                return Ok(());
            }
            _ => {}
        }
        write_bytes_atomic(path, &bytes)
    }

    /// Reads and verifies a snapshot from `path` (see
    /// [`from_bytes`](Self::from_bytes) for the rejection cases).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be read, otherwise any
    /// [`from_bytes`](Self::from_bytes) rejection.
    pub fn read_from(path: &Path) -> Result<Self, SnapshotError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Structural validation shared by [`DriftMonitor::restore`]: window
    /// lengths within bounds, the warm-up invariant (the test window only
    /// fills after the reference window is full), and finite values.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        if self.reference.len() > self.window {
            return Err(SnapshotError::Invalid("reference window longer than the window size"));
        }
        if self.test.len() > self.window {
            return Err(SnapshotError::Invalid("test window longer than the window size"));
        }
        if !self.test.is_empty() && self.reference.len() < self.window {
            return Err(SnapshotError::Invalid(
                "test window non-empty before the reference window is full",
            ));
        }
        if self.reference.iter().chain(&self.test).any(|v| !v.is_finite()) {
            return Err(SnapshotError::Invalid("window contains a non-finite value"));
        }
        if self.pushes < (self.reference.len() + self.test.len()) as u64 {
            return Err(SnapshotError::Invalid("push counter below the held window contents"));
        }
        if self.sr_filter_window < 1 || self.sr_score_window < 1 {
            return Err(SnapshotError::Invalid("Spectral-Residual windows must be >= 1"));
        }
        Ok(())
    }
}

/// A byte cursor over the snapshot payload; every read is bounds-checked
/// and a short read is a [`SnapshotError::Truncated`] (the payload length
/// was already verified against the checksum, so this guards decode bugs
/// and hand-built payloads, not disk corruption).
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl Cursor<'_> {
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        let (&first, rest) = self.bytes.split_first().ok_or(SnapshotError::Truncated)?;
        self.bytes = rest;
        Ok(first)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        if self.bytes.len() < 8 {
            return Err(SnapshotError::Truncated);
        }
        let (head, rest) = self.bytes.split_at(8);
        self.bytes = rest;
        // lint:allow(panic): infallible — `split_at(8)` yields 8 bytes
        Ok(u64::from_le_bytes(head.try_into().expect("8-byte slice")))
    }

    /// Reads a length-prefixed run of `f64` bit patterns. `bound` caps the
    /// preallocation (a corrupt length cannot trigger a huge reservation:
    /// anything beyond the remaining payload is `Truncated` anyway).
    fn values(&mut self, bound: usize) -> Result<Vec<f64>, SnapshotError> {
        let len = usize::try_from(self.u64()?)
            .map_err(|_| SnapshotError::Invalid("window length overflows this platform"))?;
        if len > self.bytes.len() / 8 {
            return Err(SnapshotError::Truncated);
        }
        let mut values = Vec::with_capacity(len.min(bound.max(1)));
        for _ in 0..len {
            values.push(f64::from_bits(self.u64()?));
        }
        Ok(values)
    }
}

/// The stage-`fsync`-rename protocol shared by monitor snapshots and the
/// fleet's per-shard checkpoint files: a crash at any point leaves `path`
/// holding either its previous complete contents or `bytes` — never a torn
/// write.
pub(crate) fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let tmp = sibling_tmp_path(path);
    let result = (|| -> Result<(), SnapshotError> {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable where the platform allows;
        // the data is already safe, so failures here are non-fatal.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(dir) = File::open(dir) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn sibling_tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map_or_else(Default::default, |n| n.to_os_string());
    name.push(".tmp");
    path.with_file_name(name)
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the classic
/// bitwise form. Snapshot payloads are `O(w)` small, so a lookup table
/// would buy nothing worth its footprint. Shared with the fleet's shard
/// checkpoint container.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Convenience wrappers on the monitor itself.
impl DriftMonitor {
    /// Captures a snapshot and writes it atomically to `path` — the
    /// periodic checkpoint call (see
    /// [`MonitorSnapshot::write_atomic`] for the durability protocol).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the write fails; the monitor itself is
    /// untouched either way.
    pub fn checkpoint(&self, path: &Path) -> Result<(), SnapshotError> {
        self.snapshot().write_atomic(path)
    }

    /// Reads, verifies, and restores a monitor from a checkpoint file.
    ///
    /// # Errors
    ///
    /// Any [`MonitorSnapshot::read_from`] rejection, plus
    /// [`SnapshotError::Invalid`] / [`SnapshotError::Moche`] if the
    /// decoded state cannot form a valid monitor.
    pub fn resume_from(path: &Path) -> Result<Self, SnapshotError> {
        Self::restore(&MonitorSnapshot::read_from(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MonitorSnapshot {
        MonitorSnapshot {
            window: 4,
            alpha: 0.05,
            explain_on_drift: true,
            size_only: false,
            reset_on_drift: true,
            sr_filter_window: 5, // deliberately non-default: pins the v2 fields
            sr_score_window: 9,
            pushes: 11,
            alarms: 2,
            degraded_preferences: 1,
            reference: vec![1.0, -0.0, 2.5, 1.0],
            test: vec![3.0, 4.5, 3.0],
        }
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let snap = sample();
        let decoded = MonitorSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap);
        // Signed zero survives (PartialEq would accept 0.0 == -0.0).
        assert_eq!(decoded.reference[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn every_truncation_point_is_rejected_as_truncated_or_bad_magic() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            match MonitorSnapshot::from_bytes(&bytes[..len]) {
                Err(SnapshotError::Truncated) => {}
                // Cutting inside the magic itself reads as a foreign file.
                Err(SnapshotError::BadMagic) if len < 8 => {}
                other => panic!("prefix of {len} bytes: expected rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert!(
                MonitorSnapshot::from_bytes(&corrupt).is_err(),
                "flipping bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn wrong_version_and_magic_are_rejected() {
        for bad_version in [0u32, 3, 99] {
            let mut bytes = sample().to_bytes();
            bytes[8..12].copy_from_slice(&bad_version.to_le_bytes());
            assert!(
                matches!(
                    MonitorSnapshot::from_bytes(&bytes),
                    Err(SnapshotError::UnsupportedVersion(v)) if v == bad_version
                ),
                "version {bad_version} must be rejected"
            );
        }
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(MonitorSnapshot::from_bytes(&bytes), Err(SnapshotError::BadMagic)));
    }

    /// Serializes the version-1 layout (no SR parameters) the way the
    /// previous release did, so the compatibility path stays honest.
    fn v1_bytes(snap: &MonitorSnapshot) -> Vec<u8> {
        let payload_len = 8 * 6 + 1 + 8 + 8 * (snap.reference.len() + snap.test.len());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(payload_len as u64).to_le_bytes());
        let payload_start = bytes.len();
        bytes.extend_from_slice(&(snap.window as u64).to_le_bytes());
        bytes.extend_from_slice(&snap.alpha.to_bits().to_le_bytes());
        let mut flags = 0u8;
        if snap.explain_on_drift {
            flags |= FLAG_EXPLAIN_ON_DRIFT;
        }
        if snap.size_only {
            flags |= FLAG_SIZE_ONLY;
        }
        if snap.reset_on_drift {
            flags |= FLAG_RESET_ON_DRIFT;
        }
        bytes.push(flags);
        bytes.extend_from_slice(&snap.pushes.to_le_bytes());
        bytes.extend_from_slice(&snap.alarms.to_le_bytes());
        bytes.extend_from_slice(&snap.degraded_preferences.to_le_bytes());
        bytes.extend_from_slice(&(snap.reference.len() as u64).to_le_bytes());
        for &v in &snap.reference {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&(snap.test.len() as u64).to_le_bytes());
        for &v in &snap.test {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let crc = crc32(&bytes[payload_start..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn version_1_files_decode_with_default_sr_parameters() {
        let expected = {
            let mut s = sample();
            let sr = moche_sigproc::SpectralResidual::default();
            s.sr_filter_window = sr.filter_window;
            s.sr_score_window = sr.score_window;
            s
        };
        let decoded = MonitorSnapshot::from_bytes(&v1_bytes(&sample())).unwrap();
        assert_eq!(decoded, expected, "v1 files gain the defaults every v1 monitor used");
        // The old format keeps its full rejection surface too.
        let bytes = v1_bytes(&sample());
        for len in 0..bytes.len() {
            assert!(MonitorSnapshot::from_bytes(&bytes[..len]).is_err(), "prefix {len}");
        }
        let mut corrupt = v1_bytes(&sample());
        let last = corrupt.len() - 10;
        corrupt[last] ^= 1;
        assert!(MonitorSnapshot::from_bytes(&corrupt).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(MonitorSnapshot::from_bytes(&bytes), Err(SnapshotError::Invalid(_))));
    }

    #[test]
    fn validate_catches_impossible_states() {
        let mut snap = sample();
        snap.reference.push(9.0); // longer than window
        assert!(matches!(snap.validate(), Err(SnapshotError::Invalid(_))));

        let mut snap = sample();
        snap.reference.pop(); // test non-empty with ref not full
        assert!(matches!(snap.validate(), Err(SnapshotError::Invalid(_))));

        let mut snap = sample();
        snap.test[0] = f64::NAN;
        assert!(matches!(snap.validate(), Err(SnapshotError::Invalid(_))));

        let mut snap = sample();
        snap.pushes = 3; // fewer pushes than held observations
        assert!(matches!(snap.validate(), Err(SnapshotError::Invalid(_))));

        let mut snap = sample();
        snap.sr_filter_window = 0; // would panic the SR moving average
        assert!(matches!(snap.validate(), Err(SnapshotError::Invalid(_))));

        let mut snap = sample();
        snap.sr_score_window = 0;
        assert!(matches!(snap.validate(), Err(SnapshotError::Invalid(_))));

        assert!(sample().validate().is_ok());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join("moche-snapshot-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.snap");
        let snap = sample();
        snap.write_atomic(&path).unwrap();
        assert_eq!(MonitorSnapshot::read_from(&path).unwrap(), snap);
        // Overwrite in place: the rename replaces the old file whole.
        let mut newer = sample();
        newer.pushes += 100;
        newer.write_atomic(&path).unwrap();
        assert_eq!(MonitorSnapshot::read_from(&path).unwrap(), newer);
        std::fs::remove_file(&path).unwrap();
    }
}
