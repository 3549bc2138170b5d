//! Versioned binary snapshot codec for checkpoint/restore.
//!
//! Layout: an 8-byte magic, a `u32` format version, the payload, and a
//! trailing FNV-1a 64-bit checksum over everything before it. All scalars
//! are little-endian; `f64`s round-trip bit-exactly via `to_le_bytes`, so
//! a resumed run reproduces the uninterrupted run bitwise.
//!
//! The codec is deliberately schema-free: the *owner* of a snapshot (e.g.
//! `rdp-core`'s `FlowCheckpoint`) defines field order and bumps its own
//! version when that order changes. The reader validates magic, version,
//! checksum, and exact consumption, turning any mismatch into a typed
//! [`RdpError::Checkpoint`].

use crate::error::RdpError;
use rdp_db::Point;

/// Magic prefix identifying an rdp snapshot stream.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RDPSNAP\0";

/// FNV-1a 64-bit hash: the snapshot checksum, and the configuration
/// fingerprint a flow checkpoint carries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only snapshot encoder.
#[derive(Debug, Clone)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a snapshot with the owner's format `version`.
    pub fn new(version: u32) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&version.to_le_bytes());
        SnapshotWriter { buf }
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed scalar vector.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Length-prefixed point vector (x, y pairs).
    pub fn put_points(&mut self, ps: &[Point]) {
        self.put_u64(ps.len() as u64);
        for p in ps {
            self.put_f64(p.x);
            self.put_f64(p.y);
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Seals the snapshot: appends the checksum and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Validating snapshot decoder.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Opens a snapshot, verifying magic, checksum, and that it was
    /// written with exactly the owner's format `version`.
    pub fn new(bytes: &'a [u8], version: u32) -> Result<Self, RdpError> {
        let min_len = SNAPSHOT_MAGIC.len() + 4 + 8;
        if bytes.len() < min_len {
            return Err(RdpError::checkpoint(format!(
                "snapshot too short: {} bytes",
                bytes.len()
            )));
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(RdpError::checkpoint("bad snapshot magic"));
        }
        let body = &bytes[..bytes.len() - 8];
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&bytes[bytes.len() - 8..]);
        if fnv1a64(body) != u64::from_le_bytes(sum) {
            return Err(RdpError::checkpoint("snapshot checksum mismatch"));
        }
        let mut ver = [0u8; 4];
        ver.copy_from_slice(&bytes[8..12]);
        let found = u32::from_le_bytes(ver);
        if found != version {
            return Err(RdpError::checkpoint(format!(
                "unsupported snapshot version {found} (this build reads version {version})"
            )));
        }
        Ok(SnapshotReader {
            data: body,
            pos: 12,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RdpError> {
        if self.pos + n > self.data.len() {
            return Err(RdpError::checkpoint(format!(
                "snapshot truncated: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn take_u64(&mut self) -> Result<u64, RdpError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    pub fn take_f64(&mut self) -> Result<f64, RdpError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(f64::from_le_bytes(b))
    }

    pub fn take_f64s(&mut self) -> Result<Vec<f64>, RdpError> {
        let n = self.take_u64()? as usize;
        self.bound_len(n, 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take_f64()?);
        }
        Ok(out)
    }

    pub fn take_points(&mut self) -> Result<Vec<Point>, RdpError> {
        let n = self.take_u64()? as usize;
        self.bound_len(n, 16)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let x = self.take_f64()?;
            let y = self.take_f64()?;
            out.push(Point::new(x, y));
        }
        Ok(out)
    }

    pub fn take_str(&mut self) -> Result<String, RdpError> {
        let n = self.take_u64()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| RdpError::checkpoint("snapshot string is not UTF-8"))
    }

    /// Rejects absurd length prefixes before attempting the allocation.
    fn bound_len(&self, n: usize, elem_size: usize) -> Result<(), RdpError> {
        let remaining = self.data.len() - self.pos;
        if n.checked_mul(elem_size).map_or(true, |b| b > remaining) {
            return Err(RdpError::checkpoint(format!(
                "snapshot length prefix {n} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(())
    }

    /// Confirms the payload was consumed exactly.
    pub fn finish(self) -> Result<(), RdpError> {
        if self.pos != self.data.len() {
            return Err(RdpError::checkpoint(format!(
                "snapshot has {} trailing byte(s)",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_bit_exact() {
        let pts = vec![Point::new(1.5, -2.25), Point::new(f64::MIN_POSITIVE, 1e300)];
        let vs = vec![0.1 + 0.2, -0.0, 3.5];
        let mut w = SnapshotWriter::new(3);
        w.put_u64(42);
        w.put_f64(std::f64::consts::PI);
        w.put_f64s(&vs);
        w.put_points(&pts);
        w.put_str("routability");
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes, 3).unwrap();
        assert_eq!(r.take_u64().unwrap(), 42);
        assert_eq!(
            r.take_f64().unwrap().to_bits(),
            std::f64::consts::PI.to_bits()
        );
        let vs2 = r.take_f64s().unwrap();
        assert_eq!(vs.len(), vs2.len());
        for (a, b) in vs.iter().zip(&vs2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let pts2 = r.take_points().unwrap();
        for (a, b) in pts.iter().zip(&pts2) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
        assert_eq!(r.take_str().unwrap(), "routability");
        r.finish().unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let mut w = SnapshotWriter::new(1);
        w.put_f64s(&[1.0, 2.0, 3.0]);
        let bytes = w.finish();

        // Flip one payload byte: checksum must catch it.
        for flip in [13usize, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x40;
            assert!(SnapshotReader::new(&bad, 1).is_err(), "flip at {flip}");
        }
        // Truncation.
        assert!(SnapshotReader::new(&bytes[..bytes.len() - 1], 1).is_err());
        assert!(SnapshotReader::new(&bytes[..4], 1).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(SnapshotReader::new(&bad, 1).is_err());
    }

    #[test]
    fn version_gate() {
        let bytes = SnapshotWriter::new(7).finish();
        assert!(SnapshotReader::new(&bytes, 7).is_ok());
        for other in [0, 1, 6, 8, 9, u32::MAX] {
            let err = SnapshotReader::new(&bytes, other).unwrap_err();
            assert!(matches!(err, RdpError::Checkpoint { .. }), "{other}: {err}");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut w = SnapshotWriter::new(1);
        w.put_u64(u64::MAX); // claims u64::MAX points follow
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes, 1).unwrap();
        assert!(r.take_points().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = SnapshotWriter::new(1);
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes, 1).unwrap();
        let _ = r.take_u64().unwrap();
        assert!(r.finish().is_err());
    }
}
