//! The one frame layout, `[len: u32 LE][crc: u32 LE][payload]`, of every
//! WAL record and every wire message; `crc` is the CRC-32 ([`crate::crc`])
//! of the payload. [`seal`] writes a header and [`peel`] reads one back;
//! nothing else parses it.

use crate::crc::crc32;

/// Frame header: payload length + payload CRC, 4 bytes each.
pub const HEADER_LEN: usize = 8;

/// The header that frames `payload`.
pub fn seal(payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut head = [0; HEADER_LEN];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    head
}

/// What the front of a byte buffer holds.
#[derive(Debug, PartialEq, Eq)]
pub enum Peeled<'a> {
    /// The buffer ends before its first frame does.
    Need,
    /// One whole frame whose payload matches its checksum.
    Frame {
        /// The payload.
        payload: &'a [u8],
        /// Bytes the frame takes, header included.
        len: usize,
    },
    /// A length over the caller's maximum, or a checksum mismatch.
    Bad(String),
}

/// Read the frame at the front of `buf`. A header claiming more than
/// `max` payload bytes is [`Peeled::Bad`] before any payload is awaited,
/// so a hostile length never makes the caller buffer.
pub fn peel(buf: &[u8], max: usize) -> Peeled<'_> {
    let Some((head, rest)) = buf.split_first_chunk::<HEADER_LEN>() else {
        return Peeled::Need;
    };
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    if len > max {
        return Peeled::Bad(format!("frame of {len} bytes exceeds maximum {max}"));
    }
    let Some(payload) = rest.get(..len) else {
        return Peeled::Need;
    };
    let want = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    let got = crc32(payload);
    if got != want {
        return Peeled::Bad(format!(
            "frame checksum mismatch (got {got:#010x}, header says {want:#010x})"
        ));
    }
    Peeled::Frame {
        payload,
        len: HEADER_LEN + len,
    }
}
