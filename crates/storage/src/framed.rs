//! CRC-framed files: the one way checkpoint state reaches disk.
//!
//! A framed file is `[magic][crc32 of payload: u32 LE][payload]`, written
//! whole and never modified afterwards. The catalog and every table image
//! are published through [`publish`], so the checkpoint path has exactly
//! one place that creates, checksums, fsyncs and renames a file — and one
//! place to inject write failures into. Every failure of a step, the
//! directory fsync included, is an `Err`: a checkpoint may delete the log
//! segments a catalog replaces only once its rename is known durable.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

use quark_relational::{Error, Result};

use crate::crc::crc32;

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Storage(format!("{what} {}: {e}", path.display()))
}

/// Atomically publish `payload` at `path`: write the frame to a sibling
/// `.tmp` file, fsync it, rename it over `path`, and fsync the directory
/// so the rename itself is durable (the two fsyncs only when `sync` is
/// set). A crash at any point leaves `path` either absent/unchanged or
/// complete — never partial. An `Err` after the rename leaves the new
/// file in place, but not known to be durable.
pub(crate) fn publish(path: &Path, magic: &[u8], payload: &[u8], sync: bool) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let mut head = magic.to_vec();
    head.extend_from_slice(&crc32(payload).to_le_bytes());
    let mut file = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    file.write_all(&head)
        .and_then(|()| file.write_all(payload))
        .map_err(|e| io_err("write", &tmp, e))?;
    if sync {
        file.sync_data().map_err(|e| io_err("fsync", &tmp, e))?;
    }
    drop(file);
    fs::rename(&tmp, path).map_err(|e| io_err("rename", &tmp, e))?;
    if sync {
        let dir = (path.parent())
            .filter(|dir| !dir.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        File::open(dir)
            .and_then(|dir| dir.sync_data())
            .map_err(|e| io_err("fsync", dir, e))?;
    }
    Ok(())
}

/// Read back the payload of a framed file, verifying magic and CRC.
/// `None` when the file does not exist.
pub(crate) fn load(path: &Path, magic: &[u8]) -> Result<Option<Vec<u8>>> {
    let mut data = match fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read", path, e)),
    };
    let corrupt = |why: &str| Error::Storage(format!("{} is corrupt: {why}", path.display()));
    let head = magic.len() + 4;
    if data.len() < head || !data.starts_with(magic) {
        return Err(corrupt("bad magic"));
    }
    let crc = u32::from_le_bytes(data[magic.len()..head].try_into().unwrap());
    if crc32(&data[head..]) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    data.drain(..head);
    Ok(Some(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("quark-framed-{tag}-{}.bin", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn payload_round_trips_and_leaves_no_tmp_file() {
        let path = tmp_file("roundtrip");
        assert!(load(&path, b"QK").unwrap().is_none());
        let payload: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        publish(&path, b"QK", &payload, true).unwrap();
        assert_eq!(load(&path, b"QK").unwrap().as_deref(), Some(&payload[..]));
        assert!(!path.with_extension("tmp").exists());
        // An empty magic and an empty payload are both legal.
        publish(&path, b"", &[], false).unwrap();
        assert_eq!(load(&path, b"").unwrap().as_deref(), Some(&[][..]));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn flipped_byte_wrong_magic_and_short_file_are_corrupt() {
        let path = tmp_file("corrupt");
        publish(&path, b"QK", &[9u8; 64], false).unwrap();
        let good = fs::read(&path).unwrap();
        let is_corrupt = |magic: &[u8]| matches!(load(&path, magic), Err(Error::Storage(m)) if m.contains("corrupt"));
        assert!(is_corrupt(b"XX"));
        let mut bad = good.clone();
        bad[11] ^= 0xFF;
        fs::write(&path, &bad).unwrap();
        assert!(is_corrupt(b"QK"));
        fs::write(&path, &good[..3]).unwrap();
        assert!(is_corrupt(b"QK"));
        let _ = fs::remove_file(&path);
    }
}
