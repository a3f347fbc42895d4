//! Write-ahead log: one CRC frame of redo per statement.
//!
//! The log is a sequence of segment files `wal/<seq>.wal`, each a run of
//! [frames](crate::frame), `[len: u32 LE][crc: u32 LE][payload]`. A
//! payload is the redo ops of one statement and its whole trigger
//! cascade, encoded with [`quark_relational::wire`]. A frame goes out in
//! one `write_all` from one buffer, so its own length and checksum tell a
//! whole statement from a torn one, and no commit record is needed.
//! Replay returns every whole frame and stops at the first damaged one (a
//! torn header or payload, a checksum mismatch, a payload that does not
//! decode), landing exactly on the last whole statement. [`Wal::open`]
//! then cuts the segment back to it, so no later statement lands behind
//! damaged bytes that the next replay cannot cross.
//!
//! An append that returns `Err` has added no byte to the log. A rotation
//! that is due runs before anything is written, and a write that fails
//! part-way is cut back off the segment before the error returns. If that
//! cut fails too, the log refuses every later append (until a reopen trims
//! the tear), so no acknowledged record ever lands behind bytes replay
//! stops at; the torn frame itself never replays.
//!
//! Segments rotate at [`SEGMENT_LIMIT`] bytes: the first append that finds
//! the live segment full starts the next one, so a statement never spans
//! segments. Checkpointing truncates the log by starting a fresh segment
//! sequence; the catalog records the active start segment, so stale
//! segments from before the checkpoint are simply never replayed.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use quark_relational::wire::{Dec, Enc};
use quark_relational::{Error, RedoOp, Result};

use crate::frame::{self, Peeled, HEADER_LEN};

/// When the log forces bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// `fsync` after every statement — survives machine crashes.
    Always,
    /// Never `fsync`; the OS flushes lazily. Survives process kills (the
    /// page cache lives on), not power loss. The mode for tests and for
    /// workloads that accept a bounded durability window.
    Never,
}

/// Rotate to a new segment once the current one reaches this many bytes.
pub const SEGMENT_LIMIT: u64 = 1 << 20;

/// The file a [`Wal`] appends to: [`File`] in every build; tests put a
/// writer in front of it that fails on demand.
pub trait SegmentFile: Write + Sized {
    /// Cut the file back to its first `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Force the bytes written so far to stable storage.
    fn sync_data(&self) -> io::Result<()>;
    /// A writer of this kind over `file`, the next live segment.
    fn next_segment(&self, file: File) -> Self;
}

impl SegmentFile for File {
    fn set_len(&self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn sync_data(&self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn next_segment(&self, file: File) -> File {
        file
    }
}

/// Append half of the log: owns the live segment file.
#[derive(Debug)]
pub struct Wal<F = File> {
    dir: PathBuf,
    seq: u64,
    /// Oldest segment that may still exist on disk; truncation removes
    /// `[oldest, new_seq)` instead of probing every number since 0.
    oldest: u64,
    file: F,
    segment_bytes: u64,
    /// Bytes of the last statement appended: the next one's buffer is
    /// sized from it.
    last_append: usize,
    /// Why the live segment may end in a tear that could not be cut off.
    /// Set, it refuses every append: one would land behind the tear.
    torn: Option<String>,
}

/// What one [`Wal::append_statement`] call did, for the engine's counters.
#[derive(Debug, Clone, Copy)]
pub struct Append {
    /// Bytes appended (frame header included).
    pub bytes: u64,
    /// Number of `fsync` calls issued.
    pub fsyncs: u64,
}

/// Result of replaying the log from a segment sequence number.
#[derive(Debug)]
pub struct Replay {
    /// Redo ops of each whole statement, in log order.
    pub batches: Vec<Vec<RedoOp>>,
    /// The segment replay stopped in (where appends should resume).
    pub last_seq: u64,
    /// Length of the prefix of segment `last_seq` ending on its last whole
    /// frame; [`Wal::open`] cuts off the damaged rest.
    pub clean_len: u64,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{seq:010}.wal"))
}

fn io_err(what: &str, e: io::Error) -> Error {
    Error::Storage(format!("{what}: {e}"))
}

/// The redo ops a frame's payload holds.
fn decode_batch(payload: &[u8]) -> Result<Vec<RedoOp>> {
    let mut dec = Dec::new(payload);
    let ops = dec.get()?;
    dec.finish()?;
    Ok(ops)
}

/// Open (creating if absent) segment `seq` for appending after its first
/// `len` bytes; whatever it held beyond them is cut off.
fn open_segment(dir: &Path, seq: u64, len: u64) -> Result<File> {
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(segment_path(dir, seq))
        .map_err(|e| io_err("open wal segment", e))?;
    file.set_len(len)
        .map_err(|e| io_err("trim wal segment", e))?;
    Ok(file)
}

impl Wal {
    /// Resume appending to segment `seq` where [`Wal::replay`] ended: the
    /// segment is cut back to its first `clean_len` bytes and every later
    /// segment is removed, so the log on disk is exactly the statements
    /// replay returned (`0, 0` for a fresh log).
    pub fn open(dir: &Path, seq: u64, clean_len: u64) -> Result<Wal> {
        fs::create_dir_all(dir).map_err(|e| io_err("create wal dir", e))?;
        // Segment numbers on disk are contiguous. Walk down to the oldest
        // (below `seq` only when a crash cut the last truncation short)
        // and remove the ones above, which replay never reached.
        let mut oldest = seq;
        while oldest > 0 && segment_path(dir, oldest - 1).exists() {
            oldest -= 1;
        }
        let mut stale = seq + 1;
        while segment_path(dir, stale).exists() {
            fs::remove_file(segment_path(dir, stale))
                .map_err(|e| io_err("remove stale wal segment", e))?;
            stale += 1;
        }
        Ok(Wal {
            dir: dir.to_path_buf(),
            seq,
            oldest,
            file: open_segment(dir, seq, clean_len)?,
            segment_bytes: clean_len,
            last_append: 0,
            torn: None,
        })
    }

    /// Replay every whole statement from segment `from_seq` onward. Stops
    /// (discarding the rest) at the first damaged frame: nothing after a
    /// tear, in this segment or a later one, is known to be whole.
    pub fn replay(dir: &Path, from_seq: u64) -> Result<Replay> {
        let mut batches = Vec::new();
        let mut seq = from_seq;
        let (mut last_seq, mut clean_len) = (from_seq, 0);
        while let Ok(mut file) = File::open(segment_path(dir, seq)) {
            last_seq = seq;
            let mut data = Vec::new();
            file.read_to_end(&mut data)
                .map_err(|e| io_err("read wal segment", e))?;
            let mut pos = 0;
            while let Peeled::Frame { payload, len } = frame::peel(&data[pos..], usize::MAX) {
                let Ok(ops) = decode_batch(payload) else {
                    break;
                };
                batches.push(ops);
                pos += len;
            }
            clean_len = pos as u64;
            if pos < data.len() {
                break;
            }
            seq += 1;
        }
        Ok(Replay {
            batches,
            last_seq,
            clean_len,
        })
    }
}

impl<F: SegmentFile> Wal<F> {
    /// Replace the segment writer, keeping the log's position: how tests
    /// put a failing writer under a log opened on disk.
    #[cfg(test)]
    fn with_file<G>(self, wrap: impl FnOnce(F) -> G) -> Wal<G> {
        Wal {
            dir: self.dir,
            seq: self.seq,
            oldest: self.oldest,
            file: wrap(self.file),
            segment_bytes: self.segment_bytes,
            last_append: self.last_append,
            torn: self.torn,
        }
    }

    /// The segment currently being appended to.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Append one statement's redo ops as one frame, first rotating to a
    /// new segment if the live one has reached [`SEGMENT_LIMIT`].
    ///
    /// An `Err` means no byte of this statement is in the log: a failed
    /// rotation returns before anything is written, and the bytes of a
    /// failed write are cut off again before the error returns. If that
    /// cut fails, this and every later append fails, until a reopen trims
    /// the tear.
    ///
    /// **Does not make the statement durable.** The per-statement `fsync`
    /// of `SyncMode::Always` is the engine's group committer's job (see
    /// `StorageEngine::log_statement`), which calls [`Wal::sync`] once for
    /// every frame appended since the last sync. The one fsync issued
    /// *here* is the rotation edge in `Always` mode: the outgoing segment
    /// is synced before the live file moves on, so closed segments are
    /// always durable and the group committer only ever needs to sync the
    /// live one.
    pub fn append_statement(&mut self, ops: &[RedoOp], sync: SyncMode) -> Result<Append> {
        if let Some(why) = &self.torn {
            return Err(Error::Storage(format!(
                "wal refuses appends behind a tear it could not cut off: {why}"
            )));
        }
        let mut fsyncs = 0;
        if self.segment_bytes >= SEGMENT_LIMIT {
            if sync == SyncMode::Always {
                self.sync()?;
                fsyncs = 1;
            }
            self.start_segment(self.seq + 1)?;
        }
        // The payload is encoded behind its reserved frame header and
        // sealed where it lies.
        let mut enc = Enc::with_capacity(self.last_append);
        enc.u64(0); // the frame header
        enc.put(ops);
        let mut buf = enc.into_bytes()?;
        let head = frame::seal(&buf[HEADER_LEN..]);
        buf[..HEADER_LEN].copy_from_slice(&head);
        if let Err(e) = self.file.write_all(&buf) {
            if let Err(cut) = self.file.set_len(self.segment_bytes) {
                self.torn = Some(format!("{e}; cutting it off failed: {cut}"));
            }
            return Err(io_err("append wal record", e));
        }
        self.last_append = buf.len();
        self.segment_bytes += buf.len() as u64;
        Ok(Append {
            bytes: buf.len() as u64,
            fsyncs,
        })
    }

    /// Force everything appended to the live segment to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data().map_err(|e| io_err("fsync wal", e))
    }

    /// Make an empty segment `seq` the live one.
    fn start_segment(&mut self, seq: u64) -> Result<()> {
        self.file = self.file.next_segment(open_segment(&self.dir, seq, 0)?);
        self.seq = seq;
        self.segment_bytes = 0;
        Ok(())
    }

    /// Start a fresh segment sequence after a checkpoint: segments before
    /// `new_seq` are deleted (the table images already reflect them) and
    /// an empty segment `new_seq` becomes the live one.
    pub fn truncate_to(&mut self, new_seq: u64) -> Result<()> {
        for seq in self.oldest..new_seq {
            let path = segment_path(&self.dir, seq);
            if path.exists() {
                fs::remove_file(&path).map_err(|e| io_err("remove wal segment", e))?;
            }
        }
        self.oldest = new_seq;
        self.start_segment(new_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quark_relational::{row, Value};
    use std::sync::{Arc, Mutex};

    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("quark-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn put(table: &str, v: i64) -> RedoOp {
        RedoOp::Put {
            table: table.into(),
            row: row([Value::Int(v), Value::str("x")]),
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn committed_statements_replay_in_order() {
        let dir = tmp_dir("order");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        wal.append_statement(&[put("t", 1)], SyncMode::Never)
            .unwrap();
        wal.append_statement(&[put("t", 2), put("t", 3)], SyncMode::Never)
            .unwrap();
        let replay = Wal::replay(&dir, 0).unwrap();
        assert_eq!(replay.batches.len(), 2);
        assert_eq!(replay.batches[0], vec![put("t", 1)]);
        assert_eq!(replay.batches[1], vec![put("t", 2), put("t", 3)]);
        // Golden bytes of the segment (per statement: frame header, redo
        // batch). 26 bytes per statement below the two-record layout of
        // catalog version 2, which added a 17-byte commit frame and a kind
        // byte and an 8-byte LSN in front of each batch.
        let data = fs::read(segment_path(&dir, 0)).unwrap();
        assert_eq!((data.len(), fnv1a(&data)), (99, 0x3015_240c_5f59_3029));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_discards_only_the_last_statement() {
        let dir = tmp_dir("torn");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        wal.append_statement(&[put("t", 1)], SyncMode::Never)
            .unwrap();
        wal.append_statement(&[put("t", 2)], SyncMode::Never)
            .unwrap();
        drop(wal);
        // Chop a few bytes off the end: the second statement's frame is
        // torn.
        let path = segment_path(&dir, 0);
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 5]).unwrap();
        let replay = Wal::replay(&dir, 0).unwrap();
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.batches[0], vec![put("t", 1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_in_tail_detected_by_crc() {
        let dir = tmp_dir("crc");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        wal.append_statement(&[put("t", 1)], SyncMode::Never)
            .unwrap();
        wal.append_statement(&[put("t", 2)], SyncMode::Never)
            .unwrap();
        drop(wal);
        let path = segment_path(&dir, 0);
        let mut data = fs::read(&path).unwrap();
        let n = data.len();
        data[n - 3] ^= 0xFF; // flip a bit inside the final record
        fs::write(&path, &data).unwrap();
        let replay = Wal::replay(&dir, 0).unwrap();
        assert_eq!(replay.batches.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The lost-acknowledged-write scenario: a lone torn statement, then a
    /// reopen that appends. Without trimming, the new statement would sit
    /// behind the tear and the next replay would never reach it.
    #[test]
    fn reopening_after_a_tear_trims_it_so_later_commits_replay() {
        type Damage = fn(&mut Vec<u8>);
        let damages: [Damage; 3] = [
            |data| data.truncate(data.len() - 5),     // torn payload
            |data| *data.last_mut().unwrap() ^= 0x40, // corrupt payload
            |data| {
                // A length header that runs past the end of the segment.
                let len = data.len() as u32;
                data[..4].copy_from_slice(&len.to_le_bytes());
            },
        ];
        for (i, damage) in damages.into_iter().enumerate() {
            let dir = tmp_dir(&format!("trim{i}"));
            let mut wal = Wal::open(&dir, 0, 0).unwrap();
            wal.append_statement(&[put("t", 1)], SyncMode::Never)
                .unwrap();
            drop(wal);
            let path = segment_path(&dir, 0);
            let mut data = fs::read(&path).unwrap();
            damage(&mut data);
            fs::write(&path, &data).unwrap();
            // A stale later segment must not survive the reopen either.
            fs::write(segment_path(&dir, 1), b"stale").unwrap();

            let replay = Wal::replay(&dir, 0).unwrap();
            assert!(replay.batches.is_empty());
            assert_eq!((replay.last_seq, replay.clean_len), (0, 0));
            let mut wal = Wal::open(&dir, 0, replay.clean_len).unwrap();
            assert!(!segment_path(&dir, 1).exists());
            wal.append_statement(&[put("t", 2)], SyncMode::Never)
                .unwrap();
            let replay = Wal::replay(&dir, 0).unwrap();
            assert_eq!(replay.batches, vec![vec![put("t", 2)]], "damage {i}");
            assert_eq!(replay.clean_len, fs::metadata(&path).unwrap().len());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = tmp_dir("rotate");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        // Each op is ~30 bytes; push well past SEGMENT_LIMIT to rotate
        // at least once.
        let big: Vec<RedoOp> = (0..2000).map(|i| put("t", i)).collect();
        for _ in 0..40 {
            wal.append_statement(&big, SyncMode::Never).unwrap();
        }
        assert!(wal.seq() > 0, "expected at least one rotation");
        let replay = Wal::replay(&dir, 0).unwrap();
        assert_eq!(replay.batches.len(), 40);
        assert_eq!(replay.last_seq, wal.seq());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A rotation that fails fails its append before a byte is written.
    /// Here the next segment's path is a directory, which cannot be opened
    /// for writing (`EISDIR`, root included). The live segment keeps its
    /// length and replay finds only the acknowledged statements; once the
    /// path is free, the next append rotates and is acknowledged.
    #[test]
    fn a_failed_rotation_writes_nothing() {
        let dir = tmp_dir("rotation");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        fs::create_dir(segment_path(&dir, 1)).unwrap();
        let segment_len = || fs::metadata(segment_path(&dir, 0)).unwrap().len();
        let big: Vec<RedoOp> = (0..2000).map(|i| put("t", i)).collect();
        let mut acknowledged = 0;
        loop {
            let before = segment_len();
            if wal.append_statement(&big, SyncMode::Always).is_err() {
                assert!(before >= SEGMENT_LIMIT, "only the rotation can fail");
                assert_eq!(segment_len(), before, "the failing append wrote nothing");
                break;
            }
            acknowledged += 1;
            assert!(acknowledged < 100, "rotation never came due");
        }
        assert_eq!(wal.seq(), 0);
        fs::remove_dir(segment_path(&dir, 1)).unwrap();
        assert_eq!(Wal::replay(&dir, 0).unwrap().batches.len(), acknowledged);
        wal.append_statement(&big, SyncMode::Always).unwrap();
        assert_eq!(wal.seq(), 1);
        assert_eq!(
            Wal::replay(&dir, 0).unwrap().batches.len(),
            acknowledged + 1
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_to_starts_a_fresh_sequence() {
        let dir = tmp_dir("trunc");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        wal.append_statement(&[put("t", 1)], SyncMode::Never)
            .unwrap();
        wal.truncate_to(1).unwrap();
        let replay = Wal::replay(&dir, 1).unwrap();
        assert!(replay.batches.is_empty());
        assert!(!segment_path(&dir, 0).exists());
        wal.append_statement(&[put("t", 2)], SyncMode::Always)
            .unwrap();
        let replay = Wal::replay(&dir, 1).unwrap();
        assert_eq!(replay.batches, vec![vec![put("t", 2)]]);
        // A reopened log finds its oldest segment on disk (here one a
        // crash left below the live one) and the next truncation takes it.
        drop(wal);
        fs::write(segment_path(&dir, 0), b"left by a crash").unwrap();
        let mut wal = Wal::open(&dir, 1, replay.clean_len).unwrap();
        wal.truncate_to(2).unwrap();
        assert!(!segment_path(&dir, 0).exists() && !segment_path(&dir, 1).exists());
        assert!(segment_path(&dir, 2).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A statement sequence whose records cover every record length mod 8
    /// and a few kilobytes (strings of growing length, rows of growing
    /// count), so both the eight-byte words and the bytewise tail of the
    /// checksum are on every path.
    fn varied_statements() -> Vec<Vec<RedoOp>> {
        (0..24)
            .map(|i| {
                (0..=i % 5)
                    .map(|j| RedoOp::Put {
                        table: format!("t{}", i % 3),
                        row: row([
                            Value::Int(i * 10 + j),
                            Value::str("x".repeat((i * 37 + j) as usize)),
                        ]),
                    })
                    .chain((i % 4 == 3).then(|| RedoOp::Del {
                        table: "t0".into(),
                        key: vec![Value::Int(i)],
                    }))
                    .collect()
            })
            .collect()
    }

    /// Golden bytes of a segment written by a fixed statement sequence.
    /// 24 statements × 26 bytes below the two-record layout of catalog
    /// version 2 (a 17-byte commit frame, and a kind byte and an 8-byte
    /// LSN in front of each batch, per statement).
    #[test]
    fn segment_bytes_of_a_fixed_statement_sequence_are_pinned() {
        let dir = tmp_dir("golden");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        let statements = varied_statements();
        for ops in &statements {
            wal.append_statement(ops, SyncMode::Never).unwrap();
        }
        let data = fs::read(segment_path(&dir, 0)).unwrap();
        assert_eq!((data.len(), fnv1a(&data)), (32_958, 0x9f16_567e_a6f2_5e1f));
        assert_eq!(Wal::replay(&dir, 0).unwrap().batches, statements);
        let _ = fs::remove_dir_all(&dir);
    }

    /// What the next write and trim of a [`Faulty`] segment do.
    #[derive(Debug, Default)]
    struct Faults {
        /// Fail the next write after this many of its bytes reach the
        /// file: a short write, then a full disk (`Some(0)`: no byte).
        write: Option<usize>,
        /// Fail every trim.
        trim: bool,
    }

    /// A segment file that fails as its shared [`Faults`] say.
    #[derive(Debug)]
    struct Faulty {
        file: File,
        faults: Arc<Mutex<Faults>>,
    }

    impl Write for Faulty {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut faults = self.faults.lock().unwrap();
            match faults.write.take() {
                None => self.file.write(buf),
                Some(0) => Err(io::ErrorKind::StorageFull.into()),
                Some(n) => {
                    let n = n.min(buf.len());
                    self.file.write_all(&buf[..n])?;
                    faults.write = Some(0);
                    Ok(n)
                }
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            self.file.flush()
        }
    }

    impl SegmentFile for Faulty {
        fn set_len(&self, len: u64) -> io::Result<()> {
            if self.faults.lock().unwrap().trim {
                return Err(io::Error::other("trim refused"));
            }
            self.file.set_len(len)
        }

        fn sync_data(&self) -> io::Result<()> {
            self.file.sync_data()
        }

        fn next_segment(&self, file: File) -> Faulty {
            Faulty {
                file,
                faults: Arc::clone(&self.faults),
            }
        }
    }

    /// A write that fails part-way (a short write, then a full disk) or
    /// at once (`ENOSPC`) leaves the segment as before it, so the next
    /// statements are acknowledged and replay; if the tear cannot be cut
    /// off, every later append is refused instead of landing behind it.
    /// Either way a reopen replays exactly the acknowledged statements and
    /// appends after them again.
    #[test]
    fn a_failed_append_leaves_no_tear_behind_acknowledged_records() {
        let arms = [
            ("short write", Some(20), false),
            ("ENOSPC", Some(0), false),
            ("short write, failed trim", Some(20), true),
        ];
        for (arm, write, trim) in arms {
            let dir = tmp_dir("tear");
            let faults = Arc::new(Mutex::new(Faults::default()));
            let mut wal = Wal::open(&dir, 0, 0).unwrap().with_file(|file| Faulty {
                file,
                faults: Arc::clone(&faults),
            });
            let mut acknowledged = Vec::new();
            let mut append = |wal: &mut Wal<Faulty>, v| {
                let ops = vec![put("t", v)];
                let ok = wal.append_statement(&ops, SyncMode::Never).is_ok();
                if ok {
                    acknowledged.push(ops);
                }
                ok
            };
            assert!(append(&mut wal, 1), "{arm}");
            *faults.lock().unwrap() = Faults { write, trim };
            assert!(!append(&mut wal, 2), "{arm}: the failing append");
            faults.lock().unwrap().trim = false;
            assert_eq!(append(&mut wal, 3), !trim, "{arm}");
            assert_eq!(append(&mut wal, 4), !trim, "{arm}");
            drop(wal);

            let replay = Wal::replay(&dir, 0).unwrap();
            assert_eq!(replay.batches, acknowledged, "{arm}");
            let mut wal = Wal::open(&dir, 0, replay.clean_len).unwrap();
            wal.append_statement(&[put("t", 5)], SyncMode::Never)
                .unwrap();
            acknowledged.push(vec![put("t", 5)]);
            assert_eq!(Wal::replay(&dir, 0).unwrap().batches, acknowledged, "{arm}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
