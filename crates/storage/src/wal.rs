//! Write-ahead log: one CRC frame of redo per statement.
//!
//! The log is one live segment file `wal/<seq>.wal`, a run of
//! [frames](crate::frame), one per statement and its whole trigger cascade
//! (redo ops encoded with [`quark_relational::wire`], written in one
//! `write_all`): a frame's own length and checksum tell a whole statement
//! from a torn one, so no commit record is needed. [`Wal::replay`] stops
//! at the first damaged frame and [`Wal::open`] cuts the segment back to
//! it, so no later statement lands behind bytes replay cannot cross.
//!
//! **One sticky refusal.** A failure that leaves what the log holds on disk
//! unknown (a cut that fails after a failed write, a failed [`Wal::sync`],
//! a failed [`Wal::truncate_to`] or any checkpoint step the engine saw
//! fail) makes the log refuse every later append, sync and segment switch
//! before it touches a file, until a reopen's replay decides. It is never
//! lifted in place: a failed `fsync` may have dropped the pages it was to
//! write, so a later one that succeeds proves nothing about them (Rebello
//! et al., "Can Applications Recover from fsync Failures?", ATC 2020).
//!
//! **Group commit.** A frame's ticket is the number of frames appended up
//! to it; a successful [`Wal::sync`] covers every frame appended so far,
//! so a ticket at or below that watermark needs no fsync of its own.
//!
//! **One live segment.** Only a checkpoint starts a segment
//! ([`Wal::truncate_to`]) and removes the one it leaves; replay reads the
//! segment the catalog names, and [`Wal::open`] sweeps every other `*.wal`
//! file (a crash or a failed unlink can leave one behind).

use std::fmt::Display;
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

/// The file a [`Wal`] appends to: [`File`] in every build; tests put a
/// writer in front of it that fails on demand.
pub trait SegmentFile: Write + Sized {
    /// Cut the file back to its first `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Force the bytes written so far to stable storage.
    fn sync_data(&self) -> io::Result<()>;
}

impl SegmentFile for File {
    fn set_len(&self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn sync_data(&self) -> io::Result<()> {
        File::sync_data(self)
    }
}

/// Append half of the log: owns the live segment file.
#[derive(Debug)]
pub struct Wal<F = File> {
    dir: PathBuf,
    seq: u64,
    file: F,
    segment_bytes: u64,
    /// Bytes of the last frame appended, which size the next one's buffer.
    last_append: usize,
    /// Frames appended since open: the ticket of the last one.
    appended: u64,
    /// `appended` at the last successful sync: every ticket at or below it
    /// is durable.
    synced: u64,
    /// Why the log refuses every append, sync and segment switch: the
    /// first storage failure that left its state on disk unknown.
    refused: Option<String>,
}

/// Bytes [`Wal::replay`] reads at a time (a longer frame grows its buffer).
const REPLAY_READ: u64 = 1 << 16;

/// Result of replaying the live segment.
#[derive(Debug, Default)]
pub struct Replay {
    /// Whole statements handed to the caller, in log order.
    pub frames: u64,
    /// Bytes up to the segment's last whole frame: where appends resume.
    pub clean_len: u64,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{seq:010}.wal"))
}

fn io_err(what: &str, e: io::Error) -> Error {
    Error::Storage(format!("{what}: {e}"))
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
    /// segment is cut back to its first `clean_len` bytes and every other
    /// segment is removed, so the log on disk is exactly the statements
    /// replay applied (`0, 0` for a fresh log). A reopened log starts
    /// with no refusal.
    pub fn open(dir: &Path, seq: u64, clean_len: u64) -> Result<Wal> {
        fs::create_dir_all(dir).map_err(|e| io_err("create wal dir", e))?;
        let file = open_segment(dir, seq, clean_len)?;
        // Replay never reads another segment: garbage, not state. A failed
        // unlink leaves it for the next open.
        let live = segment_path(dir, seq);
        let listing = fs::read_dir(dir).map_err(|e| io_err("list wal dir", e))?;
        for path in listing.flatten().map(|entry| entry.path()) {
            if path != live && path.extension().is_some_and(|x| x == "wal") {
                let _ = fs::remove_file(path);
            }
        }
        Ok(Wal {
            dir: dir.to_path_buf(),
            seq,
            file,
            segment_bytes: clean_len,
            last_append: 0,
            appended: 0,
            synced: 0,
            refused: None,
        })
    }

    /// Replay each whole statement of segment `seq`, in order: a frame is
    /// decoded, handed to `apply` and dropped before the next.
    /// * A frame that is torn, fails its checksum or does not decode is a
    ///   tear: replay stops there, as nothing after it is known to be whole.
    /// * An `Err` of `apply` is replay's `Err`, never a tear: cutting a whole
    ///   frame off would drop acknowledged statements.
    /// * A header claiming more than the segment has left is a tear before
    ///   any payload is read: reads come in fixed chunks, never header-sized.
    pub fn replay(
        dir: &Path,
        seq: u64,
        mut apply: impl FnMut(&[RedoOp]) -> Result<()>,
    ) -> Result<Replay> {
        let mut out = Replay::default();
        let Ok(mut file) = File::open(segment_path(dir, seq)) else {
            return Ok(out);
        };
        let size = file.metadata().map_err(|e| io_err("stat wal segment", e))?;
        // One read buffer: `buf[start..]` is the segment from `clean_len`.
        let (mut buf, mut start, mut eof) = (Vec::new(), 0, false);
        loop {
            let left = size.len().saturating_sub(out.clean_len);
            match frame::peel(&buf[start..], usize::try_from(left).unwrap_or(usize::MAX)) {
                Peeled::Frame { payload, len } => {
                    let Ok(ops) = Dec::whole::<Vec<RedoOp>>(payload) else {
                        break;
                    };
                    apply(&ops)?;
                    (out.frames, out.clean_len) = (out.frames + 1, out.clean_len + len as u64);
                    start += len;
                }
                Peeled::Need if !eof => {
                    buf.drain(..start);
                    start = 0;
                    let read = (&mut file).take(REPLAY_READ).read_to_end(&mut buf);
                    eof = read.map_err(|e| io_err("read wal segment", e))? == 0;
                }
                Peeled::Need | Peeled::Bad(_) => break,
            }
        }
        Ok(out)
    }

    /// Start segment `new_seq`, above the live one, after a checkpoint:
    /// it becomes the live segment, empty, and the segment it replaces is
    /// deleted (the table images already reflect it). The only way a
    /// segment is started; a failure refuses.
    pub fn truncate_to(&mut self, new_seq: u64) -> Result<()> {
        assert!(new_seq > self.seq, "a checkpoint starts a later segment");
        self.check()?;
        self.file = open_segment(&self.dir, new_seq, 0).inspect_err(|e| self.refuse(e))?;
        let old = std::mem::replace(&mut self.seq, new_seq);
        self.segment_bytes = 0;
        // A failed unlink leaves garbage the next open sweeps.
        let _ = fs::remove_file(segment_path(&self.dir, old));
        Ok(())
    }
}

impl<F: SegmentFile> Wal<F> {
    /// The segment currently being appended to.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Frames appended since open: the last one's ticket.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// `Err` once the log refuses: called before any file is touched.
    pub(crate) fn check(&self) -> Result<()> {
        match &self.refused {
            Some(why) => Err(Error::Storage(format!(
                "wal refuses writes until the database is reopened: {why}"
            ))),
            None => Ok(()),
        }
    }

    /// Refuse every later append, sync and segment switch, because `why`
    /// left the log's state on disk unknown. The first reason is kept.
    pub(crate) fn refuse(&mut self, why: impl Display) {
        self.refused.get_or_insert_with(|| why.to_string());
    }

    /// Append one statement's redo ops as one frame; returns the bytes
    /// appended, frame header included. Its ticket is [`Wal::appended`].
    ///
    /// An `Err` means no byte of this statement is in the log: the bytes
    /// of a failed write are cut off again before the error returns. If
    /// that cut fails, the log refuses.
    ///
    /// **Does not make the statement durable.** That is [`Wal::sync`]'s
    /// job, which the engine calls at the frame's ticket (see
    /// `StorageEngine::log_statement`).
    pub fn append_statement(&mut self, ops: &[RedoOp]) -> Result<u64> {
        self.check()?;
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
                self.refuse(format!("a torn append ({e}) could not be cut off: {cut}"));
            }
            return Err(io_err("append wal record", e));
        }
        self.last_append = buf.len();
        self.segment_bytes += buf.len() as u64;
        self.appended += 1;
        Ok(buf.len() as u64)
    }

    /// Make every frame up to `ticket` durable. `Ok(false)`: an earlier
    /// sync already covered it and no fsync was issued; `Ok(true)`: this
    /// call forced everything appended so far to stable storage. A failed
    /// fsync refuses and leaves the watermark where it was: the frames it
    /// covered may or may not be durable.
    pub fn sync(&mut self, ticket: u64) -> Result<bool> {
        if ticket <= self.synced {
            return Ok(false);
        }
        self.check()?;
        self.file.sync_data().map_err(|e| {
            self.refuse(format!("fsync failed: {e}"));
            io_err("fsync wal", e)
        })?;
        self.synced = self.appended;
        Ok(true)
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

    /// Replay segment `seq`, collecting the statements handed over.
    fn replayed(dir: &Path, seq: u64) -> (Vec<Vec<RedoOp>>, Replay) {
        let mut batches = Vec::new();
        let replay = Wal::replay(dir, seq, |ops| {
            batches.push(ops.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(replay.frames, batches.len() as u64);
        (batches, replay)
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
        wal.append_statement(&[put("t", 1)]).unwrap();
        wal.append_statement(&[put("t", 2), put("t", 3)]).unwrap();
        let (batches, _) = replayed(&dir, 0);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0], vec![put("t", 1)]);
        assert_eq!(batches[1], vec![put("t", 2), put("t", 3)]);
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
        wal.append_statement(&[put("t", 1)]).unwrap();
        wal.append_statement(&[put("t", 2)]).unwrap();
        drop(wal);
        // Chop a few bytes off the end: the second statement's frame is
        // torn.
        let path = segment_path(&dir, 0);
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 5]).unwrap();
        let (batches, _) = replayed(&dir, 0);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0], vec![put("t", 1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_in_tail_detected_by_crc() {
        let dir = tmp_dir("crc");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        wal.append_statement(&[put("t", 1)]).unwrap();
        wal.append_statement(&[put("t", 2)]).unwrap();
        drop(wal);
        let path = segment_path(&dir, 0);
        let mut data = fs::read(&path).unwrap();
        let n = data.len();
        data[n - 3] ^= 0xFF; // flip a bit inside the final record
        fs::write(&path, &data).unwrap();
        let (batches, _) = replayed(&dir, 0);
        assert_eq!(batches.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The lost-acknowledged-write scenario: a lone torn statement, then a
    /// reopen that appends. Without trimming, the new statement would sit
    /// behind the tear and the next replay would never reach it.
    #[test]
    fn reopening_after_a_tear_trims_it_so_later_commits_replay() {
        type Damage = fn(&mut Vec<u8>);
        let damages: [Damage; 4] = [
            |data| data.truncate(data.len() - 5),     // torn payload
            |data| *data.last_mut().unwrap() ^= 0x40, // corrupt payload
            |data| {
                // A length header that runs past the end of the segment.
                let len = data.len() as u32;
                data[..4].copy_from_slice(&len.to_le_bytes());
            },
            // The largest length a header can claim: refused against the
            // bytes the segment has left, before anything is buffered.
            |data| data[..4].copy_from_slice(&u32::MAX.to_le_bytes()),
        ];
        for (i, damage) in damages.into_iter().enumerate() {
            let dir = tmp_dir(&format!("trim{i}"));
            let mut wal = Wal::open(&dir, 0, 0).unwrap();
            wal.append_statement(&[put("t", 1)]).unwrap();
            drop(wal);
            let path = segment_path(&dir, 0);
            let mut data = fs::read(&path).unwrap();
            damage(&mut data);
            fs::write(&path, &data).unwrap();
            // A stale later segment must not survive the reopen either.
            fs::write(segment_path(&dir, 1), b"stale").unwrap();

            let (batches, replay) = replayed(&dir, 0);
            assert!(batches.is_empty());
            assert_eq!(replay.clean_len, 0);
            let mut wal = Wal::open(&dir, 0, replay.clean_len).unwrap();
            assert!(!segment_path(&dir, 1).exists());
            wal.append_statement(&[put("t", 2)]).unwrap();
            let (batches, replay) = replayed(&dir, 0);
            assert_eq!(batches, vec![vec![put("t", 2)]], "damage {i}");
            assert_eq!(replay.clean_len, fs::metadata(&path).unwrap().len());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A segment several read buffers long, with frames that straddle a
    /// buffer boundary and one frame longer than a buffer, replays exactly
    /// the appended statements, and its clean length is the file's; torn
    /// at the end, it replays all but the last.
    #[test]
    fn a_segment_longer_than_the_read_buffer_replays_whole() {
        let dir = tmp_dir("refill");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        let statements: Vec<Vec<RedoOp>> = (0..300)
            .map(|i| {
                let body = if i == 150 {
                    3 * REPLAY_READ as usize
                } else {
                    100 + i * 37 % 1500
                };
                let row = row([Value::Int(i as i64), Value::str("x".repeat(body))]);
                vec![RedoOp::Put {
                    table: "t".into(),
                    row,
                }]
            })
            .collect();
        let mut ends = vec![0];
        for ops in &statements {
            ends.push(ends.last().unwrap() + wal.append_statement(ops).unwrap());
        }
        drop(wal);
        let buffer = |at: u64| at / REPLAY_READ;
        let straddling = ends.windows(2).filter(|w| buffer(w[0]) < buffer(w[1] - 1));
        assert!(straddling.count() > 3, "frames cross buffer boundaries");
        assert!(ends.windows(2).any(|w| w[1] - w[0] > 2 * REPLAY_READ));

        let (batches, replay) = replayed(&dir, 0);
        assert_eq!(batches, statements);
        assert_eq!(replay.clean_len, *ends.last().unwrap());
        let path = segment_path(&dir, 0);
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 5]).unwrap();
        let (batches, replay) = replayed(&dir, 0);
        assert_eq!(batches, statements[..statements.len() - 1]);
        assert_eq!(replay.clean_len, ends[ends.len() - 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A segment switch that fails (here a directory sits at the new
    /// segment's path, which nobody can open for writing: `EISDIR`, root
    /// included) refuses every later append, sync and switch, even once the
    /// path is free: the checkpoint's catalog may already name the new
    /// segment, so a frame appended to the old one would be acknowledged
    /// and never replayed. Replay returns exactly the acknowledged
    /// statements, and a reopened log accepts appends again.
    #[test]
    fn a_failed_segment_switch_refuses_later_appends() {
        let dir = tmp_dir("switch");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        wal.append_statement(&[put("t", 1)]).unwrap();
        fs::create_dir(segment_path(&dir, 1)).unwrap();
        assert!(wal.truncate_to(1).is_err());
        fs::remove_dir(segment_path(&dir, 1)).unwrap();
        assert!(wal.append_statement(&[put("t", 2)]).is_err());
        assert!(wal.sync(wal.appended()).is_err());
        assert!(wal.truncate_to(1).is_err());
        assert!(
            !segment_path(&dir, 1).exists(),
            "a refused switch touches no file"
        );
        drop(wal);

        let (batches, replay) = replayed(&dir, 0);
        assert_eq!(batches, vec![vec![put("t", 1)]]);
        let mut wal = Wal::open(&dir, 0, replay.clean_len).unwrap();
        wal.append_statement(&[put("t", 3)]).unwrap();
        let (batches, _) = replayed(&dir, 0);
        assert_eq!(batches, vec![vec![put("t", 1)], vec![put("t", 3)]]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_to_starts_a_fresh_sequence() {
        let dir = tmp_dir("trunc");
        let mut wal = Wal::open(&dir, 0, 0).unwrap();
        wal.append_statement(&[put("t", 1)]).unwrap();
        wal.truncate_to(1).unwrap();
        let (batches, _) = replayed(&dir, 1);
        assert!(batches.is_empty());
        assert!(!segment_path(&dir, 0).exists());
        wal.append_statement(&[put("t", 2)]).unwrap();
        let (batches, replay) = replayed(&dir, 1);
        assert_eq!(batches, vec![vec![put("t", 2)]]);
        // A segment a crash left below the live one: a reopen removes it,
        // and the next truncation takes the live one.
        drop(wal);
        fs::write(segment_path(&dir, 0), b"left by a crash").unwrap();
        let mut wal = Wal::open(&dir, 1, replay.clean_len).unwrap();
        assert!(!segment_path(&dir, 0).exists());
        assert_eq!(replayed(&dir, 1).0, vec![vec![put("t", 2)]]);
        wal.truncate_to(2).unwrap();
        assert!(!segment_path(&dir, 1).exists());
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
            wal.append_statement(ops).unwrap();
        }
        let data = fs::read(segment_path(&dir, 0)).unwrap();
        assert_eq!((data.len(), fnv1a(&data)), (32_958, 0x9f16_567e_a6f2_5e1f));
        assert_eq!(replayed(&dir, 0).0, statements);
        let _ = fs::remove_dir_all(&dir);
    }

    /// What the next write, trim and sync of a [`Faulty`] segment do.
    #[derive(Debug, Default)]
    struct Faults {
        /// Fail the next write after this many of its bytes reach the
        /// file: a short write, then a full disk (`Some(0)`: no byte).
        write: Option<usize>,
        /// Fail every trim.
        trim: bool,
        /// Fail every sync.
        sync: bool,
        /// Syncs that reached the file, failed ones included.
        syncs: usize,
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
            let mut faults = self.faults.lock().unwrap();
            faults.syncs += 1;
            if faults.sync {
                return Err(io::Error::other("fsync refused"));
            }
            self.file.sync_data()
        }
    }

    /// A log over a [`Faulty`] writer in a fresh directory, and its faults.
    fn faulty_wal(dir: &Path) -> (Wal<Faulty>, Arc<Mutex<Faults>>) {
        let faults = Arc::new(Mutex::new(Faults::default()));
        let wal = Wal::open(dir, 0, 0).unwrap();
        let file = Faulty {
            file: wal.file,
            faults: Arc::clone(&faults),
        };
        let wal = Wal {
            dir: wal.dir,
            seq: wal.seq,
            file,
            segment_bytes: wal.segment_bytes,
            last_append: wal.last_append,
            appended: wal.appended,
            synced: wal.synced,
            refused: wal.refused,
        };
        (wal, faults)
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
            let (mut wal, faults) = faulty_wal(&dir);
            let mut acknowledged = Vec::new();
            let mut append = |wal: &mut Wal<Faulty>, v| {
                let ops = vec![put("t", v)];
                let ok = wal.append_statement(&ops).is_ok();
                if ok {
                    acknowledged.push(ops);
                }
                ok
            };
            assert!(append(&mut wal, 1), "{arm}");
            *faults.lock().unwrap() = Faults {
                write,
                trim,
                ..Faults::default()
            };
            assert!(!append(&mut wal, 2), "{arm}: the failing append");
            faults.lock().unwrap().trim = false;
            assert_eq!(append(&mut wal, 3), !trim, "{arm}");
            assert_eq!(append(&mut wal, 4), !trim, "{arm}");
            drop(wal);

            let (batches, replay) = replayed(&dir, 0);
            assert_eq!(batches, acknowledged, "{arm}");
            let mut wal = Wal::open(&dir, 0, replay.clean_len).unwrap();
            wal.append_statement(&[put("t", 5)]).unwrap();
            acknowledged.push(vec![put("t", 5)]);
            assert_eq!(replayed(&dir, 0).0, acknowledged, "{arm}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A failed sync refuses every later append and sync, even once the
    /// device would take them again, and neither reaches the file: the
    /// frames the failed sync covered may or may not be durable, and a
    /// later sync that succeeds proves nothing about pages the failed one
    /// dropped. Replay returns every frame appended before it, and a
    /// reopened log appends and syncs again.
    #[test]
    fn a_failed_sync_refuses_later_appends_and_syncs() {
        let dir = tmp_dir("sync");
        let (mut wal, faults) = faulty_wal(&dir);
        wal.append_statement(&[put("t", 1)]).unwrap();
        assert!(wal.sync(wal.appended()).unwrap());
        wal.append_statement(&[put("t", 2)]).unwrap();
        faults.lock().unwrap().sync = true;
        assert!(wal.sync(wal.appended()).is_err());
        faults.lock().unwrap().sync = false;
        let len = fs::metadata(segment_path(&dir, 0)).unwrap().len();
        assert!(wal.append_statement(&[put("t", 3)]).is_err());
        assert!(wal.sync(wal.appended()).is_err());
        assert_eq!(fs::metadata(segment_path(&dir, 0)).unwrap().len(), len);
        assert_eq!(
            faults.lock().unwrap().syncs,
            2,
            "a refused sync reached the file"
        );
        drop(wal);

        let (batches, replay) = replayed(&dir, 0);
        assert_eq!(batches, vec![vec![put("t", 1)], vec![put("t", 2)]]);
        let mut wal = Wal::open(&dir, 0, replay.clean_len).unwrap();
        wal.append_statement(&[put("t", 4)]).unwrap();
        assert!(wal.sync(wal.appended()).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The group-commit watermark at the injectable seam. A successful
    /// sync covers every frame appended before it: a ticket at or below
    /// the watermark takes no fsync, one above it does. A failed sync
    /// leaves the watermark where it was, so the ticket it failed for is
    /// not covered, and the next sync at that ticket is refused without
    /// reaching the file; a ticket the watermark covers still needs none.
    #[test]
    fn a_sync_covers_every_frame_appended_before_it() {
        let dir = tmp_dir("watermark");
        let (mut wal, faults) = faulty_wal(&dir);
        let syncs = || faults.lock().unwrap().syncs;
        let mut tickets = Vec::new();
        for v in 1..=3 {
            wal.append_statement(&[put("t", v)]).unwrap();
            tickets.push(wal.appended());
        }
        assert_eq!(tickets, [1, 2, 3]);
        assert!(wal.sync(tickets[1]).unwrap(), "an uncovered ticket syncs");
        assert_eq!(syncs(), 1);
        for &ticket in &tickets {
            assert!(!wal.sync(ticket).unwrap(), "ticket {ticket} is covered");
        }
        assert_eq!(syncs(), 1, "a covered ticket takes no fsync");

        wal.append_statement(&[put("t", 4)]).unwrap();
        let ticket = wal.appended();
        faults.lock().unwrap().sync = true;
        assert!(wal.sync(ticket).is_err());
        faults.lock().unwrap().sync = false;
        assert_eq!(syncs(), 2);
        assert!(
            wal.sync(ticket).is_err(),
            "the failed ticket stays uncovered"
        );
        assert_eq!(syncs(), 2, "a refused sync reached the file");
        assert!(!wal.sync(tickets[2]).unwrap(), "the watermark stands");
        let _ = fs::remove_dir_all(&dir);
    }
}
