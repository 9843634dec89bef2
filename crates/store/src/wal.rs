//! The append-only write-ahead segment log.
//!
//! The WAL is the **authoritative** copy of a node's merge log, in
//! arrival order. Everything else in the engine (the B+tree index, the
//! in-memory `MergeLog` it recovers into) is derived from it.
//!
//! # On-disk format
//!
//! A log is a directory of segment files `wal-<index>.seg` (8-digit
//! zero-padded decimal index, strictly increasing). Bytes are addressed
//! by one **global offset**: the concatenation of all segments in index
//! order. A segment is a sequence of records:
//!
//! ```text
//! record   := len:u32le  crc:u32le  payload
//! payload  := key:10 bytes (StoreKey, big-endian)  value bytes
//! ```
//!
//! `len` is the payload length; `crc` is CRC-32 (IEEE) over the
//! payload. A record is valid iff its full `8 + len` bytes are present
//! and the checksum matches.
//!
//! # The write buffer
//!
//! [`Wal::append`] encodes each record into an in-process buffer that
//! only ever holds *whole* records; the buffer is written to the active
//! segment in one `write(2)` when it fills and at every point that
//! reads or cuts the files ([`Wal::sync`], rotation, [`Wal::for_each`],
//! [`Wal::crash`], drop). So the bytes on disk are always a
//! record-aligned prefix of the logical log ([`Wal::len`]), and what
//! another process sees of a live log ([`Wal::inspect`]) never ends in
//! a half-written record. `docs/storage.md` spells out what each kind
//! of exit keeps.
//!
//! # Torn tails
//!
//! Appends can be cut anywhere by a crash, so [`Wal::open`] scans
//! every segment in order and **truncates at the first invalid
//! record**: the file is cut back to the last valid record boundary,
//! later segments are deleted, and `store.wal_torn_truncations` is
//! incremented. Because records are only ever appended and `sync` is a
//! barrier, everything before the torn point is exactly the prefix of
//! appends that reached the disk — which is what makes recovery produce
//! a *prefix* of the node's arrival order (see `docs/storage.md`).

use crate::codec::{StoreKey, KEY_BYTES};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Per-record framing overhead in bytes (`len` + `crc`).
pub const RECORD_HEADER: u64 = 8;

/// CRC-32 (IEEE 802.3, reflected) over `data` — the standard `crc32`
/// polynomial, eight bytes per step (slicing-by-8): table `k` holds the
/// CRC of a byte followed by `k` zero bytes, so the eight lookups of one
/// step are independent and only the xor chain is serial. Zero
/// dependencies is a crate invariant, so the lazily built tables (8 KiB)
/// live here.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Tuning knobs for a [`Wal`].
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the active one reaches this many
    /// bytes. Small values exercise rotation; production-ish values
    /// amortise file-table overhead.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    /// 1 MiB segments.
    fn default() -> Self {
        WalOptions {
            segment_bytes: 1 << 20,
        }
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenReport {
    /// Valid records recovered.
    pub entries: usize,
    /// Whether a torn tail was truncated away.
    pub torn: bool,
    /// Bytes dropped by the truncation.
    pub truncated_bytes: u64,
}

struct Segment {
    index: u64,
    /// Global offset of this segment's first byte.
    start: u64,
    /// Bytes of valid records in this segment.
    len: u64,
}

/// Write-buffer capacity. Measured on 107-byte records (a streamed row),
/// rotation excluded, two passes per size: 1 KiB buffers cost 218–244 ns
/// per append, 4 KiB 170–200, 16 KiB 151–176, 64 KiB 129–173, 256 KiB
/// 127–148 — against 760–990 ns for a `write(2)` per record. The call
/// is amortised away by 64 KiB (~600 records per call); a larger buffer
/// only adds resident memory per open log.
const WRITE_BUFFER: usize = 64 << 10;

/// An open write-ahead log. See the module docs for the format.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    /// Lengths are logical: the active segment's includes `buffer`.
    segments: Vec<Segment>,
    active: File,
    /// Whole records appended but not yet written to `active`.
    buffer: Vec<u8>,
    /// Global end offset (sum of segment lengths).
    len: u64,
    /// Global offset up to which data is known durable (fsync barrier).
    synced: u64,
    entries: usize,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.seg"))
}

fn list_segments(dir: &Path) -> io::Result<Vec<u64>> {
    let mut indices = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
        {
            if let Ok(i) = num.parse::<u64>() {
                indices.push(i);
            }
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

/// Scans one segment file, calling `f` for each valid record, and
/// returns `(valid_bytes, records, file_bytes)` — `valid_bytes <
/// file_bytes` means the tail is torn.
fn scan_segment(path: &Path, mut f: impl FnMut(StoreKey, &[u8])) -> io::Result<(u64, usize, u64)> {
    let file = File::open(path)?;
    let file_bytes = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut good = 0u64;
    let mut records = 0usize;
    let mut header = [0u8; 8];
    let mut payload = Vec::new();
    loop {
        match r.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len < KEY_BYTES || good + RECORD_HEADER + len as u64 > file_bytes {
            break;
        }
        payload.resize(len, 0);
        if r.read_exact(&mut payload).is_err() || crc32(&payload) != crc {
            break;
        }
        let mut key = [0u8; KEY_BYTES];
        key.copy_from_slice(&payload[..KEY_BYTES]);
        f(StoreKey::from_bytes(&key), &payload[KEY_BYTES..]);
        good += RECORD_HEADER + len as u64;
        records += 1;
    }
    Ok((good, records, file_bytes))
}

impl Wal {
    /// Opens (creating if absent) the log in `dir`, validating every
    /// record and truncating the first torn tail found. Everything the
    /// open scan accepted is treated as durable (`synced == len`).
    pub fn open(dir: &Path, opts: WalOptions) -> io::Result<(Wal, OpenReport)> {
        fs::create_dir_all(dir)?;
        let mut indices = list_segments(dir)?;
        if indices.is_empty() {
            File::create(segment_path(dir, 0))?;
            indices.push(0);
        }
        let mut report = OpenReport::default();
        let mut segments = Vec::new();
        let mut offset = 0u64;
        let mut keep = indices.len();
        for (i, &index) in indices.iter().enumerate() {
            let path = segment_path(dir, index);
            let (good, records, file_bytes) = scan_segment(&path, |_, _| {})?;
            report.entries += records;
            segments.push(Segment {
                index,
                start: offset,
                len: good,
            });
            offset += good;
            if good < file_bytes {
                // Torn tail: cut this segment back and drop the rest.
                report.torn = true;
                report.truncated_bytes += file_bytes - good;
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(good)?;
                f.sync_data()?;
                keep = i + 1;
                break;
            }
        }
        for &index in &indices[keep..] {
            let path = segment_path(dir, index);
            report.torn = true;
            report.truncated_bytes += fs::metadata(&path)?.len();
            fs::remove_file(&path)?;
        }
        if report.torn {
            shard_obs::counter!("store.wal_torn_truncations", crate::family).inc();
        }
        let active_path = segment_path(dir, segments.last().expect("at least one segment").index);
        let mut active = OpenOptions::new().append(true).open(&active_path)?;
        active.seek(SeekFrom::End(0))?;
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                opts,
                segments,
                active,
                buffer: Vec::with_capacity(WRITE_BUFFER),
                len: offset,
                synced: offset,
                entries: report.entries,
            },
            report,
        ))
    }

    /// Global end offset in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Global offset up to which appends are known durable.
    pub fn synced(&self) -> u64 {
        self.synced
    }

    /// Valid records in the log.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Appends one record and returns the global offset *after* it.
    /// The bytes sit in the write buffer or the OS page cache, **not
    /// durable**, until the next [`Wal::sync`].
    pub fn append(&mut self, key: StoreKey, value: &[u8]) -> io::Result<u64> {
        let tail = self.segments.last().expect("at least one segment");
        if tail.len >= self.opts.segment_bytes {
            self.rotate()?;
        }
        let len = u32::try_from(KEY_BYTES + value.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("WAL record for {key:?}: {} value bytes", value.len()),
            )
        })?;
        let record = RECORD_HEADER as usize + len as usize;
        if self.buffer.len() + record > WRITE_BUFFER {
            self.flush()?;
        }
        let start = self.buffer.len();
        self.buffer.extend_from_slice(&len.to_le_bytes());
        self.buffer.extend_from_slice(&[0u8; 4]);
        self.buffer.extend_from_slice(&key.to_bytes());
        self.buffer.extend_from_slice(value);
        let crc = crc32(&self.buffer[start + RECORD_HEADER as usize..]);
        self.buffer[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        let tail = self.segments.last_mut().expect("at least one segment");
        tail.len += record as u64;
        self.len += record as u64;
        self.entries += 1;
        shard_obs::counter!("store.wal_appends", crate::family).inc();
        Ok(self.len)
    }

    /// Writes the buffered records to the active segment: after this
    /// the files hold every appended byte (in the OS cache, not yet
    /// durable).
    fn flush(&mut self) -> io::Result<()> {
        if !self.buffer.is_empty() {
            self.active.write_all(&self.buffer)?;
            self.buffer.clear();
            shard_obs::counter!("store.wal_writes", crate::family).inc();
        }
        Ok(())
    }

    /// `sync_data` on the active segment, timed and counted.
    fn fsync(&mut self) -> io::Result<()> {
        let started = std::time::Instant::now();
        self.active.sync_data()?;
        shard_obs::histogram!("store.wal_fsync_us", crate::family)
            .record(started.elapsed().as_micros() as u64);
        shard_obs::counter!("store.wal_fsyncs", crate::family).inc();
        Ok(())
    }

    /// Fsync barrier: after this returns, every appended byte survives
    /// a crash. No-op (and not counted) when nothing is outstanding.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.synced < self.len {
            self.flush()?;
            self.fsync()?;
            self.synced = self.len;
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // The outgoing segment is made durable before it is closed, so
        // `synced` never points into a closed, unsynced file.
        self.flush()?;
        self.fsync()?;
        let closed = self.segments.last().expect("at least one segment");
        self.synced = self.synced.max(closed.start + closed.len);
        let index = closed.index + 1;
        let start = closed.start + closed.len;
        let path = segment_path(&self.dir, index);
        self.active = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        self.segments.push(Segment {
            index,
            start,
            len: 0,
        });
        Ok(())
    }

    /// Streams every record in append (arrival) order.
    pub fn for_each(&mut self, mut f: impl FnMut(StoreKey, &[u8])) -> io::Result<()> {
        self.flush()?;
        for seg in &self.segments {
            scan_segment(&segment_path(&self.dir, seg.index), &mut f)?;
        }
        Ok(())
    }

    /// Simulates a crash that preserved exactly the first `keep` bytes
    /// of the global stream — of everything appended, buffered or not:
    /// consumes the log, truncates the files to `keep` (deleting later
    /// segments), and returns the directory for reopening. `keep` may
    /// fall mid-record — [`Wal::open`] will drop the torn record.
    /// Callers model honest hardware by passing `keep >= synced()`;
    /// nothing enforces it here.
    pub fn crash(mut self, keep: u64) -> io::Result<PathBuf> {
        self.flush()?;
        for seg in &self.segments {
            let path = segment_path(&self.dir, seg.index);
            if seg.start >= keep {
                fs::remove_file(&path)?;
            } else {
                let within = (keep - seg.start).min(seg.len);
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(within)?;
                f.sync_data()?;
            }
        }
        Ok(std::mem::take(&mut self.dir))
    }

    /// Read-only inspection of the log in `dir` — what `shard-trace
    /// store` prints. Unlike [`Wal::open`] this never modifies files:
    /// a torn tail is *reported*, not truncated.
    pub fn inspect(dir: &Path) -> io::Result<WalInspection> {
        let mut info = WalInspection::default();
        let mut offset = 0u64;
        for index in list_segments(dir)? {
            let path = segment_path(dir, index);
            let mut first_last = None::<(StoreKey, StoreKey)>;
            let (good, records, file_bytes) = scan_segment(&path, |key, _| {
                first_last = Some(match first_last {
                    None => (key, key),
                    Some((f, _)) => (f, key),
                });
            })?;
            if let Some((f, l)) = first_last {
                info.first_key = Some(info.first_key.unwrap_or(f).min(f));
                info.last_key = Some(info.last_key.unwrap_or(l).max(l));
            }
            info.segments.push(SegmentInfo {
                index,
                records,
                valid_bytes: good,
                file_bytes,
            });
            info.entries += records;
            info.bytes += good;
            if good < file_bytes && info.torn_at.is_none() {
                info.torn_at = Some(offset + good);
            }
            offset += file_bytes;
        }
        Ok(info)
    }
}

impl Drop for Wal {
    /// A clean exit keeps every appended record: the buffer is written
    /// out (best effort — an error here has no caller to go to; use
    /// [`Wal::sync`] where the outcome matters).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// One segment's inspection row.
#[derive(Clone, Copy, Debug)]
pub struct SegmentInfo {
    /// Segment file index.
    pub index: u64,
    /// Valid records found.
    pub records: usize,
    /// Bytes of valid records.
    pub valid_bytes: u64,
    /// Bytes in the file (`> valid_bytes` means a torn tail).
    pub file_bytes: u64,
}

/// What [`Wal::inspect`] reports about a log directory.
#[derive(Clone, Debug, Default)]
pub struct WalInspection {
    /// Per-segment detail, in index order.
    pub segments: Vec<SegmentInfo>,
    /// Valid records across all segments.
    pub entries: usize,
    /// Valid bytes across all segments.
    pub bytes: u64,
    /// Global offset of the first invalid byte, if any tail is torn.
    pub torn_at: Option<u64>,
    /// Smallest key present.
    pub first_key: Option<StoreKey>,
    /// Largest key present.
    pub last_key: Option<StoreKey>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shard-store-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn keys(wal: &mut Wal) -> Vec<u64> {
        let mut out = Vec::new();
        wal.for_each(|k, _| out.push(k.primary)).unwrap();
        out
    }

    /// The reference `crc32` is held to: one table lookup per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut crc = !0u32;
        for &b in data {
            crc = table[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc_matches_the_bytewise_reference() {
        // The standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        let mut seed = 0x5eed_c4c3_2000_0001u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let bytes: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        // Every start alignment, every length around the 8-byte step,
        // and random lengths up to a page.
        for start in 0..8usize {
            let lens = (0..=72usize).chain((0..64).map(|_| (next() % 4097) as usize));
            for len in lens {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn append_reopen_round_trip() {
        let dir = tmp("roundtrip");
        let (mut wal, r) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(r.entries, 0);
        for i in 0..100u64 {
            wal.append(StoreKey::new(i, 0), &i.to_be_bytes()).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let (mut wal, r) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(r.entries, 100);
        assert!(!r.torn);
        assert_eq!(keys(&mut wal), (0..100).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spans_segments() {
        let dir = tmp("rotate");
        let opts = WalOptions { segment_bytes: 64 };
        let (mut wal, _) = Wal::open(&dir, opts).unwrap();
        for i in 0..50u64 {
            wal.append(StoreKey::new(i, 1), b"payload-bytes").unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segments.len() > 1, "rotation must have happened");
        drop(wal);
        let (mut wal, r) = Wal::open(&dir, opts).unwrap();
        assert_eq!(r.entries, 50);
        assert_eq!(keys(&mut wal), (0..50).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_record_boundary() {
        let dir = tmp("torn");
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        let mut boundary = 0;
        for i in 0..10u64 {
            let after = wal.append(StoreKey::new(i, 0), &[7u8; 21]).unwrap();
            if i == 6 {
                boundary = after;
            }
        }
        wal.sync().unwrap();
        // Crash mid-way through record 7.
        let dir = wal.crash(boundary + 5).unwrap();
        let (mut wal, r) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert!(r.torn);
        assert_eq!(r.entries, 7);
        assert_eq!(keys(&mut wal), (0..7).collect::<Vec<_>>());
        assert_eq!(wal.len(), boundary);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_drops_tail() {
        let dir = tmp("crc");
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        let mut start_of_2 = 0;
        for i in 0..4u64 {
            let after = wal.append(StoreKey::new(i, 0), b"abc").unwrap();
            if i == 1 {
                start_of_2 = after;
            }
        }
        wal.sync().unwrap();
        drop(wal);
        // Flip a payload byte of record 2.
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let idx = start_of_2 as usize + 8 + 3;
        bytes[idx] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let (mut wal, r) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert!(r.torn);
        assert_eq!(r.entries, 2, "records 2 and 3 dropped");
        assert_eq!(keys(&mut wal), vec![0, 1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsynced_appends_survive_a_drop_but_not_a_cut_at_the_barrier() {
        let dir = tmp("drop");
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        for i in 0..40u64 {
            wal.append(StoreKey::new(i, 0), &[3u8; 50]).unwrap();
        }
        wal.sync().unwrap();
        for i in 40..100u64 {
            wal.append(StoreKey::new(i, 0), &[3u8; 50]).unwrap();
        }
        let (synced, len) = (wal.synced(), wal.len());
        assert!(synced < len);
        // A clean exit (drop, no sync) keeps every appended record.
        drop(wal);
        let (mut wal, r) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!((r.entries, r.torn, wal.len()), (100, false, len));
        assert_eq!(keys(&mut wal), (0..100).collect::<Vec<_>>());
        // A cut at the barrier keeps exactly the synced prefix, whether
        // the tail was still buffered or already written.
        for i in 100..130u64 {
            wal.append(StoreKey::new(i, 0), &[3u8; 50]).unwrap();
        }
        let dir = wal.crash(synced).unwrap();
        let (mut wal, r) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!((r.entries, r.torn, wal.len()), (40, false, synced));
        assert_eq!(keys(&mut wal), (0..40).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_live_log_shows_other_readers_whole_records_only() {
        // Enough bytes to overflow the write buffer several times, over
        // segments small enough that rotations fall mid-buffer: at every
        // step the files hold a record-aligned prefix of the log.
        let dir = tmp("live");
        let opts = WalOptions {
            segment_bytes: 100_000,
        };
        let (mut wal, _) = Wal::open(&dir, opts).unwrap();
        let mut seen = 0;
        for i in 0..3000u64 {
            wal.append(StoreKey::new(i, 0), &[9u8; 90]).unwrap();
            if i % 97 == 0 {
                let live = Wal::inspect(&dir).unwrap();
                assert!(live.torn_at.is_none(), "partial record visible at {i}");
                assert!(live.entries >= seen && live.entries <= wal.entries());
                assert!(live.bytes <= wal.len());
                seen = live.entries;
            }
        }
        assert!(wal.segments.len() > 2 && seen > 0);
        assert!(seen < wal.entries(), "the tail is still buffered");
        wal.sync().unwrap();
        let live = Wal::inspect(&dir).unwrap();
        assert_eq!((live.entries, live.bytes), (wal.entries(), wal.len()));
        drop(wal);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inspect_reports_without_mutating() {
        let dir = tmp("inspect");
        let (mut wal, _) = Wal::open(&dir, WalOptions { segment_bytes: 80 }).unwrap();
        for i in 0..20u64 {
            wal.append(StoreKey::new(i, 2), b"xyzw").unwrap();
        }
        wal.sync().unwrap();
        let dir = wal.crash(u64::MAX).unwrap();
        let before = Wal::inspect(&dir).unwrap();
        assert_eq!(before.entries, 20);
        assert!(before.torn_at.is_none());
        assert_eq!(before.first_key.unwrap().primary, 0);
        assert_eq!(before.last_key.unwrap().primary, 19);
        assert!(before.segments.len() > 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
