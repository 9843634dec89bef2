//! [`DiskStore`]: the append-only write-ahead segment log — and,
//! because the log is appended in key order, its own index.
//!
//! The log is the **authoritative** copy of a node's merge log, in
//! arrival order, and the only copy of anything a store holds.
//! Everything else in the engine (the in-memory `MergeLog` it recovers
//! into) is derived from it.
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
//! An append encodes each record into an in-process buffer that only
//! ever holds *whole* records; the buffer is written to the active
//! segment in one `write(2)` when it fills and at every point that
//! reads or cuts the files (`sync`, rotation, `scan_arrival`,
//! `scan_key_range`, `crash`, drop). So the bytes on disk are always a
//! record-aligned prefix of the logical log (`len_bytes`), and what
//! another process sees of a live log ([`DiskStore::inspect`]) never
//! ends in a half-written record. `docs/storage.md` spells out what
//! each kind of exit keeps.
//!
//! # Torn tails, and only tails
//!
//! Appends can be cut anywhere by a crash, so [`DiskStore::open`]
//! validates every record of every segment. A rotation fsyncs the
//! segment it closes before the next one exists, so only the **last**
//! segment can be torn: it is cut back to its last valid record boundary
//! and `store.wal_torn_truncations` is incremented. Because records are
//! only ever appended and `sync` is a barrier, everything before the
//! torn point is exactly the prefix of appends that reached the disk —
//! which is what makes recovery produce a *prefix* of the node's
//! arrival order (see `docs/storage.md`). An invalid record in a
//! *closed* segment is not a crash's doing; `open` refuses the log with
//! `InvalidData` naming segment and offset and touches no file.
//!
//! # Key-order reads
//!
//! Each segment remembers the key of its first record (its **fence**)
//! and the log remembers whether every key so far was at or above the
//! one before it — both observed from the records, by the pass `open`
//! makes anyway and by every append. On such a log `scan_key_range`
//! seeks: binary search over the fences (or the position the last scan
//! stopped at, whichever is further along), then sequential blocks,
//! records parsed in place and CRC-checked. On any other log — a node
//! mirror, whose arrival order is not key order and which no traffic
//! reads by key — it sorts, per call.

use crate::codec::{StoreKey, KEY_BYTES};
use crate::store::{CrashReport, Store, StoreOptions};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Per-record framing overhead in bytes (`len` + `crc`).
const RECORD_HEADER: u64 = 8;

/// Bytes one record takes in the log (`header + key + value`) — and in
/// a `MemStore`'s accounting of one.
pub(crate) fn record_bytes(value_len: usize) -> u64 {
    RECORD_HEADER + (KEY_BYTES + value_len) as u64
}

/// CRC-32 (IEEE 802.3, reflected) over `data` — the standard `crc32`
/// polynomial, eight bytes per step (slicing-by-8): table `k` holds the
/// CRC of a byte followed by `k` zero bytes, so the eight lookups of one
/// step are independent and only the xor chain is serial. Zero
/// dependencies is a crate invariant, so the lazily built tables (8 KiB)
/// live here.
fn crc32(data: &[u8]) -> u32 {
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

struct Segment {
    index: u64,
    /// Global offset of this segment's first byte.
    start: u64,
    /// Bytes of valid records in this segment.
    len: u64,
    /// The fence: the key of this segment's first record. `None` while
    /// it holds none, which only the last segment ever does (a rotation
    /// leaves a record behind it), so the fences of a log in key order
    /// never decrease.
    first_key: Option<StoreKey>,
}

/// What a log's keys have looked like so far, a record at a time —
/// for a [`DiskStore`] and a [`MemStore`](crate::MemStore) alike.
#[derive(Clone, Copy)]
pub(crate) struct KeyOrder {
    pub(crate) max: Option<StoreKey>,
    /// Whether every key was at or above the one before it.
    pub(crate) ascending: bool,
}

impl KeyOrder {
    pub(crate) const EMPTY: KeyOrder = KeyOrder {
        max: None,
        ascending: true,
    };

    pub(crate) fn push(&mut self, key: StoreKey) {
        self.ascending &= self.max.is_none_or(|max| max <= key);
        self.max = self.max.max(Some(key));
    }
}

/// Write-buffer capacity. Measured on 107-byte records (a streamed row),
/// rotation excluded, two passes per size: 1 KiB buffers cost 218–244 ns
/// per append, 4 KiB 170–200, 16 KiB 151–176, 64 KiB 129–173, 256 KiB
/// 127–148 — against 760–990 ns for a `write(2)` per record. The call
/// is amortised away by 64 KiB (~600 records per call); a larger buffer
/// only adds resident memory per open log.
const WRITE_BUFFER: usize = 64 << 10;

/// Bytes a reader asks a segment file for at a time. Measured on a full
/// `KeyCursor::new(1024)` pass over 10⁶ 107-byte records, 20 rounds per
/// size interleaved in one process, min–median ns per row: 4 KiB
/// 123–139, 8 KiB 114–123, 16 KiB 112–120, 32 KiB 114–119, 64 KiB
/// 112–118, 128 KiB 112–118, 1 MiB 160–183. Time does not tell 8 KiB
/// from 128 KiB, so bytes do: a refill stops mid-block and the next one
/// reads that block's tail again — 5 % of the pass at 16 KiB (7 % over
/// E25's rows), 21–26 % at 64 KiB, 5.8× at 1 MiB — and the buffer is
/// resident per open log that has been read.
const READ_BLOCK: usize = 16 << 10;

/// The disk store: an open write-ahead log, which is all of it —
/// arrival order is the file order, and key order is a seek into a log
/// appended in key order (a sort of one that was not). Opt in by
/// opening an explicit directory. See the module docs for the format.
pub struct DiskStore {
    dir: PathBuf,
    /// Rotate to a fresh segment once the active one reaches this many
    /// bytes ([`StoreOptions::segment_bytes`]).
    segment_bytes: u64,
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
    /// Whether the log is in key order, and its largest key. Decides
    /// how `scan_key_range` reads; never configured.
    keys: KeyOrder,
    /// Where the last key scan of a log in key order stopped: the key
    /// it handed out last and the position just past that record, as
    /// `(segment position, offset in it)`. Every record before it has a
    /// key at or below that one, so a scan from a larger key may start
    /// here — which makes a [`KeyCursor`](crate::KeyCursor) refill cost
    /// its batch instead of half a segment. Never changes an answer.
    resume: Option<(StoreKey, usize, u64)>,
    /// The block buffer reads parse records out of, reused.
    read_buf: Vec<u8>,
}

// Vestige of the B+tree this store no longer has: the frozen benchmark
// reads `depth` and `total_pages` off `index_stats()`
// (`benchmark/src/layers.rs:315–317`). One level of fences, no pages;
// goes with ROADMAP item 1.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct IndexStats {
    pub depth: usize,
    pub total_pages: usize,
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

/// `InvalidData` for bytes of segment `index` that were a record when
/// the log last vouched for them and are not one now.
fn corrupt(index: u64, at: u64, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("WAL segment {index} (wal-{index:08}.seg), offset {at}: {what}"),
    )
}

/// A forward reader over bytes `at..end` of one segment file: whole
/// blocks in, records parsed **in place** out of a buffer the caller
/// reuses from segment to segment. Never asks the file for a byte at or
/// past `end`, so what it asks for is what it gets.
struct SegmentReader<'a> {
    file: &'a mut File,
    /// `buf[head..]` is read and not yet parsed.
    buf: &'a mut Vec<u8>,
    head: usize,
    /// Segment offset of `buf[head]` — where the next record starts.
    at: u64,
    end: u64,
    /// Bytes asked of the file so far.
    asked: u64,
}

impl<'a> SegmentReader<'a> {
    fn new(file: &'a mut File, at: u64, end: u64, buf: &'a mut Vec<u8>) -> io::Result<Self> {
        file.seek(SeekFrom::Start(at))?;
        buf.clear();
        Ok(SegmentReader {
            file,
            buf,
            head: 0,
            at,
            end,
            asked: 0,
        })
    }

    /// Whether `n` unparsed bytes are buffered, after reading what that
    /// takes: a block — or the rest of the file if that is shorter, or
    /// the rest of a record if that is longer. `false` when fewer than
    /// `n` bytes are left below `end`, which also bounds what a corrupt
    /// length field can make this allocate.
    fn have(&mut self, n: usize) -> io::Result<bool> {
        let buffered = self.buf.len() - self.head;
        if buffered >= n {
            return Ok(true);
        }
        let left = self.end.saturating_sub(self.at + buffered as u64);
        let missing = n - buffered;
        if missing as u64 > left {
            return Ok(false);
        }
        let want = missing.max(left.min(READ_BLOCK as u64) as usize);
        self.buf.drain(..self.head);
        self.head = 0;
        self.buf.resize(buffered + want, 0);
        self.file.read_exact(&mut self.buf[buffered..])?;
        self.asked += want as u64;
        Ok(true)
    }

    /// The next record, or `None` at the first byte that does not start
    /// a whole, checksummed record below `end`: `self.at` is then that
    /// byte — `end` itself for a segment read through.
    fn next(&mut self) -> io::Result<Option<(StoreKey, &[u8])>> {
        const HEADER: usize = RECORD_HEADER as usize;
        if !self.have(HEADER)? {
            return Ok(None);
        }
        let h = &self.buf[self.head..];
        let len = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
        let crc = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
        if len < KEY_BYTES || !self.have(HEADER + len)? {
            return Ok(None);
        }
        let payload = &self.buf[self.head + HEADER..self.head + HEADER + len];
        if crc32(payload) != crc {
            return Ok(None);
        }
        self.head += HEADER + len;
        self.at += (HEADER + len) as u64;
        let (key, value) = payload
            .split_first_chunk::<KEY_BYTES>()
            .expect("len >= KEY_BYTES");
        Ok(Some((StoreKey::from_bytes(key), value)))
    }
}

/// Parses the records of `seg` from offset `at` on, handing `f` each
/// one's offset, key and value until it returns `false`. Returns the
/// bytes it asked the file for.
///
/// # Errors
///
/// I/O errors, and `InvalidData` naming segment and offset for bytes
/// below the segment's length that are not a valid record — they were
/// one when the log was opened or appended.
fn read_segment(
    dir: &Path,
    seg: &Segment,
    at: u64,
    buf: &mut Vec<u8>,
    mut f: impl FnMut(u64, StoreKey, &[u8]) -> bool,
) -> io::Result<u64> {
    let mut file = File::open(segment_path(dir, seg.index))?;
    let mut reader = SegmentReader::new(&mut file, at, seg.len, buf)?;
    loop {
        let offset = reader.at;
        match reader.next()? {
            Some((key, value)) => {
                if !f(offset, key, value) {
                    break;
                }
            }
            None if offset < seg.len => {
                return Err(corrupt(seg.index, offset, "invalid record"));
            }
            None => break,
        }
    }
    Ok(reader.asked)
}

impl DiskStore {
    /// Opens (creating if absent) the store in `dir`: one pass validates
    /// every record, fills each segment's fence and observes whether
    /// the log is in key order; a torn tail of the last segment is
    /// truncated. Everything the pass accepted is treated as durable
    /// (`synced_bytes == len_bytes`). Returns the store and the records
    /// recovered.
    ///
    /// # Errors
    ///
    /// I/O errors, and `InvalidData` naming segment and offset — with
    /// no file touched — for a closed segment that holds an invalid
    /// record, or none at all: a rotation fsyncs the segment it closes
    /// and closes none without a record, so neither is a torn tail.
    pub fn open(dir: &Path, opts: StoreOptions) -> io::Result<(DiskStore, usize)> {
        fs::create_dir_all(dir)?;
        if list_segments(dir)?.is_empty() {
            File::create(segment_path(dir, 0))?;
        }
        // The pass is `inspect`'s; what to do about what it found is
        // decided here.
        let found = DiskStore::inspect(dir)?;
        let mut segments = Vec::with_capacity(found.segments.len());
        let mut offset = 0u64;
        for (i, seg) in found.segments.iter().enumerate() {
            let (index, good) = (seg.index, seg.valid_bytes);
            let closed = i + 1 < found.segments.len();
            if closed && good < seg.file_bytes {
                return Err(corrupt(index, good, "invalid record in a closed segment"));
            }
            if closed && seg.first_key.is_none() {
                return Err(corrupt(index, 0, "a closed segment without a record"));
            }
            if good < seg.file_bytes {
                let f = OpenOptions::new()
                    .write(true)
                    .open(segment_path(dir, index))?;
                f.set_len(good)?;
                f.sync_data()?;
                shard_obs::counter!("store.wal_torn_truncations", crate::family).inc();
            }
            segments.push(Segment {
                index,
                start: offset,
                len: good,
                first_key: seg.first_key,
            });
            offset += good;
        }
        let active_path = segment_path(dir, segments.last().expect("at least one segment").index);
        let mut active = OpenOptions::new().append(true).open(&active_path)?;
        active.seek(SeekFrom::End(0))?;
        shard_obs::counter!("store.recovered_entries", crate::family).add(found.entries as u64);
        let store = DiskStore {
            dir: dir.to_path_buf(),
            segment_bytes: opts.segment_bytes,
            segments,
            active,
            buffer: Vec::with_capacity(WRITE_BUFFER),
            len: offset,
            synced: offset,
            entries: found.entries,
            keys: KeyOrder {
                max: found.last_key,
                ascending: found.in_key_order,
            },
            resume: None,
            read_buf: Vec::new(),
        };
        Ok((store, found.entries))
    }

    #[doc(hidden)]
    pub fn index_stats(&self) -> io::Result<IndexStats> {
        Ok(IndexStats {
            depth: 1,
            total_pages: 0,
        })
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

    fn rotate(&mut self) -> io::Result<()> {
        // The outgoing segment is made durable before it is closed, so
        // `synced` never points into a closed, unsynced file — and a
        // closed segment is never torn.
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
            first_key: None,
        });
        Ok(())
    }

    /// `scan_key_range` over a log in key order: the log is the sorted
    /// run, so seek and read on.
    fn scan_in_key_order(
        &mut self,
        from: StoreKey,
        f: &mut dyn FnMut(StoreKey, &[u8]) -> bool,
        asked: &mut u64,
    ) -> io::Result<()> {
        // Everything before the last segment whose fence is below
        // `from` is below `from` (a fence *equal* to it may continue a
        // run of that key from the segment before); so is everything
        // before the remembered position, if its key is.
        let fence = self
            .segments
            .partition_point(|s| s.first_key.is_some_and(|k| k < from));
        let mut start = (fence.saturating_sub(1), 0);
        if let Some((key, segment, offset)) = self.resume {
            if key < from {
                start = start.max((segment, offset));
            }
        }
        let mut last = None;
        let mut stopped = None;
        for (i, seg) in self.segments.iter().enumerate().skip(start.0) {
            let at = if i == start.0 { start.1 } else { 0 };
            *asked += read_segment(
                &self.dir,
                seg,
                at,
                &mut self.read_buf,
                |offset, key, value| {
                    if key < from || last == Some(key) {
                        return true;
                    }
                    last = Some(key);
                    if f(key, value) {
                        return true;
                    }
                    stopped = Some((key, i, offset + record_bytes(value.len())));
                    false
                },
            )?;
            if stopped.is_some() {
                self.resume = stopped;
                break;
            }
        }
        Ok(())
    }

    /// `scan_key_range` over a log that is *not* in key order: one pass
    /// for the keys at or above `from` and where their records are, a
    /// stable sort (the first writer of a key stays first), and a
    /// read-back in key order. Stateless, O(n log n) a call.
    fn scan_sorting(
        &mut self,
        from: StoreKey,
        f: &mut dyn FnMut(StoreKey, &[u8]) -> bool,
        asked: &mut u64,
    ) -> io::Result<()> {
        let mut found: Vec<(StoreKey, usize, u64, u64)> = Vec::new();
        for (i, seg) in self.segments.iter().enumerate() {
            *asked += read_segment(
                &self.dir,
                seg,
                0,
                &mut self.read_buf,
                |offset, key, value| {
                    if key >= from {
                        found.push((key, i, offset, offset + record_bytes(value.len())));
                    }
                    true
                },
            )?;
        }
        found.sort_by_key(|&(key, ..)| key);
        found.dedup_by_key(|&mut (key, ..)| key);
        let mut open: Option<(usize, File)> = None;
        for (key, i, offset, end) in found {
            let seg = &self.segments[i];
            if open.as_ref().is_none_or(|&(of, _)| of != i) {
                open = Some((i, File::open(segment_path(&self.dir, seg.index))?));
            }
            let (_, file) = open.as_mut().expect("just opened");
            let mut reader = SegmentReader::new(file, offset, end, &mut self.read_buf)?;
            let wanted = match reader.next()? {
                Some((k, value)) if k == key => f(key, value),
                _ => return Err(corrupt(seg.index, offset, "invalid record")),
            };
            *asked += reader.asked;
            if !wanted {
                break;
            }
        }
        Ok(())
    }

    /// Read-only inspection of the log in `dir` — what `shard-trace
    /// store` prints, and the pass [`DiskStore::open`] starts from.
    /// Unlike `open` this never modifies files: an invalid record is
    /// *reported*, not truncated or refused.
    pub fn inspect(dir: &Path) -> io::Result<WalInspection> {
        let mut info = WalInspection::default();
        let mut keys = KeyOrder::EMPTY;
        let mut buf = Vec::new();
        let mut offset = 0u64;
        for index in list_segments(dir)? {
            let mut file = File::open(segment_path(dir, index))?;
            let file_bytes = file.metadata()?.len();
            let mut reader = SegmentReader::new(&mut file, 0, file_bytes, &mut buf)?;
            let mut seg = SegmentInfo {
                index,
                records: 0,
                valid_bytes: 0,
                file_bytes,
                first_key: None,
                last_key: None,
            };
            while let Some((key, _)) = reader.next()? {
                seg.records += 1;
                seg.first_key.get_or_insert(key);
                seg.last_key = Some(key);
                info.first_key = Some(info.first_key.map_or(key, |k| k.min(key)));
                keys.push(key);
            }
            seg.valid_bytes = reader.at;
            info.entries += seg.records;
            info.bytes += seg.valid_bytes;
            if seg.valid_bytes < file_bytes && info.torn_at.is_none() {
                info.torn_at = Some(offset + seg.valid_bytes);
            }
            offset += file_bytes;
            info.segments.push(seg);
        }
        info.last_key = keys.max;
        info.in_key_order = keys.ascending;
        Ok(info)
    }
}

impl Store for DiskStore {
    /// The bytes sit in the write buffer or the OS page cache, **not
    /// durable**, until the next `sync`.
    ///
    /// # Errors
    ///
    /// I/O errors, and `InvalidInput` — before anything is written —
    /// for a value whose record does not fit the `u32` length field.
    fn append(&mut self, key: StoreKey, value: &[u8]) -> io::Result<()> {
        let len = u32::try_from(KEY_BYTES + value.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("WAL record for {key:?}: {} value bytes", value.len()),
            )
        })?;
        let tail = self.segments.last().expect("at least one segment");
        if tail.len > 0 && tail.len >= self.segment_bytes {
            self.rotate()?;
        }
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
        tail.first_key.get_or_insert(key);
        tail.len += record as u64;
        self.len += record as u64;
        self.entries += 1;
        self.keys.push(key);
        shard_obs::counter!("store.wal_appends", crate::family).inc();
        Ok(())
    }

    /// Fsync barrier; a no-op (and not counted) when nothing is
    /// outstanding.
    fn sync(&mut self) -> io::Result<()> {
        if self.synced < self.len {
            self.flush()?;
            self.fsync()?;
            self.synced = self.len;
        }
        Ok(())
    }

    fn len_bytes(&self) -> u64 {
        self.len
    }

    fn synced_bytes(&self) -> u64 {
        self.synced
    }

    fn entries(&self) -> usize {
        self.entries
    }

    /// # Errors
    ///
    /// I/O errors, and `InvalidData` naming segment and offset for a
    /// record that no longer passes its checksum.
    fn scan_arrival(&mut self, f: &mut dyn FnMut(StoreKey, &[u8])) -> io::Result<()> {
        self.flush()?;
        for seg in &self.segments {
            read_segment(&self.dir, seg, 0, &mut self.read_buf, |_, key, value| {
                f(key, value);
                true
            })?;
        }
        Ok(())
    }

    /// Every record handed out has just passed its checksum.
    ///
    /// # Errors
    ///
    /// I/O errors, and `InvalidData` naming segment and offset for a
    /// record that no longer passes its checksum.
    fn scan_key_range(
        &mut self,
        from: StoreKey,
        f: &mut dyn FnMut(StoreKey, &[u8]) -> bool,
    ) -> io::Result<()> {
        self.flush()?;
        if self.keys.max.is_none_or(|max| max < from) {
            return Ok(());
        }
        let mut asked = 0;
        let outcome = if self.keys.ascending {
            self.scan_in_key_order(from, f, &mut asked)
        } else {
            self.scan_sorting(from, f, &mut asked)
        };
        shard_obs::counter!("store.wal_read_bytes", crate::family).add(asked);
        outcome
    }

    /// Keeps exactly the first `keep` bytes of the global stream — of
    /// everything appended, buffered or not: truncates the files to
    /// `keep` (deleting later segments), then reopens the log in place
    /// ([`DiskStore::open`]). `keep` may fall mid-record — the reopen
    /// drops the torn record, which is in the last segment left.
    /// Nothing enforces `keep >= synced_bytes()` here.
    fn crash(&mut self, keep: u64) -> io::Result<CrashReport> {
        self.flush()?;
        let before = self.len;
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
        let opts = StoreOptions {
            segment_bytes: self.segment_bytes,
            ..StoreOptions::default()
        };
        *self = DiskStore::open(&self.dir, opts)?.0;
        Ok(CrashReport {
            kept_entries: self.entries,
            kept_bytes: self.len,
            lost_bytes: before - self.len,
            torn: self.len < before.min(keep),
        })
    }
}

impl Drop for DiskStore {
    /// A clean exit keeps every appended record: the buffer is written
    /// out (best effort — an error here has no caller to go to; `sync`
    /// where the outcome matters).
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
    /// Bytes in the file (`> valid_bytes` means an invalid record at
    /// `valid_bytes`: a torn tail in the last segment, corruption in
    /// any other).
    pub file_bytes: u64,
    /// Key of the first valid record — the segment's fence.
    pub first_key: Option<StoreKey>,
    /// Key of the last valid record.
    pub last_key: Option<StoreKey>,
}

/// What [`DiskStore::inspect`] reports about a log directory.
#[derive(Clone, Debug, Default)]
pub struct WalInspection {
    /// Per-segment detail, in index order.
    pub segments: Vec<SegmentInfo>,
    /// Valid records across all segments.
    pub entries: usize,
    /// Valid bytes across all segments.
    pub bytes: u64,
    /// Global offset of the first invalid byte, if any.
    pub torn_at: Option<u64>,
    /// Smallest key present.
    pub first_key: Option<StoreKey>,
    /// Largest key present.
    pub last_key: Option<StoreKey>,
    /// Whether every key is at or above the one before it — whether a
    /// key scan of the log would seek or sort.
    pub in_key_order: bool,
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

    fn segments(segment_bytes: u64) -> StoreOptions {
        StoreOptions {
            segment_bytes,
            ..StoreOptions::default()
        }
    }

    fn keys(disk: &mut DiskStore) -> Vec<u64> {
        let mut out = Vec::new();
        disk.scan_arrival(&mut |k, _| out.push(k.primary)).unwrap();
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
        let (mut disk, recovered) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered, 0);
        for i in 0..100u64 {
            disk.append(StoreKey::new(i, 0), &i.to_be_bytes()).unwrap();
        }
        disk.sync().unwrap();
        let len = disk.len_bytes();
        drop(disk);
        let (mut disk, recovered) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered, 100);
        assert_eq!(disk.len_bytes(), len, "nothing torn");
        assert_eq!(keys(&mut disk), (0..100).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spans_segments() {
        let dir = tmp("rotate");
        let (mut disk, _) = DiskStore::open(&dir, segments(64)).unwrap();
        for i in 0..50u64 {
            disk.append(StoreKey::new(i, 1), b"payload-bytes").unwrap();
        }
        disk.sync().unwrap();
        assert!(disk.segments.len() > 1, "rotation must have happened");
        drop(disk);
        let (mut disk, recovered) = DiskStore::open(&dir, segments(64)).unwrap();
        assert_eq!(recovered, 50);
        assert_eq!(keys(&mut disk), (0..50).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_record_boundary() {
        let dir = tmp("torn");
        let (mut disk, _) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        let mut boundary = 0;
        for i in 0..10u64 {
            disk.append(StoreKey::new(i, 0), &[7u8; 21]).unwrap();
            if i == 6 {
                boundary = disk.len_bytes();
            }
        }
        disk.sync().unwrap();
        let len = disk.len_bytes();
        // Crash mid-way through record 7.
        let r = disk.crash(boundary + 5).unwrap();
        assert!(r.torn);
        assert_eq!((r.kept_entries, r.kept_bytes), (7, boundary));
        assert_eq!(
            r.lost_bytes,
            len - boundary,
            "the torn record counts as lost"
        );
        assert_eq!(keys(&mut disk), (0..7).collect::<Vec<_>>());
        assert_eq!(disk.len_bytes(), boundary);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_drops_tail() {
        let dir = tmp("crc");
        let (mut disk, _) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        let mut start_of_2 = 0;
        for i in 0..4u64 {
            disk.append(StoreKey::new(i, 0), b"abc").unwrap();
            if i == 1 {
                start_of_2 = disk.len_bytes();
            }
        }
        disk.sync().unwrap();
        drop(disk);
        // Flip a payload byte of record 2.
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let idx = start_of_2 as usize + 8 + 3;
        bytes[idx] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(DiskStore::inspect(&dir).unwrap().torn_at, Some(start_of_2));
        let (mut disk, recovered) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered, 2, "records 2 and 3 dropped");
        assert_eq!(keys(&mut disk), vec![0, 1]);
        // The open cut the file back to the last valid record.
        let after = DiskStore::inspect(&dir).unwrap();
        assert_eq!((after.torn_at, after.bytes), (None, start_of_2));
        assert_eq!(fs::metadata(&path).unwrap().len(), start_of_2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsynced_appends_survive_a_drop_but_not_a_cut_at_the_barrier() {
        let dir = tmp("drop");
        let (mut disk, _) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..40u64 {
            disk.append(StoreKey::new(i, 0), &[3u8; 50]).unwrap();
        }
        disk.sync().unwrap();
        for i in 40..100u64 {
            disk.append(StoreKey::new(i, 0), &[3u8; 50]).unwrap();
        }
        let (synced, len) = (disk.synced_bytes(), disk.len_bytes());
        assert!(synced < len);
        // A clean exit (drop, no sync) keeps every appended record.
        drop(disk);
        assert_eq!(DiskStore::inspect(&dir).unwrap().torn_at, None);
        let (mut disk, recovered) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!((recovered, disk.len_bytes()), (100, len));
        assert_eq!(keys(&mut disk), (0..100).collect::<Vec<_>>());
        // A cut at the barrier keeps exactly the synced prefix, whether
        // the tail was still buffered or already written.
        for i in 100..130u64 {
            disk.append(StoreKey::new(i, 0), &[3u8; 50]).unwrap();
        }
        let r = disk.crash(synced).unwrap();
        assert_eq!(
            (r.kept_entries, r.torn, disk.len_bytes()),
            (40, false, synced)
        );
        assert_eq!(keys(&mut disk), (0..40).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_live_log_shows_other_readers_whole_records_only() {
        // Enough bytes to overflow the write buffer several times, over
        // segments small enough that rotations fall mid-buffer: at every
        // step the files hold a record-aligned prefix of the log.
        let dir = tmp("live");
        let (mut disk, _) = DiskStore::open(&dir, segments(100_000)).unwrap();
        let mut seen = 0;
        for i in 0..3000u64 {
            disk.append(StoreKey::new(i, 0), &[9u8; 90]).unwrap();
            if i % 97 == 0 {
                let live = DiskStore::inspect(&dir).unwrap();
                assert!(live.torn_at.is_none(), "partial record visible at {i}");
                assert!(live.entries >= seen && live.entries <= disk.entries());
                assert!(live.bytes <= disk.len_bytes());
                seen = live.entries;
            }
        }
        assert!(disk.segments.len() > 2 && seen > 0);
        assert!(seen < disk.entries(), "the tail is still buffered");
        disk.sync().unwrap();
        let live = DiskStore::inspect(&dir).unwrap();
        assert_eq!(
            (live.entries, live.bytes),
            (disk.entries(), disk.len_bytes())
        );
        drop(disk);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inspect_reports_without_mutating() {
        let dir = tmp("inspect");
        let (mut disk, _) = DiskStore::open(&dir, segments(80)).unwrap();
        for i in 0..20u64 {
            disk.append(StoreKey::new(i, 2), b"xyzw").unwrap();
        }
        disk.sync().unwrap();
        disk.crash(u64::MAX).unwrap();
        drop(disk);
        let before = DiskStore::inspect(&dir).unwrap();
        assert_eq!(before.entries, 20);
        assert!(before.torn_at.is_none());
        assert_eq!(before.first_key.unwrap().primary, 0);
        assert_eq!(before.last_key.unwrap().primary, 19);
        assert!(before.segments.len() > 1);
        // Per segment, the fence and the last key; for the log, whether
        // a key scan of it would seek or sort.
        let mut next = 0;
        for seg in &before.segments {
            assert_eq!(seg.first_key.unwrap().primary, next);
            next += seg.records as u64;
            assert_eq!(seg.last_key.unwrap().primary, next - 1);
        }
        assert!(before.in_key_order);
        let (mut disk, _) = DiskStore::open(&dir, segments(80)).unwrap();
        disk.append(StoreKey::new(7, 0), b"late").unwrap();
        drop(disk);
        let after = DiskStore::inspect(&dir).unwrap();
        assert!(!after.in_key_order, "a straggler: scans of this log sort");
        assert_eq!((after.entries, after.last_key), (21, before.last_key));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file under `dir`, with its bytes.
    fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), fs::read(&p).unwrap()))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn an_invalid_record_in_a_closed_segment_is_corruption_not_a_torn_tail() {
        // 1 000 synced records over many 4 KiB segments, then one
        // payload byte of segment 1 flipped: nothing a crash can do (a
        // rotation fsyncs the segment it closes), so nothing `open` may
        // repair by deleting the sixteen segments after it.
        let dir = tmp("closed-corrupt");
        let (mut disk, _) = DiskStore::open(&dir, segments(4096)).unwrap();
        for i in 0..1000u64 {
            disk.append(StoreKey::new(i, 0), &[i as u8; 46]).unwrap();
        }
        disk.sync().unwrap();
        assert!(disk.segments.len() > 10);
        drop(disk);
        let path = segment_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        let record = 8 + KEY_BYTES + 46;
        bytes[3 * record + 8 + KEY_BYTES + 5] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let before = files(&dir);

        let Err(e) = DiskStore::open(&dir, segments(4096)) else {
            panic!("open accepted a corrupt closed segment");
        };
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let text = e.to_string();
        let at = 3 * record;
        assert!(
            text.contains("wal-00000001.seg") && text.contains(&format!("offset {at}")),
            "the error names segment and offset: {text}"
        );
        assert_eq!(files(&dir), before, "no file touched");

        // The read-only inspection finds the same byte.
        let seen = DiskStore::inspect(&dir).unwrap();
        assert_eq!(seen.segments[1].valid_bytes, at as u64);
        assert_eq!(
            seen.torn_at,
            Some(seen.segments[0].file_bytes + at as u64),
            "as a global offset"
        );
        let behind = seen.segments[1].file_bytes as usize / record - 3;
        assert_eq!(seen.entries, 1000 - behind, "later segments still read");
        assert_eq!(files(&dir), before);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_byte_flipped_after_open_fails_the_scans_that_reach_it() {
        let dir = tmp("flip-after-open");
        let (mut disk, _) = DiskStore::open(&dir, segments(4096)).unwrap();
        for i in 0..400u64 {
            disk.append(StoreKey::new(i, 0), &[i as u8; 46]).unwrap();
        }
        disk.sync().unwrap();
        let record = 8 + KEY_BYTES + 46;
        let per_segment = 4096usize.div_ceil(record);
        let path = segment_path(&dir, 2);
        let mut bytes = fs::read(&path).unwrap();
        bytes[5 * record + 8 + KEY_BYTES] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        let hit = (2 * per_segment + 5) as u64;

        // A scan that stops short of the record never reads it …
        let mut seen = Vec::new();
        disk.scan_key_range(StoreKey::new(0, 0), &mut |k, _| {
            seen.push(k.primary);
            seen.len() < 50
        })
        .unwrap();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        // … one that reaches it hands out everything before it, then
        // names the segment and the offset; so does the arrival scan.
        let mut seen = Vec::new();
        let e = disk
            .scan_key_range(StoreKey::new(40, 0), &mut |k, _| {
                seen.push(k.primary);
                true
            })
            .unwrap_err();
        assert_eq!(seen, (40..hit).collect::<Vec<_>>());
        let arrival = disk.scan_arrival(&mut |_, _| {}).unwrap_err();
        for e in [e, arrival] {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            let text = e.to_string();
            assert!(
                text.contains("wal-00000002.seg")
                    && text.contains(&format!("offset {}", 5 * record)),
                "{text}"
            );
        }
        // Later segments are still there for a scan that starts in them
        // (within the damaged one there is nothing to resynchronise on).
        let later = (3 * per_segment + 1) as u64;
        let mut seen = Vec::new();
        disk.scan_key_range(StoreKey::new(later, 0), &mut |k, _| {
            seen.push(k.primary);
            true
        })
        .unwrap();
        assert_eq!(seen, (later..400).collect::<Vec<_>>());
        drop(disk);
        fs::remove_dir_all(&dir).unwrap();
    }
}
