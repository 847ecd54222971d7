//! WAL record codec.
//!
//! The log is a sequence of length-prefixed, CRC-guarded frames:
//!
//! ```text
//! +--------------+--------------+------------------------+
//! | len: u32 LE  | crc32: u32 LE| payload (len bytes)    |
//! +--------------+--------------+------------------------+
//! ```
//!
//! The payload starts with a one-byte record kind and the record's LSN,
//! followed by kind-specific fields. A page reaches the log either as a
//! full [`WalRecord::PageImage`] or as a [`WalRecord::PageDelta`]: byte
//! ranges of the page written since its previous log record — the runs
//! of 64-byte lines the pool marked — which [`apply_delta`] replays.
//! Frames are encoded straight into the caller's buffer (the `put_*`
//! functions), so a commit group is built with one copy of each logged
//! byte.
//!
//! [`scan`] walks the stream from the start and stops at the first
//! frame that is incomplete, oversized, or fails its CRC — everything
//! after that point is a torn tail written during the crash and is
//! discarded (redo-only logging never needs it: a torn tail can only
//! contain records of uncommitted transactions).

use crate::checksum::crc32;
use crate::oid::{FileId, PageId};
use crate::page::{LINE_SIZE, PAGE_SIZE};
use std::ops::Range;

/// One run of changed bytes inside a page.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeltaRange {
    /// Offset of the first changed byte within the page.
    pub offset: u16,
    /// The new bytes (`offset + bytes.len()` never exceeds the page).
    pub bytes: Vec<u8>,
}

/// One decoded log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalRecord {
    /// Transaction `txn` starts.
    Begin {
        /// WAL-local transaction id.
        txn: u64,
    },
    /// Full after-image of one page written by `txn`.
    PageImage {
        /// WAL-local transaction id.
        txn: u64,
        /// The page this image replaces on replay.
        page: PageId,
        /// The 4 KiB after-image.
        image: Box<[u8; PAGE_SIZE]>,
    },
    /// The bytes of one page that `txn` changed since the page's
    /// previous log record (an image or an earlier delta).
    PageDelta {
        /// WAL-local transaction id.
        txn: u64,
        /// The page the ranges patch on replay.
        page: PageId,
        /// Changed runs, ascending and non-overlapping.
        ranges: Vec<DeltaRange>,
    },
    /// Transaction `txn` committed; its pages must be replayed.
    Commit {
        /// WAL-local transaction id.
        txn: u64,
    },
    /// All earlier work is on disk: the first record of a log epoch.
    /// Its LSN is the epoch's floor — a page whose last log record is
    /// at or below it has no record in this log yet.
    Checkpoint,
}

/// A record plus the LSN it was written under.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalEntry {
    /// Log sequence number: position of this record in append order,
    /// starting at 1.
    pub lsn: u64,
    /// The decoded record.
    pub rec: WalRecord,
}

const KIND_BEGIN: u8 = 1;
const KIND_PAGE_IMAGE: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_CHECKPOINT: u8 = 4;
const KIND_PAGE_DELTA: u8 = 5;

/// Largest legal payload: a `PageImage` (kind + lsn + txn + file + page
/// + image). Anything bigger is garbage and ends the scan.
pub const MAX_PAYLOAD: usize = 1 + 8 + 8 + 2 + 4 + PAGE_SIZE;

/// A delta whose encoded ranges (4 bytes of header each plus the bytes)
/// exceed this is logged as a full image instead.
pub const MAX_DELTA_BYTES: usize = PAGE_SIZE / 2;

/// Whether the lines marked in `lines` make a delta: a run costs 4 bytes
/// of header plus its lines, and the runs may not exceed
/// [`MAX_DELTA_BYTES`].
pub(crate) fn delta_fits(lines: u64) -> bool {
    let runs = (lines & !(lines << 1)).count_ones() as usize;
    4 * runs + LINE_SIZE * lines.count_ones() as usize <= MAX_DELTA_BYTES
}

/// The byte ranges of the runs of marked lines in `lines`, ascending.
pub(crate) fn line_runs(mut lines: u64) -> impl Iterator<Item = Range<usize>> {
    std::iter::from_fn(move || {
        if lines == 0 {
            return None;
        }
        let first = lines.trailing_zeros() as usize;
        let len = (lines >> first).trailing_ones() as usize;
        // Adding the run's lowest bit carries through the run.
        lines &= lines.wrapping_add(1 << first);
        Some(first * LINE_SIZE..(first + len) * LINE_SIZE)
    })
}

/// Patch `page` with the ranges of a decoded [`WalRecord::PageDelta`].
/// Ranges that decoded are in bounds, so this cannot fail.
pub fn apply_delta(page: &mut [u8; PAGE_SIZE], ranges: &[DeltaRange]) {
    for r in ranges {
        let at = r.offset as usize;
        page[at..at + r.bytes.len()].copy_from_slice(&r.bytes);
    }
}

/// Open a frame in `buf`: reserve its header and write the fields every
/// payload starts with. Returns the frame's position for [`close_frame`].
fn open_frame(buf: &mut Vec<u8>, kind: u8, lsn: u64) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&[0u8; 8]);
    buf.push(kind);
    buf.extend_from_slice(&lsn.to_le_bytes());
    at
}

/// Close the frame opened at `at`: fill in the payload's length and CRC.
fn close_frame(buf: &mut [u8], at: usize) {
    let len = (buf.len() - at - 8) as u32;
    let crc = crc32(&buf[at + 8..]);
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    buf[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

fn put_page_id(buf: &mut Vec<u8>, txn: u64, page: PageId) {
    buf.extend_from_slice(&txn.to_le_bytes());
    buf.extend_from_slice(&page.file.0.to_le_bytes());
    buf.extend_from_slice(&page.page.to_le_bytes());
}

/// Append a `Begin` frame to `buf`.
pub(crate) fn put_begin(buf: &mut Vec<u8>, lsn: u64, txn: u64) {
    let at = open_frame(buf, KIND_BEGIN, lsn);
    buf.extend_from_slice(&txn.to_le_bytes());
    close_frame(buf, at);
}

/// Append a `Commit` frame to `buf`.
pub(crate) fn put_commit(buf: &mut Vec<u8>, lsn: u64, txn: u64) {
    let at = open_frame(buf, KIND_COMMIT, lsn);
    buf.extend_from_slice(&txn.to_le_bytes());
    close_frame(buf, at);
}

/// Append a `Checkpoint` frame to `buf`.
pub(crate) fn put_checkpoint(buf: &mut Vec<u8>, lsn: u64) {
    let at = open_frame(buf, KIND_CHECKPOINT, lsn);
    close_frame(buf, at);
}

/// Append a `PageImage` frame to `buf`.
pub(crate) fn put_image(
    buf: &mut Vec<u8>,
    lsn: u64,
    txn: u64,
    page: PageId,
    image: &[u8; PAGE_SIZE],
) {
    let at = open_frame(buf, KIND_PAGE_IMAGE, lsn);
    put_page_id(buf, txn, page);
    buf.extend_from_slice(image);
    close_frame(buf, at);
}

/// Append a `PageDelta` frame to `buf` from `(offset, bytes)` runs.
pub(crate) fn put_delta<'a>(
    buf: &mut Vec<u8>,
    lsn: u64,
    txn: u64,
    page: PageId,
    ranges: impl Iterator<Item = (u16, &'a [u8])>,
) {
    let at = open_frame(buf, KIND_PAGE_DELTA, lsn);
    put_page_id(buf, txn, page);
    let count_at = buf.len();
    buf.extend_from_slice(&[0, 0]);
    let mut count = 0u16;
    for (offset, bytes) in ranges {
        buf.extend_from_slice(&offset.to_le_bytes());
        buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        buf.extend_from_slice(bytes);
        count += 1;
    }
    buf[count_at..count_at + 2].copy_from_slice(&count.to_le_bytes());
    close_frame(buf, at);
}

/// Encode one record (with its LSN) as a framed byte vector.
pub fn encode(lsn: u64, rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match rec {
        WalRecord::Begin { txn } => put_begin(&mut buf, lsn, *txn),
        WalRecord::PageImage { txn, page, image } => put_image(&mut buf, lsn, *txn, *page, image),
        WalRecord::PageDelta { txn, page, ranges } => put_delta(
            &mut buf,
            lsn,
            *txn,
            *page,
            ranges.iter().map(|r| (r.offset, &r.bytes[..])),
        ),
        WalRecord::Commit { txn } => put_commit(&mut buf, lsn, *txn),
        WalRecord::Checkpoint => put_checkpoint(&mut buf, lsn),
    }
    buf
}

fn u16_at(payload: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_le_bytes(
        payload.get(at..at + 2)?.try_into().ok()?,
    ))
}

fn u64_at(payload: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        payload.get(at..at + 8)?.try_into().ok()?,
    ))
}

/// The `txn`, `file`, `page` fields shared by both page records.
fn page_id_at(payload: &[u8]) -> Option<(u64, PageId)> {
    let txn = u64_at(payload, 9)?;
    let file = u16_at(payload, 17)?;
    let page = u32::from_le_bytes(payload.get(19..23)?.try_into().ok()?);
    Some((txn, PageId::new(FileId(file), page)))
}

fn decode_payload(payload: &[u8]) -> Option<WalEntry> {
    let kind = *payload.first()?;
    let lsn = u64_at(payload, 1)?;
    let rec = match kind {
        KIND_BEGIN => WalRecord::Begin {
            txn: u64_at(payload, 9)?,
        },
        KIND_COMMIT => WalRecord::Commit {
            txn: u64_at(payload, 9)?,
        },
        KIND_CHECKPOINT => WalRecord::Checkpoint,
        KIND_PAGE_IMAGE => {
            let (txn, page) = page_id_at(payload)?;
            let image: [u8; PAGE_SIZE] = payload.get(23..23 + PAGE_SIZE)?.try_into().ok()?;
            WalRecord::PageImage {
                txn,
                page,
                image: Box::new(image),
            }
        }
        KIND_PAGE_DELTA => {
            let (txn, page) = page_id_at(payload)?;
            let count = u16_at(payload, 23)? as usize;
            let mut ranges = Vec::with_capacity(count.min(MAX_DELTA_BYTES / 4));
            let mut at = 25;
            for _ in 0..count {
                let offset = u16_at(payload, at)?;
                let len = u16_at(payload, at + 2)? as usize;
                if offset as usize + len > PAGE_SIZE {
                    return None;
                }
                let bytes = payload.get(at + 4..at + 4 + len)?.to_vec();
                ranges.push(DeltaRange { offset, bytes });
                at += 4 + len;
            }
            if at != payload.len() {
                return None;
            }
            WalRecord::PageDelta { txn, page, ranges }
        }
        _ => return None,
    };
    Some(WalEntry { lsn, rec })
}

/// Result of scanning a log byte stream.
pub struct ScanResult {
    /// Records of the valid prefix, in append order.
    pub entries: Vec<WalEntry>,
    /// Length in bytes of the valid prefix. Anything past this is a torn
    /// tail the caller should truncate.
    pub valid_len: u64,
}

/// Walk `bytes` from the start, decoding frames until the first torn,
/// oversized, or corrupt one.
pub fn scan(bytes: &[u8]) -> ScanResult {
    let mut entries = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len == 0 || len > MAX_PAYLOAD || pos + 8 + len > bytes.len() {
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        match decode_payload(payload) {
            Some(e) => entries.push(e),
            None => break,
        }
        pos += 8 + len;
    }
    ScanResult {
        entries,
        valid_len: pos as u64,
    }
}

/// Frame an arbitrary payload, for tests that lay records out by hand.
#[cfg(test)]
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(&crc32(payload).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Vec<(u64, WalRecord)> {
        let mut image = Box::new([0u8; PAGE_SIZE]);
        image[0] = 0xAB;
        image[PAGE_SIZE - 1] = 0xCD;
        vec![
            (1, WalRecord::Begin { txn: 7 }),
            (
                2,
                WalRecord::PageImage {
                    txn: 7,
                    page: PageId::new(FileId(3), 12),
                    image,
                },
            ),
            (
                3,
                WalRecord::PageDelta {
                    txn: 7,
                    page: PageId::new(FileId(3), 12),
                    ranges: vec![
                        DeltaRange {
                            offset: 0,
                            bytes: vec![1, 2, 3],
                        },
                        DeltaRange {
                            offset: (PAGE_SIZE - 2) as u16,
                            bytes: vec![9, 9],
                        },
                    ],
                },
            ),
            (
                4,
                WalRecord::PageDelta {
                    txn: 7,
                    page: PageId::new(FileId(3), 13),
                    ranges: vec![],
                },
            ),
            (5, WalRecord::Commit { txn: 7 }),
            (6, WalRecord::Checkpoint),
        ]
    }

    fn encode_all(recs: &[(u64, WalRecord)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (lsn, r) in recs {
            bytes.extend_from_slice(&encode(*lsn, r));
        }
        bytes
    }

    /// The lines in which `cur` differs from `pre`, one bit each.
    fn changed_lines(pre: &[u8; PAGE_SIZE], cur: &[u8; PAGE_SIZE]) -> u64 {
        let (pre, cur) = (
            pre.as_chunks::<LINE_SIZE>().0,
            cur.as_chunks::<LINE_SIZE>().0,
        );
        (0..pre.len())
            .filter(|&l| pre[l] != cur[l])
            .fold(0, |mask, l| mask | 1 << l)
    }

    /// The delta record `line_runs` + `put_delta` log for `pre → cur`
    /// with the changed lines marked, decoded back; `None` when the
    /// change is too large for a delta.
    fn logged_delta(pre: &[u8; PAGE_SIZE], cur: &[u8; PAGE_SIZE]) -> Option<Vec<DeltaRange>> {
        let lines = changed_lines(pre, cur);
        if !delta_fits(lines) {
            return None;
        }
        let mut buf = Vec::new();
        put_delta(
            &mut buf,
            1,
            1,
            PageId::new(FileId(0), 0),
            line_runs(lines).map(|r| (r.start as u16, &cur[r])),
        );
        let scanned = scan(&buf);
        assert_eq!(scanned.valid_len, buf.len() as u64);
        match scanned.entries.into_iter().next().map(|e| e.rec) {
            Some(WalRecord::PageDelta { ranges, .. }) => Some(ranges),
            other => panic!("expected one PageDelta, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip() {
        let recs = sample();
        let bytes = encode_all(&recs);
        let scanned = scan(&bytes);
        assert_eq!(scanned.valid_len, bytes.len() as u64);
        assert_eq!(scanned.entries.len(), recs.len());
        for (e, (lsn, r)) in scanned.entries.iter().zip(&recs) {
            assert_eq!(e.lsn, *lsn);
            assert_eq!(&e.rec, r);
        }
    }

    #[test]
    fn torn_tail_is_discarded_at_every_cut_point() {
        let recs = sample();
        let bytes = encode_all(&recs);
        // Cutting anywhere must yield a valid prefix of whole records,
        // never an error or a phantom record.
        for cut in 0..bytes.len() {
            let scanned = scan(&bytes[..cut]);
            assert!(scanned.valid_len <= cut as u64);
            assert!(scanned.entries.len() <= recs.len());
            for (e, (lsn, r)) in scanned.entries.iter().zip(&recs) {
                assert_eq!(e.lsn, *lsn);
                assert_eq!(&e.rec, r);
            }
        }
    }

    #[test]
    fn corrupt_byte_ends_the_scan() {
        let recs = sample();
        let bytes = encode_all(&recs);
        // Flip one byte inside the second frame's payload: frame 1
        // survives, everything from frame 2 on is dropped.
        let first_len = encode(1, &recs[0].1).len();
        let mut bad = bytes.clone();
        bad[first_len + 20] ^= 0xFF;
        let scanned = scan(&bad);
        assert_eq!(scanned.entries.len(), 1);
        assert_eq!(scanned.valid_len, first_len as u64);
    }

    #[test]
    fn garbage_length_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let scanned = scan(&bytes);
        assert!(scanned.entries.is_empty());
        assert_eq!(scanned.valid_len, 0);
    }

    /// A delta frame whose CRC is right but whose ranges run off the
    /// page, or leave payload bytes over, is corrupt — not replayable.
    #[test]
    fn out_of_bounds_delta_ends_the_scan() {
        let mut head = vec![KIND_PAGE_DELTA];
        head.extend_from_slice(&1u64.to_le_bytes()); // lsn
        head.extend_from_slice(&1u64.to_le_bytes()); // txn
        head.extend_from_slice(&0u16.to_le_bytes()); // file
        head.extend_from_slice(&0u32.to_le_bytes()); // page
        head.extend_from_slice(&1u16.to_le_bytes()); // one range

        let mut off_page = head.clone();
        off_page.extend_from_slice(&(PAGE_SIZE as u16 - 1).to_le_bytes());
        off_page.extend_from_slice(&2u16.to_le_bytes());
        off_page.extend_from_slice(&[7, 7]);
        assert!(scan(&frame(&off_page)).entries.is_empty());

        let mut trailing = head.clone();
        trailing.extend_from_slice(&0u16.to_le_bytes());
        trailing.extend_from_slice(&1u16.to_le_bytes());
        trailing.extend_from_slice(&[7, 0xEE]);
        assert!(scan(&frame(&trailing)).entries.is_empty());

        let mut ok = head;
        ok.extend_from_slice(&(PAGE_SIZE as u16 - 1).to_le_bytes());
        ok.extend_from_slice(&1u16.to_le_bytes());
        ok.push(7);
        assert_eq!(scan(&frame(&ok)).entries.len(), 1);
    }

    #[test]
    fn marked_lines_log_as_runs_and_as_a_delta_only_under_the_bound() {
        let runs = |lines| line_runs(lines).collect::<Vec<_>>();
        assert_eq!(runs(0), []);
        assert_eq!(runs(u64::MAX), vec![0..PAGE_SIZE]);
        assert_eq!(
            runs(0b1011 | 1 << 62 | 1 << 63),
            [0..128, 192..256, PAGE_SIZE - 128..PAGE_SIZE]
        );

        let pre = Box::new([0x11u8; PAGE_SIZE]);
        assert_eq!(logged_delta(&pre, &pre), Some(vec![]));
        for at in [0, 7, 63, 64, 1000, PAGE_SIZE - 1] {
            let mut cur = pre.clone();
            cur[at] = 0x22;
            let line = at / LINE_SIZE * LINE_SIZE;
            assert_eq!(
                logged_delta(&pre, &cur),
                Some(vec![DeltaRange {
                    offset: line as u16,
                    bytes: cur[line..line + LINE_SIZE].to_vec(),
                }]),
                "one changed byte at {at} is its line"
            );
        }

        let cur = Box::new([0x22u8; PAGE_SIZE]);
        assert_eq!(
            logged_delta(&pre, &cur),
            None,
            "past half a page a delta gives way to an image"
        );
        // One run of 31 lines (4 + 1984 bytes) fits; 32 lines do not,
        // nor do 31 lines in more than 16 runs (4·16 + 1984 = 2048).
        let mut cur = pre.clone();
        cur[..31 * LINE_SIZE].fill(0x22);
        assert_eq!(logged_delta(&pre, &cur).map(|r| r.len()), Some(1));
        cur[31 * LINE_SIZE] = 0x22;
        assert_eq!(logged_delta(&pre, &cur), None);
        let in_runs = |n: u32| {
            let last_run = ((1u64 << (32 - n)) - 1) << (2 * (n - 1));
            (0..n - 1).fold(last_run, |mask, r| mask | 1 << (2 * r))
        };
        assert_eq!(
            (in_runs(16).count_ones(), runs(in_runs(16)).len()),
            (31, 16)
        );
        assert_eq!(
            (in_runs(17).count_ones(), runs(in_runs(17)).len()),
            (31, 17)
        );
        assert!(delta_fits(in_runs(16)) && !delta_fits(in_runs(17)));
    }

    /// A page and an edited copy: `edits` are `(offset, len, fill)`
    /// runs overwritten in the copy.
    fn edited(
        seed: u8,
        edits: &[(usize, usize, u8)],
    ) -> (Box<[u8; PAGE_SIZE]>, Box<[u8; PAGE_SIZE]>) {
        let mut pre = Box::new([0u8; PAGE_SIZE]);
        for (i, b) in pre.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31).wrapping_add(seed);
        }
        let mut cur = pre.clone();
        for &(at, len, fill) in edits {
            let end = (at + len).min(PAGE_SIZE);
            cur[at..end].fill(fill);
        }
        (pre, cur)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// apply(delta(a → b), a) == b, through the encoder and
        /// decoder, for anything from no edit to edits covering the page.
        #[test]
        fn applying_the_logged_delta_reproduces_the_page(
            seed in any::<u8>(),
            edits in proptest::collection::vec(
                (0..PAGE_SIZE, 1..600usize, any::<u8>()), 0..12),
        ) {
            let (pre, cur) = edited(seed, &edits);
            match logged_delta(&pre, &cur) {
                Some(ranges) => {
                    let encoded: usize = ranges.iter().map(|r| 4 + r.bytes.len()).sum();
                    prop_assert!(encoded <= MAX_DELTA_BYTES);
                    let mut page = pre.clone();
                    apply_delta(&mut page, &ranges);
                    prop_assert!(page == cur);
                }
                None => {
                    // Refused only when the change really is large: a
                    // changed line costs at most 4 + 64 bytes.
                    let changed = changed_lines(&pre, &cur).count_ones() as usize;
                    prop_assert!(changed * (4 + LINE_SIZE) > MAX_DELTA_BYTES,
                        "a {changed}-line change was refused a delta");
                }
            }
        }

        /// Torn tails at every cut of a stream that mixes images and
        /// generated deltas: always a clean prefix of whole records.
        #[test]
        fn torn_tail_with_generated_deltas_is_a_clean_prefix(
            seed in any::<u8>(),
            edits in proptest::collection::vec(
                (0..PAGE_SIZE, 1..40usize, any::<u8>()), 1..6),
        ) {
            let (pre, cur) = edited(seed, &edits);
            let page = PageId::new(FileId(1), 5);
            let ranges = logged_delta(&pre, &cur).expect("small edits fit a delta");
            let recs = vec![
                (1, WalRecord::Begin { txn: 1 }),
                (2, WalRecord::PageImage { txn: 1, page, image: pre }),
                (3, WalRecord::PageDelta { txn: 1, page, ranges }),
                (4, WalRecord::Commit { txn: 1 }),
            ];
            let bytes = encode_all(&recs);
            let image_end = encode(1, &recs[0].1).len() + encode(2, &recs[1].1).len();
            // Every cut from inside the image's last bytes to the end.
            for cut in image_end - 3..=bytes.len() {
                let scanned = scan(&bytes[..cut]);
                prop_assert!(scanned.valid_len <= cut as u64);
                for (e, (lsn, r)) in scanned.entries.iter().zip(&recs) {
                    prop_assert_eq!(e.lsn, *lsn);
                    prop_assert_eq!(&e.rec, r);
                }
                let whole = scanned.entries.len();
                prop_assert_eq!(scanned.valid_len as usize, encode_all(&recs[..whole]).len());
            }
        }
    }
}
