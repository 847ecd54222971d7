//! Page checksums and the durability header.
//!
//! Bytes 16..28 of every page header (reserved since the first commit;
//! see `page.rs`) hold a durability header: a u64 LSN and a u32 CRC32.
//! The buffer pool stamps both into a stack copy of the frame
//! immediately before every `DiskManager::write_page`, and verifies the
//! CRC on every read. A page whose stored CRC is `0` predates
//! checksumming (or was never written by the pool) and is accepted
//! as-is; a computed CRC of `0` is stored as `1` so the sentinel stays
//! unambiguous.
//!
//! The CRC is the IEEE 802.3 polynomial (reflected, `0xEDB88320`),
//! computed over the full 4096 bytes with the four CRC bytes zeroed.
//! The kernel is slicing-by-16 (sixteen table lookups fold sixteen
//! input bytes per step); the tables are built in a `const fn` — no external
//! crates.

use crate::page::{OFF_PAGE_CRC, OFF_PAGE_LSN, PAGE_SIZE};

/// Slicing-by-16 tables: `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets sixteen input bytes fold into the state per step.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// The four table lookups that fold one little-endian input word;
/// `top` is the table for its lowest byte (the one furthest from the
/// end of the block).
#[inline(always)]
fn fold(word: u32, top: usize) -> u32 {
    TABLES[top][(word & 0xFF) as usize]
        ^ TABLES[top - 1][((word >> 8) & 0xFF) as usize]
        ^ TABLES[top - 2][((word >> 16) & 0xFF) as usize]
        ^ TABLES[top - 3][(word >> 24) as usize]
}

/// Fold `data` into the running (pre-inverted) CRC state `c`, sixteen
/// bytes per step with a bytewise tail.
fn update(mut c: u32, data: &[u8]) -> u32 {
    let word = |b: &[u8], at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        c = fold(word(b, 0) ^ c, 15)
            ^ fold(word(b, 4), 11)
            ^ fold(word(b, 8), 7)
            ^ fold(word(b, 12), 3);
    }
    for &b in blocks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// CRC32 of a page with its own CRC field treated as zero: the bytes
/// before the field, four zeros, the bytes after it.
fn page_crc(buf: &[u8; PAGE_SIZE]) -> u32 {
    let c = update(0xFFFF_FFFF, &buf[..OFF_PAGE_CRC]);
    let c = update(c, &[0u8; 4]);
    update(c, &buf[OFF_PAGE_CRC + 4..]) ^ 0xFFFF_FFFF
}

/// The page LSN stored at [`OFF_PAGE_LSN`].
pub fn read_lsn(buf: &[u8; PAGE_SIZE]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[OFF_PAGE_LSN..OFF_PAGE_LSN + 8]);
    u64::from_le_bytes(b)
}

/// Stamp `lsn` and a fresh CRC into `buf` (in that order — the CRC
/// covers the LSN).
pub fn stamp(buf: &mut [u8; PAGE_SIZE], lsn: u64) {
    buf[OFF_PAGE_LSN..OFF_PAGE_LSN + 8].copy_from_slice(&lsn.to_le_bytes());
    let mut crc = page_crc(buf);
    if crc == 0 {
        crc = 1; // 0 is the "unchecksummed" sentinel
    }
    buf[OFF_PAGE_CRC..OFF_PAGE_CRC + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Verify the stored CRC. Returns `true` when the page is intact or
/// unchecksummed (stored CRC 0).
pub fn verify(buf: &[u8; PAGE_SIZE]) -> bool {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[OFF_PAGE_CRC..OFF_PAGE_CRC + 4]);
    let stored = u32::from_le_bytes(b);
    if stored == 0 {
        return true;
    }
    let mut crc = page_crc(buf);
    if crc == 0 {
        crc = 1;
    }
    crc == stored
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time kernel the sliced one replaced, kept as the
    /// reference the property tests compare against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any length, any alignment: the sliced kernel is bit-identical
        /// to the bytewise reference.
        #[test]
        fn sliced_crc_equals_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..5000),
            skip in 0..16usize,
        ) {
            let data = &data[skip.min(data.len())..];
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }

        /// The three-slice page CRC equals the reference over a copy
        /// with the CRC field zeroed.
        #[test]
        fn page_crc_skips_exactly_its_own_field(
            fill in proptest::collection::vec(any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1),
        ) {
            let mut page = [0u8; PAGE_SIZE];
            page.copy_from_slice(&fill);
            let mut zeroed = page;
            zeroed[OFF_PAGE_CRC..OFF_PAGE_CRC + 4].fill(0);
            prop_assert_eq!(page_crc(&page), crc32_bytewise(&zeroed));
        }
    }

    #[test]
    fn stamp_then_verify_roundtrips() {
        let mut buf = [0u8; PAGE_SIZE];
        buf[100] = 0xAA;
        stamp(&mut buf, 42);
        assert!(verify(&buf));
        assert_eq!(read_lsn(&buf), 42);
    }

    #[test]
    fn any_flipped_bit_is_detected() {
        let mut buf = [7u8; PAGE_SIZE];
        stamp(&mut buf, 9);
        for &i in &[0usize, 15, 17, 39, 40, 1000, PAGE_SIZE - 1] {
            let mut torn = buf;
            torn[i] ^= 0x01;
            assert!(!verify(&torn), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn zero_crc_means_unchecksummed() {
        let buf = [0u8; PAGE_SIZE];
        assert!(verify(&buf), "legacy pages with CRC 0 are accepted");
    }
}
