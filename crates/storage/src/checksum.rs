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
//! Two kernels compute it, bit for bit the same value, and `update`
//! picks between them by CPU detection alone (no feature, no option):
//!
//! * `update_folded`, for 128 bytes or more on x86-64 with `pclmulqdq`
//!   and `sse4.1`: carry-less multiplication folds 64 bytes per step
//!   (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction", Intel 2009). Four 128-bit accumulators are
//!   multiplied by `K1`/`K2` = x^(4·128±32) mod P and xored with the
//!   next 64 bytes; they merge, and the last 16-byte blocks fold in,
//!   through `K3`/`K4` = x^(128±32) mod P; `K5` = x^64 mod P takes 128
//!   bits to 64, and Barrett reduction by `P_X` = P and `U_PRIME` =
//!   µ = ⌊x^64 / P⌋ takes 64 to 32. All seven are bit-reflected, as P is.
//! * `update_sliced`, slicing-by-16 (sixteen table lookups fold sixteen
//!   input bytes per step): the only kernel on other CPUs, and here the
//!   one for short inputs and the folded kernel's ≤ 15-byte tail.
//!
//! The tables are built in a `const fn`, the intrinsics are `std::arch`
//! — no external crates.

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
fn update_sliced(mut c: u32, data: &[u8]) -> u32 {
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

/// The carry-less-multiply kernel (see the module docs) for `data` of
/// 128 bytes or more; [`update_sliced`] finishes the ≤ 15-byte tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn update_folded(c: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;
    // One 16-byte block, lowest address in the lowest lane.
    let load = |b: &[u8]| {
        let (mut lo, mut hi) = ([0u8; 8], [0u8; 8]);
        lo.copy_from_slice(&b[..8]);
        hi.copy_from_slice(&b[8..16]);
        _mm_set_epi64x(i64::from_le_bytes(hi), i64::from_le_bytes(lo))
    };
    // `a`, moved past `b` by the key pair's powers of x, plus `b`.
    let reduce128 = |a: __m128i, b: __m128i, k: __m128i| {
        let b = _mm_xor_si128(b, _mm_clmulepi64_si128(a, k, 0x00));
        _mm_xor_si128(b, _mm_clmulepi64_si128(a, k, 0x11))
    };
    let (head, rest) = data.split_at(64);
    let mut x = [_mm_setzero_si128(); 4];
    for (lane, b) in x.iter_mut().zip(head.chunks_exact(16)) {
        *lane = load(b);
    }
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut strides = rest.chunks_exact(64);
    for s in &mut strides {
        for (lane, b) in x.iter_mut().zip(s.chunks_exact(16)) {
            *lane = reduce128(*lane, load(b), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut blocks = strides.remainder().chunks_exact(16);
    let later = x[1..].iter().copied().chain((&mut blocks).map(load));
    let x = later.fold(x[0], |acc, b| reduce128(acc, b, k3k4));
    // 128 → 64 → 32 bits, then Barrett: T1 = ⌊R mod x^32⌋·µ,
    // T2 = ⌊T1 mod x^32⌋·P, and the CRC is the high word of R ^ T2.
    let lo32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, lo32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    let pu = _mm_set_epi64x(U_PRIME, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, lo32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, lo32), pu, 0x00);
    let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
    update_sliced(c, blocks.remainder())
}

/// Fold `data` into the running (pre-inverted) CRC state `c` with the
/// kernel this CPU and this length call for.
fn update(c: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 128
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `update_folded` is a safe fn whose one requirement is
        // the two CPU features just detected.
        #[allow(unsafe_code)]
        return unsafe { update_folded(c, data) };
    }
    update_sliced(c, data)
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
    use crate::oid::{FileId, PageId};
    use crate::wal::record::{encode, scan, DeltaRange, WalRecord};
    use proptest::prelude::*;

    /// The byte-at-a-time kernel the sliced one replaced, kept as the
    /// reference the property tests compare against.
    fn update_bytewise(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Both production kernels — `update` runs the folded one wherever
    /// the CPU has it (this host does), `update_sliced` is what every
    /// other CPU runs — and the reference.
    const KERNELS: [(&str, Kernel); 3] = [
        ("dispatched", update),
        ("sliced", update_sliced),
        ("bytewise", update_bytewise),
    ];

    fn crc32_with(kernel: Kernel, data: &[u8]) -> u32 {
        kernel(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// `page_crc` as `kernel` computes it: one pass over a copy with
    /// the CRC field zeroed, with the `0 → 1` sentinel rule applied.
    fn stored_crc_with(kernel: Kernel, buf: &[u8; PAGE_SIZE]) -> u32 {
        let mut zeroed = *buf;
        zeroed[OFF_PAGE_CRC..OFF_PAGE_CRC + 4].fill(0);
        crc32_with(kernel, &zeroed).max(1)
    }

    fn stored_crc(buf: &[u8; PAGE_SIZE]) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&buf[OFF_PAGE_CRC..OFF_PAGE_CRC + 4]);
        u32::from_le_bytes(b)
    }

    #[test]
    fn this_host_runs_the_folded_kernel() {
        // The "both kernels" tests below mean it only if `update`
        // really dispatches to the folded kernel here.
        #[cfg(target_arch = "x86_64")]
        assert!(
            std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1"),
            "no pclmulqdq + sse4.1 here: these tests compare the sliced kernel with itself"
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE test vector.
        for (name, kernel) in KERNELS {
            assert_eq!(crc32_with(kernel, b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(crc32_with(kernel, b""), 0, "{name}");
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// Values computed by the parent commit's build (slicing-by-16
    /// only) and cross-checked against zlib: the on-disk format is
    /// these numbers, whichever kernel produces them.
    #[test]
    fn golden_values_from_the_parent_build_hold_for_both_kernels() {
        let fill = |n: usize| -> Vec<u8> { (0..n).map(|i| (i * 31 + 7) as u8).collect() };
        let golden = [(0, 0u32), (127, 0x4A84_318A), (4096, 0x5D1C_4EE3)];
        for (name, kernel) in KERNELS {
            for (n, want) in golden {
                assert_eq!(crc32_with(kernel, &fill(n)), want, "{name}, {n} B");
            }
        }

        let mut page = [0u8; PAGE_SIZE];
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i * 131 + 89) as u8;
        }
        stamp(&mut page, 42);
        assert_eq!(stored_crc(&page), 0x3AF3_A15C);
        for (name, kernel) in KERNELS {
            assert_eq!(stored_crc_with(kernel, &page), 0x3AF3_A15C, "{name}");
        }

        // One PageDelta frame laid out by hand: len, crc, then kind 5,
        // lsn 9, txn 5, file 3, page 12, two ranges.
        let long: Vec<u8> = (0..200usize).map(|i| (i * 7 + 3) as u8).collect();
        let mut payload = vec![5u8];
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.extend_from_slice(&5u64.to_le_bytes());
        payload.extend_from_slice(&3u16.to_le_bytes());
        payload.extend_from_slice(&12u32.to_le_bytes());
        payload.extend_from_slice(&2u16.to_le_bytes());
        payload.extend_from_slice(&40u16.to_le_bytes());
        payload.extend_from_slice(&200u16.to_le_bytes());
        payload.extend_from_slice(&long);
        payload.extend_from_slice(&4094u16.to_le_bytes());
        payload.extend_from_slice(&2u16.to_le_bytes());
        payload.extend_from_slice(&[0xAA, 0xBB]);
        let mut frame = vec![0xEB, 0, 0, 0, 0x9F, 0x95, 0xB8, 0xFD];
        frame.extend_from_slice(&payload);
        let rec = WalRecord::PageDelta {
            txn: 5,
            page: PageId::new(FileId(3), 12),
            ranges: vec![
                DeltaRange {
                    offset: 40,
                    bytes: long,
                },
                DeltaRange {
                    offset: 4094,
                    bytes: vec![0xAA, 0xBB],
                },
            ],
        };
        assert_eq!(encode(9, &rec), frame);
        for (name, kernel) in KERNELS {
            assert_eq!(crc32_with(kernel, &payload), 0xFDB8_959F, "{name}");
        }
        let scanned = scan(&frame);
        assert_eq!(scanned.valid_len, frame.len() as u64);
        assert_eq!(scanned.entries[0].rec, rec);
    }

    /// The lengths at which the folded kernel changes shape: the
    /// dispatch threshold, one 64-byte stride more or less, 16-byte
    /// blocks with and without a tail, and the two page-sized inputs.
    #[test]
    fn kernels_agree_at_every_boundary_length() {
        let data: Vec<u8> = (0..4200usize).map(|i| (i * 37 + i / 251) as u8).collect();
        for len in [
            15, 16, 17, 63, 64, 65, 127, 128, 129, 143, 144, 191, 192, 193, 4068, 4096,
        ] {
            for skip in 0..16 {
                let d = &data[skip..skip + len];
                for init in [0xFFFF_FFFF, 0, 0x1234_5678] {
                    let want = update_bytewise(init, d);
                    assert_eq!(update(init, d), want, "dispatched, {len} B at +{skip}");
                    assert_eq!(update_sliced(init, d), want, "sliced, {len} B at +{skip}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any length, any alignment, any running state: the folded and
        /// the sliced kernel are bit-identical to the bytewise reference.
        #[test]
        fn sliced_crc_equals_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..5000),
            skip in 0..16usize,
            init in any::<u32>(),
        ) {
            let data = &data[skip.min(data.len())..];
            let want = update_bytewise(init, data);
            prop_assert_eq!(update(init, data), want);
            prop_assert_eq!(update_sliced(init, data), want);
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
            prop_assert_eq!(page_crc(&page), crc32_with(update_bytewise, &zeroed));
        }

        /// A page stamped by a CPU with the folded kernel verifies on
        /// one without it, and the other way round.
        #[test]
        fn a_stamp_by_one_kernel_verifies_under_the_other(
            fill in proptest::collection::vec(any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1),
            lsn in any::<u64>(),
        ) {
            let mut page = [0u8; PAGE_SIZE];
            page.copy_from_slice(&fill);
            stamp(&mut page, lsn);
            prop_assert_eq!(stored_crc(&page), stored_crc_with(update_sliced, &page));

            page[OFF_PAGE_CRC..OFF_PAGE_CRC + 4].fill(0xEE);
            let by_sliced = stored_crc_with(update_sliced, &page);
            page[OFF_PAGE_CRC..OFF_PAGE_CRC + 4].copy_from_slice(&by_sliced.to_le_bytes());
            prop_assert!(verify(&page));
            prop_assert_eq!(read_lsn(&page), lsn);
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
        // Every bit of the 192 bytes around the CRC field (the header,
        // the field itself, the folded kernel's first strides), and a
        // few bytes far from it.
        let far = [1000usize, 4031, 4032, 4079, 4080, PAGE_SIZE - 1];
        for i in (0..192).chain(far) {
            for bit in 0..8 {
                let mut torn = buf;
                torn[i] ^= 1 << bit;
                assert!(!verify(&torn), "flip of bit {bit} at byte {i} undetected");
            }
        }
    }

    #[test]
    fn zero_crc_means_unchecksummed() {
        let buf = [0u8; PAGE_SIZE];
        assert!(verify(&buf), "legacy pages with CRC 0 are accepted");
    }
}
