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
//! Three kernels compute it, bit for bit the same value, and `update`
//! picks among them by CPU detection and input length alone (no
//! feature, no option), widest first:
//!
//! * `update_wide`, for 256 bytes or more on x86-64 with `vpclmulqdq`
//!   and `avx512f`: four 512-bit accumulators fold 256 bytes per step,
//!   each 128-bit lane multiplied by `WIDE_LO`/`WIDE_HI` =
//!   x^(16·128±32) mod P. They merge 64 bytes apart through `K1`/`K2`
//!   into the four 128-bit lanes of the folded kernel's state, and the
//!   folded kernel's `fold_lanes` finishes.
//! * `update_folded`, for 128 bytes or more on x86-64 with `pclmulqdq`
//!   and `sse4.1`: carry-less multiplication folds 64 bytes per step
//!   (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction", Intel 2009). Four 128-bit accumulators are
//!   multiplied by `K1`/`K2` = x^(4·128±32) mod P and xored with the
//!   next 64 bytes; they merge, and the last 16-byte blocks fold in,
//!   through `K3`/`K4` = x^(128±32) mod P; `K5` = x^64 mod P takes 128
//!   bits to 64, and Barrett reduction by `P_X` = P and `U_PRIME` =
//!   µ = ⌊x^64 / P⌋ takes 64 to 32. All nine constants are
//!   bit-reflected, as P is.
//! * `update_sliced`, slicing-by-16 (sixteen table lookups fold sixteen
//!   input bytes per step): the only kernel on other CPUs, and here the
//!   one for short inputs and the folded kernel's ≤ 15-byte tail.
//!
//! A page's CRC is one `update` over the page as it is, so a page goes
//! through the wide kernel whole; the CRC field's own contribution,
//! which is linear in its four bytes, is then xored out by four lookups
//! in `FIELD_TERMS`.
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

/// The folding constants (see the module docs), bit-reflected as P is:
/// `K1`/`K2` move a 128-bit lane 64 bytes on, `K3`/`K4` 16 bytes,
/// `WIDE_LO`/`WIDE_HI` 256 bytes.
#[cfg(target_arch = "x86_64")]
mod keys {
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    pub(super) const K3: i64 = 0x1_7519_97d0;
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    pub(super) const K5: i64 = 0x1_63cd_6124;
    pub(super) const P_X: i64 = 0x1_db71_0641;
    pub(super) const U_PRIME: i64 = 0x1_f701_1641;
    pub(super) const WIDE_LO: i64 = 0x1_1542_778a;
    pub(super) const WIDE_HI: i64 = 0x1_322d_1430;
}

/// The 512-bit kernel (see the module docs) for `data` of 256 bytes
/// or more: four 512-bit accumulators take 256 bytes per step, merge
/// into the four 128-bit lanes of [`update_folded`]'s state, and
/// [`fold_lanes`] finishes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq")]
fn update_wide(c: u32, data: &[u8]) -> u32 {
    use keys::*;
    use std::arch::x86_64::*;
    // One 64-byte block, lowest address in the lowest lane.
    let load = |b: &[u8]| {
        let mut q = [0i64; 8];
        for (q, b) in q.iter_mut().zip(b.chunks_exact(8)) {
            let mut w = [0u8; 8];
            w.copy_from_slice(b);
            *q = i64::from_le_bytes(w);
        }
        _mm512_set_epi64(q[7], q[6], q[5], q[4], q[3], q[2], q[1], q[0])
    };
    // In each 128-bit lane: `a`, moved past `b` by the key pair's
    // powers of x, plus `b`.
    let reduce512 = |a: __m512i, b: __m512i, k: __m512i| {
        let moved = _mm512_xor_si512(
            _mm512_clmulepi64_epi128(a, k, 0x00),
            _mm512_clmulepi64_epi128(a, k, 0x11),
        );
        _mm512_xor_si512(moved, b)
    };
    let (head, rest) = data.split_at(256);
    let mut y = [_mm512_setzero_si512(); 4];
    for (acc, b) in y.iter_mut().zip(head.chunks_exact(64)) {
        *acc = load(b);
    }
    y[0] = _mm512_xor_si512(y[0], _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, i64::from(c)));
    let wide = _mm512_broadcast_i32x4(_mm_set_epi64x(WIDE_HI, WIDE_LO));
    let mut strides = rest.chunks_exact(256);
    for s in &mut strides {
        for (acc, b) in y.iter_mut().zip(s.chunks_exact(64)) {
            *acc = reduce512(*acc, load(b), wide);
        }
    }
    let k1k2 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
    let z = y[1..].iter().fold(y[0], |acc, &b| reduce512(acc, b, k1k2));
    let x = [
        _mm512_extracti32x4_epi32(z, 0),
        _mm512_extracti32x4_epi32(z, 1),
        _mm512_extracti32x4_epi32(z, 2),
        _mm512_extracti32x4_epi32(z, 3),
    ];
    fold_lanes(x, strides.remainder())
}

/// One 16-byte block, lowest address in the lowest lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn load128(b: &[u8]) -> std::arch::x86_64::__m128i {
    let (mut lo, mut hi) = ([0u8; 8], [0u8; 8]);
    lo.copy_from_slice(&b[..8]);
    hi.copy_from_slice(&b[8..16]);
    std::arch::x86_64::_mm_set_epi64x(i64::from_le_bytes(hi), i64::from_le_bytes(lo))
}

/// The carry-less-multiply kernel (see the module docs) for `data` of
/// 128 bytes or more: its first 64 bytes become the four 128-bit lanes
/// [`fold_lanes`] takes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn update_folded(c: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    let (head, rest) = data.split_at(64);
    let mut x = [_mm_setzero_si128(); 4];
    for (lane, b) in x.iter_mut().zip(head.chunks_exact(16)) {
        *lane = load128(b);
    }
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
    fold_lanes(x, rest)
}

/// Fold `rest` into the four lanes `x` (64 bytes of input, the
/// running state already in them) and reduce to the CRC state:
/// 64-byte strides, then 16-byte blocks, then 128 → 32 bits;
/// [`update_sliced`] finishes the ≤ 15-byte tail, if there is one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_lanes(mut x: [std::arch::x86_64::__m128i; 4], rest: &[u8]) -> u32 {
    use keys::*;
    use std::arch::x86_64::*;
    // `a`, moved past `b` by the key pair's powers of x, plus `b`.
    let reduce128 = |a: __m128i, b: __m128i, k: __m128i| {
        let b = _mm_xor_si128(b, _mm_clmulepi64_si128(a, k, 0x00));
        _mm_xor_si128(b, _mm_clmulepi64_si128(a, k, 0x11))
    };
    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut strides = rest.chunks_exact(64);
    for s in &mut strides {
        for (lane, b) in x.iter_mut().zip(s.chunks_exact(16)) {
            *lane = reduce128(*lane, load128(b), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut blocks = strides.remainder().chunks_exact(16);
    let later = x[1..]
        .iter()
        .copied()
        .chain((&mut blocks).map(|b| load128(b)));
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
    match blocks.remainder() {
        [] => c,
        tail => update_sliced(c, tail),
    }
}

/// Fold `data` into the running (pre-inverted) CRC state `c` with the
/// kernel this CPU and this length call for: wide, then folded, then
/// sliced.
fn update(c: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if data.len() >= 128 && has!("pclmulqdq") && has!("sse4.1") {
            let wide = data.len() >= 256 && has!("vpclmulqdq") && has!("avx512f");
            // SAFETY: `update_wide` and `update_folded` are safe fns
            // whose one requirement is the CPU features just detected.
            #[allow(unsafe_code)]
            return unsafe {
                if wide {
                    update_wide(c, data)
                } else {
                    update_folded(c, data)
                }
            };
        }
    }
    update_sliced(c, data)
}

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// `FIELD_TERMS[k][b]`: the CRC state that byte `b` at byte `k` of a
/// page's CRC field leaves at the end of the page, starting from state
/// `0` with every other byte zero. The CRC is linear over GF(2) in its
/// input, so these four terms are exactly what the field's bytes add to
/// the page's CRC, and xoring them out gives the CRC with the field
/// zeroed (see [`page_crc`]).
const fn build_field_terms() -> [[u32; 256]; 4] {
    let table = build_tables()[0];
    let mut terms = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 1;
        while b < 256 {
            terms[k][b] = if b.is_power_of_two() {
                // The byte, then the zero bytes after it to the page's end.
                let mut c = table[b];
                let mut n = OFF_PAGE_CRC + k + 1;
                while n < PAGE_SIZE {
                    c = table[(c & 0xFF) as usize] ^ (c >> 8);
                    n += 1;
                }
                c
            } else {
                // Linear: its lowest set bit's term plus the rest's.
                let low = b & b.wrapping_neg();
                terms[k][low] ^ terms[k][b ^ low]
            };
            b += 1;
        }
        k += 1;
    }
    terms
}

static FIELD_TERMS: [[u32; 256]; 4] = build_field_terms();

/// CRC32 of a page with its own CRC field treated as zero: one pass of
/// the widest kernel over the page as it is, with the field's terms
/// xored out.
fn page_crc(buf: &[u8; PAGE_SIZE]) -> u32 {
    let field = &buf[OFF_PAGE_CRC..OFF_PAGE_CRC + 4];
    let terms = field.iter().zip(&FIELD_TERMS);
    terms.fold(crc32(buf), |crc, (&b, term)| crc ^ term[b as usize])
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

    /// `update_wide` and `update_folded` called directly, each under
    /// its own feature check and from its own minimum length on (the
    /// sliced kernel below it, as in `update`): `update` on this host
    /// runs the wide kernel for every input it could fold, so without
    /// these the folded kernel on long inputs, which a CPU without
    /// AVX-512 runs, would go untested.
    #[allow(unsafe_code)]
    mod tiers {
        use super::update_sliced;
        #[cfg(target_arch = "x86_64")]
        use super::{update_folded, update_wide};
        #[cfg(target_arch = "x86_64")]
        use std::arch::is_x86_feature_detected as has;

        pub(super) fn wide(c: u32, data: &[u8]) -> u32 {
            #[cfg(target_arch = "x86_64")]
            if data.len() >= 256 && has!("vpclmulqdq") && has!("avx512f") {
                // SAFETY: the features `update_wide` needs were just detected.
                return unsafe { update_wide(c, data) };
            }
            update_sliced(c, data)
        }

        pub(super) fn folded(c: u32, data: &[u8]) -> u32 {
            #[cfg(target_arch = "x86_64")]
            if data.len() >= 128 && has!("pclmulqdq") && has!("sse4.1") {
                // SAFETY: the features `update_folded` needs were just detected.
                return unsafe { update_folded(c, data) };
            }
            update_sliced(c, data)
        }
    }

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every production tier — `update` as dispatched, the wide and the
    /// folded kernel called directly, and `update_sliced`, what every
    /// other CPU runs — and the reference.
    const KERNELS: [(&str, Kernel); 5] = [
        ("dispatched", update),
        ("wide", tiers::wide),
        ("folded", tiers::folded),
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
        // The tier comparisons below mean it only if `tiers::wide` and
        // `tiers::folded` really run their kernels here.
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            assert!(
                has!("pclmulqdq") && has!("sse4.1"),
                "no pclmulqdq + sse4.1 here: these tests compare the sliced kernel with itself"
            );
            assert!(
                has!("vpclmulqdq") && has!("avx512f"),
                "no vpclmulqdq + avx512f here: the wide tier is the folded one in these tests"
            );
        }
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

    /// The lengths at which a folding kernel changes shape: the two
    /// dispatch thresholds, one stride (64 or 256 bytes) more or less,
    /// 16-byte blocks with and without a tail, and the page-sized inputs.
    #[test]
    fn kernels_agree_at_every_boundary_length() {
        let data: Vec<u8> = (0..4200usize).map(|i| (i * 37 + i / 251) as u8).collect();
        for len in [
            15, 16, 17, 63, 64, 65, 127, 128, 129, 143, 144, 191, 192, 193, 255, 256, 257, 319,
            320, 511, 512, 513, 3840, 4068, 4096,
        ] {
            for skip in 0..16 {
                let d = &data[skip..skip + len];
                for init in [0xFFFF_FFFF, 0, 0x1234_5678] {
                    let want = update_bytewise(init, d);
                    for (name, kernel) in KERNELS {
                        assert_eq!(kernel(init, d), want, "{name}, {len} B at +{skip}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any length, any alignment, any running state: every tier is
        /// bit-identical to the bytewise reference.
        #[test]
        fn sliced_crc_equals_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..5000),
            skip in 0..16usize,
            init in any::<u32>(),
        ) {
            let data = &data[skip.min(data.len())..];
            let want = update_bytewise(init, data);
            for (name, kernel) in KERNELS {
                prop_assert_eq!(kernel(init, data), want, "{}", name);
            }
        }

        /// The page CRC (the whole page, the field's terms xored out)
        /// equals the reference over a copy with the CRC field zeroed.
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

        /// A page stamped by a CPU with a folding kernel verifies on
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
        // Every bit of the first 320 bytes (the header, the CRC field,
        // the wide kernel's first two steps), and a few bytes far from
        // them.
        let far = [1000usize, 4031, 4032, 4079, 4080, PAGE_SIZE - 1];
        for i in (0..320).chain(far) {
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
