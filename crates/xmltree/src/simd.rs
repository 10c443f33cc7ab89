//! Stage 1 of the two-stage lexer: the SIMD structural-index pass.
//!
//! `classify` scans a chunk of input bytes **once** and appends to a
//! compact index every *structural* position — the six byte values the
//! token layer dispatches on (`<`, `>`, `"`, `'`, `&`, `]`) — plus every
//! newline (for line/column accounting) and whether the chunk was pure
//! ASCII (feeding the batched UTF-8 watermark in `stream`). Stage 2
//! ([`crate::stream::XmlReader`]) then walks the index instead of
//! re-scanning bytes: a text run is "the next `<`/`&` mark", a tag
//! extent is "the next unquoted `>` mark", and so on.
//!
//! Three kernels produce identical output:
//!
//! * [`Engine::Sse2`] — 16-byte `_mm_cmpeq_epi8`/`_mm_movemask_epi8`
//!   lanes on x86-64 (SSE2 is baseline for the target, but dispatch
//!   still verifies it at runtime);
//! * [`Engine::Neon`] — 16-byte `vceqq_u8` lanes on aarch64, with the
//!   `vshrn_n_u16` nibble-mask trick standing in for `movemask`;
//! * [`Engine::Scalar`] — a table-driven byte loop, the portable
//!   kernel for platforms without SSE2/NEON.
//!
//! The engine chooses only the kernel: the reader builds the same index
//! and runs the same stage 2 under every engine, so forcing scalar
//! changes throughput, never results. The independent check of stage 2
//! is the byte-at-a-time [`crate::reference`] lexer, not a second path
//! here.
//!
//! Dispatch is runtime, per reader: [`Engine::detect`] picks the widest
//! available kernel unless the `BONXAI_NO_SIMD` environment variable
//! forces scalar; [`crate::stream::XmlReader::set_engine`] overrides it
//! programmatically.

/// Which stage-1 kernel builds a reader's structural index. See the
/// module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Explicit SSE2 intrinsics (x86-64).
    Sse2,
    /// Explicit NEON intrinsics (aarch64).
    Neon,
    /// The portable table-driven kernel: same index, one byte at a
    /// time.
    Scalar,
}

impl Engine {
    /// The widest kernel available on this machine, unless the
    /// `BONXAI_NO_SIMD` environment variable (set to anything but `0`
    /// or empty) forces [`Engine::Scalar`]. The answer is computed once
    /// per process.
    pub fn detect() -> Engine {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<Engine> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let forced_scalar = std::env::var("BONXAI_NO_SIMD")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            if forced_scalar {
                return Engine::Scalar;
            }
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("sse2") {
                    return Engine::Sse2;
                }
            }
            #[cfg(target_arch = "aarch64")]
            {
                return Engine::Neon;
            }
            #[allow(unreachable_code)]
            Engine::Scalar
        })
    }

    /// Whether this kernel can run on the current machine.
    pub fn is_available(self) -> bool {
        match self {
            Engine::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Engine::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(not(target_arch = "x86_64"))]
            Engine::Sse2 => false,
            Engine::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// Stable lowercase name, as reported in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Sse2 => "sse2",
            Engine::Neon => "neon",
            Engine::Scalar => "scalar",
        }
    }
}

// ------------------------------------------------------------- classes

/// Class codes for the six structural bytes, packed into the low 3 bits
/// of a mark word (`mark = (abs_position << 3) | class`).
pub(crate) const CLASS_LT: u8 = 0; // `<`
/// `>`
pub(crate) const CLASS_GT: u8 = 1;
/// `"`
pub(crate) const CLASS_DQ: u8 = 2;
/// `'`
pub(crate) const CLASS_SQ: u8 = 3;
/// `&`
pub(crate) const CLASS_AMP: u8 = 4;
/// `]`
pub(crate) const CLASS_RB: u8 = 5;

/// Bit masks over the classes, for "next mark of any of these kinds"
/// queries.
pub(crate) const MASK_LT: u8 = 1 << CLASS_LT;
pub(crate) const MASK_GT: u8 = 1 << CLASS_GT;
pub(crate) const MASK_DQ: u8 = 1 << CLASS_DQ;
pub(crate) const MASK_SQ: u8 = 1 << CLASS_SQ;
pub(crate) const MASK_AMP: u8 = 1 << CLASS_AMP;
pub(crate) const MASK_RB: u8 = 1 << CLASS_RB;

const NONE: u8 = 0xFF;

/// Byte value → structural class, or [`NONE`].
static CLASS_OF: [u8; 256] = {
    let mut t = [NONE; 256];
    t[b'<' as usize] = CLASS_LT;
    t[b'>' as usize] = CLASS_GT;
    t[b'"' as usize] = CLASS_DQ;
    t[b'\'' as usize] = CLASS_SQ;
    t[b'&' as usize] = CLASS_AMP;
    t[b']' as usize] = CLASS_RB;
    t
};

// ------------------------------------------------------------- kernels

/// Scans `chunk`, whose first byte sits at absolute offset `base`,
/// appending `(abs << 3) | class` words for every structural byte to
/// `marks` and absolute newline offsets to `nls`. Returns whether every
/// byte in the chunk was ASCII.
///
/// All engines produce identical output (pinned by the tests below);
/// they differ only in how they find the candidate bytes.
pub(crate) fn classify(
    engine: Engine,
    chunk: &[u8],
    base: usize,
    marks: &mut Vec<u64>,
    nls: &mut Vec<u64>,
) -> bool {
    match engine {
        #[cfg(target_arch = "x86_64")]
        Engine::Sse2 => sse2::classify(chunk, base, marks, nls),
        #[cfg(target_arch = "aarch64")]
        Engine::Neon => neon::classify(chunk, base, marks, nls),
        _ => classify_scalar(chunk, base, marks, nls),
    }
}

/// The portable reference kernel: a table lookup per byte.
fn classify_scalar(chunk: &[u8], base: usize, marks: &mut Vec<u64>, nls: &mut Vec<u64>) -> bool {
    let mut all_ascii = true;
    for (i, &b) in chunk.iter().enumerate() {
        let class = CLASS_OF[b as usize];
        if class != NONE {
            marks.push((((base + i) as u64) << 3) | u64::from(class));
        } else if b == b'\n' {
            nls.push((base + i) as u64);
        }
        all_ascii &= b < 0x80;
    }
    all_ascii
}

/// Length of the longest prefix of `bytes` consisting entirely of XML
/// whitespace (the `S` production: `0x09`, `0x0A`, `0x0D`, `0x20`) —
/// equivalently, the offset of the first byte outside that set, or
/// `bytes.len()`. The fused drive loop uses this to answer "any
/// non-whitespace text?" for element-only content without a per-`char`
/// scan. All four bytes are ASCII, so no multi-byte sequence is ever
/// whitespace and the answer needs no `char`-level look.
#[inline]
pub(crate) fn first_non_xml_ws(bytes: &[u8]) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            return sse2::first_non_xml_ws(bytes);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return neon::first_non_xml_ws(bytes);
    }
    #[allow(unreachable_code)]
    first_non_xml_ws_scalar(bytes)
}

/// Portable reference for [`first_non_xml_ws`].
fn first_non_xml_ws_scalar(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|&b| !matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        .unwrap_or(bytes.len())
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::{
        __m128i, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8,
    };

    #[allow(unsafe_code)]
    pub(super) fn classify(
        chunk: &[u8],
        base: usize,
        marks: &mut Vec<u64>,
        nls: &mut Vec<u64>,
    ) -> bool {
        // SAFETY: `Engine::detect`/`is_available` gate this kernel on a
        // successful `is_x86_feature_detected!("sse2")` (always true on
        // x86-64, which has SSE2 in its baseline).
        unsafe { classify_impl(chunk, base, marks, nls) }
    }

    #[allow(unsafe_code)]
    #[target_feature(enable = "sse2")]
    unsafe fn classify_impl(
        chunk: &[u8],
        base: usize,
        marks: &mut Vec<u64>,
        nls: &mut Vec<u64>,
    ) -> bool {
        let mut non_ascii = 0i32;
        let mut i = 0;
        while i + 16 <= chunk.len() {
            // SAFETY: `i + 16 <= chunk.len()`; unaligned load is fine.
            let v = unsafe { _mm_loadu_si128(chunk.as_ptr().add(i) as *const __m128i) };
            let eq = |c: u8| _mm_cmpeq_epi8(v, _mm_set1_epi8(c as i8));
            let structural = _mm_or_si128(
                _mm_or_si128(
                    _mm_or_si128(eq(b'<'), eq(b'>')),
                    _mm_or_si128(eq(b'"'), eq(b'\'')),
                ),
                _mm_or_si128(eq(b'&'), eq(b']')),
            );
            // One u16 lane mask per comparison; bit k = byte k matched.
            let mut sm = _mm_movemask_epi8(structural) as u32;
            while sm != 0 {
                let k = sm.trailing_zeros() as usize;
                let b = chunk[i + k];
                let class = super::CLASS_OF[b as usize];
                marks.push((((base + i + k) as u64) << 3) | u64::from(class));
                sm &= sm - 1;
            }
            let mut nm = _mm_movemask_epi8(eq(b'\n')) as u32;
            while nm != 0 {
                let k = nm.trailing_zeros() as usize;
                nls.push((base + i + k) as u64);
                nm &= nm - 1;
            }
            // High bit set ⇔ byte ≥ 0x80: movemask of the raw lanes.
            non_ascii |= _mm_movemask_epi8(v);
            i += 16;
        }
        super::classify_scalar(&chunk[i..], base + i, marks, nls) && non_ascii == 0
    }

    #[allow(unsafe_code)]
    pub(super) fn first_non_xml_ws(bytes: &[u8]) -> usize {
        // SAFETY: the caller checked `is_x86_feature_detected!("sse2")`
        // (always true on x86-64, which has SSE2 in its baseline).
        unsafe { first_non_xml_ws_impl(bytes) }
    }

    #[allow(unsafe_code)]
    #[target_feature(enable = "sse2")]
    unsafe fn first_non_xml_ws_impl(bytes: &[u8]) -> usize {
        let mut i = 0;
        while i + 16 <= bytes.len() {
            // SAFETY: `i + 16 <= bytes.len()`; unaligned load is fine.
            let v = unsafe { _mm_loadu_si128(bytes.as_ptr().add(i) as *const __m128i) };
            let eq = |c: u8| _mm_cmpeq_epi8(v, _mm_set1_epi8(c as i8));
            let ws = _mm_or_si128(
                _mm_or_si128(eq(b' '), eq(b'\t')),
                _mm_or_si128(eq(b'\r'), eq(b'\n')),
            );
            let non_ws = !(_mm_movemask_epi8(ws) as u32) & 0xFFFF;
            if non_ws != 0 {
                return i + non_ws.trailing_zeros() as usize;
            }
            i += 16;
        }
        i + super::first_non_xml_ws_scalar(&bytes[i..])
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::{
        uint8x16_t, vceqq_u8, vdupq_n_u8, vget_lane_u64, vld1q_u8, vmaxvq_u8, vorrq_u8,
        vreinterpret_u64_u8, vreinterpretq_u16_u8, vshrn_n_u16,
    };

    /// NEON has no `movemask`; the standard substitute narrows each
    /// 16-bit lane pair to its high nibble, yielding a u64 where nibble
    /// `k` is `0xF` iff byte `k` matched.
    #[allow(unsafe_code)]
    #[target_feature(enable = "neon")]
    unsafe fn nibble_mask(v: uint8x16_t) -> u64 {
        vget_lane_u64::<0>(vreinterpret_u64_u8(vshrn_n_u16::<4>(vreinterpretq_u16_u8(
            v,
        ))))
    }

    #[allow(unsafe_code)]
    pub(super) fn classify(
        chunk: &[u8],
        base: usize,
        marks: &mut Vec<u64>,
        nls: &mut Vec<u64>,
    ) -> bool {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { classify_impl(chunk, base, marks, nls) }
    }

    #[allow(unsafe_code)]
    #[target_feature(enable = "neon")]
    unsafe fn classify_impl(
        chunk: &[u8],
        base: usize,
        marks: &mut Vec<u64>,
        nls: &mut Vec<u64>,
    ) -> bool {
        let mut all_ascii = true;
        let mut i = 0;
        while i + 16 <= chunk.len() {
            // SAFETY: `i + 16 <= chunk.len()`.
            let v = unsafe { vld1q_u8(chunk.as_ptr().add(i)) };
            let eq = |c: u8| vceqq_u8(v, vdupq_n_u8(c));
            let structural = vorrq_u8(
                vorrq_u8(vorrq_u8(eq(b'<'), eq(b'>')), vorrq_u8(eq(b'"'), eq(b'\''))),
                vorrq_u8(eq(b'&'), eq(b']')),
            );
            let mut sm = nibble_mask(structural);
            while sm != 0 {
                let k = (sm.trailing_zeros() >> 2) as usize;
                let b = chunk[i + k];
                let class = super::CLASS_OF[b as usize];
                marks.push((((base + i + k) as u64) << 3) | u64::from(class));
                sm &= !(0xFu64 << (4 * k));
            }
            let mut nm = nibble_mask(eq(b'\n'));
            while nm != 0 {
                let k = (nm.trailing_zeros() >> 2) as usize;
                nls.push((base + i + k) as u64);
                nm &= !(0xFu64 << (4 * k));
            }
            all_ascii &= vmaxvq_u8(v) < 0x80;
            i += 16;
        }
        super::classify_scalar(&chunk[i..], base + i, marks, nls) && all_ascii
    }

    #[allow(unsafe_code)]
    pub(super) fn first_non_xml_ws(bytes: &[u8]) -> usize {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { first_non_xml_ws_impl(bytes) }
    }

    #[allow(unsafe_code)]
    #[target_feature(enable = "neon")]
    unsafe fn first_non_xml_ws_impl(bytes: &[u8]) -> usize {
        let mut i = 0;
        while i + 16 <= bytes.len() {
            // SAFETY: `i + 16 <= bytes.len()`.
            let v = unsafe { vld1q_u8(bytes.as_ptr().add(i)) };
            let eq = |c: u8| vceqq_u8(v, vdupq_n_u8(c));
            let ws = vorrq_u8(
                vorrq_u8(eq(b' '), eq(b'\t')),
                vorrq_u8(eq(b'\r'), eq(b'\n')),
            );
            let mask = nibble_mask(ws);
            if mask != u64::MAX {
                return i + ((!mask).trailing_zeros() >> 2) as usize;
            }
            i += 16;
        }
        i + super::first_non_xml_ws_scalar(&bytes[i..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(engine: Engine, chunk: &[u8], base: usize) -> (Vec<u64>, Vec<u64>, bool) {
        let mut marks = Vec::new();
        let mut nls = Vec::new();
        let ascii = classify(engine, chunk, base, &mut marks, &mut nls);
        (marks, nls, ascii)
    }

    #[test]
    fn scalar_kernel_marks_exactly_the_structural_bytes() {
        let input = b"<a x=\"v'\">text & more]\n</a>";
        let (marks, nls, ascii) = run(Engine::Scalar, input, 100);
        let expect: Vec<u64> = input
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| {
                let c = match b {
                    b'<' => CLASS_LT,
                    b'>' => CLASS_GT,
                    b'"' => CLASS_DQ,
                    b'\'' => CLASS_SQ,
                    b'&' => CLASS_AMP,
                    b']' => CLASS_RB,
                    _ => return None,
                };
                Some((((100 + i) as u64) << 3) | u64::from(c))
            })
            .collect();
        assert_eq!(marks, expect);
        assert_eq!(nls, vec![100 + 22]);
        assert!(ascii);
    }

    #[test]
    fn detected_kernel_matches_scalar_on_varied_inputs() {
        let engine = Engine::detect();
        // A deterministic pseudo-random byte soup heavy in structural
        // bytes, newlines, and non-ASCII, at every alignment and length
        // straddling the 16-byte lane boundary.
        let mut bytes = Vec::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 33) as u8;
            bytes.push(match b % 11 {
                0 => b'<',
                1 => b'>',
                2 => b'"',
                3 => b'\'',
                4 => b'&',
                5 => b']',
                6 => b'\n',
                7 => 0xC3, // non-ASCII
                _ => b,
            });
        }
        for start in [0usize, 1, 7, 15, 16, 17] {
            for len in [0usize, 1, 15, 16, 17, 31, 33, 100, 1000] {
                let end = (start + len).min(bytes.len());
                let chunk = &bytes[start..end];
                assert_eq!(
                    run(engine, chunk, start),
                    run(Engine::Scalar, chunk, start),
                    "engine {} diverges at start={start} len={len}",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn ascii_flag_reflects_high_bytes_anywhere_in_the_chunk() {
        let engine = Engine::detect();
        let mut chunk = vec![b'a'; 40];
        assert!(run(engine, &chunk, 0).2);
        for pos in [0usize, 15, 16, 32, 39] {
            chunk[pos] = 0xE2;
            assert!(!run(engine, &chunk, 0).2, "high byte at {pos} missed");
            chunk[pos] = b'a';
        }
    }

    #[test]
    fn first_non_xml_ws_matches_naive_scan() {
        // Byte soup heavy in whitespace, with the ASCII whitespace that
        // is not XML whitespace (0x0B, 0x0C), 0x20's neighbors, and high
        // bytes that decode to Unicode whitespace (0x85, 0xA0) — none of
        // which may count as whitespace here.
        let mut bytes = Vec::new();
        let mut x: u64 = 0x243f6a8885a308d3;
        for _ in 0..2048 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 33) as u8;
            bytes.push(match b % 15 {
                0 => 0x08,
                1 => 0x09,
                2 => 0x0A,
                3 => 0x0D,
                4 => 0x0E,
                5 => 0x1F,
                6 => 0x20,
                7 => 0x21,
                8 => 0x85,
                9 => 0xA0,
                10 => 0x0B,
                11 => 0x0C,
                _ => b,
            });
        }
        // Long all-whitespace runs so the SIMD loop iterates.
        bytes.extend(std::iter::repeat_n(b' ', 100));
        for start in [0usize, 1, 7, 15, 16, 17, 33] {
            for len in [0usize, 1, 15, 16, 17, 31, 33, 100, 1000] {
                let end = (start + len).min(bytes.len());
                let chunk = &bytes[start..end];
                let naive = chunk
                    .iter()
                    .position(|&b| !crate::is_xml_whitespace(char::from(b)))
                    .unwrap_or(chunk.len());
                assert_eq!(
                    first_non_xml_ws(chunk),
                    naive,
                    "diverges at start={start} len={len}"
                );
                let all_ws = &vec![b'\t'; len][..];
                assert_eq!(first_non_xml_ws(all_ws), len);
            }
        }
    }

    #[test]
    fn detect_and_availability_are_consistent() {
        let e = Engine::detect();
        assert!(e.is_available());
        assert!(Engine::Scalar.is_available());
        assert!(!e.name().is_empty());
    }
}
