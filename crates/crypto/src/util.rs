//! Small helpers shared across the workspace: hex encoding, constant-time
//! comparison, and the one FNV-1a-64 fold behind every non-cryptographic
//! digest (message checksums, per-site fault streams, campaign trace
//! hashes).

/// Encodes bytes as a lowercase hex string.
///
/// # Example
///
/// ```
/// assert_eq!(hypertee_crypto::util::to_hex(&[0xde, 0xad]), "dead");
/// ```
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
    }
    s
}

/// Decodes a hex string into bytes. Returns `None` on odd length or invalid
/// digits.
///
/// # Example
///
/// ```
/// assert_eq!(hypertee_crypto::util::from_hex("dead"), Some(vec![0xde, 0xad]));
/// assert_eq!(hypertee_crypto::util::from_hex("xyz"), None);
/// ```
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let chars: Vec<char> = s.chars().collect();
    for pair in chars.chunks(2) {
        let hi = pair[0].to_digit(16)?;
        let lo = pair[1].to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// Compares two byte slices without early exit, so that comparison time does
/// not depend on where they first differ. Returns `true` when equal.
///
/// Note: in a real firmware this matters against timing attackers; in the
/// simulator it is kept for fidelity with the EMS runtime it models.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// FNV-1a-64 offset basis: the initial value of every fold.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a-64 accumulator, one byte per step.
#[inline]
pub fn fnv1a_bytes(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Folds whole `u64` words into an FNV-1a-64 accumulator, one word per
/// step (the trace-hash variant: each event field is one xor-multiply).
#[inline]
pub fn fnv1a_words(hash: &mut u64, words: &[u64]) {
    for w in words {
        *hash ^= *w;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let data = vec![0u8, 1, 2, 0xff, 0x80, 0x7f];
        assert_eq!(from_hex(&to_hex(&data)), Some(data));
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert_eq!(from_hex("abc"), None);
        assert_eq!(from_hex("zz"), None);
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sane"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn fnv1a_bytes_matches_published_vectors() {
        for (input, want) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325u64),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = FNV_OFFSET;
            fnv1a_bytes(&mut h, input);
            assert_eq!(h, want, "FNV-1a-64({input:?})");
        }
    }

    #[test]
    fn fnv1a_words_pins_the_trace_fold() {
        // The campaign trace hash seeds with `FNV_OFFSET ^ seed` and folds
        // event tuples word by word; pin one tuple so the committed
        // trace hashes cannot drift silently.
        let mut h = FNV_OFFSET ^ 0xC4A0_5EED;
        fnv1a_words(&mut h, &[1, 7, 3, 2]);
        assert_eq!(h, 0x3f24_5735_f3d6_8665);
    }
}
