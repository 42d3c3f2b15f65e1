//! The workspace's one byte-wise FNV-1a 64-bit hash.
//!
//! Content-addressed cache keys, checkpoint frame checksums, weight
//! snapshot checksums and every ranking/response digest fold bytes through
//! these two functions, so a digest printed by one crate can be recomputed
//! by any other. Not cryptographic — it only has to be fast, stable across
//! platforms and sensitive to every byte. Inputs whose *high* bits pick a
//! bucket (e.g. ring positions) should finish with
//! [`crate::rng::derive_seed`], because FNV-1a of short structured inputs
//! clusters there.

/// 64-bit FNV-1a offset basis: the digest of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a digest over more bytes (multi-part keys and
/// streamed digests): `fnv1a64(a ‖ b) == fnv1a64_update(fnv1a64(a), b)`.
#[inline]
pub fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn update_continues_a_digest_at_every_split_point() {
        let msg = b"deep fusion screening funnel";
        for split in 0..=msg.len() {
            let (a, b) = msg.split_at(split);
            assert_eq!(fnv1a64_update(fnv1a64(a), b), fnv1a64(msg), "split at {split}");
        }
    }
}
