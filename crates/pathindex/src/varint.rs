//! LEB128 variable-length integer coding for the `PKB5` word streams
//! ([`crate::compress`]).
//!
//! Word streams are dominated by small integers — root gaps within a
//! pattern group, pattern-id deltas, path headers — so LEB128 (7 payload
//! bits per byte, high bit = continuation) shrinks them to 1–2 bytes each.
//! The codec is deliberately minimal: `u32` only, panics never, and
//! decoding returns `None` on truncated or oversized input instead of
//! guessing.

/// Append `v` to `out` as LEB128 (1–5 bytes).
#[inline]
pub(crate) fn put_u32(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a `u32` from `buf[*pos..]`, advancing `pos`. `None` on truncation
/// or a value that does not fit 32 bits.
#[inline]
pub(crate) fn get_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        let payload = (byte & 0x7f) as u32;
        if shift >= 32 || (shift == 28 && payload > 0x0f) {
            return None; // overflow
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn boundary_values_roundtrip_u32() {
        for v in [
            0u32,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            0x1f_ffff,
            0x20_0000,
            0xfff_ffff,
            0x1000_0000,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            put_u32(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_u32(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_input_is_none() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 300); // two bytes
        let mut pos = 0;
        assert_eq!(get_u32(&buf[..1], &mut pos), None);
        assert_eq!(get_u32(&[], &mut 0), None);
    }

    #[test]
    fn overlong_u32_rejected() {
        // Six continuation bytes would exceed 32 bits of payload.
        let buf = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut pos = 0;
        assert_eq!(get_u32(&buf, &mut pos), None);
        // A fifth byte with payload above 0x0f overflows too.
        let buf = [0xffu8, 0xff, 0xff, 0xff, 0x10];
        let mut pos = 0;
        assert_eq!(get_u32(&buf, &mut pos), None);
    }

    #[test]
    fn sequences_decode_in_order() {
        let vals = [0u32, 5, 127, 128, 99999, u32::MAX];
        let mut buf = Vec::new();
        for &v in &vals {
            put_u32(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(get_u32(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    proptest! {
        #[test]
        fn roundtrip_u32(v in any::<u32>()) {
            let mut buf = Vec::new();
            put_u32(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(get_u32(&buf, &mut pos), Some(v));
            prop_assert_eq!(pos, buf.len());
        }

        #[test]
        fn roundtrip_u32_sequences(vals in proptest::collection::vec(any::<u32>(), 0..64)) {
            let mut buf = Vec::new();
            for &v in &vals {
                put_u32(&mut buf, v);
            }
            let mut pos = 0;
            for &v in &vals {
                prop_assert_eq!(get_u32(&buf, &mut pos), Some(v));
            }
            prop_assert_eq!(pos, buf.len());
        }
    }
}
