//! Plain-old-data encoding for values stored in tracked memory.
//!
//! The tracked arena is a byte array; typed access goes through [`Pod`],
//! which defines a fixed-width little-endian encoding. All implementations
//! are safe code — no transmutes — so the crate stays `unsafe`-free.
//!
//! The impls are non-generic leaves called from generic access code that is
//! instantiated in downstream crates, so both methods of every impl are
//! `#[inline]`: a typed load must decode in its caller, not behind a
//! cross-crate call (DESIGN.md §2). The lint below keeps it that way.

#![warn(clippy::missing_inline_in_public_items)]

/// A fixed-size value that can live in tracked memory.
///
/// Implementors define a byte-exact little-endian encoding. The encoding
/// must be *canonical*: `from_le(to_le(v)) == v` and equal values encode to
/// equal bytes, because the runtime detects value changes by comparing
/// encoded bytes (a store whose bytes match the old contents is a *silent
/// store* and fires no trigger).
///
/// This trait is implemented for the primitive integers, `f32`/`f64` and
/// `bool`; downstream code normally never implements it.
///
/// # Examples
///
/// ```
/// use dtt_core::pod::Pod;
/// let mut buf = [0u8; 4];
/// 0xdead_beef_u32.write_le(&mut buf);
/// assert_eq!(u32::read_le(&buf), 0xdead_beef);
/// ```
pub trait Pod: Copy + 'static {
    /// Encoded width in bytes.
    const SIZE: usize;

    /// Encodes `self` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != Self::SIZE`.
    fn write_le(self, out: &mut [u8]);

    /// Decodes a value from `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != Self::SIZE`.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_pod_int {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn write_le(self, out: &mut [u8]) {
                assert_eq!(out.len(), Self::SIZE, "encode buffer size mismatch");
                out.copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                assert_eq!(bytes.len(), Self::SIZE, "decode buffer size mismatch");
                let mut arr = [0u8; std::mem::size_of::<$t>()];
                arr.copy_from_slice(bytes);
                <$t>::from_le_bytes(arr)
            }
        }
    )*};
}

impl_pod_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl Pod for bool {
    const SIZE: usize = 1;

    #[inline]
    fn write_le(self, out: &mut [u8]) {
        assert_eq!(out.len(), 1, "encode buffer size mismatch");
        out[0] = self as u8;
    }

    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), 1, "decode buffer size mismatch");
        bytes[0] != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Pod + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = vec![0u8; T::SIZE];
        v.write_le(&mut buf);
        assert_eq!(T::read_le(&buf), v);
    }

    #[test]
    fn integer_round_trips() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0x1234u16);
        round_trip(-5i16);
        round_trip(u32::MAX);
        round_trip(i32::MIN);
        round_trip(u64::MAX / 3);
        round_trip(i64::MIN + 1);
        round_trip(u128::MAX - 7);
        round_trip(i128::MIN);
    }

    #[test]
    fn float_round_trips() {
        round_trip(0.0f32);
        round_trip(-1.5f32);
        round_trip(f32::INFINITY);
        round_trip(std::f64::consts::PI);
        round_trip(f64::NEG_INFINITY);
    }

    #[test]
    fn bool_round_trips() {
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut buf = [0u8; 4];
        1u32.write_le(&mut buf);
        assert_eq!(buf, [1, 0, 0, 0]);
    }

    #[test]
    fn equal_values_encode_identically() {
        // Canonicality matters for silent-store detection.
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        42.0f64.write_le(&mut a);
        (21.0f64 * 2.0).write_le(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "encode buffer size mismatch")]
    fn wrong_size_encode_panics() {
        let mut buf = [0u8; 3];
        7u32.write_le(&mut buf);
    }

    #[test]
    #[should_panic(expected = "decode buffer size mismatch")]
    fn wrong_size_decode_panics() {
        u64::read_le(&[0u8; 4]);
    }
}
