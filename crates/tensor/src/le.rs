//! Checked little-endian decoding — the one reader behind the workspace's
//! two binary formats (`PGTCKPT1` checkpoints and `PGTSNAP1` snapshots).
//!
//! The rule it enforces: **a length read from input is checked against the
//! bytes remaining before it sizes anything.** Every accessor returns
//! `Result<_, Truncated>`; there is no panicking read to reach for, so a
//! parser written as a chain of `r.u32()?` calls cannot trust its bytes by
//! accident. Writing needs no counterpart: `Vec<u8>` and
//! `extend_from_slice(&x.to_le_bytes())` already are the writer.

/// The input ended before the value being read — or a count read from it
/// promises more bytes than remain (or than `usize` can address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "input truncated")
    }
}

impl std::error::Error for Truncated {}

/// A cursor over borrowed bytes; each read consumes what it returns.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or(Truncated)?;
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let (head, tail) = self.rest.split_first_chunk::<N>().ok_or(Truncated)?;
        self.rest = tail;
        Ok(*head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `u64` count, extent or byte length, as a `usize`.
    pub fn size(&mut self) -> Result<usize, Truncated> {
        usize::try_from(self.u64()?).map_err(|_| Truncated)
    }

    /// `count` little-endian `f32`s. `count · 4 ≤ remaining` is proven
    /// before the output is allocated, so a hostile count costs nothing.
    pub fn f32s(&mut self, count: usize) -> Result<Vec<f32>, Truncated> {
        let bytes = self.take(count.checked_mul(4).ok_or(Truncated)?)?;
        let (words, _) = bytes.as_chunks::<4>();
        Ok(words.iter().map(|w| f32::from_le_bytes(*w)).collect())
    }
}

/// Element count of a shape read from input, or [`Truncated`] when the
/// product overflows `usize`. Zero extents count as one *for the overflow
/// check* (the row-major strides `Shape` derives skip them the same way),
/// so a shape this accepts can be handed to `Tensor::from_vec` without an
/// arithmetic panic in either build profile.
pub fn numel(dims: &[usize]) -> Result<usize, Truncated> {
    let span = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d.max(1)))
        .ok_or(Truncated)?;
    Ok(if dims.contains(&0) { 0 } else { span })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit_reads_consume_the_whole_input() {
        let mut bytes = vec![0xAB];
        bytes.extend_from_slice(&0xBEEFu16.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&(-1.5f32).to_le_bytes());
        bytes.extend_from_slice(b"tail");
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(r.size(), Ok(7));
        assert_eq!(r.f32s(1), Ok(vec![-1.5]));
        assert_eq!(r.take(4), Ok(&b"tail"[..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.take(0), Ok(&[][..]), "an empty read at the end is fine");
        assert_eq!(r.u8(), Err(Truncated));
    }

    #[test]
    fn one_byte_short_is_truncated_at_every_width_and_consumes_nothing() {
        let bytes = [0x5Au8; 8];
        for have in 0..8 {
            let short = &bytes[..have];
            let fresh = || Reader::new(short);
            assert_eq!(fresh().u8().is_err(), have < 1);
            assert_eq!(fresh().u16().is_err(), have < 2);
            assert_eq!(fresh().u32().is_err(), have < 4);
            assert_eq!(fresh().u64(), Err(Truncated));
            assert_eq!(fresh().size(), Err(Truncated));
            assert_eq!(fresh().take(have + 1), Err(Truncated));
            assert_eq!(fresh().f32s(have / 4 + 1), Err(Truncated));
            let mut r = fresh();
            let _ = r.u64();
            assert_eq!(r.remaining(), have, "a failed read leaves the cursor");
        }
    }

    #[test]
    fn f32s_decodes_bits_and_refuses_counts_the_input_cannot_back() {
        let values = [0.0f32, -0.0, 1.0e-40, f32::INFINITY, 3.25];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut r = Reader::new(&bytes);
        let back = r.f32s(4).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            values[..4].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(r.remaining(), 4);
        // Nothing below may allocate: each count fails the length proof.
        for count in [2, usize::MAX / 4, usize::MAX / 4 + 1, usize::MAX] {
            assert_eq!(r.f32s(count), Err(Truncated), "{count}");
        }
        assert_eq!(r.f32s(0), Ok(vec![]));
        assert_eq!(r.f32s(1), Ok(vec![3.25]));
    }

    #[test]
    fn numel_is_the_product_or_truncated_on_overflow() {
        assert_eq!(numel(&[]), Ok(1), "rank 0 holds one element");
        assert_eq!(numel(&[2, 3, 2]), Ok(12));
        assert_eq!(numel(&[5, 0, 7]), Ok(0));
        let huge = usize::MAX / 2 + 2; // 2⁶³ + 1 on a 64-bit host
        assert_eq!(numel(&[huge]), Ok(huge));
        assert_eq!(numel(&[huge, 2]), Err(Truncated), "wraps to 2 unchecked");
        assert_eq!(numel(&[usize::MAX, usize::MAX]), Err(Truncated));
        assert_eq!(
            numel(&[huge, 0, huge]),
            Err(Truncated),
            "no elements, but strides that overflow"
        );
    }
}
