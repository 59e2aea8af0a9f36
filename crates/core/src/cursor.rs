//! A bounds-checked, zero-copy parse cursor over [`Bytes`].
//!
//! Every canonical-format parser in the workspace (transcripts,
//! reports, ledger records, inclusion proofs) reads the same way:
//! length-delimited, order-fixed fields, reject-don't-panic on
//! truncation, reject trailing bytes. This cursor is that read loop,
//! written once — `take` returns [`Bytes::slice`] views of the input,
//! so parsing payloads out of a larger buffer never copies, while the
//! fixed-width reads copy straight out of the borrowed slice.
//!
//! Errors are the unit [`Truncated`]; parsers map it onto their own
//! error vocabulary at the call site.

use bytes::Bytes;

/// The input ended before the requested field completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated;

/// A forward-only cursor over a shared buffer.
#[derive(Debug)]
pub struct ByteCursor<'a> {
    bytes: &'a Bytes,
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    pub fn new(bytes: &'a Bytes) -> Self {
        ByteCursor { bytes, pos: 0 }
    }

    /// Takes the next `n` bytes as a zero-copy view.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<Bytes, Truncated> {
        let range = self.advance(n)?;
        Ok(self.bytes.slice(range))
    }

    /// Takes a fixed-size array, copied out of the borrowed slice: arrays
    /// are small headers, not payloads, so no view of the shared buffer
    /// (and no refcount traffic on it) is made.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than `N` bytes remain.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let range = self.advance(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[range]);
        Ok(out)
    }

    /// Takes a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 2 bytes remain.
    pub fn take_u16(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_be_bytes(self.take_array()?))
    }

    /// Takes a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    /// Takes a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    /// Takes an `f64` from its big-endian bit pattern (bit-exact — the
    /// canonical formats round-trip computed floats).
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 8 bytes remain.
    pub fn take_f64_bits(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Moves past the next `n` bytes and returns their range; consumes
    /// nothing when fewer remain.
    fn advance(&mut self, n: usize) -> Result<std::ops::Range<usize>, Truncated> {
        let start = self.pos;
        let end = start.checked_add(n).ok_or(Truncated)?;
        if end > self.bytes.len() {
            return Err(Truncated);
        }
        self.pos = end;
        Ok(start..end)
    }

    /// True when every byte has been consumed — canonical parsers
    /// require this before accepting, so nothing hides after the last
    /// field.
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_in_order_and_zero_copy() {
        let mut raw = vec![0x01, 0x02]; // u16
        raw.extend_from_slice(&7u32.to_be_bytes());
        raw.extend_from_slice(&9u64.to_be_bytes());
        raw.extend_from_slice(&1.5f64.to_bits().to_be_bytes());
        raw.extend_from_slice(b"payload");
        let bytes = Bytes::from(raw);
        let mut c = ByteCursor::new(&bytes);
        assert_eq!(c.take_u16().unwrap(), 0x0102);
        assert_eq!(c.take_u32().unwrap(), 7);
        assert_eq!(c.take_u64().unwrap(), 9);
        assert_eq!(c.take_f64_bits().unwrap(), 1.5);
        let payload = c.take(7).unwrap();
        assert_eq!(payload.as_ref(), b"payload");
        assert!(payload.aliases(&bytes.slice(bytes.len() - 7..)));
        assert!(c.at_end());
    }

    #[test]
    fn truncation_is_an_error_at_every_cut() {
        let bytes = Bytes::from(vec![1u8; 7]);
        let mut c = ByteCursor::new(&bytes);
        assert_eq!(c.take_u64(), Err(Truncated));
        assert!(c.take(4).is_ok());
        assert_eq!(c.take(4).map(|b| b.len()), Err(Truncated));
        // A failed take consumes nothing.
        assert_eq!(c.take(3).unwrap().len(), 3);
        assert!(c.at_end());
        assert_eq!(c.take(1).map(|b| b.len()), Err(Truncated));
    }

    #[test]
    fn at_end_detects_trailing_bytes() {
        let bytes = Bytes::from(vec![0u8; 3]);
        let mut c = ByteCursor::new(&bytes);
        c.take(2).unwrap();
        assert!(!c.at_end());
    }
}
