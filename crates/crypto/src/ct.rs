//! Constant-time comparison helpers.
//!
//! MAC and signature verification must not leak how many prefix bytes
//! matched; these helpers compare without data-dependent branches.

/// Compares two byte slices in constant time (for equal-length inputs).
///
/// Returns `false` immediately when lengths differ — the length of a MAC tag
/// is public information, only its *contents* are secret.
///
/// # Examples
///
/// ```
/// use geoproof_crypto::ct::ct_eq;
/// assert!(ct_eq(b"abc", b"abc"));
/// assert!(!ct_eq(b"abc", b"abd"));
/// assert!(!ct_eq(b"abc", b"ab"));
/// ```
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_basic() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2]));
    }
}
