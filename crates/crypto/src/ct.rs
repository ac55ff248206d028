//! Constant-time helpers.
//!
//! Tag and signature comparisons must not leak how many prefix bytes
//! matched, so they go through [`eq`] rather than `==`.

/// Compares two byte slices in time independent of their contents.
///
/// Returns `false` immediately when lengths differ (the length is public).
///
/// # Examples
///
/// ```
/// assert!(discfs_crypto::ct::eq(b"abc", b"abc"));
/// assert!(!discfs_crypto::ct::eq(b"abc", b"abd"));
/// assert!(!discfs_crypto::ct::eq(b"abc", b"ab"));
/// ```
pub fn eq(a: &[u8], b: &[u8]) -> bool {
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
        assert!(eq(&[], &[]));
        assert!(eq(&[1, 2, 3], &[1, 2, 3]));
        assert!(!eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!eq(&[1, 2], &[1, 2, 3]));
    }
}
