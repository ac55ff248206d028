//! The DisCFS permission lattice.
//!
//! Paper §5: *"The return values for the assertions form a partial
//! order of 8 combinations ("false", "X", "W", "WX", "R", "RX", "RW"
//! and "RWX") and translate directly into the standard octal
//! representation."* KeyNote queries use this list as their ordered
//! compliance value set; the returned value's index **is** the octal
//! permission word.

/// A set of Unix-style permissions (R=4, W=2, X=1, like `chmod`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perm(u8);

impl Perm {
    /// No access (`"false"` in credentials).
    pub const NONE: Perm = Perm(0);
    /// Execute / traverse.
    pub(crate) const X: Perm = Perm(1);
    /// Write.
    pub const W: Perm = Perm(2);
    /// Read.
    pub const R: Perm = Perm(4);
    /// Read + write.
    pub const RW: Perm = Perm(6);
    /// Read + execute.
    pub const RX: Perm = Perm(5);
    /// Full access.
    pub const RWX: Perm = Perm(7);

    /// The ordered compliance value set for KeyNote queries; index ==
    /// octal value.
    pub const VALUE_SET: [&'static str; 8] = ["false", "X", "W", "WX", "R", "RX", "RW", "RWX"];

    /// True when this set includes all of `required`.
    pub(crate) fn contains(self, required: Perm) -> bool {
        self.0 & required.0 == required.0
    }

    /// Union of two sets.
    pub(crate) fn union(self, other: Perm) -> Perm {
        Perm(self.0 | other.0)
    }

    /// True when no permission is granted.
    pub(crate) fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The credential value string (`"RW"`, `"false"`, …).
    pub(crate) fn value_string(self) -> &'static str {
        Self::VALUE_SET[self.0 as usize]
    }

    /// Parses a compliance value string; unknown strings mean no access
    /// (the fail-safe direction).
    pub(crate) fn from_value_string(s: &str) -> Perm {
        Self::VALUE_SET
            .iter()
            .position(|v| *v == s)
            .map(|i| Perm(i as u8))
            .unwrap_or(Perm::NONE)
    }

    /// The Unix mode word shown for a file granted these permissions:
    /// the bits replicate to user/group/other because DisCFS identities
    /// are keys, not local uids (paper §5: the userid "has no local
    /// significance").
    pub(crate) fn mode_bits(self) -> u32 {
        (self.0 as u32) * 0o111
    }
}

impl std::fmt::Display for Perm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.value_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_set_index_is_octal() {
        for (bits, value) in Perm::VALUE_SET.iter().enumerate() {
            let p = Perm::from_value_string(value);
            assert_eq!(p.0 as usize, bits);
            assert_eq!(p.value_string(), *value);
        }
        assert_eq!(Perm::RWX.value_string(), "RWX");
        assert_eq!(Perm::NONE.value_string(), "false");
        assert_eq!(Perm::RW.0, 6);
    }

    #[test]
    fn containment() {
        assert!(Perm::RWX.contains(Perm::R));
        assert!(Perm::RWX.contains(Perm::RW));
        assert!(Perm::RW.contains(Perm::W));
        assert!(!Perm::RW.contains(Perm::X));
        assert!(!Perm::R.contains(Perm::W));
        assert!(Perm::R.contains(Perm::NONE));
    }

    #[test]
    fn set_algebra() {
        assert_eq!(Perm::R.union(Perm::W), Perm::RW);
        assert_eq!(Perm::RX.union(Perm::W), Perm::RWX);
        assert!(Perm::NONE.union(Perm::NONE).is_none());
    }

    #[test]
    fn unknown_value_is_no_access() {
        assert_eq!(Perm::from_value_string("SUPERUSER"), Perm::NONE);
        assert_eq!(Perm::from_value_string(""), Perm::NONE);
    }

    #[test]
    fn mode_replication() {
        assert_eq!(Perm::RWX.mode_bits(), 0o777);
        assert_eq!(Perm::R.mode_bits(), 0o444);
        assert_eq!(Perm::NONE.mode_bits(), 0o000);
        assert_eq!(Perm::RW.mode_bits(), 0o666);
    }
}
