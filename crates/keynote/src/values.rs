//! Ordered compliance value sets.
//!
//! Every KeyNote query names an ordered set of values from `_MIN_TRUST`
//! to `_MAX_TRUST` (RFC 2704 §5.1). The classic set is
//! `["false", "true"]`; DisCFS uses the eight Unix permission combos
//! `["false", "X", "W", "WX", "R", "RX", "RW", "RWX"]`, whose order
//! translates directly to octal 0–7 (paper §5).

use std::sync::Arc;

/// An ordered compliance value set.
///
/// Index 0 is `_MIN_TRUST`, the last index is `_MAX_TRUST`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ValueSet {
    /// Shared so a query result carries its value text by refcount.
    values: Vec<Arc<str>>,
    /// The `_VALUES` attribute, joined once.
    joined: String,
}

impl ValueSet {
    /// Creates a value set from an ordered list (minimum first).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two values are supplied — RFC 2704 requires
    /// at least `_MIN_TRUST` and `_MAX_TRUST` to be distinct.
    pub(crate) fn new<S: AsRef<str>>(values: &[S]) -> ValueSet {
        assert!(
            values.len() >= 2,
            "a compliance value set needs at least two values"
        );
        let values: Vec<Arc<str>> = values.iter().map(|s| Arc::from(s.as_ref())).collect();
        let joined = values.join(",");
        ValueSet { values, joined }
    }

    /// The index of `_MIN_TRUST` (always 0).
    pub(crate) fn min_index(&self) -> usize {
        0
    }

    /// The index of `_MAX_TRUST`.
    pub(crate) fn max_index(&self) -> usize {
        self.values.len() - 1
    }

    /// Looks up a value's index; `None` when not a member.
    pub(crate) fn index_of(&self, value: &str) -> Option<usize> {
        self.values.iter().position(|v| v.as_ref() == value)
    }

    /// The value at `index`, shared with the set.
    pub(crate) fn shared_value_at(&self, index: usize) -> Arc<str> {
        self.values[index].clone()
    }

    /// The `_VALUES` attribute string: values joined by commas.
    pub(crate) fn values_attribute(&self) -> &str {
        &self.joined
    }

    /// The `_MIN_TRUST` value string.
    pub(crate) fn min_value(&self) -> &str {
        &self.values[0]
    }

    /// The `_MAX_TRUST` value string.
    pub(crate) fn max_value(&self) -> &str {
        &self.values[self.values.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_set() {
        let vs = ValueSet::new(&["false", "true"]);
        assert_eq!(vs.min_value(), "false");
        assert_eq!(vs.max_value(), "true");
        assert_eq!(vs.index_of("true"), Some(1));
        assert_eq!(vs.index_of("maybe"), None);
        assert_eq!(vs.max_index(), 1);
    }

    #[test]
    fn discfs_set_orders_like_octal() {
        let vs = ValueSet::new(&["false", "X", "W", "WX", "R", "RX", "RW", "RWX"]);
        // The paper's observation: index == octal permission value.
        assert_eq!(vs.index_of("false"), Some(0));
        assert_eq!(vs.index_of("X"), Some(1));
        assert_eq!(vs.index_of("W"), Some(2));
        assert_eq!(vs.index_of("WX"), Some(3));
        assert_eq!(vs.index_of("R"), Some(4));
        assert_eq!(vs.index_of("RX"), Some(5));
        assert_eq!(vs.index_of("RW"), Some(6));
        assert_eq!(vs.index_of("RWX"), Some(7));
        assert_eq!(vs.max_index(), 7);
    }

    #[test]
    fn values_attribute_joins() {
        let vs = ValueSet::new(&["false", "true"]);
        assert_eq!(vs.values_attribute(), "false,true");
    }

    #[test]
    #[should_panic(expected = "at least two values")]
    fn singleton_rejected() {
        ValueSet::new(&["only"]);
    }
}
