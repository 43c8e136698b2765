//! Interned node labels.
//!
//! Every dnode carries a label from the alphabet `Σ`. Labels are compared
//! constantly during partition refinement (the initial partition groups
//! dnodes by label, and two inodes may only merge when label-equal), so we
//! intern them once into dense `u32` symbols and compare integers from then
//! on.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The distinguished label of the single root node (Section 3 of the paper).
pub const ROOT_LABEL: &str = "ROOT";

/// An interned label symbol. `Label`s are only meaningful relative to the
/// [`LabelInterner`] (and hence the [`crate::Graph`]) that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub(crate) u32);

impl Label {
    /// The dense index of this label, suitable for direct array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a label from a dense index previously obtained via
    /// [`Label::index`]. The caller must ensure the index came from the same
    /// interner.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Label(u32::try_from(index).expect("label index overflow"))
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A string-to-symbol interner for node labels.
///
/// Interning is append-only: labels are never removed, even if the last
/// node carrying one is deleted. The alphabet of an XML database is tiny
/// (tens of element names), so this never matters in practice. Each name
/// is stored once behind an `Arc`, so frozen index views share it
/// ([`LabelInterner::shared_name`]) instead of copying it per block.
#[derive(Default, Clone)]
pub struct LabelInterner {
    by_name: HashMap<Box<str>, Label>,
    names: Vec<Arc<str>>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing symbol if already present.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&l) = self.by_name.get(name) {
            return l;
        }
        let l = Label(u32::try_from(self.names.len()).expect("too many labels"));
        self.names.push(name.into());
        self.by_name.insert(name.into(), l);
        l
    }

    /// Looks up a symbol without interning.
    pub fn get(&self, name: &str) -> Option<Label> {
        self.by_name.get(name).copied()
    }

    /// Returns the string for a symbol.
    ///
    /// # Panics
    /// Panics if `label` did not come from this interner.
    pub fn name(&self, label: Label) -> &str {
        &self.names[label.index()]
    }

    /// The string for a symbol as a shared handle: an `Arc` clone, no
    /// copy of the name.
    ///
    /// # Panics
    /// Panics if `label` did not come from this interner.
    pub fn shared_name(&self, label: Label) -> Arc<str> {
        Arc::clone(&self.names[label.index()]) // xsi-lint: allow(slice-index, labels come from this interner, as for `name`)
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no label has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(Label, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Label(i as u32), n.as_ref()))
    }
}

impl fmt::Debug for LabelInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.names.iter().enumerate())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = LabelInterner::new();
        let a = i.intern("person");
        let b = i.intern("auction");
        let a2 = i.intern("person");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn name_round_trips() {
        let mut i = LabelInterner::new();
        let a = i.intern("item");
        assert_eq!(i.name(a), "item");
        assert_eq!(&*i.shared_name(a), "item");
        assert_eq!(i.get("item"), Some(a));
        assert_eq!(i.get("missing"), None);
    }

    #[test]
    fn index_round_trips() {
        let mut i = LabelInterner::new();
        let a = i.intern("x");
        assert_eq!(Label::from_index(a.index()), a);
    }

    #[test]
    fn iter_in_order() {
        let mut i = LabelInterner::new();
        i.intern("a");
        i.intern("b");
        let names: Vec<&str> = i.iter().map(|(_, n)| n).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
