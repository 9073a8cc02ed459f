//! The vocabulary: a string ↔ [`Atom`] interner.

use crate::Atom;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The vocabulary `V` of a propositional database: an interner mapping
/// variable names to dense [`Atom`] indices and back.
///
/// The paper works with a finite set `V` of propositional variables; all
/// interpretations and partitions in this workspace are defined relative to
/// the `Symbols` table they were built against. Atoms are handed out in
/// insertion order, so index `i` always names the `i`-th distinct variable
/// interned.
///
/// Clones share one table until one of them interns a new name (copy on
/// write), so the sub-databases built over an unchanged vocabulary — peel
/// residuals, ICWA prefixes — cost no copy of it.
#[derive(Clone, Default)]
pub struct Symbols {
    table: Arc<Table>,
}

/// Each name is stored once, shared by `names` and `index`.
#[derive(Clone, Default)]
struct Table {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, Atom>,
}

impl Symbols {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing atom if already present.
    pub fn intern(&mut self, name: &str) -> Atom {
        if let Some(a) = self.lookup(name) {
            return a;
        }
        let table = Arc::make_mut(&mut self.table);
        let a =
            Atom::new(u32::try_from(table.names.len()).expect("vocabulary exceeds u32::MAX atoms"));
        let name: Arc<str> = Arc::from(name);
        table.names.push(Arc::clone(&name));
        table.index.insert(name, a);
        a
    }

    /// Looks up an existing atom by name without interning.
    pub fn lookup(&self, name: &str) -> Option<Atom> {
        self.table.index.get(name).copied()
    }

    /// The name of `atom`.
    ///
    /// # Panics
    /// Panics if `atom` was not interned in this table.
    pub fn name(&self, atom: Atom) -> &str {
        &self.table.names[atom.index()]
    }

    /// Number of interned atoms (`|V|`).
    pub fn len(&self) -> usize {
        self.table.names.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.table.names.is_empty()
    }

    /// Iterates over all atoms in index order.
    pub fn atoms(&self) -> impl Iterator<Item = Atom> + '_ {
        (0..self.len()).map(|i| Atom::new(i as u32))
    }

    /// Creates `n` atoms named `x0..x{n-1}` — convenient for generated
    /// workloads and tests.
    pub fn fresh(n: usize) -> Self {
        let mut s = Self::new();
        for i in 0..n {
            s.intern(&format!("x{i}"));
        }
        s
    }

    /// Interns a fresh atom with a name guaranteed not to collide with any
    /// existing one (used by reductions that extend a vocabulary).
    pub fn fresh_atom(&mut self, hint: &str) -> Atom {
        if self.lookup(hint).is_none() {
            return self.intern(hint);
        }
        let mut i = 0usize;
        loop {
            let candidate = format!("{hint}_{i}");
            if self.lookup(&candidate).is_none() {
                return self.intern(&candidate);
            }
            i += 1;
        }
    }
}

impl fmt::Debug for Symbols {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Symbols").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut s = Symbols::new();
        let a = s.intern("a");
        let b = s.intern("b");
        assert_eq!(s.intern("a"), a);
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn name_roundtrip() {
        let mut s = Symbols::new();
        let a = s.intern("hello");
        assert_eq!(s.name(a), "hello");
        assert_eq!(s.lookup("hello"), Some(a));
        assert_eq!(s.lookup("world"), None);
    }

    #[test]
    fn atoms_are_dense_in_insertion_order() {
        let s = Symbols::fresh(5);
        let idx: Vec<usize> = s.atoms().map(|a| a.index()).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.name(Atom::new(3)), "x3");
    }

    #[test]
    fn clones_share_until_one_interns() {
        let mut s = Symbols::fresh(2);
        let t = s.clone();
        assert!(Arc::ptr_eq(&s.table, &t.table));
        let y = s.intern("y");
        assert!(!Arc::ptr_eq(&s.table, &t.table));
        assert_eq!((s.len(), t.len()), (3, 2));
        assert_eq!(t.lookup("y"), None);
        assert_eq!(s.name(y), "y");
    }

    #[test]
    fn fresh_atom_avoids_collisions() {
        let mut s = Symbols::fresh(2);
        let g = s.fresh_atom("x1");
        assert_ne!(s.name(g), "x1");
        assert_eq!(s.lookup(s.name(g)), Some(g));
    }
}
