//! The catalog: named, pre-parsed databases a server answers queries
//! against. Entries load at startup from files (propositional `.dl` or
//! Datalog∨ `.dlv`, with the CLI's auto-detection) and can be added at
//! runtime through the `load` op — which runs under the request budget,
//! so a pathological grounding is bounded like any other query.
//!
//! Each entry is a [`Prepared`] database: its analysis facts (fragments,
//! indexes, peels, islands) fill lazily on the first request that needs
//! them and then serve every later request against the same loaded
//! version. Replacing an entry starts a fresh memo.

use ddb_core::Prepared;
use ddb_ground::{ground_reduced, parse::parse_datalog, GroundingError};
use ddb_logic::parse::parse_program;
use ddb_logic::Database;
use ddb_obs::Interrupted;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The default cap on grounded rules, for the CLI and for `load` requests
/// ([`crate::ServerConfig::grounding_limit`]).
pub const GROUNDING_LIMIT: usize = 1_000_000;

/// Why a database failed to load.
#[derive(Debug)]
pub enum LoadError {
    /// Parse/safety/size failure — a `usage`-class rejection.
    Invalid(String),
    /// The installed budget tripped mid-grounding (the grounder is
    /// checkpointed); graceful degradation, not a wrong database.
    Interrupted(Interrupted),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Invalid(m) => f.write_str(m),
            LoadError::Interrupted(i) => write!(f, "grounding {i}"),
        }
    }
}

/// Parses (and, for Datalog∨, grounds) one program source. `datalog`
/// forces the mode; `None` auto-detects exactly like the CLI: a `(`
/// anywhere in the source means predicate atoms. `limit` bounds the
/// grounded-rule count.
pub fn load_source(
    source: &str,
    datalog: Option<bool>,
    limit: usize,
) -> Result<Database, LoadError> {
    let datalog = datalog.unwrap_or_else(|| source.contains('('));
    if datalog {
        let program = parse_datalog(source).map_err(|e| LoadError::Invalid(e.to_string()))?;
        ground_reduced(&program, limit).map_err(|e| match e {
            GroundingError::Interrupted(i) => LoadError::Interrupted(i),
            other => LoadError::Invalid(other.to_string()),
        })
    } else {
        parse_program(source).map_err(|e| LoadError::Invalid(e.to_string()))
    }
}

/// Named databases, shared across sessions.
///
/// Trust model: entries the *operator* loads at startup can be sealed
/// with [`Catalog::protect_all`]; the server then refuses wire `load`
/// requests that would replace them, so no client can silently change
/// another tenant's answers against an operator-provisioned database.
/// Client-loaded entries are replaceable only with an explicit
/// `overwrite` flag on the request.
#[derive(Default)]
pub struct Catalog {
    entries: BTreeMap<String, Arc<Prepared<'static>>>,
    protected: BTreeSet<String>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Loads a file into the catalog under `name`. `.dlv` files (or any
    /// source containing `(`) go through the Datalog∨ grounder.
    pub fn load_file(&mut self, name: &str, path: &str, limit: usize) -> Result<(), String> {
        let source = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let datalog = path.ends_with(".dlv") || source.contains('(');
        let db = load_source(&source, Some(datalog), limit).map_err(|e| e.to_string())?;
        self.insert(name, db);
        Ok(())
    }

    /// Inserts (or replaces) a named database, with an empty memo.
    pub fn insert(&mut self, name: &str, db: Database) {
        self.entries
            .insert(name.to_owned(), Arc::new(Prepared::new(db)));
    }

    /// Seals every current entry as operator-provisioned: runtime `load`
    /// requests may no longer replace them. Called once after startup
    /// loading, before the catalog is handed to the server.
    pub fn protect_all(&mut self) {
        self.protected.extend(self.entries.keys().cloned());
    }

    /// Whether `name` is a sealed, operator-provisioned entry.
    pub fn is_protected(&self, name: &str) -> bool {
        self.protected.contains(name)
    }

    /// Whether a database with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Looks up a database, with its memo, by name.
    pub fn get(&self, name: &str) -> Option<Arc<Prepared<'static>>> {
        self.entries.get(name).cloned()
    }

    /// The catalog names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Derives a catalog name from a file path: the file stem
/// (`examples/vase.dl` → `vase`).
pub fn name_from_path(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propositional_and_datalog_sources_auto_detect() {
        let db = load_source("a | b. c :- a.", None, 1000).unwrap();
        assert_eq!(db.num_atoms(), 3);
        let db = load_source("edge(a,b). path(X,Y) :- edge(X,Y).", None, 1000).unwrap();
        assert!(db.symbols().lookup("path(a,b)").is_some());
    }

    #[test]
    fn bad_source_is_invalid_not_a_panic() {
        assert!(matches!(
            load_source("p(X) :- .", None, 1000),
            Err(LoadError::Invalid(_))
        ));
        assert!(matches!(
            load_source("p(X).", None, 1000), // unsafe: head var unbound
            Err(LoadError::Invalid(_))
        ));
    }

    #[test]
    fn protect_all_seals_current_entries_only() {
        let mut c = Catalog::new();
        c.insert("ops", load_source("x.", None, 10).unwrap());
        c.protect_all();
        c.insert("tenant", load_source("y.", None, 10).unwrap());
        assert!(c.is_protected("ops"));
        assert!(!c.is_protected("tenant"));
        assert!(c.contains("tenant"));
        assert!(!c.contains("nope"));
    }

    #[test]
    fn catalog_names_are_sorted_and_stems_derive() {
        let mut c = Catalog::new();
        c.insert("b", load_source("x.", None, 10).unwrap());
        c.insert("a", load_source("y.", None, 10).unwrap());
        assert_eq!(c.names(), vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(name_from_path("examples/vase.dl"), "vase");
    }
}
