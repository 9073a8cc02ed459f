//! Concrete syntax for databases and formulas.
//!
//! # Program syntax
//!
//! A program is a sequence of clauses terminated by `.`:
//!
//! ```text
//! % disjunctive fact
//! a | b.
//! % rule with negation ("not" or "~")
//! c :- a, not b.
//! % integrity clause (empty head)
//! :- a, c.
//! ```
//!
//! `|` (or `v` as a keyword) separates head atoms; `,` separates body
//! literals; `%` starts a line comment.
//!
//! # Formula syntax
//!
//! ```text
//! a & (b | !c) -> d <-> e
//! ```
//!
//! Precedence (tightest first): `!`, `&`, `|`, `->` (right-associative),
//! `<->`. Constants `true` and `false` are recognized.

mod lexer;
mod parser;

pub use parser::{parse_formula, parse_program, ParseError};

use crate::{Database, Formula, Literal, Rule, Symbols};
use std::fmt::Write as _;

/// Parses query text: the formula grammar first, then — because the
/// formula lexer cannot read Datalog ground atoms such as `path(a,b)` or
/// `not(a)` — a verbatim vocabulary lookup with an optional leading `-`.
/// When the lookup misses too, the original formula parse error is
/// returned.
pub fn parse_query(raw: &str, symbols: &Symbols) -> Result<Formula, ParseError> {
    parse_formula(raw, symbols).or_else(|parse_err| {
        let (name, positive) = match raw.trim().strip_prefix('-') {
            Some(rest) => (rest.trim(), false),
            None => (raw.trim(), true),
        };
        let atom = symbols.lookup(name).ok_or(parse_err)?;
        Ok(Formula::literal(atom, positive))
    })
}

/// Parses a query literal `atom` or `-atom`, the name taken verbatim.
/// The error names the unknown atom.
pub fn parse_literal(raw: &str, symbols: &Symbols) -> Result<Literal, String> {
    let (name, positive) = match raw.strip_prefix('-') {
        Some(rest) => (rest, false),
        None => (raw, true),
    };
    let atom = symbols
        .lookup(name)
        .ok_or_else(|| format!("unknown atom `{name}`"))?;
    Ok(Literal::with_sign(atom, positive))
}

/// Renders a rule in program syntax using the names in `symbols`.
pub fn display_rule(rule: &Rule, symbols: &Symbols) -> String {
    let mut s = String::new();
    let head: Vec<&str> = rule.head().iter().map(|&a| symbols.name(a)).collect();
    s.push_str(&head.join(" | "));
    if !rule.is_fact() {
        if !head.is_empty() {
            s.push(' ');
        }
        s.push_str(":- ");
        let mut parts: Vec<String> = rule
            .body_pos()
            .iter()
            .map(|&a| symbols.name(a).to_owned())
            .collect();
        parts.extend(
            rule.body_neg()
                .iter()
                .map(|&a| format!("not {}", symbols.name(a))),
        );
        s.push_str(&parts.join(", "));
    }
    s.push('.');
    s
}

/// Renders a whole database in program syntax, one rule per line.
pub fn display_database(db: &Database) -> String {
    let mut s = String::new();
    for rule in db.rules() {
        let _ = writeln!(s, "{}", display_rule(rule, db.symbols()));
    }
    s
}

/// Renders a formula in formula syntax using the names in `symbols`.
pub fn display_formula(f: &Formula, symbols: &Symbols) -> String {
    type Renderer<'a> = Box<dyn Fn(&mut String) + 'a>;
    fn go(f: &Formula, symbols: &Symbols, out: &mut String, prec: u8) {
        // Precedence levels: 0 iff, 1 implies, 2 or, 3 and, 4 not/atom.
        let (level, render): (u8, Renderer<'_>) = match f {
            Formula::True => (4, Box::new(|o: &mut String| o.push_str("true"))),
            Formula::False => (4, Box::new(|o: &mut String| o.push_str("false"))),
            Formula::Atom(a) => {
                let name = symbols.name(*a);
                (4, Box::new(move |o: &mut String| o.push_str(name)))
            }
            Formula::Not(g) => (
                4,
                Box::new(move |o: &mut String| {
                    o.push('!');
                    go(g, symbols, o, 5);
                }),
            ),
            Formula::And(fs) => (
                3,
                Box::new(move |o: &mut String| {
                    if fs.is_empty() {
                        o.push_str("true");
                        return;
                    }
                    for (i, g) in fs.iter().enumerate() {
                        if i > 0 {
                            o.push_str(" & ");
                        }
                        go(g, symbols, o, 4);
                    }
                }),
            ),
            Formula::Or(fs) => (
                2,
                Box::new(move |o: &mut String| {
                    if fs.is_empty() {
                        o.push_str("false");
                        return;
                    }
                    for (i, g) in fs.iter().enumerate() {
                        if i > 0 {
                            o.push_str(" | ");
                        }
                        go(g, symbols, o, 3);
                    }
                }),
            ),
            Formula::Implies(l, r) => (
                1,
                Box::new(move |o: &mut String| {
                    go(l, symbols, o, 2);
                    o.push_str(" -> ");
                    go(r, symbols, o, 1);
                }),
            ),
            Formula::Iff(l, r) => (
                0,
                Box::new(move |o: &mut String| {
                    go(l, symbols, o, 1);
                    o.push_str(" <-> ");
                    go(r, symbols, o, 1);
                }),
            ),
        };
        if level < prec {
            out.push('(');
            render(out);
            out.push(')');
        } else {
            render(out);
        }
    }
    let mut s = String::new();
    go(f, symbols, &mut s, 0);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrips_through_parser() {
        let db = parse_program("a | b. c :- a, not b. :- a, c.").unwrap();
        let text = display_database(&db);
        let db2 = parse_program(&text).unwrap();
        assert_eq!(db.rules(), db2.rules());
    }

    #[test]
    fn formula_display_roundtrip() {
        let db = parse_program("a. b. c. d.").unwrap();
        let f = parse_formula("a & (b | !c) -> d <-> a", db.symbols()).unwrap();
        let text = display_formula(&f, db.symbols());
        let f2 = parse_formula(&text, db.symbols()).unwrap();
        // Semantic equality: same truth table.
        use crate::Interpretation;
        for bits in 0u32..16 {
            let m = Interpretation::from_atoms(
                4,
                (0..4u32)
                    .filter(|&i| bits >> i & 1 == 1)
                    .map(crate::Atom::new),
            );
            assert_eq!(f.eval(&m), f2.eval(&m));
        }
    }
}
