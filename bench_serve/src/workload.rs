//! The four served workloads: catalog sources, the pool of distinct
//! request frames, and each client's seeded replay sequence.
//!
//! Every input the server sees is generated here from `--seed` (for
//! `solve_mix`, the seed only orders fixed requests); the same seed gives
//! byte-identical sources, frames and passes. Each workload is sized so
//! that one layer dominates handler time (see `README.md` for the
//! measured split):
//!
//! * `solve_mix` — small random databases under all ten semantics: the
//!   SAT oracle dominates;
//! * `bound_point` — bound endpoint queries on a large grounded program
//!   and a long Horn chain: analysis and route reduction dominate;
//! * `wire_small` — tiny databases: protocol and session dominate;
//! * `load_churn` — one client reloads tenant databases while another
//!   reads: the grounder and catalog contention show.

use ddb_core::{SemanticsConfig, SemanticsId};
use ddb_logic::parse::{display_database, display_formula};
use ddb_logic::rng::XorShift64Star;
use ddb_logic::{Database, Formula};
use ddb_obs::json::Json;
use ddb_serve::catalog::load_source;
use ddb_workloads::queries::random_formula;
use ddb_workloads::random::{random_db, DbSpec};
use ddb_workloads::structured::{
    bound_chains, even_loops, horn_chain, layered_disjunctive, sliceable_towers,
};
use std::collections::HashMap;

/// Workload names, in the order `bench_serve` runs them.
pub const WORKLOADS: [&str; 4] = ["solve_mix", "bound_point", "wire_small", "load_churn"];

/// Ground-rule limit for every load, the server's default.
pub(crate) const GROUNDING_LIMIT: usize = 1_000_000;

/// The ten paper semantics by their wire names.
pub(crate) const SEMANTICS: [(&str, SemanticsId); 10] = [
    ("gcwa", SemanticsId::Gcwa),
    ("egcwa", SemanticsId::Egcwa),
    ("ccwa", SemanticsId::Ccwa),
    ("ecwa", SemanticsId::Ecwa),
    ("ddr", SemanticsId::Ddr),
    ("pws", SemanticsId::Pws),
    ("perf", SemanticsId::Perf),
    ("icwa", SemanticsId::Icwa),
    ("dsm", SemanticsId::Dsm),
    ("pdsm", SemanticsId::Pdsm),
];

/// `(chains, depth)` of the `bound_chains` programs the `load_churn`
/// writer loads; grounding cost grows superlinearly with depth.
const CHURN_SIZES: [(usize, usize); 5] = [(8, 8), (16, 16), (32, 8), (8, 32), (24, 24)];

/// Tenant databases the `load_churn` writer replaces.
const TENANTS: usize = 4;

/// One program source: the catalog name it is served under and its text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Source {
    /// Catalog name.
    pub name: String,
    /// Program text, as `ddb serve` would read it from a file.
    pub text: String,
}

/// Read frames query the catalog; write frames `load` into it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `query`, `exists` or `models`.
    Read,
    /// `load`.
    Write,
}

/// One distinct request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The JSON frame, without the trailing newline.
    pub line: String,
    /// Read or write.
    pub kind: Kind,
    /// Index into [`Workload::sources`] of the database the frame is
    /// answered against (for a write, the source it loads).
    pub source: usize,
}

/// A generated workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Every program source the workload serves.
    pub sources: Vec<Source>,
    /// Indices into `sources` of the sealed catalog, loaded through
    /// `load_source` before the server starts.
    pub catalog: Vec<usize>,
    /// Indices into `sources` of tenant databases, loaded like the
    /// catalog but left unsealed, so that a client may replace them.
    pub tenants: Vec<usize>,
    /// The distinct request frames.
    pub pool: Vec<Frame>,
    /// Per client, one pass: the pool indices it sends, in order. A
    /// client replays its pass cyclically.
    pub clients: Vec<Vec<usize>>,
    /// Latency limit of a read, for goodput.
    pub read_slo_ms: f64,
    /// Latency limit of a write, for goodput.
    pub write_slo_ms: f64,
}

impl Workload {
    /// Builds the named workload from `seed`.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        let mut g = Gen::new(name, seed)?;
        match name {
            "solve_mix" => g.solve_mix(),
            "bound_point" => g.bound_point(),
            "wire_small" => g.wire_small(),
            "load_churn" => g.load_churn(),
            _ => unreachable!("Gen::new accepts only workload names"),
        }
        Some(g.w)
    }
}

/// Parses a source exactly as the server will, so generated queries only
/// name atoms the served database has.
pub(crate) fn parse(text: &str) -> Database {
    load_source(text, None, GROUNDING_LIMIT).expect("generated sources are valid programs")
}

/// The semantics (wire names) defined on `db`: DDR/PWS need a database
/// without negation, ICWA a stratifiable one.
fn applicable(db: &Database) -> Vec<&'static str> {
    SEMANTICS
        .iter()
        .filter(|(_, id)| SemanticsConfig::new(*id).check_applicable(db).is_ok())
        .map(|(name, _)| *name)
        .collect()
}

fn read_line(op: &str, db: &str, sem: &str, query: Option<(&str, &str)>) -> String {
    let mut fields = vec![
        ("op", Json::Str(op.to_owned())),
        ("db", Json::Str(db.to_owned())),
        ("semantics", Json::Str(sem.to_owned())),
    ];
    if let Some((key, value)) = query {
        fields.push((key, Json::Str(value.to_owned())));
    }
    Json::obj(fields).render()
}

fn load_line(db: &str, text: &str) -> String {
    Json::obj([
        ("op", Json::Str("load".to_owned())),
        ("db", Json::Str(db.to_owned())),
        ("source", Json::Str(text.to_owned())),
        ("overwrite", Json::Bool(true)),
    ])
    .render()
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Op {
    Query,
    Exists,
    Models,
}

/// A random database: catalog name, family, generator seed, and whether
/// `models` is asked of it.
type MixDb = (&'static str, fn(usize, usize) -> DbSpec, u64, bool);

/// `solve_mix`'s random databases, all of ten atoms and fifteen rules.
/// They are fixed so that every benchmark seed serves the same catalog:
/// drawn afresh, one ten-atom database may answer every request in 0.1 ms
/// and the next need seconds for one PDSM request, swamping the traffic.
/// Each was kept because every literal, `exists` and `models` request on
/// it finishes within 100 ms in-process.
const MIX_DBS: [MixDb; 11] = [
    ("pos0", DbSpec::positive, 0, true),
    ("pos1", DbSpec::positive, 3, true),
    ("pos2", DbSpec::positive, 5, false),
    ("pos3", DbSpec::positive, 8, false),
    ("ded0", DbSpec::deductive, 0, true),
    ("ded1", DbSpec::deductive, 3, false),
    ("ded2", DbSpec::deductive, 4, false),
    ("ded3", DbSpec::deductive, 9, false),
    ("nor0", DbSpec::normal, 5, true),
    ("nor1", DbSpec::normal, 7, false),
    ("nor2", DbSpec::normal, 11, false),
];

struct Gen {
    w: Workload,
    rng: XorShift64Star,
    index: HashMap<String, usize>,
    /// Read pool indices by op, in insertion order.
    by_op: HashMap<Op, Vec<usize>>,
}

impl Gen {
    fn new(name: &str, seed: u64) -> Option<Gen> {
        let name = *WORKLOADS.iter().find(|w| **w == name)?;
        // Salt by workload so the four draw independent streams.
        let salt = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Some(Gen {
            w: Workload {
                name,
                sources: Vec::new(),
                catalog: Vec::new(),
                tenants: Vec::new(),
                pool: Vec::new(),
                clients: Vec::new(),
                read_slo_ms: 0.0,
                write_slo_ms: 0.0,
            },
            rng: XorShift64Star::seed_from_u64(seed ^ salt),
            index: HashMap::new(),
            by_op: HashMap::new(),
        })
    }

    /// Adds a source (once) and returns its index.
    fn source(&mut self, name: &str, text: String) -> usize {
        if let Some(i) = self
            .w
            .sources
            .iter()
            .position(|s| s.name == name && s.text == text)
        {
            return i;
        }
        self.w.sources.push(Source {
            name: name.to_owned(),
            text,
        });
        self.w.sources.len() - 1
    }

    fn sealed(&mut self, name: &str, text: String) -> usize {
        let i = self.source(name, text);
        self.w.catalog.push(i);
        i
    }

    /// Adds a frame to the pool (once) and returns its index.
    fn frame(&mut self, line: String, kind: Kind, source: usize) -> usize {
        if let Some(&i) = self.index.get(&line) {
            return i;
        }
        self.w.pool.push(Frame {
            line: line.clone(),
            kind,
            source,
        });
        let i = self.w.pool.len() - 1;
        self.index.insert(line, i);
        i
    }

    fn read(&mut self, op: Op, source: usize, sem: &str, query: Option<(&str, &str)>) -> usize {
        let name = match op {
            Op::Query => "query",
            Op::Exists => "exists",
            Op::Models => "models",
        };
        let line = read_line(name, &self.w.sources[source].name, sem, query);
        let i = self.frame(line, Kind::Read, source);
        let slot = self.by_op.entry(op).or_default();
        if !slot.contains(&i) {
            slot.push(i);
        }
        i
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        self.rng.choose(items)
    }

    /// Per applicable semantics: one `exists` frame, `per_sem` query frames
    /// (literals of a drawn atom and sign; with `formulas`, every other one
    /// a drawn three-connective formula) and, if asked, one `models` frame.
    fn frames(
        &mut self,
        source: usize,
        atoms: &[String],
        per_sem: usize,
        formulas: bool,
        models: bool,
    ) {
        let db = parse(&self.w.sources[source].text);
        for sem in applicable(&db) {
            for q in 0..per_sem {
                if formulas && q % 2 == 1 {
                    let f: Formula = random_formula(db.num_atoms(), 3, self.rng.next_u64());
                    let text = display_formula(&f, db.symbols());
                    self.read(Op::Query, source, sem, Some(("formula", &text)));
                } else {
                    let atom = self.pick(atoms).clone();
                    let lit = if self.rng.gen_bool(0.5) {
                        atom
                    } else {
                        format!("-{atom}")
                    };
                    self.read(Op::Query, source, sem, Some(("literal", &lit)));
                }
            }
            self.read(Op::Exists, source, sem, None);
            if models {
                self.read(Op::Models, source, sem, None);
            }
        }
    }

    /// One pass of a read client: every read frame, repeated so that
    /// `query`, `exists` and `models` come close to `weights`, in a
    /// seeded order. A run replays whole passes, so every run of a
    /// workload does the same work whatever the seed's order.
    fn pass(&mut self, weights: [u32; 3]) -> Vec<usize> {
        let ops = [Op::Query, Op::Exists, Op::Models];
        let queries = self.by_op.get(&Op::Query).map_or(0, Vec::len) as u32;
        let mut seq = Vec::new();
        for (op, weight) in ops.into_iter().zip(weights) {
            let Some(frames) = self.by_op.get(&op) else {
                continue;
            };
            // Repeats giving this op `weight` shares against the queries'
            // `weights[0]`.
            let repeat = (queries * weight)
                .div_ceil(weights[0] * frames.len() as u32)
                .max(1);
            for &i in frames {
                seq.extend(std::iter::repeat_n(i, repeat as usize));
            }
        }
        self.rng.shuffle(&mut seq);
        seq
    }

    fn atoms_of(&self, source: usize) -> Vec<String> {
        let db = parse(&self.w.sources[source].text);
        db.symbols()
            .atoms()
            .map(|a| db.symbols().name(a).to_owned())
            .collect()
    }

    /// Fifteen databases under all ten semantics: the eleven random ones
    /// of [`MIX_DBS`], `sliceable_towers(3,4)` queried with single-tower
    /// literals, `even_loops(6)`, `layered_disjunctive(3,4)` and
    /// `examples/layers.dlv`. `query`:`exists`:`models` ≈ 3:1:1, `models`
    /// only on four ten-atom random databases. The requests are fixed as
    /// well, and the seed only orders them: drawn per seed, a handful of
    /// PDSM formula queries moves the cost of a pass by ±12%.
    fn solve_mix(&mut self) {
        let seeded = std::mem::replace(&mut self.rng, XorShift64Star::seed_from_u64(0));
        let mut dbs = Vec::new();
        for (name, spec, db_seed, models) in MIX_DBS {
            let db = random_db(&spec(10, 15), db_seed);
            let s = self.sealed(name, display_database(&db));
            dbs.push((s, models));
        }
        let towers = self.sealed("towers", display_database(&sliceable_towers(3, 4)));
        for (name, db) in [
            ("loops", even_loops(6)),
            ("layered", layered_disjunctive(3, 4)),
        ] {
            let s = self.sealed(name, display_database(&db));
            dbs.push((s, false));
        }
        let layers = self.sealed(
            "layers",
            include_str!("../../examples/layers.dlv").to_owned(),
        );
        dbs.push((layers, false));
        for (s, models) in dbs {
            let atoms = self.atoms_of(s);
            self.frames(s, &atoms, 2, true, models);
        }
        // Tower queries name one tower's two lowest stages: the relevance
        // slice is a single tower however many there are.
        let per_tower = 2 + 3 * 4;
        let low: Vec<String> = (0..3)
            .flat_map(|t| (0..5).map(move |j| format!("x{}", t * per_tower + j)))
            .collect();
        self.frames(towers, &low, 2, false, false);
        self.rng = seeded;
        self.w.read_slo_ms = 100.0;
        self.w.write_slo_ms = 100.0;
        self.w.clients = vec![self.pass([3, 1, 1]), self.pass([3, 1, 1])];
    }

    /// The sealed catalog shared by `bound_point` and `load_churn`'s reader:
    /// `bound_chains(32,32)` grounded (2,144 atoms) and `horn_chain(4000)`.
    /// Queries are endpoint literals `reach(cK,n32)` and Horn atoms under
    /// all ten semantics, plus `exists`. Interior points such as
    /// `reach(c0,n15)` are left out: under GCWA/CCWA they fall off the
    /// magic and slice routes and run for tens of seconds.
    fn bound_catalog(&mut self) {
        let chains = self.sealed("chains", bound_chains(32, 32).0);
        let horn = self.sealed("horn", display_database(&horn_chain(4000)));
        for k in 0..32 {
            for (sem, _) in SEMANTICS {
                let lit = format!("reach(c{k},n32)");
                self.read(Op::Query, chains, sem, Some(("literal", &lit)));
            }
        }
        for _ in 0..32 {
            let atom = format!("x{}", self.rng.gen_range(0, 4000));
            for (sem, _) in SEMANTICS {
                self.read(Op::Query, horn, sem, Some(("literal", &atom)));
            }
        }
        for source in [chains, horn] {
            for (sem, _) in SEMANTICS {
                self.read(Op::Exists, source, sem, None);
            }
        }
    }

    /// `query`:`exists` = 3:1 on the bound catalog.
    fn bound_point(&mut self) {
        self.bound_catalog();
        self.w.read_slo_ms = 20.0;
        self.w.write_slo_ms = 20.0;
        self.w.clients = vec![self.pass([3, 1, 0]), self.pass([3, 1, 0])];
    }

    /// Tiny databases, so that framing, parsing and the session loop
    /// outweigh solving: `examples/vase.dl`, `horn_chain(64)` and
    /// `even_loops(3)` take queries, `exists` and (the first two)
    /// `models`; `examples/magic.dlv`, the one Datalog program to ground,
    /// takes `exists` only. Costlier requests on it, and `models` on the
    /// loops, would outweigh the wire.
    fn wire_small(&mut self) {
        for (name, text, queries, models) in [
            (
                "vase",
                include_str!("../../examples/vase.dl").to_owned(),
                4,
                true,
            ),
            ("horn64", display_database(&horn_chain(64)), 4, true),
            ("loops3", display_database(&even_loops(3)), 4, false),
            (
                "magic",
                include_str!("../../examples/magic.dlv").to_owned(),
                0,
                false,
            ),
        ] {
            let s = self.sealed(name, text);
            let atoms = self.atoms_of(s);
            self.frames(s, &atoms, queries, false, models);
        }
        self.w.read_slo_ms = 1.0;
        self.w.write_slo_ms = 1.0;
        self.w.clients = vec![self.pass([3, 1, 1]), self.pass([3, 1, 1])];
    }

    /// Client 0 writes: per pass, it loads each of the five
    /// [`CHURN_SIZES`] once per semantics into a drawn tenant (of four),
    /// each load followed by one endpoint query on that tenant under that
    /// semantics. Client 1 reads the sealed `bound_point` catalog and,
    /// for a quarter of its frames, the tenants (`exists` only: its
    /// answer is the same whatever size the writer loaded last).
    fn load_churn(&mut self) {
        self.bound_catalog();
        let mut reader = self.pass([3, 1, 0]);
        // Tenant reads: a third as many as the sealed ones.
        let repeat = (reader.len() / (3 * TENANTS * SEMANTICS.len())).max(1);
        let texts: Vec<String> = CHURN_SIZES
            .iter()
            .map(|&(c, d)| bound_chains(c, d).0)
            .collect();
        for t in 0..TENANTS {
            let name = format!("t{t}");
            // Each tenant starts at the smallest size.
            let first = self.source(&name, texts[0].clone());
            self.w.tenants.push(first);
            for (sem, _) in SEMANTICS {
                let line = read_line("exists", &name, sem, None);
                let f = self.frame(line, Kind::Read, first);
                reader.extend(std::iter::repeat_n(f, repeat));
            }
        }
        self.rng.shuffle(&mut reader);
        let mut pairs = Vec::new();
        for (size, &(chains, depth)) in CHURN_SIZES.iter().enumerate() {
            for (sem, _) in SEMANTICS {
                let name = format!("t{}", self.rng.gen_range(0, TENANTS));
                let version = self.source(&name, texts[size].clone());
                let load = load_line(&name, &texts[size]);
                let load = self.frame(load, Kind::Write, version);
                let lit = format!("reach(c{},n{depth})", self.rng.gen_range(0, chains));
                let query = read_line("query", &name, sem, Some(("literal", &lit)));
                pairs.push([load, self.frame(query, Kind::Read, version)]);
            }
        }
        self.rng.shuffle(&mut pairs);
        self.w.read_slo_ms = 50.0;
        self.w.write_slo_ms = 250.0;
        self.w.clients = vec![pairs.concat(), reader];
    }
}
