//! The six workloads: what data each one builds, which statements it
//! sends and how the server is configured. Names are the contract with
//! `BENCHMARK.json`; sizes are constants, never derived from the machine.

use std::time::Instant;

use basilisk::{
    and, col, lit, or, Atom, CmpOp, ColumnRef, DataType, Database, Expr, PlannerKind, Query, Table,
    TableBuilder, Value,
};
use basilisk_sql::{bind_params, extract_params};
use basilisk_workload::{
    cnf_query, dnf_query, generate_imdb, generate_synthetic, job_queries, ImdbConfig,
    SyntheticConfig,
};

use crate::render::render;

/// Literal bindings per statement on the warm workloads. Binding-major
/// order (all statements at binding 0, then all at binding 1, …) is the
/// fixed schedule of a pass.
const BINDINGS: usize = 8;
/// `job_cold` plans on every request (up to 180 ms for one group), so it
/// cycles through half as many bindings to keep a pass under two seconds.
const JOB_COLD_BINDINGS: usize = 4;

/// The seed `job_queries` draws the 33 group shapes from. Fixed: the
/// shapes are the schedule, and `--seed` must not change it. Not the
/// repo's customary 42: under 42 groups 2 and 26 normalize to one shape,
/// the plan cache serves one group's plan for the other's literals, and
/// the replies are wrong (README, *Findings*), so the workload would have
/// failed operations. The traced run replays that pair on every JOB
/// workload (`trace::rebind_probe`) so the defect stays in view; set-up
/// aborts if two statements of the schedule ever share a shape.
const JOB_SHAPE_SEED: u64 = 43;
/// The seed and the two groups the rebind probe replays.
const REBIND_PROBE: (u64, usize, usize) = (42, 2, 26);

/// IMDB-like scale of the warm JOB workloads (1.0 ≈ 130k rows in total).
const JOB_SCALE: f64 = 1.5;
/// Scale of `job_cold`, where planning — not the operators — should
/// dominate.
const JOB_COLD_SCALE: f64 = 0.5;
/// Statement cache size of `job_cold`: smaller than the 33-shape cycle,
/// so every request misses.
const JOB_COLD_CACHE: usize = 8;

const SYNTH_ROWS: usize = 2_000;
/// The one data seed that does not derive from `--seed`, because no size
/// this benchmark can afford makes the workload's cost repeat across
/// draws. Under Zipf(1.5) key 1 carries 1/ζ(3) ≈ 83 % of the join output
/// whatever the table size, so a statement's cost is the product of two
/// counts of ≈ 150 rows (its 0.2-selective atoms inside the head key's
/// 766 rows of `t1` and `t2`), each ± 7 % from draw to draw, and whether
/// the eight `_outer` statements join the head at all is the coin flip of
/// one `t0` row. Ten seed-derived draws (head row forced inside the outer
/// factor) spread p50, p95, rate and CPU by 22–24 % (quartile distance
/// over median) against bounds of 8–10 %; halving that needs sixteen
/// times the output. So the tables are one fixed draw and `--seed` moves
/// the literals instead. The draw is the repo's own, `fig4_synthetic`'s
/// default `--seed 1337`, taken as it falls: its head row has
/// `t0.a1 = 0.71`, outside the 0.5 outer factor, as in the paper's
/// Fig. 4d (runtime jumps at 0.6 there), so the `_outer` statements are
/// the cheap half of the schedule.
const SYNTH_DATA_SEED: u64 = 1337;
const SCAN_ROWS: usize = 2_000_000;
const SCAN_CATS: usize = 64;
/// First `ts` of the scan table; later rows add 2 on average.
const SCAN_TS0: i64 = 1_000_000;
const WIDE_ROWS: usize = 200_000;

/// How requests reach the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `/v1/prepare` once at set-up, then `/v1/execute` with parameters.
    Prepared,
    /// `/v1/sql` with the literals in the statement text.
    AdHoc,
}

#[derive(Debug, Clone, Copy)]
enum Data {
    Imdb { scale: f64 },
    Synthetic,
    Scan,
    Wide,
}

/// One workload's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub planner: PlannerKind,
    pub mode: Mode,
    pub workers: usize,
    pub cache_capacity: Option<usize>,
    /// Literal bindings per statement: a pass is `statements × bindings`
    /// requests.
    pub bindings: usize,
    data: Data,
}

pub const WORKLOADS: [Spec; 6] = [
    // Fig. 3 JOB groups, prepared and rebound under TCombined: tagged
    // operators, expr and gather do the work, planning none.
    Spec {
        name: "job_tagged",
        planner: PlannerKind::TCombined,
        mode: Mode::Prepared,
        workers: 1,
        cache_capacity: None,
        bindings: BINDINGS,
        data: Data::Imdb { scale: JOB_SCALE },
    },
    // Same data, statements and bindings under BDisj: exec
    // filter/hash_join/union do the work, the tagged core none.
    Spec {
        name: "job_bdisj",
        planner: PlannerKind::BDisj,
        mode: Mode::Prepared,
        workers: 1,
        cache_capacity: None,
        bindings: BINDINGS,
        data: Data::Imdb { scale: JOB_SCALE },
    },
    // Same 33 shapes as ad-hoc text on small data with an 8-entry cache:
    // every request lexes, parses, estimates and plans.
    Spec {
        name: "job_cold",
        planner: PlannerKind::TCombined,
        mode: Mode::AdHoc,
        workers: 1,
        cache_capacity: Some(JOB_COLD_CACHE),
        bindings: JOB_COLD_BINDINGS,
        data: Data::Imdb {
            scale: JOB_COLD_SCALE,
        },
    },
    // Fig. 4 DNF/CNF over Zipfian joins: output dwarfs input, many tag
    // slices, ColumnPool/gather and allocation volume.
    Spec {
        name: "synth_tagged",
        planner: PlannerKind::TCombined,
        mode: Mode::Prepared,
        workers: 1,
        cache_capacity: None,
        bindings: BINDINGS,
        data: Data::Synthetic,
    },
    // Single-table disjunctions over a 2M-row encoded table: zone maps,
    // compare-on-codes, morsel fan-out.
    Spec {
        name: "scan_encoded",
        planner: PlannerKind::TCombined,
        mode: Mode::Prepared,
        workers: 2,
        cache_capacity: None,
        bindings: BINDINGS,
        data: Data::Scan,
    },
    // Byte-identical ad-hoc statements returning ~5.5k rows x 3 columns:
    // JSON encode, HTTP framing and client decode.
    Spec {
        name: "wide_result",
        planner: PlannerKind::TCombined,
        mode: Mode::AdHoc,
        workers: 1,
        cache_capacity: None,
        bindings: BINDINGS,
        data: Data::Wide,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One statement shape with its literal bindings.
pub struct Statement {
    pub label: String,
    /// The logical query carrying step 0's literals.
    pub query: Query,
    /// `COUNT(*)` (the reply carries the count as its one value) or the
    /// query's projection (the reply's `row_count` is the count).
    pub count: bool,
    /// One parameter vector per binding, in `extract_params` order.
    pub bindings: Vec<Vec<Value>>,
}

impl Statement {
    /// Build from the predicate at each binding's step; all must share
    /// one shape. The template (what the prepared path plans from) is the
    /// predicate at step 0 whatever the steps are, so the plan does not
    /// depend on which step the seed put first.
    fn new(
        label: String,
        base: Query,
        count: bool,
        steps: &[i64],
        at: impl Fn(i64) -> Expr,
    ) -> Statement {
        let bindings: Vec<Vec<Value>> = steps.iter().map(|&k| extract_params(&at(k))).collect();
        assert!(
            bindings.iter().all(|b| b.len() == bindings[0].len()),
            "{label}: bindings differ in arity"
        );
        let query = base.filter(at(0));
        Statement {
            label,
            query,
            count,
            bindings,
        }
    }

    /// The query with binding `b`'s literals in place.
    pub fn bound(&self, b: usize) -> Query {
        let mut q = self.query.clone();
        let template = q.predicate.as_ref().expect("statements have predicates");
        q.predicate =
            Some(bind_params(template, &self.bindings[b]).expect("own bindings fit own shape"));
        q
    }

    /// The SQL text the prepared path registers (step 0's literals).
    pub fn template_text(&self) -> String {
        render(&self.query, self.count)
    }

    /// The ad-hoc SQL text of binding `b`.
    pub fn text(&self, b: usize) -> String {
        render(&self.bound(b), self.count)
    }
}

/// A built workload: registered tables plus the statements to send.
pub struct Built {
    pub db: Database,
    pub statements: Vec<Statement>,
    /// Seconds spent producing `Table`s (generators and
    /// `TableBuilder::finish`, plain or encoded).
    pub table_build_s: f64,
}

/// SplitMix64: the harness's own generator (std only), used to derive
/// per-purpose seeds from `--seed` and to fill the harness-built tables.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Build a workload's data and statements from `--seed`: the rows of
/// every table but the synthetic ones (`SYNTH_DATA_SEED`) and a small
/// offset on every literal binding follow it; no size, statement shape or
/// schedule order does.
pub fn build(spec: &Spec, seed: u64) -> Built {
    let mut seeds = SplitMix64::new(seed);
    let data_seed = seeds.next_u64();
    // What the seed does to the literals must not change how much work a
    // pass is, nor the order in which result sizes first reach the arenas
    // (pooled buffers keep their high-water capacity, so peak memory
    // follows that order: rotating the scan bindings moved `peak_rss_mb`
    // between 110 and 129 MiB). Where the literals are fine-grained the
    // seed adds an offset far below a binding step: 0–9 hundredths of a
    // step on the synthetic selectivities, 0–999 rows / units (a tenth of
    // a step) on the scan table's windows and thresholds. The JOB
    // thresholds are whole years, and two years' offset moved
    // `job_tagged`'s p50 by 8 %; there the seed rotates which binding
    // carries which step (slot `b` sends step `(b + rotation) % bindings`:
    // the same requests in every pass, at different slots).
    let bindings = spec.bindings as i64;
    let rotation = seeds.below(spec.bindings as u64) as i64;
    let rotated: Vec<i64> = (0..bindings).map(|b| (b + rotation) % bindings).collect();
    let in_order: Vec<i64> = (0..bindings).collect();
    let synth_offset = seeds.below(10) as i64;
    let scan_offset = seeds.below(1_000) as i64;

    let t0 = Instant::now();
    let tables: Vec<Table> = match spec.data {
        Data::Imdb { scale } => generate_imdb(&ImdbConfig {
            scale,
            seed: data_seed,
        })
        .expect("generate IMDB-like tables"),
        Data::Synthetic => generate_synthetic(&SyntheticConfig {
            rows: SYNTH_ROWS,
            num_attrs: 7,
            zipf_shape: 1.5,
            seed: SYNTH_DATA_SEED,
        })
        .expect("generate synthetic tables"),
        Data::Scan => vec![scan_table(data_seed)],
        Data::Wide => vec![wide_table(data_seed)],
    };
    let table_build_s = t0.elapsed().as_secs_f64();

    let mut db = Database::new();
    for t in tables {
        db.register(t).expect("register table");
    }
    let statements = match spec.data {
        Data::Imdb { .. } => job_statements(JOB_SHAPE_SEED, &rotated),
        Data::Synthetic => synth_statements(synth_offset, &in_order),
        Data::Scan => scan_statements(scan_offset, &in_order),
        Data::Wide => wide_statements(spec.bindings),
    };
    Built {
        db,
        statements,
        table_build_s,
    }
}

/// Shift every range-compared numeric literal of `expr` by `steps`
/// (`int_step` per step for ints, `float_step` for floats). Equality
/// literals (`info_type_id = 99`) and strings stay: moving them would
/// change what the statement selects, not how much. A uniform shift keeps
/// equal literals equal, so the rebound predicate DAG stays congruent
/// with the prepared one and the cached plan is reused.
fn shift_ranges(expr: &Expr, steps: i64, int_step: i64, float_step: f64) -> Expr {
    match expr {
        Expr::And(cs) => Expr::And(
            cs.iter()
                .map(|c| shift_ranges(c, steps, int_step, float_step))
                .collect(),
        ),
        Expr::Or(cs) => Expr::Or(
            cs.iter()
                .map(|c| shift_ranges(c, steps, int_step, float_step))
                .collect(),
        ),
        Expr::Not(c) => Expr::Not(Box::new(shift_ranges(c, steps, int_step, float_step))),
        Expr::Atom(Atom::Cmp { col, op, value })
            if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) =>
        {
            let value = match value {
                Value::Int(v) => Value::Int(v + steps * int_step),
                Value::Float(v) => Value::Float(v + steps as f64 * float_step),
                other => other.clone(),
            };
            Expr::Atom(Atom::Cmp {
                col: col.clone(),
                op: *op,
                value,
            })
        }
        Expr::Atom(a) => Expr::Atom(a.clone()),
    }
}

/// The 33 JOB groups of `shape_seed`; a step moves the production-year
/// thresholds by one year.
fn job_statements(shape_seed: u64, steps: &[i64]) -> Vec<Statement> {
    job_queries(shape_seed)
        .into_iter()
        .map(|g| {
            let mut base = g.query;
            let pred = base.predicate.take().expect("JOB groups have predicates");
            Statement::new(format!("job{:02}", g.group), base, true, steps, |k| {
                shift_ranges(&pred, k, 1, 0.0)
            })
        })
        .collect()
}

/// The two statements of one normalized shape the rebind probe sends to
/// one server, on the workloads whose data they run over.
pub fn rebind_probe_statements(spec: &Spec) -> Option<[Statement; 2]> {
    let (seed, first, second) = REBIND_PROBE;
    matches!(spec.data, Data::Imdb { .. }).then(|| {
        let mut groups = job_statements(seed, &[0]);
        let second = groups.swap_remove(second - 1);
        let first = groups.swap_remove(first - 1);
        [first, second]
    })
}

/// Fig. 4: DNF and CNF × clauses {2,3,4,5} × outer factor {none, 0.5},
/// plus a six-clause DNF (17 statements: an odd count keeps the median
/// request inside one statement's bindings instead of on the boundary
/// between two statements, where it would flip between them run to run);
/// a step moves every selectivity by 0.01 (output size grows ≈ 9 %), and
/// the seed's offset adds 0–9 times 0.0001.
fn synth_statements(offset: i64, steps: &[i64]) -> Vec<Statement> {
    let mut out = Vec::new();
    for (form, make) in [
        ("dnf", dnf_query as fn(usize, f64, Option<f64>) -> Query),
        ("cnf", cnf_query),
    ] {
        for clauses in 2..=5 {
            for outer in [false, true] {
                out.push((
                    format!("{form}{clauses}{}", if outer { "_outer" } else { "" }),
                    make(clauses, 0.2, outer.then_some(0.5)),
                ));
            }
        }
    }
    out.push(("dnf6".to_string(), dnf_query(6, 0.2, None)));
    out.into_iter()
        .map(|(label, mut base)| {
            let pred = base.predicate.take().expect("synthetic predicate");
            Statement::new(label, base, true, steps, |k| {
                shift_ranges(&pred, 100 * k + offset, 0, 0.0001)
            })
        })
        .collect()
}

fn cat_name(i: usize) -> String {
    format!("cat_{:02}", i % SCAN_CATS)
}

/// `events(ts, v, cat)`: `ts` sorted (so zone maps decide range
/// predicates), `v` uniform with 3 % NULLs, `cat` one of 64 strings drawn
/// with a quadratic skew (high indices are rare) with 3 % NULLs.
fn scan_table(seed: u64) -> Table {
    let mut rng = SplitMix64::new(seed);
    let mut b = TableBuilder::new("events")
        .column("ts", DataType::Int)
        .column("v", DataType::Int)
        .column("cat", DataType::Str)
        .encoded();
    let cats: Vec<String> = (0..SCAN_CATS).map(cat_name).collect();
    let mut ts = SCAN_TS0;
    for _ in 0..SCAN_ROWS {
        ts += 1 + rng.below(3) as i64;
        let v = if rng.below(100) < 3 {
            Value::Null
        } else {
            Value::Int(rng.below(1_000_000) as i64)
        };
        let cat = if rng.below(100) < 3 {
            Value::Null
        } else {
            let u = rng.next_f64();
            Value::Str(cats[(u * u * SCAN_CATS as f64) as usize].clone())
        };
        b.push_row(vec![Value::Int(ts), v, cat])
            .expect("row matches schema");
    }
    b.finish().expect("encode events table")
}

/// 13 single-table `COUNT(*)` disjunctions, each its own statement shape:
/// 4 zone-skippable `ts` ranges OR a rare `cat`, 4 non-selective `v`
/// predicates, 4 `LIKE`/`IN` on the dictionary column and one across all
/// three columns (an odd count, as for the synthetic statements). Within
/// a statement every binding orders its literals the same way. A step
/// slides every `ts` window by 1 % of the table and every `v` threshold by
/// 1 % of its range; `offset` (0..1000, from the seed) adds that many
/// rows / units.
fn scan_statements(offset: i64, steps: &[i64]) -> Vec<Statement> {
    let base = || Query::new(vec![("e".into(), "events".into())]);
    let e = |c: &str| col("e", c);
    // `ts` advances by 2 per row on average; bindings slide each window
    // by 1 % of the table.
    let ts_at =
        |percent: i64, k: i64| SCAN_TS0 + 2 * ((SCAN_ROWS as i64 / 100) * (percent + k) + offset);
    let rare = |j: usize| e("cat").eq(cat_name(SCAN_CATS - 1 - j).as_str());

    type AtStep<'a> = Box<dyn Fn(i64) -> Expr + 'a>;
    let shapes: Vec<(&str, AtStep<'_>)> = vec![
        (
            "ts_window",
            Box::new(move |k| {
                or(vec![
                    and(vec![e("ts").ge(ts_at(10, k)), e("ts").lt(ts_at(13, k))]),
                    rare(0),
                ])
            }),
        ),
        (
            "ts_head",
            Box::new(move |k| or(vec![e("ts").lt(ts_at(5, k)), rare(1)])),
        ),
        (
            "ts_tail",
            Box::new(move |k| or(vec![e("ts").ge(ts_at(85, k)), rare(2)])),
        ),
        (
            "ts_two_windows",
            Box::new(move |k| {
                or(vec![
                    and(vec![e("ts").ge(ts_at(30, k)), e("ts").lt(ts_at(32, k))]),
                    and(vec![e("ts").ge(ts_at(60, k)), e("ts").lt(ts_at(63, k))]),
                    rare(3),
                ])
            }),
        ),
        (
            "v_outside",
            Box::new(move |k| {
                or(vec![
                    e("v").gt(300_000 + 10_000 * k + offset),
                    e("v").lt(100_000 + 5_000 * k + offset),
                ])
            }),
        ),
        (
            "v_outside_incl",
            Box::new(move |k| {
                or(vec![
                    e("v").ge(500_000 + 10_000 * k + offset),
                    e("v").le(250_000 + 5_000 * k + offset),
                ])
            }),
        ),
        (
            "v_below_or_null",
            Box::new(move |k| {
                or(vec![
                    e("v").lt(550_000 + 5_000 * k + offset),
                    e("v").is_null(),
                ])
            }),
        ),
        (
            "v_band_or_low",
            Box::new(move |k| {
                or(vec![
                    and(vec![
                        e("v").gt(200_000 + 10_000 * k + offset),
                        e("v").lt(800_000 + 10_000 * k + offset),
                    ]),
                    e("v").lt(50_000 + 5_000 * k + offset),
                ])
            }),
        ),
        (
            "cat_prefix_or_in3",
            Box::new(move |k| {
                or(vec![
                    e("cat").like(&format!("cat_{}%", k % 3)),
                    cat_in(40 + k as usize, 3),
                ])
            }),
        ),
        (
            "cat_suffix_or_eq",
            Box::new(move |k| {
                or(vec![
                    e("cat").like(&format!("%{}", k % 10)),
                    e("cat").eq(cat_name(51 + k as usize).as_str()),
                ])
            }),
        ),
        (
            "cat_in4_or_null",
            Box::new(move |k| or(vec![cat_in(8 + k as usize, 4), e("cat").is_null()])),
        ),
        (
            "cat_iprefix_or_in2",
            Box::new(move |k| {
                or(vec![
                    e("cat").ilike(&format!("CAT_{}%", k % 3)),
                    cat_in(30 + k as usize, 2),
                ])
            }),
        ),
        (
            "all_columns",
            Box::new(move |k| {
                or(vec![
                    e("ts").lt(ts_at(3, k)),
                    e("v").gt(950_000 + 1_000 * k + offset),
                    cat_in(20 + k as usize, 2),
                ])
            }),
        ),
    ];
    shapes
        .into_iter()
        .map(|(label, at)| Statement::new(label.to_string(), base(), true, steps, at))
        .collect()
}

fn cat_in(from: usize, n: usize) -> Expr {
    col("e", "cat").in_list((0..n).map(|i| lit(cat_name(from + i))).collect())
}

/// `wide(a, f, s)`: plain storage, one column of each wire-encoded type.
/// `s` is NULL in fifteen rows of sixteen and two characters in the rest:
/// the client's `Json::parse` rescans the rest of the body for every
/// character of every string (README, *Findings*), and that one tight
/// loop runs 40 % faster or slower by where the linker happens to put it.
/// With a string in every row it was half of a reply's time, and two
/// builds of one source in two directories (absolute paths of the path
/// dependencies go into the symbol hashes, so the function order differs)
/// read a p50 of 3.7 ms and of 4.6 ms.
fn wide_table(seed: u64) -> Table {
    let mut rng = SplitMix64::new(seed);
    let mut b = TableBuilder::new("wide")
        .column("a", DataType::Int)
        .column("f", DataType::Float)
        .column("s", DataType::Str);
    for _ in 0..WIDE_ROWS {
        b.push_row(vec![
            Value::Int(rng.below(1_000_000) as i64),
            Value::Float(rng.next_f64()),
            if rng.below(16) == 0 {
                Value::Str(format!("{:02}", rng.below(100)))
            } else {
                Value::Null
            },
        ])
        .expect("row matches schema");
    }
    b.finish().expect("build wide table")
}

/// 5 statements of 5 shapes, each selecting ≈ 2.75 % of `wide` (≈ 5.5k rows
/// × 3 columns). Every binding is the same text, so after the first sweep
/// each request is a raw-text cache hit and the reply's encoding, framing
/// and decoding are what is left.
fn wide_statements(bindings: usize) -> Vec<Statement> {
    let w = |c: &str| col("w", c);
    let shapes = [
        or(vec![w("a").lt(13_750i64), w("f").gt(0.98625)]),
        or(vec![w("a").ge(986_250i64), w("f").le(0.01375)]),
        or(vec![w("a").lt(36_000i64), w("a").gt(999_000i64)]),
        or(vec![
            and(vec![w("f").ge(0.40), w("f").lt(0.4165)]),
            w("a").le(11_000i64),
        ]),
        or(vec![w("f").ge(0.9835), w("f").lt(0.011)]),
    ];
    shapes
        .into_iter()
        .enumerate()
        .map(|(j, pred)| {
            let base = Query::new(vec![("w".into(), "wide".into())]).select(vec![
                ColumnRef::new("w", "a"),
                ColumnRef::new("w", "f"),
                ColumnRef::new("w", "s"),
            ]);
            Statement::new(format!("wide{j}"), base, false, &vec![0; bindings], |_| {
                pred.clone()
            })
        })
        .collect()
}
