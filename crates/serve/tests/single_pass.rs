//! One evaluation pass: a traced request evaluates every atom exactly
//! once, and its trace reports that evaluation. Checked over {plain,
//! encoded} storage × {1 worker, 2 workers with small morsels} ×
//! {untraced, traced}, at the operator level (`ExecCtx::eval_mask`,
//! behind a provider that counts column fetches) and end to end through
//! the server (outputs, zone-map counters, mask checkouts, span trees).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use basilisk_catalog::Catalog;
use basilisk_exec::{ExecCtx, IdxRelation, RelProvider, TableSet};
use basilisk_expr::eval::ColumnProvider;
use basilisk_expr::{and, col, not, or, ColumnRef, PredicateTree};
use basilisk_sched::WorkerPool;
use basilisk_serve::{Request, Server, ServerConfig};
use basilisk_storage::{Column, EncodedColumn, Table, TableBuilder};
use basilisk_types::{Bitmap, DataType, MaskArena, Result, TraceSpan, Tracer, Truth, Value};

const ROWS: usize = 8192;
const MORSEL_ROWS: usize = 256;
const SQL: &str = "SELECT t.a FROM t t \
                   WHERE t.b > 3 OR (t.s LIKE 's1%' AND t.b IS NOT NULL) OR t.a < 1024";

/// `a` is clustered by position, so zone maps decide `a < 1024` on every
/// small morsel; `b` (NULL every 13th row) and `s` cycle fast enough that
/// no fold saturates in any morsel — so serial and parallel evaluations
/// reach every atom on the same lanes.
fn table(encoded: bool) -> Table {
    let mut b = TableBuilder::new("t")
        .column("a", DataType::Int)
        .column("b", DataType::Int)
        .column("s", DataType::Str);
    if encoded {
        b = b.encoded();
    }
    for i in 0..ROWS as i64 {
        let bv = if i % 13 == 0 {
            Value::Null
        } else {
            Value::Int(i % 7)
        };
        b.push_row(vec![i.into(), bv, format!("s{}", i % 11).into()])
            .unwrap();
    }
    b.finish().unwrap()
}

/// A provider that counts every column request the evaluator makes.
struct Counting<'a> {
    inner: RelProvider<'a>,
    calls: AtomicUsize,
}

impl ColumnProvider for Counting<'_> {
    fn fetch(&self, c: &ColumnRef) -> Result<Arc<Column>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.fetch(c)
    }

    fn fetch_at(&self, c: &ColumnRef, sel: &Bitmap) -> Result<Arc<Column>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.fetch_at(c, sel)
    }

    fn fetch_encoded(&self, c: &ColumnRef) -> Option<Arc<EncodedColumn>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.fetch_encoded(c)
    }

    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }
}

/// Per atom, in span order: name, lanes evaluated, true and unknown.
fn atom_counts(span: &TraceSpan) -> Vec<(String, [i64; 3])> {
    span.descendants("atom")
        .iter()
        .map(|a| {
            let n = ["lanes_evaluated", "true_count", "unknown_count"].map(|k| a.int(k).unwrap());
            (a.str_attr("atom").unwrap().to_string(), n)
        })
        .collect()
}

/// Atom spans nest in the tree and together fit in their parent.
fn assert_atoms_fit(root: &TraceSpan, operator: &TraceSpan) {
    assert!(root.is_well_formed());
    let atoms: u64 = operator
        .children
        .iter()
        .filter(|c| c.name == "atom")
        .map(|c| c.duration_micros)
        .sum();
    assert!(
        atoms <= operator.duration_micros,
        "{atoms} µs of atoms in {operator:?}"
    );
}

/// Run `ExecCtx::eval_mask` untraced and traced over `rel`, assert the
/// two passes agree on the mask and on every column request, and return
/// the mask and the traced `filter` span holding the atoms.
fn eval_both(
    pool: Option<&WorkerPool>,
    ts: &TableSet,
    rel: &IdxRelation,
) -> (Vec<Truth>, TraceSpan) {
    let tree = PredicateTree::build(&or(vec![
        col("t", "b").gt(3i64),
        and(vec![
            col("t", "s").like("s1%"),
            not(col("t", "b").is_null()),
        ]),
        col("t", "a").lt(1024i64),
    ]));
    let sel = Bitmap::from_indices(ROWS, (0..ROWS).filter(|i| i % 3 != 1));
    let arena = MaskArena::new();
    let run = |tracer: Option<&Tracer>| {
        let cx = ExecCtx {
            arena: &arena,
            pool,
            tracer,
        };
        let provider = Counting {
            inner: RelProvider::new(ts, rel),
            calls: AtomicUsize::new(0),
        };
        let mask = cx.eval_mask(&tree, tree.root(), &provider, &sel).unwrap();
        let truths = mask.to_truths();
        arena.recycle_mask(mask);
        (truths, provider.calls.into_inner())
    };
    let (untraced, untraced_calls) = run(None);
    let tracer = Tracer::new();
    let span = tracer.begin("filter");
    let (traced, traced_calls) = run(Some(&tracer));
    tracer.end(span);
    assert_eq!(traced, untraced, "tracing changed the mask");
    assert_eq!(
        traced_calls, untraced_calls,
        "a traced pass fetched columns again"
    );
    assert_eq!(arena.outstanding(), 0);
    let root = tracer.finish();
    let filter = root.child("filter").unwrap().clone();
    assert_atoms_fit(&root, &filter);
    (traced, filter)
}

#[test]
fn traced_eval_mask_is_the_untraced_pass() {
    for encoded in [false, true] {
        let ts = TableSet::from_tables(vec![("t".into(), Arc::new(table(encoded)))]);
        let rel = IdxRelation::base_in("t", ROWS, &MaskArena::new());
        let (serial, serial_span) = eval_both(None, &ts, &rel);
        let pool = WorkerPool::new(2).with_morsel_rows(MORSEL_ROWS);
        let (parallel, parallel_span) = eval_both(Some(&pool), &ts, &rel);
        assert_eq!(parallel, serial, "encoded={encoded}");
        let counts = atom_counts(&serial_span);
        assert_eq!(counts.len(), 4, "one span per atom");
        assert_eq!(atom_counts(&parallel_span), counts, "encoded={encoded}");
        assert!(counts.iter().all(|(_, [lanes, ..])| *lanes > 0));
        // Small morsels over clustered `a`: the zone map decides
        // `a < 1024` on every morsel without touching data.
        let skips = parallel_span.int("zone_skips").unwrap();
        let scans = parallel_span.int("zone_scans").unwrap();
        if encoded {
            assert_eq!(skips, (ROWS / MORSEL_ROWS) as i64, "one skip per morsel");
            assert!(scans > 0);
        } else {
            assert_eq!((skips, scans), (0, 0), "plain columns have no zone maps");
        }
        assert_eq!(pool.outstanding(), 0);
    }
}

/// `(zone skips, zone scans, mask checkouts)` the server has seen.
fn counters(srv: &Server) -> [u64; 3] {
    let s = srv.stats();
    let masks: u64 = srv
        .metrics_prometheus()
        .lines()
        .filter(|l| l.starts_with("basilisk_arena_") && l.contains("shape=\"masks\""))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    [s.skipped_morsels_total, s.scanned_morsels_total, masks]
}

#[test]
fn traced_request_evaluates_each_atom_once() {
    for encoded in [false, true] {
        for workers in [1, 2] {
            let mut cat = Catalog::new();
            cat.add_table(table(encoded)).unwrap();
            let config = ServerConfig::builder()
                .contexts(1)
                .workers(workers)
                .morsel_rows(MORSEL_ROWS);
            let srv = Server::new(cat, config.build().unwrap());
            let ctx = format!("encoded={encoded} workers={workers}");
            drop(srv.sql(SQL).unwrap()); // plan and cache
            let before = counters(&srv);
            let untraced = srv.sql(SQL).unwrap();
            let mid = counters(&srv);
            let traced = srv.submit(Request::sql(SQL).trace(true)).unwrap();
            let after = counters(&srv);
            assert_eq!(traced.columns, untraced.columns, "{ctx}: outputs differ");
            assert!(untraced.row_count > 0, "{ctx}");
            let delta = |a: [u64; 3], b: [u64; 3]| [0, 1, 2].map(|i| b[i] - a[i]);
            let (untraced_delta, traced_delta) = (delta(before, mid), delta(mid, after));
            assert_eq!(traced_delta, untraced_delta, "{ctx}: [skips, scans, masks]");
            let zone_verdicts = untraced_delta[0] + untraced_delta[1];
            assert_eq!(
                zone_verdicts > 0,
                encoded,
                "{ctx}: only encoded columns count"
            );

            let root = traced.trace.as_ref().unwrap();
            let filters = root.descendants("tagged_filter");
            assert!(!filters.is_empty(), "{ctx}");
            let mut zones = [0, 0];
            for f in &filters {
                assert_atoms_fit(root, f);
                zones[0] += f.int("zone_skips").unwrap_or(0) as u64;
                zones[1] += f.int("zone_scans").unwrap_or(0) as u64;
            }
            assert_eq!(
                zones,
                [traced_delta[0], traced_delta[1]],
                "{ctx}: span zones"
            );
            assert!(root
                .descendants("scan")
                .iter()
                .all(|s| s.attr("zone_skips").is_none()));
            drop((untraced, traced));
            assert_eq!(srv.outstanding(), 0, "{ctx}");
        }
    }
}
