//! `Query` → SQL text, so the programmatic workload generators
//! (`job_queries`, `dnf_query`, `cnf_query`) can be driven through the
//! wire protocol, plus the set-up check that the rendering is lossless.

use std::fmt::Write as _;

use basilisk::{parse_select, Projection, Query};

/// Render `query` as one SELECT statement: `COUNT(*)` or the projection
/// list, the first alias in FROM and one `JOIN … ON` per further alias,
/// and the predicate through `Expr`'s own `Display` (which parenthesizes
/// by precedence, so the parser rebuilds the same tree).
///
/// The join graph must be a tree listed in FROM order (`joins[i]`
/// attaches `aliases[i + 1]`), which is how every generator in
/// `basilisk-workload` builds its queries.
pub fn render(query: &Query, count: bool) -> String {
    assert_eq!(
        query.joins.len() + 1,
        query.aliases.len(),
        "renderer expects a join tree in FROM order"
    );
    let mut sql = String::from("SELECT ");
    if count {
        sql.push_str("COUNT(*)");
    } else {
        assert!(
            !query.projection.is_empty(),
            "a non-count statement needs a projection"
        );
        for (i, c) in query.projection.iter().enumerate() {
            if i > 0 {
                sql.push_str(", ");
            }
            let _ = write!(sql, "{c}");
        }
    }
    let (alias, table) = &query.aliases[0];
    let _ = write!(sql, " FROM {table} AS {alias}");
    for ((alias, table), join) in query.aliases[1..].iter().zip(&query.joins) {
        let _ = write!(sql, " JOIN {table} AS {alias} ON {join}");
    }
    if let Some(p) = &query.predicate {
        let _ = write!(sql, " WHERE {p}");
    }
    sql
}

/// Parse `render(query)` back and compare it field by field with the
/// original; a mismatch means the wire would not run the query the
/// generator built, so the caller aborts rather than produce numbers.
pub fn check_roundtrip(query: &Query, count: bool) -> Result<(), String> {
    let sql = render(query, count);
    let stmt = parse_select(&sql).map_err(|e| format!("{e}: {sql}"))?;
    if matches!(stmt.projection, Projection::Count) != count {
        return Err(format!("projection kind changed: {sql}"));
    }
    let back = stmt.into_query();
    let same = back.aliases == query.aliases
        && back.joins == query.joins
        && back.predicate == query.predicate
        && (count || back.projection == query.projection);
    if same {
        Ok(())
    } else {
        Err(format!(
            "render/parse changed the query\n  sql:  {sql}\n  want: {query:?}\n  got:  {back:?}"
        ))
    }
}
