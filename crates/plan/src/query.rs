//! The logical query: the unit planners plan.

use basilisk_catalog::Catalog;
use basilisk_expr::{ColumnRef, Expr};
use basilisk_types::{BasiliskError, Result};

/// An equi-join condition `left = right` between two aliased columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinCond {
    pub left: ColumnRef,
    pub right: ColumnRef,
}

impl JoinCond {
    pub fn new(left: ColumnRef, right: ColumnRef) -> Self {
        JoinCond { left, right }
    }

    /// The two aliases this condition connects.
    pub fn aliases(&self) -> (&str, &str) {
        (&self.left.table, &self.right.table)
    }

    /// The condition oriented so that `left` belongs to `alias`, if it
    /// touches `alias` at all.
    pub fn oriented_from(&self, alias: &str) -> Option<JoinCond> {
        if self.left.table == alias {
            Some(self.clone())
        } else if self.right.table == alias {
            Some(JoinCond {
                left: self.right.clone(),
                right: self.left.clone(),
            })
        } else {
            None
        }
    }
}

impl std::fmt::Display for JoinCond {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} = {}", self.left, self.right)
    }
}

/// A select-project-join query with an arbitrary boolean predicate — the
/// query class the paper evaluates (§5).
#[derive(Debug, Clone)]
pub struct Query {
    /// `(alias, table name)` pairs, e.g. `("t", "title")`.
    pub aliases: Vec<(String, String)>,
    /// Equi-join conditions. The induced join graph must be connected
    /// (this system does not plan cross products) and acyclic.
    pub joins: Vec<JoinCond>,
    /// The WHERE predicate; `None` means no filtering.
    pub predicate: Option<Expr>,
    /// Projected columns; empty means "count only" (the harnesses verify
    /// cardinalities).
    pub projection: Vec<ColumnRef>,
}

impl Query {
    pub fn new(aliases: Vec<(String, String)>) -> Query {
        Query {
            aliases,
            joins: Vec::new(),
            predicate: None,
            projection: Vec::new(),
        }
    }

    pub fn join(mut self, left: ColumnRef, right: ColumnRef) -> Query {
        self.joins.push(JoinCond::new(left, right));
        self
    }

    pub fn filter(mut self, predicate: Expr) -> Query {
        self.predicate = Some(predicate);
        self
    }

    pub fn select(mut self, columns: Vec<ColumnRef>) -> Query {
        self.projection = columns;
        self
    }

    /// Project every column of every table, in `FROM` order and each
    /// table's column order: SQL's `SELECT *`, expanded against the
    /// catalog.
    pub fn select_all(self, catalog: &Catalog) -> Result<Query> {
        let mut columns = Vec::new();
        for (alias, table) in &self.aliases {
            for name in catalog.table(table)?.column_names() {
                columns.push(ColumnRef::new(alias.clone(), name));
            }
        }
        Ok(self.select(columns))
    }

    pub fn alias_names(&self) -> Vec<&str> {
        self.aliases.iter().map(|(a, _)| a.as_str()).collect()
    }

    pub fn has_alias(&self, alias: &str) -> bool {
        self.aliases.iter().any(|(a, _)| a == alias)
    }

    /// Sanity-check the query: every referenced alias exists, and the join
    /// graph connects all aliases.
    pub fn validate(&self) -> Result<()> {
        if self.aliases.is_empty() {
            return Err(BasiliskError::Plan("query has no tables".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for (a, _) in &self.aliases {
            if !seen.insert(a.as_str()) {
                return Err(BasiliskError::Plan(format!("duplicate alias {a}")));
            }
        }
        for j in &self.joins {
            for alias in [&j.left.table, &j.right.table] {
                if !self.has_alias(alias) {
                    return Err(BasiliskError::Plan(format!(
                        "join condition {j} references unknown alias {alias}"
                    )));
                }
            }
        }
        if let Some(p) = &self.predicate {
            for t in p.tables() {
                if !self.has_alias(t) {
                    return Err(BasiliskError::Plan(format!(
                        "predicate references unknown alias {t}"
                    )));
                }
            }
        }
        for c in &self.projection {
            if !self.has_alias(&c.table) {
                return Err(BasiliskError::Plan(format!(
                    "projection references unknown alias {}",
                    c.table
                )));
            }
        }
        // Connectivity.
        if self.aliases.len() > 1 {
            let mut reach = std::collections::HashSet::new();
            reach.insert(self.aliases[0].0.as_str());
            let mut changed = true;
            while changed {
                changed = false;
                for j in &self.joins {
                    let (a, b) = j.aliases();
                    if reach.contains(a) && reach.insert(b) {
                        changed = true;
                    }
                    if reach.contains(b) && reach.insert(a) {
                        changed = true;
                    }
                }
            }
            if reach.len() != self.aliases.len() {
                return Err(BasiliskError::Plan(
                    "join graph is disconnected (cross products are not planned)".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_expr::col;

    fn q1() -> Query {
        Query::new(vec![
            ("t".into(), "title".into()),
            ("mi".into(), "movie_info_idx".into()),
        ])
        .join(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id"))
        .filter(col("t", "year").gt(2000i64))
        .select(vec![ColumnRef::new("t", "id")])
    }

    #[test]
    fn builder_and_validate() {
        let q = q1();
        assert!(q.validate().is_ok());
        assert_eq!(q.alias_names(), vec!["t", "mi"]);
        assert!(q.has_alias("t"));
        assert!(!q.has_alias("x"));
    }

    #[test]
    fn join_cond_orientation() {
        let j = JoinCond::new(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id"));
        assert_eq!(j.aliases(), ("t", "mi"));
        let o = j.oriented_from("mi").unwrap();
        assert_eq!(o.left, ColumnRef::new("mi", "movie_id"));
        assert!(j.oriented_from("z").is_none());
        assert_eq!(j.to_string(), "t.id = mi.movie_id");
    }

    #[test]
    fn validate_rejects_bad_queries() {
        // unknown alias in join
        let mut q = q1();
        q.joins[0].left.table = "zz".into();
        assert!(q.validate().is_err());

        // unknown alias in predicate
        let mut q = q1();
        q.predicate = Some(col("zz", "x").lt(1i64));
        assert!(q.validate().is_err());

        // unknown alias in projection
        let mut q = q1();
        q.projection = vec![ColumnRef::new("zz", "x")];
        assert!(q.validate().is_err());

        // duplicate alias
        let q = Query::new(vec![
            ("t".into(), "title".into()),
            ("t".into(), "title".into()),
        ]);
        assert!(q.validate().is_err());

        // disconnected graph
        let q = Query::new(vec![("a".into(), "x".into()), ("b".into(), "y".into())]);
        assert!(q.validate().is_err());

        // empty
        assert!(Query::new(vec![]).validate().is_err());
    }
}
