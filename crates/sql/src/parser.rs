//! The recursive-descent SQL parser.

use basilisk_expr::{Atom, CmpOp, ColumnRef, Expr};
use basilisk_plan::Query;
use basilisk_types::{BasiliskError, Result, Value};

use crate::lexer::{tokenize, Token, TokenKind};

/// What the SELECT clause projects.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *` — all columns of all tables (expanded against the
    /// catalog by [`Query::select_all`]).
    Star,
    Columns(Vec<ColumnRef>),
    /// `SELECT COUNT(*)` — the row count only.
    Count,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone)]
pub struct SelectStmt {
    pub projection: Projection,
    /// `(alias, table)` pairs in FROM order.
    pub tables: Vec<(String, String)>,
    /// Equi-join conditions from `ON` clauses.
    pub joins: Vec<(ColumnRef, ColumnRef)>,
    pub predicate: Option<Expr>,
    /// `LIMIT n`, applied after execution.
    pub limit: Option<usize>,
}

impl SelectStmt {
    /// Lower to the planner's [`Query`]. `Star` lowers to an empty
    /// projection list; [`Query::select_all`] expands it.
    pub fn into_query(self) -> Query {
        let mut q = Query::new(self.tables);
        for (l, r) in self.joins {
            q = q.join(l, r);
        }
        if let Some(p) = self.predicate {
            q = q.filter(p);
        }
        if let Projection::Columns(cols) = self.projection {
            q = q.select(cols);
        }
        q
    }
}

/// Parse one SELECT statement (a trailing `;` is allowed).
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.select_stmt()?;
    // allow a trailing semicolon (lexer has no `;`, so emulate by ident…)
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> BasiliskError {
        BasiliskError::Parse {
            message: message.into(),
            offset: self.offset(),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                kw.to_uppercase(),
                self.peek().describe()
            )))
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            )))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected trailing input: {}",
                self.peek().describe()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("select")?;
        let projection = self.projection()?;
        self.expect_keyword("from")?;
        let mut tables = vec![self.table_ref()?];
        let mut joins = Vec::new();
        while self.eat_keyword("join") {
            tables.push(self.table_ref()?);
            self.expect_keyword("on")?;
            let left = self.column_ref()?;
            self.expect(&TokenKind::Eq)?;
            let right = self.column_ref()?;
            joins.push((left, right));
        }
        let predicate = if self.eat_keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let limit = if self.eat_keyword("limit") {
            match self.bump() {
                TokenKind::Int(n) if n >= 0 => Some(n as usize),
                other => {
                    return Err(self.err(format!(
                        "LIMIT expects a non-negative integer, found {}",
                        other.describe()
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            projection,
            tables,
            joins,
            predicate,
            limit,
        })
    }

    fn projection(&mut self) -> Result<Projection> {
        if matches!(self.peek(), TokenKind::Star) {
            self.bump();
            return Ok(Projection::Star);
        }
        // COUNT(*)
        if matches!(self.peek(), TokenKind::Ident(s) if s == "count") {
            self.bump();
            self.expect(&TokenKind::LParen)?;
            self.expect(&TokenKind::Star)?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Projection::Count);
        }
        let mut cols = vec![self.column_ref()?];
        while matches!(self.peek(), TokenKind::Comma) {
            self.bump();
            cols.push(self.column_ref()?);
        }
        Ok(Projection::Columns(cols))
    }

    fn table_ref(&mut self) -> Result<(String, String)> {
        let name = self.ident()?;
        // optional AS, optional alias
        let has_alias =
            self.eat_keyword("as") || matches!(self.peek(), TokenKind::Ident(s) if !is_reserved(s));
        let alias = if has_alias {
            self.ident()?
        } else {
            name.clone()
        };
        Ok((alias, name))
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let table = self.ident()?;
        self.expect(&TokenKind::Dot)?;
        let column = self.ident()?;
        Ok(ColumnRef::new(table, column))
    }

    // Precedence: OR < AND < NOT < predicate.
    fn expr(&mut self) -> Result<Expr> {
        let mut terms = vec![self.and_expr()?];
        while self.eat_keyword("or") {
            terms.push(self.and_expr()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            Expr::Or(terms)
        })
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut terms = vec![self.not_expr()?];
        while self.eat_keyword("and") {
            terms.push(self.not_expr()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            Expr::And(terms)
        })
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        if matches!(self.peek(), TokenKind::LParen) {
            self.bump();
            let e = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(e);
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<Expr> {
        let col = self.column_ref()?;
        // IS [NOT] NULL
        if self.eat_keyword("is") {
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            let atom = Expr::Atom(Atom::IsNull { col });
            return Ok(if negated {
                Expr::Not(Box::new(atom))
            } else {
                atom
            });
        }
        // [NOT] LIKE / ILIKE / IN / BETWEEN
        let negated = self.eat_keyword("not");
        if self.eat_keyword("like") {
            return self.like_rest(col, false, negated);
        }
        if self.eat_keyword("ilike") {
            return self.like_rest(col, true, negated);
        }
        if self.eat_keyword("in") {
            self.expect(&TokenKind::LParen)?;
            let mut values = vec![self.literal()?];
            while matches!(self.peek(), TokenKind::Comma) {
                self.bump();
                values.push(self.literal()?);
            }
            self.expect(&TokenKind::RParen)?;
            let atom = Expr::Atom(Atom::InList { col, values });
            return Ok(if negated {
                Expr::Not(Box::new(atom))
            } else {
                atom
            });
        }
        if self.eat_keyword("between") {
            let lo = self.literal()?;
            self.expect_keyword("and")?;
            let hi = self.literal()?;
            let range = Expr::And(vec![
                Expr::Atom(Atom::Cmp {
                    col: col.clone(),
                    op: CmpOp::Ge,
                    value: lo,
                }),
                Expr::Atom(Atom::Cmp {
                    col,
                    op: CmpOp::Le,
                    value: hi,
                }),
            ]);
            return Ok(if negated {
                Expr::Not(Box::new(range))
            } else {
                range
            });
        }
        if negated {
            return Err(self.err("expected LIKE, ILIKE, IN or BETWEEN after NOT"));
        }
        // Comparison operator.
        let op = match self.peek() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            other => {
                return Err(self.err(format!(
                    "expected comparison operator, found {}",
                    other.describe()
                )))
            }
        };
        self.bump();
        let value = self.literal()?;
        Ok(Expr::Atom(Atom::Cmp { col, op, value }))
    }

    fn like_rest(&mut self, col: ColumnRef, ci: bool, negated: bool) -> Result<Expr> {
        let pattern = match self.bump() {
            TokenKind::Str(s) => s,
            other => {
                return Err(self.err(format!(
                    "LIKE pattern must be a string, found {}",
                    other.describe()
                )))
            }
        };
        let atom = Expr::Atom(Atom::Like {
            col,
            pattern,
            case_insensitive: ci,
        });
        Ok(if negated {
            Expr::Not(Box::new(atom))
        } else {
            atom
        })
    }

    fn literal(&mut self) -> Result<Value> {
        match self.bump() {
            TokenKind::Int(i) => Ok(Value::Int(i)),
            TokenKind::Float(f) => Ok(Value::Float(f)),
            TokenKind::Str(s) => Ok(Value::Str(s)),
            TokenKind::Ident(s) if s == "true" => Ok(Value::Bool(true)),
            TokenKind::Ident(s) if s == "false" => Ok(Value::Bool(false)),
            TokenKind::Ident(s) if s == "null" => Ok(Value::Null),
            other => Err(BasiliskError::Parse {
                message: format!("expected literal, found {}", other.describe()),
                offset: self.tokens[self.pos.saturating_sub(1)].offset,
            }),
        }
    }
}

fn is_reserved(word: &str) -> bool {
    matches!(
        word,
        "select"
            | "from"
            | "join"
            | "on"
            | "where"
            | "and"
            | "or"
            | "not"
            | "like"
            | "ilike"
            | "is"
            | "null"
            | "in"
            | "between"
            | "as"
            | "true"
            | "false"
            | "limit"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_expr::col;

    /// The paper's Query 1, verbatim.
    #[test]
    fn parses_query1() {
        let stmt = parse_select(
            "SELECT * FROM title AS t JOIN movie_info_idx AS mi_idx \
             ON t.id = mi_idx.movie_id \
             WHERE (t.year > 2000 AND mi_idx.score > '7.0') \
             OR (t.year > 1980 AND mi_idx.score > '8.0')",
        )
        .unwrap();
        assert_eq!(stmt.projection, Projection::Star);
        assert_eq!(
            stmt.tables,
            vec![
                ("t".to_string(), "title".to_string()),
                ("mi_idx".to_string(), "movie_info_idx".to_string())
            ]
        );
        assert_eq!(stmt.joins.len(), 1);
        let expected = Expr::Or(vec![
            Expr::And(vec![
                col("t", "year").gt(2000i64),
                col("mi_idx", "score").gt("7.0"),
            ]),
            Expr::And(vec![
                col("t", "year").gt(1980i64),
                col("mi_idx", "score").gt("8.0"),
            ]),
        ]);
        assert_eq!(stmt.predicate, Some(expected));
        let q = stmt.into_query();
        assert!(q.validate().is_ok());
        assert!(q.projection.is_empty());
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let stmt = parse_select("SELECT * FROM t WHERE t.a = 1 OR t.b = 2 AND t.c = 3").unwrap();
        let Expr::Or(children) = stmt.predicate.unwrap() else {
            panic!("OR at the root")
        };
        assert_eq!(children.len(), 2);
        assert!(matches!(children[1], Expr::And(_)));
    }

    #[test]
    fn not_precedence() {
        let stmt = parse_select("SELECT * FROM t WHERE NOT t.a = 1 AND t.b = 2").unwrap();
        let Expr::And(children) = stmt.predicate.unwrap() else {
            panic!("AND at root")
        };
        assert!(matches!(children[0], Expr::Not(_)));
        // NOT (…)
        let stmt = parse_select("SELECT * FROM t WHERE NOT (t.a = 1 AND t.b = 2)").unwrap();
        assert!(matches!(stmt.predicate.unwrap(), Expr::Not(_)));
    }

    #[test]
    fn table_aliases() {
        // explicit AS, implicit alias, no alias
        let stmt = parse_select(
            "SELECT * FROM title AS t JOIN movie m ON t.id = m.tid JOIN cast ON t.id = cast.tid",
        )
        .unwrap();
        assert_eq!(
            stmt.tables,
            vec![
                ("t".to_string(), "title".to_string()),
                ("m".to_string(), "movie".to_string()),
                ("cast".to_string(), "cast".to_string()),
            ]
        );
    }

    #[test]
    fn projection_columns() {
        let stmt = parse_select("SELECT t.id, t.year FROM title t").unwrap();
        assert_eq!(
            stmt.projection,
            Projection::Columns(vec![ColumnRef::new("t", "id"), ColumnRef::new("t", "year")])
        );
    }

    #[test]
    fn like_variants() {
        let stmt = parse_select(
            "SELECT * FROM t WHERE t.s LIKE '%x%' AND t.u ILIKE '%y%' AND t.v NOT LIKE 'z'",
        )
        .unwrap();
        let Expr::And(children) = stmt.predicate.unwrap() else {
            panic!()
        };
        assert!(matches!(
            &children[0],
            Expr::Atom(Atom::Like {
                case_insensitive: false,
                ..
            })
        ));
        assert!(matches!(
            &children[1],
            Expr::Atom(Atom::Like {
                case_insensitive: true,
                ..
            })
        ));
        assert!(matches!(&children[2], Expr::Not(_)));
    }

    #[test]
    fn is_null_and_in_and_between() {
        let stmt = parse_select(
            "SELECT * FROM t WHERE t.a IS NULL AND t.b IS NOT NULL \
             AND t.c IN (1, 2, 3) AND t.d NOT IN ('x') \
             AND t.e BETWEEN 1 AND 5 AND t.f NOT BETWEEN 0.5 AND 0.7",
        )
        .unwrap();
        let Expr::And(children) = stmt.predicate.unwrap() else {
            panic!()
        };
        assert_eq!(children.len(), 6);
        assert!(matches!(&children[0], Expr::Atom(Atom::IsNull { .. })));
        assert!(matches!(&children[1], Expr::Not(_)));
        assert!(
            matches!(&children[2], Expr::Atom(Atom::InList { values, .. }) if values.len() == 3)
        );
        // BETWEEN desugars to a range AND.
        let Expr::And(range) = &children[4] else {
            panic!("BETWEEN desugars to AND")
        };
        assert_eq!(range.len(), 2);
        assert!(matches!(&children[5], Expr::Not(_)));
    }

    #[test]
    fn literals() {
        let stmt = parse_select(
            "SELECT * FROM t WHERE t.a = 1 AND t.b = 2.5 AND t.c = 'x' AND t.d = TRUE AND t.e = NULL",
        )
        .unwrap();
        let Expr::And(children) = stmt.predicate.unwrap() else {
            panic!()
        };
        let vals: Vec<&Value> = children
            .iter()
            .map(|c| match c {
                Expr::Atom(Atom::Cmp { value, .. }) => value,
                _ => panic!(),
            })
            .collect();
        assert_eq!(vals[0], &Value::Int(1));
        assert_eq!(vals[1], &Value::Float(2.5));
        assert_eq!(vals[2], &Value::from("x"));
        assert_eq!(vals[3], &Value::Bool(true));
        assert_eq!(vals[4], &Value::Null);
    }

    #[test]
    fn no_where_clause() {
        let stmt = parse_select("SELECT * FROM a JOIN b ON a.x = b.y").unwrap();
        assert!(stmt.predicate.is_none());
    }

    #[test]
    fn error_messages_are_positioned() {
        let e = parse_select("SELECT FROM t").unwrap_err();
        assert!(e.to_string().contains("expected"), "{e}");
        let e = parse_select("SELECT * FROM t WHERE t.a ~ 1").unwrap_err();
        assert!(e.to_string().contains("unexpected character"), "{e}");
        let e = parse_select("SELECT * FROM t WHERE t.a = ").unwrap_err();
        assert!(e.to_string().contains("expected literal"), "{e}");
        let e = parse_select("SELECT * FROM t WHERE t.a NOT 5").unwrap_err();
        assert!(e.to_string().contains("after NOT"), "{e}");
        let e = parse_select("SELECT * FROM t WHERE (t.a = 1").unwrap_err();
        assert!(e.to_string().contains("`)`"), "{e}");
        let e = parse_select("SELECT * FROM t WHERE t.a = 1 extra").unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
        let e = parse_select("SELECT * FROM t JOIN u ON t.a < u.b").unwrap_err();
        assert!(e.to_string().contains("`=`"), "equi-joins only: {e}");
    }

    #[test]
    fn case_insensitive_keywords() {
        let stmt = parse_select("select * from T where T.A > 1 or not T.B like 'x'").unwrap();
        assert!(stmt.predicate.is_some());
        assert_eq!(stmt.tables[0].0, "t");
    }

    #[test]
    fn deep_nesting() {
        let stmt = parse_select(
            "SELECT * FROM t WHERE ((((t.a = 1 OR (t.b = 2)) AND t.c = 3) OR t.d = 4))",
        )
        .unwrap();
        assert!(matches!(stmt.predicate.unwrap(), Expr::Or(_)));
    }
}
