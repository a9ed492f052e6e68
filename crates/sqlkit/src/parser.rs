//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::error::SqlError;
use crate::lexer::{tokenize, Token};
use crate::Result;
use gridfed_storage::{DataType, Value};

/// Deepest expression nesting the parser accepts: parentheses, function
/// and aggregate arguments, `NOT` and unary sign chains each add a level.
/// The parser (and every later pass over the expression tree) recurses
/// once per level, so SQL text nested deeper than this is refused with a
/// [`SqlError::Parse`] instead of overflowing the stack.
pub const MAX_NESTING_DEPTH: usize = 128;

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.statement()?;
    p.eat_semicolons();
    if !p.at_end() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

/// Parse a statement that must be a SELECT.
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    match parse(sql)? {
        Statement::Select(s) => Ok(s),
        other => Err(SqlError::Unsupported(format!(
            "expected SELECT, found {other:?}"
        ))),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current expression nesting (see [`MAX_NESTING_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> SqlError {
        SqlError::Parse {
            pos: self.pos,
            message: message.into(),
        }
    }

    /// Run `f` one nesting level deeper, refusing to go past
    /// [`MAX_NESTING_DEPTH`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.err(format!(
                "expression nested deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn eat_semicolons(&mut self) {
        while matches!(self.peek(), Some(Token::Semicolon)) {
            self.pos += 1;
        }
    }

    /// Consume a keyword or fail.
    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{kw}`, found {}",
                self.peek().map_or("end of input".into(), Token::describe)
            )))
        }
    }

    /// Consume a keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_tok(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, tok: Token) -> Result<()> {
        if self.eat_tok(&tok) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {:?}, found {}",
                tok,
                self.peek().map_or("end of input".into(), Token::describe)
            )))
        }
    }

    /// An identifier (bare or quoted).
    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) | Some(Token::QuotedIdent(s)) => Ok(s),
            other => Err(self.err(format!(
                "expected identifier, found {}",
                other.map_or("end of input".into(), |t| t.describe())
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(t) if t.is_kw("SELECT") => Ok(Statement::Select(self.select()?)),
            Some(t) if t.is_kw("EXPLAIN") => {
                self.expect_kw("EXPLAIN")?;
                let analyze = self.eat_kw("ANALYZE");
                Ok(Statement::Explain {
                    analyze,
                    stmt: self.select()?,
                })
            }
            Some(t) if t.is_kw("CREATE") => self.create(),
            Some(t) if t.is_kw("INSERT") => self.insert(),
            Some(t) if t.is_kw("UPDATE") => self.update(),
            Some(t) if t.is_kw("DELETE") => self.delete(),
            other => Err(self.err(format!(
                "expected SELECT/EXPLAIN/CREATE/INSERT/UPDATE/DELETE, found {}",
                other.map_or("end of input".into(), Token::describe)
            ))),
        }
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_tok(Token::Eq)?;
            let value = self.expr()?;
            assignments.push((col, value));
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update(UpdateStmt {
            table,
            assignments,
            where_clause,
        }))
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(DeleteStmt {
            table,
            where_clause,
        }))
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            let name = self.ident()?;
            self.expect_tok(Token::LParen)?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.column_spec()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(Token::RParen)?;
            Ok(Statement::CreateTable(CreateTableStmt { name, columns }))
        } else if self.eat_kw("VIEW") {
            let name = self.ident()?;
            self.expect_kw("AS")?;
            let query = self.select()?;
            Ok(Statement::CreateView(CreateViewStmt { name, query }))
        } else {
            Err(self.err("expected TABLE or VIEW after CREATE"))
        }
    }

    fn column_spec(&mut self) -> Result<ColumnSpec> {
        let name = self.ident()?;
        let ty_name = self.ident()?;
        let data_type = DataType::parse(&ty_name)
            .ok_or_else(|| self.err(format!("unknown type `{ty_name}`")))?;
        // Vendors allow a length suffix like VARCHAR(255); parse and ignore.
        if self.eat_tok(&Token::LParen) {
            match self.next() {
                Some(Token::IntLit(_)) => {}
                _ => return Err(self.err("expected length in type suffix")),
            }
            self.expect_tok(Token::RParen)?;
        }
        let mut spec = ColumnSpec {
            name,
            data_type,
            not_null: false,
            unique: false,
        };
        loop {
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                spec.not_null = true;
            } else if self.eat_kw("UNIQUE") {
                spec.unique = true;
            } else if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                spec.not_null = true;
                spec.unique = true;
            } else {
                break;
            }
        }
        Ok(spec)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_tok(&Token::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(Token::RParen)?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_tok(Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(Token::RParen)?;
            rows.push(row);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(InsertStmt {
            table,
            columns,
            rows,
        }))
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.eat_tok(&Token::Comma) {
                joins.push(Join {
                    kind: JoinKind::Cross,
                    table: self.table_ref()?,
                    on: None,
                });
            } else if self.peek().is_some_and(|t| {
                t.is_kw("JOIN") || t.is_kw("INNER") || t.is_kw("LEFT") || t.is_kw("CROSS")
            }) {
                joins.push(self.join_clause()?);
            } else {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            if group_by.is_empty() {
                return Err(self.err("HAVING requires GROUP BY"));
            }
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push(OrderItem { expr, ascending });
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Token::IntLit(n)) if n >= 0 => Some(n as u64),
                _ => return Err(self.err("expected non-negative integer after LIMIT")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_tok(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*` (bare or quoted qualifier)
        if let (
            Some(Token::Ident(q)) | Some(Token::QuotedIdent(q)),
            Some(Token::Dot),
            Some(Token::Star),
        ) = (
            self.tokens.get(self.pos),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            let q = q.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            // Bare alias: an identifier that is not a clause keyword.
            match self.peek() {
                Some(Token::Ident(s))
                    if ![
                        "FROM", "WHERE", "GROUP", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT",
                        "CROSS", "ON", "AND", "OR", "AS", "ASC", "DESC",
                    ]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
                {
                    Some(self.ident()?)
                }
                Some(Token::QuotedIdent(_)) => Some(self.ident()?),
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        // A table name may be schema-qualified (`gridfed_monitor.spans`);
        // the dotted pair is kept as one name the resolver sees verbatim.
        let mut name = self.ident()?;
        if self.eat_tok(&Token::Dot) {
            name = format!("{name}.{}", self.ident()?);
        }
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            match self.peek() {
                Some(Token::Ident(s))
                    if ![
                        "WHERE", "GROUP", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT", "CROSS", "ON",
                    ]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
                {
                    Some(self.ident()?)
                }
                Some(Token::QuotedIdent(_)) => Some(self.ident()?),
                _ => None,
            }
        };
        Ok(TableRef { name, alias })
    }

    fn join_clause(&mut self) -> Result<Join> {
        let kind = if self.eat_kw("LEFT") {
            self.eat_kw("OUTER");
            self.expect_kw("JOIN")?;
            JoinKind::LeftOuter
        } else if self.eat_kw("CROSS") {
            self.expect_kw("JOIN")?;
            JoinKind::Cross
        } else {
            self.eat_kw("INNER");
            self.expect_kw("JOIN")?;
            JoinKind::Inner
        };
        let table = self.table_ref()?;
        let on = if kind == JoinKind::Cross {
            None
        } else {
            self.expect_kw("ON")?;
            Some(self.expr()?)
        };
        Ok(Join { kind, table, on })
    }

    // ---- expressions (precedence climbing) ----

    /// Entry: OR-level. Every entry is one nesting level.
    pub fn expr(&mut self) -> Result<Expr> {
        self.nested(|p| {
            let mut left = p.and_expr()?;
            while p.eat_kw("OR") {
                let right = p.and_expr()?;
                left = Expr::binary(left, BinaryOp::Or, right);
            }
            Ok(left)
        })
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.nested(Self::not_expr)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.predicate()
    }

    /// Comparison / IS NULL / IN / BETWEEN / LIKE level.
    fn predicate(&mut self) -> Result<Expr> {
        let left = self.additive()?;

        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        let negated = if self.peek().is_some_and(|t| t.is_kw("NOT"))
            && self
                .tokens
                .get(self.pos + 1)
                .is_some_and(|t| t.is_kw("IN") || t.is_kw("BETWEEN") || t.is_kw("LIKE"))
        {
            self.pos += 1;
            true
        } else {
            false
        };

        if self.eat_kw("IN") {
            self.expect_tok(Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.additive()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }

        if self.eat_kw("BETWEEN") {
            let lo = self.additive()?;
            self.expect_kw("AND")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }

        if self.eat_kw("LIKE") {
            let pattern = match self.next() {
                Some(Token::StringLit(s)) => s,
                _ => return Err(self.err("expected string literal after LIKE")),
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }

        if negated {
            return Err(self.err("dangling NOT"));
        }

        let op = match self.peek() {
            Some(Token::Eq) => Some(BinaryOp::Eq),
            Some(Token::NotEq) => Some(BinaryOp::NotEq),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::LtEq) => Some(BinaryOp::LtEq),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_tok(&Token::Minus) {
            let inner = self.nested(Self::unary)?;
            // Fold negative literals immediately so `-3` is a literal.
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(x)) => Expr::Literal(Value::Float(-x)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat_tok(&Token::Plus) {
            return self.nested(Self::unary);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::IntLit(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Token::FloatLit(x)) => Ok(Expr::Literal(Value::Float(x))),
            Some(Token::StringLit(s)) => Ok(Expr::Literal(Value::Text(s))),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect_tok(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) if name.eq_ignore_ascii_case("NULL") => {
                Ok(Expr::Literal(Value::Null))
            }
            Some(Token::Ident(name)) if name.eq_ignore_ascii_case("TRUE") => {
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Some(Token::Ident(name)) if name.eq_ignore_ascii_case("FALSE") => {
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Some(Token::Ident(name)) | Some(Token::QuotedIdent(name)) => {
                // function call?
                if self.peek() == Some(&Token::LParen) {
                    if let Some(func) = ScalarFunc::parse(&name) {
                        self.pos += 1; // consume '('
                        let mut args = Vec::new();
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_tok(&Token::Comma) {
                                break;
                            }
                        }
                        self.expect_tok(Token::RParen)?;
                        if !func.arity().contains(&args.len()) {
                            return Err(self.err(format!(
                                "{} takes {:?} arguments, got {}",
                                func.sql(),
                                func.arity(),
                                args.len()
                            )));
                        }
                        return Ok(Expr::Func { func, args });
                    }
                    if let Some(func) = AggFunc::parse(&name) {
                        self.pos += 1; // consume '('
                        let distinct = self.eat_kw("DISTINCT");
                        let arg = if self.eat_tok(&Token::Star) {
                            if func != AggFunc::Count {
                                return Err(self.err("only COUNT accepts *"));
                            }
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.expect_tok(Token::RParen)?;
                        return Ok(Expr::Aggregate {
                            func,
                            arg,
                            distinct,
                        });
                    }
                    return Err(self.err(format!("unknown function `{name}`")));
                }
                // qualified column?
                if self.eat_tok(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column(ColumnRef {
                        qualifier: Some(name),
                        column: col,
                    }));
                }
                Ok(Expr::Column(ColumnRef {
                    qualifier: None,
                    column: name,
                }))
            }
            other => Err(self.err(format!(
                "expected expression, found {}",
                other.map_or("end of input".into(), |t| t.describe())
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        parse_select(sql).unwrap()
    }

    #[test]
    fn having_clause() {
        let s = sel("SELECT det, COUNT(*) FROM t GROUP BY det HAVING COUNT(*) > 3");
        assert!(s.having.is_some());
        // HAVING without GROUP BY is rejected.
        assert!(parse_select("SELECT a FROM t HAVING a > 1").is_err());
    }

    #[test]
    fn distinct_flag() {
        assert!(sel("SELECT DISTINCT a FROM t").distinct);
        assert!(!sel("SELECT a FROM t").distinct);
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b FROM t");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.name, "t");
        assert!(s.where_clause.is_none());
    }

    #[test]
    fn select_star_and_qualified_star() {
        let s = sel("SELECT * FROM t");
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
        let s = sel("SELECT t.* FROM t");
        assert_eq!(s.items, vec![SelectItem::QualifiedWildcard("t".into())]);
    }

    #[test]
    fn where_precedence_or_and() {
        let s = sel("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3");
        // OR at top, AND below.
        match s.where_clause.unwrap() {
            Expr::Binary {
                op: BinaryOp::Or,
                right,
                ..
            } => match *right {
                Expr::Binary {
                    op: BinaryOp::And, ..
                } => {}
                other => panic!("expected AND on right, got {other:?}"),
            },
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("SELECT a + b * 2 FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Binary {
                    op: BinaryOp::Add,
                    right,
                    ..
                } => assert!(matches!(
                    **right,
                    Expr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                )),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_on_clause() {
        let s = sel("SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.k = c.k");
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert_eq!(s.joins[1].kind, JoinKind::LeftOuter);
        assert!(s.joins[1].on.is_some());
    }

    #[test]
    fn comma_join_is_cross() {
        let s = sel("SELECT * FROM a, b WHERE a.id = b.id");
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].kind, JoinKind::Cross);
        assert!(s.joins[0].on.is_none());
    }

    #[test]
    fn aliases_bare_and_as() {
        let s = sel("SELECT e.energy AS en, x total FROM events e, marts AS m");
        assert_eq!(s.from.alias.as_deref(), Some("e"));
        assert_eq!(s.joins[0].table.alias.as_deref(), Some("m"));
        match &s.items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("en")),
            _ => panic!(),
        }
        match &s.items[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("total")),
            _ => panic!(),
        }
    }

    #[test]
    fn group_order_limit() {
        let s = sel(
            "SELECT detector, COUNT(*) FROM events GROUP BY detector ORDER BY detector DESC LIMIT 10",
        );
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].ascending);
        assert_eq!(s.limit, Some(10));
        assert!(s.is_aggregate());
    }

    #[test]
    fn predicates_in_between_like_isnull() {
        let s = sel(
            "SELECT * FROM t WHERE a IN (1,2,3) AND b NOT BETWEEN 1 AND 9 \
             AND c LIKE 'run%' AND d IS NOT NULL AND e NOT IN (4)",
        );
        let w = s.where_clause.unwrap();
        let cj = w.conjuncts();
        assert_eq!(cj.len(), 5);
        assert!(matches!(cj[0], Expr::InList { negated: false, .. }));
        assert!(matches!(cj[1], Expr::Between { negated: true, .. }));
        assert!(matches!(cj[2], Expr::Like { negated: false, .. }));
        assert!(matches!(cj[3], Expr::IsNull { negated: true, .. }));
        assert!(matches!(cj[4], Expr::InList { negated: true, .. }));
    }

    #[test]
    fn aggregates() {
        let s = sel("SELECT COUNT(*), SUM(x), AVG(t.y), COUNT(DISTINCT z) FROM t");
        assert!(s.is_aggregate());
        match &s.items[3] {
            SelectItem::Expr {
                expr: Expr::Aggregate { distinct, .. },
                ..
            } => assert!(distinct),
            _ => panic!(),
        }
    }

    #[test]
    fn count_star_only_for_count() {
        assert!(parse_select("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn negative_literals_fold() {
        let s = sel("SELECT * FROM t WHERE x = -5 AND y = -2.5");
        let cj_owned = s.where_clause.unwrap();
        let cj = cj_owned.conjuncts();
        match cj[0] {
            Expr::Binary { right, .. } => {
                assert_eq!(**right, Expr::Literal(Value::Int(-5)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn create_table_with_constraints() {
        let s = parse(
            "CREATE TABLE ev (e_id INT PRIMARY KEY, en FLOAT NOT NULL, tag VARCHAR(64) UNIQUE)",
        )
        .unwrap();
        match s {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.columns.len(), 3);
                assert!(ct.columns[0].unique && ct.columns[0].not_null);
                assert!(ct.columns[1].not_null && !ct.columns[1].unique);
                assert!(ct.columns[2].unique && !ct.columns[2].not_null);
                assert_eq!(ct.columns[2].data_type, DataType::Text);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert(ins) => {
                assert_eq!(ins.columns, vec!["a", "b"]);
                assert_eq!(ins.rows.len(), 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn create_view() {
        let s = parse("CREATE VIEW v AS SELECT a FROM t WHERE a > 0").unwrap();
        match s {
            Statement::CreateView(v) => {
                assert_eq!(v.name, "v");
                assert!(v.query.where_clause.is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT a FROM t garbage garbage").is_err());
        // trailing semicolon fine
        assert!(parse("SELECT a FROM t;").is_ok());
    }

    #[test]
    fn null_true_false_literals() {
        let s = sel("SELECT * FROM t WHERE a IS NULL AND b = TRUE AND c = NULL");
        let w = s.where_clause.unwrap();
        assert_eq!(w.conjuncts().len(), 3);
    }

    #[test]
    fn parenthesized_expressions() {
        let s = sel("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3");
        match s.where_clause.unwrap() {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                ..
            } => assert!(matches!(
                *left,
                Expr::Binary {
                    op: BinaryOp::Or,
                    ..
                }
            )),
            _ => panic!(),
        }
    }

    #[test]
    fn not_operator() {
        let s = sel("SELECT * FROM t WHERE NOT a = 1");
        assert!(matches!(
            s.where_clause.unwrap(),
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
    }

    #[test]
    fn unknown_function_is_error() {
        assert!(parse_select("SELECT FOO(x) FROM t").is_err());
    }

    #[test]
    fn scalar_functions_parse_with_arity_checks() {
        let s = sel("SELECT ABS(x), ROUND(y, 2), COALESCE(a, b, 0) FROM t");
        assert_eq!(s.items.len(), 3);
        assert!(parse_select("SELECT ABS(x, y) FROM t").is_err());
        assert!(parse_select("SELECT ROUND(x, 1, 2) FROM t").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded_with_a_positioned_error() {
        let parens = |n: usize| {
            format!(
                "SELECT e_id FROM t WHERE {}1{} = 1",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        // The WHERE clause's own entry is one level.
        assert!(parse(&parens(MAX_NESTING_DEPTH - 1)).is_ok());
        for sql in [
            parens(MAX_NESTING_DEPTH),
            parens(5000),
            format!("SELECT e_id FROM t WHERE {}TRUE", "NOT ".repeat(5000)),
            format!("SELECT {}1 FROM t", "- ".repeat(5000)),
            format!("SELECT {}1 FROM t", "+ ".repeat(5000)),
            format!("SELECT {}1{} FROM t", "ABS(".repeat(5000), ")".repeat(5000)),
        ] {
            match parse(&sql) {
                Err(SqlError::Parse { pos, message }) => {
                    assert!(message.contains("nested deeper"), "{message}");
                    assert!(pos > 0 && pos < sql.len(), "{pos}");
                }
                other => panic!("expected a depth error, got {other:?}"),
            }
        }
    }

    #[test]
    fn mixed_vendor_quoting_accepted() {
        let s = sel(r#"SELECT `a`, "b", [c] FROM [my table]"#);
        assert_eq!(s.items.len(), 3);
        assert_eq!(s.from.name, "my table");
    }
}
