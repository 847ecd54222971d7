//! Recursive-descent parser for the EXTRA-style statement language.

use crate::ast::{CmpOp, Expr, FieldDecl, Predicate, Stmt};
use crate::lexer::{lex, Token};
use crate::LangError;

/// Parse a script into statements (separated by `;`, which is optional
/// after the last statement).
pub fn parse_script(src: &str) -> Result<Vec<Stmt>, LangError> {
    let tokens = lex(src)?;
    let mut stmts = Vec::new();
    let mut p = Parser { tokens, pos: 0 };
    while !p.at_end() {
        if p.eat(&Token::Semi) {
            continue;
        }
        stmts.push(p.statement()?);
    }
    Ok(stmts)
}

/// Parse exactly one statement.
pub fn parse_stmt(src: &str) -> Result<Stmt, LangError> {
    let mut stmts = parse_script(src)?;
    if stmts.len() > 1 {
        return Err(LangError::Parse(format!(
            "expected one statement, found {}",
            stmts.len()
        )));
    }
    stmts
        .pop()
        .ok_or_else(|| LangError::Parse("empty statement".into()))
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token<'a>, LangError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| LangError::Parse("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, t: Token<'_>) -> Result<(), LangError> {
        let got = self.next()?;
        if got == t {
            Ok(())
        } else {
            Err(LangError::Parse(format!("expected {t:?}, found {got:?}")))
        }
    }

    fn ident(&mut self) -> Result<String, LangError> {
        match self.next()? {
            Token::Ident(s) => Ok(s.to_string()),
            other => Err(LangError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// Case-insensitive keyword check-and-consume.
    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), LangError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(LangError::Parse(format!(
                "expected keyword {kw:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn statement(&mut self) -> Result<Stmt, LangError> {
        let kw = match self.peek() {
            Some(Token::Ident(s)) => s.to_ascii_lowercase(),
            other => {
                return Err(LangError::Parse(format!(
                    "expected statement, found {other:?}"
                )))
            }
        };
        match kw.as_str() {
            "define" => self.define_type(),
            "create" => self.create_set(),
            "replicate" => self.replicate(),
            "drop" => self.drop_replicate(),
            "build" => self.build_index(),
            "insert" => self.insert(),
            "retrieve" => self.retrieve(),
            "replace" => self.replace(),
            "delete" => self.delete(),
            "explain" => self.explain(),
            "set" => self.set_slowlog(),
            "advise" => {
                self.pos += 1;
                let path = self.dotted_path()?;
                let p_update = if self.keyword("at") {
                    match self.next()? {
                        Token::Float(v) => v,
                        Token::Int(v) => v as f64,
                        other => {
                            return Err(LangError::Parse(format!(
                                "expected probability after `at`, found {other:?}"
                            )))
                        }
                    }
                } else {
                    0.1
                };
                Ok(Stmt::Advise { path, p_update })
            }
            "begin" => {
                self.pos += 1;
                Ok(Stmt::Begin)
            }
            "commit" => {
                self.pos += 1;
                Ok(Stmt::Commit)
            }
            "abort" => {
                self.pos += 1;
                Ok(Stmt::Abort)
            }
            "sync" => {
                self.pos += 1;
                Ok(Stmt::Sync)
            }
            "show" => {
                self.pos += 1;
                let what = self.ident()?.to_ascii_lowercase();
                if what == "stats" {
                    let path = if self.keyword("path") {
                        Some(self.dotted_path()?)
                    } else {
                        None
                    };
                    return Ok(Stmt::ShowStats { path });
                }
                Ok(Stmt::Show { what })
            }
            other => Err(LangError::Parse(format!("unknown statement {other:?}"))),
        }
    }

    /// `define type EMP ( name: char[], age: int, dept: ref DEPT )`
    fn define_type(&mut self) -> Result<Stmt, LangError> {
        self.expect_keyword("define")?;
        self.expect_keyword("type")?;
        let name = self.ident()?;
        self.expect_tok(Token::LParen)?;
        let mut fields = Vec::new();
        loop {
            let fname = self.ident()?;
            self.expect_tok(Token::Colon)?;
            let ftype = self.ident()?;
            let decl = match ftype.to_ascii_lowercase().as_str() {
                "int" => FieldDecl::Int(fname),
                "float" => FieldDecl::Float(fname),
                "char" => {
                    self.expect_tok(Token::LBracket)?;
                    self.expect_tok(Token::RBracket)?;
                    FieldDecl::Str(fname)
                }
                "ref" => {
                    let target = self.ident()?;
                    FieldDecl::Ref(fname, target)
                }
                "pad" => {
                    self.expect_tok(Token::LBracket)?;
                    let n = match self.next()? {
                        Token::Int(n) if (0..=u16::MAX as i64).contains(&n) => n as u16,
                        other => {
                            return Err(LangError::Parse(format!(
                                "expected pad size, found {other:?}"
                            )))
                        }
                    };
                    self.expect_tok(Token::RBracket)?;
                    FieldDecl::Pad(fname, n)
                }
                other => return Err(LangError::Parse(format!("unknown field type {other:?}"))),
            };
            fields.push(decl);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_tok(Token::RParen)?;
        Ok(Stmt::DefineType { name, fields })
    }

    /// `create Emp1: {own ref EMP}`
    fn create_set(&mut self) -> Result<Stmt, LangError> {
        self.expect_keyword("create")?;
        let name = self.ident()?;
        self.expect_tok(Token::Colon)?;
        self.expect_tok(Token::LBrace)?;
        self.expect_keyword("own")?;
        self.expect_keyword("ref")?;
        let type_name = self.ident()?;
        self.expect_tok(Token::RBrace)?;
        Ok(Stmt::CreateSet { name, type_name })
    }

    fn dotted_path(&mut self) -> Result<Vec<String>, LangError> {
        // Room for `Set.ref.ref.field` without growing.
        let mut path = Vec::with_capacity(4);
        path.push(self.ident()?);
        while self.eat(&Token::Dot) {
            path.push(self.ident()?);
        }
        Ok(path)
    }

    /// `replicate Emp1.dept.name [using separate|inplace] [deferred]`
    fn replicate(&mut self) -> Result<Stmt, LangError> {
        self.expect_keyword("replicate")?;
        let path = self.dotted_path()?;
        let mut separate = false;
        if self.keyword("using") {
            let which = self.ident()?.to_ascii_lowercase();
            match which.as_str() {
                "separate" => separate = true,
                "inplace" | "in_place" => separate = false,
                other => {
                    return Err(LangError::Parse(format!(
                        "unknown strategy {other:?} (use `separate` or `inplace`)"
                    )))
                }
            }
        }
        let mut deferred = false;
        let mut collapsed = false;
        loop {
            if self.keyword("deferred") {
                deferred = true;
            } else if self.keyword("collapsed") {
                collapsed = true;
            } else {
                break;
            }
        }
        Ok(Stmt::Replicate {
            path,
            separate,
            deferred,
            collapsed,
        })
    }

    /// `drop replicate Emp1.dept.name`
    fn drop_replicate(&mut self) -> Result<Stmt, LangError> {
        self.expect_keyword("drop")?;
        self.expect_keyword("replicate")?;
        let path = self.dotted_path()?;
        Ok(Stmt::DropReplicate { path })
    }

    /// `build [clustered] btree on Emp1.salary`
    fn build_index(&mut self) -> Result<Stmt, LangError> {
        self.expect_keyword("build")?;
        let clustered = self.keyword("clustered");
        self.expect_keyword("btree")?;
        self.expect_keyword("on")?;
        let path = self.dotted_path()?;
        Ok(Stmt::BuildIndex { path, clustered })
    }

    fn expr(&mut self) -> Result<Expr, LangError> {
        match self.next()? {
            Token::Int(v) => Ok(Expr::Int(v)),
            Token::Float(v) => Ok(Expr::Float(v)),
            Token::Str(s) => Ok(Expr::Str(s.into_owned())),
            Token::Var(v) => Ok(Expr::Var(v.to_string())),
            Token::Ident(s) if s.eq_ignore_ascii_case("null") => Ok(Expr::Null),
            other => Err(LangError::Parse(format!("expected value, found {other:?}"))),
        }
    }

    /// `insert Emp1 (name = "A", dept = $d) [as $e]`
    fn insert(&mut self) -> Result<Stmt, LangError> {
        self.expect_keyword("insert")?;
        // Tolerate the SQL-flavoured `insert into`.
        self.keyword("into");
        let set = self.ident()?;
        self.expect_tok(Token::LParen)?;
        let mut fields = Vec::new();
        if !self.eat(&Token::RParen) {
            loop {
                let f = self.ident()?;
                self.expect_tok(Token::Eq)?;
                let v = self.expr()?;
                fields.push((f, v));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(Token::RParen)?;
        }
        let bind = if self.keyword("as") {
            match self.next()? {
                Token::Var(v) => Some(v.to_string()),
                other => {
                    return Err(LangError::Parse(format!(
                        "expected $variable after `as`, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Stmt::Insert { set, fields, bind })
    }

    fn predicate_opt(&mut self) -> Result<Option<Predicate>, LangError> {
        if !self.keyword("where") {
            return Ok(None);
        }
        let path = self.dotted_path()?;
        if self.keyword("between") {
            let lo = self.expr()?;
            self.expect_keyword("and")?;
            let hi = self.expr()?;
            return Ok(Some(Predicate::Between { path, lo, hi }));
        }
        let op = match self.next()? {
            Token::Eq => CmpOp::Eq,
            Token::Lt => CmpOp::Lt,
            Token::Gt => CmpOp::Gt,
            Token::Le => CmpOp::Le,
            Token::Ge => CmpOp::Ge,
            other => {
                return Err(LangError::Parse(format!(
                    "expected comparison operator, found {other:?}"
                )))
            }
        };
        let value = self.expr()?;
        Ok(Some(Predicate::Cmp { path, op, value }))
    }

    /// `retrieve (Emp1.name, Emp1.dept.name) where …`
    fn retrieve(&mut self) -> Result<Stmt, LangError> {
        self.expect_keyword("retrieve")?;
        self.expect_tok(Token::LParen)?;
        let mut projections = vec![self.dotted_path()?];
        while self.eat(&Token::Comma) {
            projections.push(self.dotted_path()?);
        }
        self.expect_tok(Token::RParen)?;
        if self.keyword("from") {
            return self.retrieve_sys(projections);
        }
        let predicate = self.predicate_opt()?;
        Ok(Stmt::Retrieve {
            projections,
            predicate,
        })
    }

    /// `… from sys.metrics [where name = "…"]` — the tail of a virtual
    /// `retrieve` over one introspection table. The parenthesised list
    /// holds bare column names, or the single word `all` for every
    /// column.
    fn retrieve_sys(&mut self, projections: Vec<Vec<String>>) -> Result<Stmt, LangError> {
        let table_path = self.dotted_path()?;
        if table_path.len() != 2 || !table_path[0].eq_ignore_ascii_case("sys") {
            return Err(LangError::Parse(format!(
                "`from` expects a sys.<table> name, found {:?}",
                table_path.join(".")
            )));
        }
        let table = format!("sys.{}", table_path[1].to_ascii_lowercase());
        let all = projections.len() == 1
            && projections[0].len() == 1
            && projections[0][0].eq_ignore_ascii_case("all");
        let mut columns = Vec::new();
        if !all {
            for p in &projections {
                if p.len() != 1 {
                    return Err(LangError::Parse(format!(
                        "sys projections are bare column names, found {:?}",
                        p.join(".")
                    )));
                }
                columns.push(p[0].clone());
            }
        }
        let predicate = self.predicate_opt()?;
        Ok(Stmt::RetrieveSys {
            table,
            columns,
            predicate,
        })
    }

    /// `set slowlog off` / `set slowlog threshold 10 ms [100 pages]`
    fn set_slowlog(&mut self) -> Result<Stmt, LangError> {
        self.expect_keyword("set")?;
        self.expect_keyword("slowlog")?;
        if self.keyword("off") {
            return Ok(Stmt::SetSlowlog {
                wall_ms: None,
                io_pages: None,
            });
        }
        self.expect_keyword("threshold")?;
        let mut wall_ms = None;
        let mut io_pages = None;
        while let Some(Token::Int(v)) = self.peek() {
            if *v < 0 {
                return Err(LangError::Parse("threshold must be non-negative".into()));
            }
            let n = *v as u64;
            self.pos += 1;
            if self.keyword("ms") {
                wall_ms = Some(n);
            } else if self.keyword("pages") {
                io_pages = Some(n);
            } else {
                return Err(LangError::Parse(format!(
                    "expected `ms` or `pages` after threshold value, found {:?}",
                    self.peek()
                )));
            }
        }
        if wall_ms.is_none() && io_pages.is_none() {
            return Err(LangError::Parse(
                "set slowlog threshold needs `<N> ms` and/or `<N> pages`".into(),
            ));
        }
        Ok(Stmt::SetSlowlog { wall_ms, io_pages })
    }

    /// `replace (Dept.budget = 42, Dept.name = "X") where …`
    fn replace(&mut self) -> Result<Stmt, LangError> {
        self.expect_keyword("replace")?;
        self.expect_tok(Token::LParen)?;
        let mut assignments = Vec::new();
        loop {
            let path = self.dotted_path()?;
            self.expect_tok(Token::Eq)?;
            let v = self.expr()?;
            assignments.push((path, v));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_tok(Token::RParen)?;
        let predicate = self.predicate_opt()?;
        Ok(Stmt::Replace {
            assignments,
            predicate,
        })
    }

    /// `explain [analyze] retrieve (…) …` / `explain [analyze] replace (…) …`
    fn explain(&mut self) -> Result<Stmt, LangError> {
        self.expect_keyword("explain")?;
        let analyze = self.keyword("analyze");
        let inner = self.statement()?;
        match inner {
            Stmt::Retrieve { .. } | Stmt::RetrieveSys { .. } | Stmt::Replace { .. } => {
                Ok(Stmt::Explain {
                    analyze,
                    stmt: Box::new(inner),
                })
            }
            _ => Err(LangError::Parse(
                "explain supports retrieve and replace statements only".into(),
            )),
        }
    }

    /// `delete from Emp1 where …`
    fn delete(&mut self) -> Result<Stmt, LangError> {
        self.expect_keyword("delete")?;
        self.expect_keyword("from")?;
        let set = self.ident()?;
        let predicate = self.predicate_opt()?;
        Ok(Stmt::Delete { set, predicate })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_figure_1_schema() {
        // The paper's Figure 1, verbatim modulo whitespace.
        let stmts = parse_script(
            r#"
            define type ORG ( name: char[], budget: int );
            define type DEPT ( name: char[], budget: int, org: ref ORG );
            define type EMP ( name: char[], age: int, salary: int, dept: ref DEPT );
            create Org: {own ref ORG};
            create Dept: {own ref DEPT};
            create Emp1: {own ref EMP};
            create Emp2: {own ref EMP};
            replicate Emp1.dept.name
            "#,
        )
        .unwrap();
        assert_eq!(stmts.len(), 8);
        assert!(matches!(&stmts[0], Stmt::DefineType { name, fields }
            if name == "ORG" && fields.len() == 2));
        assert!(matches!(&stmts[4], Stmt::CreateSet { name, type_name }
            if name == "Dept" && type_name == "DEPT"));
        assert!(matches!(
            &stmts[7],
            Stmt::Replicate {
                separate: false,
                deferred: false,
                ..
            }
        ));
    }

    #[test]
    fn parse_section_3_1_query() {
        // The paper's §3.1 example query.
        let s = parse_stmt(
            "retrieve (Emp1.name, Emp1.salary, Emp1.dept.name) where Emp1.salary > 100000",
        )
        .unwrap();
        match s {
            Stmt::Retrieve {
                projections,
                predicate: Some(Predicate::Cmp { path, op, value }),
            } => {
                assert_eq!(projections.len(), 3);
                assert_eq!(projections[2], vec!["Emp1", "dept", "name"]);
                assert_eq!(path, vec!["Emp1", "salary"]);
                assert_eq!(op, CmpOp::Gt);
                assert_eq!(value, Expr::Int(100_000));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_replicate_variants() {
        assert!(matches!(
            parse_stmt("replicate Emp1.dept.org.name using separate").unwrap(),
            Stmt::Replicate {
                separate: true,
                deferred: false,
                collapsed: false,
                ..
            }
        ));
        assert!(matches!(
            parse_stmt("replicate Emp1.dept.all using inplace deferred").unwrap(),
            Stmt::Replicate {
                separate: false,
                deferred: true,
                ..
            }
        ));
        assert!(matches!(
            parse_stmt("replicate Emp1.dept.org.name collapsed").unwrap(),
            Stmt::Replicate {
                collapsed: true,
                ..
            }
        ));
        assert!(matches!(
            parse_stmt("drop replicate Emp1.dept.name").unwrap(),
            Stmt::DropReplicate { .. }
        ));
    }

    #[test]
    fn parse_build_index() {
        // The paper's §3.3.4 statement.
        assert!(matches!(
            parse_stmt("build btree on Emp1.dept.org.name").unwrap(),
            Stmt::BuildIndex {
                clustered: false,
                ..
            }
        ));
        assert!(matches!(
            parse_stmt("build clustered btree on Emp1.salary").unwrap(),
            Stmt::BuildIndex {
                clustered: true,
                ..
            }
        ));
    }

    #[test]
    fn parse_insert_and_bind() {
        let s = parse_stmt(r#"insert Emp1 (name = "Alice", age = 30, dept = $shoe) as $alice"#)
            .unwrap();
        match s {
            Stmt::Insert { set, fields, bind } => {
                assert_eq!(set, "Emp1");
                assert_eq!(fields.len(), 3);
                assert_eq!(fields[2], ("dept".into(), Expr::Var("shoe".into())));
                assert_eq!(bind, Some("alice".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_replace_and_delete() {
        let s = parse_stmt(r#"replace (Dept.budget = 42) where Dept.name = "Shoe""#).unwrap();
        assert!(matches!(s, Stmt::Replace { .. }));
        let s = parse_stmt("delete from Emp1 where Emp1.salary < 100").unwrap();
        assert!(matches!(
            s,
            Stmt::Delete {
                predicate: Some(_),
                ..
            }
        ));
        let s = parse_stmt("delete from Emp1").unwrap();
        assert!(matches!(
            s,
            Stmt::Delete {
                predicate: None,
                ..
            }
        ));
    }

    #[test]
    fn parse_advise() {
        assert!(matches!(
            parse_stmt("advise Emp1.dept.name").unwrap(),
            Stmt::Advise { p_update, .. } if p_update == 0.1
        ));
        assert!(matches!(
            parse_stmt("advise Emp1.dept.org.name at 0.35").unwrap(),
            Stmt::Advise { p_update, .. } if (p_update - 0.35).abs() < 1e-9
        ));
    }

    #[test]
    fn parse_between() {
        let s = parse_stmt("retrieve (R.field_r) where R.field_r between 10 and 20").unwrap();
        assert!(matches!(
            s,
            Stmt::Retrieve {
                predicate: Some(Predicate::Between { .. }),
                ..
            }
        ));
    }

    #[test]
    fn parse_retrieve_sys() {
        let s = parse_stmt(r#"retrieve (name, value) from sys.metrics where name = "x""#).unwrap();
        match s {
            Stmt::RetrieveSys {
                table,
                columns,
                predicate,
            } => {
                assert_eq!(table, "sys.metrics");
                assert_eq!(columns, vec!["name".to_string(), "value".to_string()]);
                assert!(matches!(
                    predicate,
                    Some(Predicate::Cmp { path, .. }) if path == vec!["name".to_string()]
                ));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_stmt("retrieve (all) from sys.slow_queries").unwrap(),
            Stmt::RetrieveSys { columns, .. } if columns.is_empty()
        ));
        assert!(matches!(
            parse_stmt("explain analyze retrieve (all) from sys.pool").unwrap(),
            Stmt::Explain { analyze: true, stmt }
                if matches!(*stmt, Stmt::RetrieveSys { .. })
        ));
        // Dotted projections and non-sys sources are rejected.
        assert!(parse_stmt("retrieve (a.b) from sys.metrics").is_err());
        assert!(parse_stmt("retrieve (name) from other.metrics").is_err());
        assert!(parse_stmt("retrieve (name) from sys").is_err());
    }

    #[test]
    fn parse_set_slowlog() {
        assert_eq!(
            parse_stmt("set slowlog off").unwrap(),
            Stmt::SetSlowlog {
                wall_ms: None,
                io_pages: None
            }
        );
        assert_eq!(
            parse_stmt("set slowlog threshold 10 ms 100 pages").unwrap(),
            Stmt::SetSlowlog {
                wall_ms: Some(10),
                io_pages: Some(100)
            }
        );
        assert_eq!(
            parse_stmt("set slowlog threshold 7 pages").unwrap(),
            Stmt::SetSlowlog {
                wall_ms: None,
                io_pages: Some(7)
            }
        );
        assert!(parse_stmt("set slowlog threshold").is_err());
        assert!(parse_stmt("set slowlog threshold 10 bogus").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_stmt("").is_err());
        assert!(parse_stmt("frobnicate Emp1").is_err());
        assert!(parse_stmt("define type X ( a: blob )").is_err());
        assert!(parse_stmt("retrieve Emp1.name").is_err()); // missing parens
        assert!(parse_stmt("replicate Emp1.dept.name using magic").is_err());
        assert!(parse_stmt("insert Emp1 (name = )").is_err());
        assert!(parse_stmt("retrieve (Emp1.name) where Emp1.x !* 3").is_err());
    }
}
