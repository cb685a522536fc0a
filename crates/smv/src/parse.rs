//! Parser for the mini-SMV language.

use crate::ast::{Expr, Module, Type};
use crate::token::{lex, Spanned, Token};
use std::fmt;

/// A parse error with source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmvParseError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SmvParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SmvParseError {}

/// Deepest expression the parser accepts: [`cmc_ctl::MAX_FORMULA_DEPTH`],
/// so the rendering of every accepted expression re-parses as a CTL
/// formula (the `-refine` path carries `INIT`s that way). An identifier is
/// one level, and every operator or parenthesis pair around it adds one;
/// a chain `a & b & c` is three. Parsing and every later pass (checking,
/// compilation, CTL conversion, display) recurse once per level, so
/// deeper input — `((((…`, `!!!!…` or a long `&` chain — is a parse error
/// instead of a stack overflow. At this bound even a debug build checks
/// the deepest accepted expressions inside a 2 MiB thread stack, the
/// default for spawned threads; the deepest expression in this
/// repository's sources has fewer than 20 levels.
pub const MAX_EXPR_DEPTH: usize = cmc_ctl::MAX_FORMULA_DEPTH;

/// Parse a complete SMV program (a single `MODULE main`).
pub fn parse_module(src: &str) -> Result<Module, SmvParseError> {
    let tokens = lex(src).map_err(|e| SmvParseError {
        line: e.line,
        message: e.message,
    })?;
    let mut p = P {
        toks: tokens,
        pos: 0,
        depth: 0,
    };
    p.module()
}

/// An expression with its height: the node count of its longest
/// root-to-leaf path.
type Tree = (Expr, usize);

struct P {
    toks: Vec<Spanned>,
    pos: usize,
    /// Expression recursions currently on the stack.
    depth: usize,
}

impl P {
    fn peek(&self) -> &Token {
        &self.toks[self.pos].token
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].token.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> SmvParseError {
        SmvParseError {
            line: self.line(),
            message: msg.into(),
        }
    }

    fn expect(&mut self, t: Token) -> Result<(), SmvParseError> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, SmvParseError> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(SmvParseError {
                line: self.toks[self.pos.saturating_sub(1)].line,
                message: format!("expected identifier, found {other}"),
            }),
        }
    }

    fn module(&mut self) -> Result<Module, SmvParseError> {
        self.expect(Token::Module)?;
        let name = self.ident()?;
        if name != "main" {
            return Err(self.err(format!(
                "only MODULE main is supported (found {name:?}); \
                 build multi-component models programmatically"
            )));
        }
        let mut m = Module {
            name,
            ..Module::default()
        };
        loop {
            match self.peek().clone() {
                Token::Eof => break,
                Token::Var => {
                    self.bump();
                    self.var_section(&mut m)?;
                }
                Token::Assign => {
                    self.bump();
                    self.assign_section(&mut m)?;
                }
                Token::Define => {
                    self.bump();
                    self.define_section(&mut m)?;
                }
                Token::Trans => {
                    self.bump();
                    let e = self.expr(true)?;
                    m.trans_constraints.push(e);
                    self.eat(&Token::Semi);
                }
                Token::Init => {
                    self.bump();
                    let e = self.expr(false)?;
                    m.init_constraints.push(e);
                    self.eat(&Token::Semi);
                }
                Token::Invar => {
                    self.bump();
                    let e = self.expr(false)?;
                    m.invar_constraints.push(e);
                    self.eat(&Token::Semi);
                }
                Token::Fairness => {
                    self.bump();
                    let e = self.expr(false)?;
                    m.fairness.push(e);
                    self.eat(&Token::Semi);
                }
                Token::Spec => {
                    self.bump();
                    let start = self.pos;
                    let e = self.spec_expr()?;
                    let text = self.render_span(start, self.pos);
                    m.specs.push((text, e));
                    self.eat(&Token::Semi);
                }
                other => return Err(self.err(format!("unexpected token {other}"))),
            }
        }
        Ok(m)
    }

    /// Reconstruct source-ish text for a token span (for reports).
    fn render_span(&self, start: usize, end: usize) -> String {
        let mut out = String::new();
        for s in &self.toks[start..end] {
            if !out.is_empty() {
                out.push(' ');
            }
            let t = match &s.token {
                Token::Ident(id) => id.clone(),
                Token::Number(n) => n.to_string(),
                Token::LParen => "(".into(),
                Token::RParen => ")".into(),
                Token::LBracket => "[".into(),
                Token::RBracket => "]".into(),
                Token::Not => "!".into(),
                Token::And => "&".into(),
                Token::Or => "|".into(),
                Token::Implies => "->".into(),
                Token::Iff => "<->".into(),
                Token::Eq => "=".into(),
                Token::Neq => "!=".into(),
                t => format!("{t}"),
            };
            out.push_str(&t);
        }
        out
    }

    fn var_section(&mut self, m: &mut Module) -> Result<(), SmvParseError> {
        // var-decl*: ident ":" type ";"
        while let Token::Ident(_) = self.peek() {
            let name = self.ident()?;
            self.expect(Token::Colon)?;
            let ty = self.var_type()?;
            self.expect(Token::Semi)?;
            if m.vars.iter().any(|(n, _)| *n == name) {
                return Err(self.err(format!("duplicate variable {name:?}")));
            }
            m.vars.push((name, ty));
        }
        Ok(())
    }

    fn var_type(&mut self) -> Result<Type, SmvParseError> {
        match self.bump() {
            Token::Boolean => Ok(Type::Boolean),
            Token::LBrace => {
                let mut values = Vec::new();
                loop {
                    match self.bump() {
                        Token::Ident(v) => values.push(v),
                        Token::Number(n) => values.push(n.to_string()),
                        other => {
                            return Err(self.err(format!("expected enum value, found {other}")))
                        }
                    }
                    if self.eat(&Token::Comma) {
                        continue;
                    }
                    self.expect(Token::RBrace)?;
                    break;
                }
                if values.is_empty() {
                    return Err(self.err("empty enumeration"));
                }
                Ok(Type::Enum(values))
            }
            Token::Number(lo) => {
                self.expect(Token::DotDot)?;
                match self.bump() {
                    Token::Number(hi) if hi >= lo => Ok(Type::Range(lo, hi)),
                    other => Err(self.err(format!("bad range bound {other}"))),
                }
            }
            other => Err(self.err(format!("expected type, found {other}"))),
        }
    }

    fn assign_section(&mut self, m: &mut Module) -> Result<(), SmvParseError> {
        loop {
            match self.peek().clone() {
                Token::Init => {
                    self.bump();
                    self.expect(Token::LParen)?;
                    let var = self.ident()?;
                    self.expect(Token::RParen)?;
                    self.expect(Token::Assign2)?;
                    let e = self.expr(false)?;
                    self.expect(Token::Semi)?;
                    m.init_assigns.push((var, e));
                }
                Token::Next => {
                    self.bump();
                    self.expect(Token::LParen)?;
                    let var = self.ident()?;
                    self.expect(Token::RParen)?;
                    self.expect(Token::Assign2)?;
                    let e = self.expr(false)?;
                    self.expect(Token::Semi)?;
                    m.next_assigns.push((var, e));
                }
                _ => break,
            }
        }
        Ok(())
    }

    fn define_section(&mut self, m: &mut Module) -> Result<(), SmvParseError> {
        while let Token::Ident(_) = self.peek() {
            let name = self.ident()?;
            self.expect(Token::Assign2)?;
            let e = self.expr(false)?;
            self.expect(Token::Semi)?;
            m.defines.push((name, e));
        }
        Ok(())
    }

    /// SPEC expression: full CTL (temporal operators allowed).
    fn spec_expr(&mut self) -> Result<Expr, SmvParseError> {
        Ok(self.iff(false, true)?.0)
    }

    /// Plain expression; `allow_next` permits `next(..)` (TRANS sections).
    fn expr(&mut self, allow_next: bool) -> Result<Expr, SmvParseError> {
        Ok(self.iff(allow_next, false)?.0)
    }

    /// The height of a node over children at most `child` levels tall,
    /// refused past [`MAX_EXPR_DEPTH`].
    fn grow(&self, child: usize) -> Result<usize, SmvParseError> {
        if child >= MAX_EXPR_DEPTH {
            return Err(self.err(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(child + 1)
    }

    /// Run `f` one recursion level deeper, refused past
    /// [`MAX_EXPR_DEPTH`] levels.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SmvParseError>,
    ) -> Result<T, SmvParseError> {
        self.depth = self.grow(self.depth)?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn iff(&mut self, nx: bool, tmp: bool) -> Result<Tree, SmvParseError> {
        let (mut e, mut h) = self.implies(nx, tmp)?;
        while self.eat(&Token::Iff) {
            let (r, hr) = self.implies(nx, tmp)?;
            h = self.grow(h.max(hr))?;
            e = Expr::Iff(Box::new(e), Box::new(r));
        }
        Ok((e, h))
    }

    fn implies(&mut self, nx: bool, tmp: bool) -> Result<Tree, SmvParseError> {
        let (e, h) = self.or(nx, tmp)?;
        if self.eat(&Token::Implies) {
            // Right associative.
            let (r, hr) = self.nested(|p| p.implies(nx, tmp))?;
            Ok((
                Expr::Implies(Box::new(e), Box::new(r)),
                self.grow(h.max(hr))?,
            ))
        } else {
            Ok((e, h))
        }
    }

    fn or(&mut self, nx: bool, tmp: bool) -> Result<Tree, SmvParseError> {
        let (mut e, mut h) = self.and(nx, tmp)?;
        while self.eat(&Token::Or) {
            let (r, hr) = self.and(nx, tmp)?;
            h = self.grow(h.max(hr))?;
            e = Expr::Or(Box::new(e), Box::new(r));
        }
        Ok((e, h))
    }

    fn and(&mut self, nx: bool, tmp: bool) -> Result<Tree, SmvParseError> {
        let (mut e, mut h) = self.equality(nx, tmp)?;
        while self.eat(&Token::And) {
            let (r, hr) = self.equality(nx, tmp)?;
            h = self.grow(h.max(hr))?;
            e = Expr::And(Box::new(e), Box::new(r));
        }
        Ok((e, h))
    }

    fn equality(&mut self, nx: bool, tmp: bool) -> Result<Tree, SmvParseError> {
        let (e, h) = self.unary(nx, tmp)?;
        let make: fn(Box<Expr>, Box<Expr>) -> Expr = if self.eat(&Token::Eq) {
            Expr::Eq
        } else if self.eat(&Token::Neq) {
            Expr::Neq
        } else {
            return Ok((e, h));
        };
        let (r, hr) = self.unary(nx, tmp)?;
        Ok((make(Box::new(e), Box::new(r)), self.grow(h.max(hr))?))
    }

    /// Every recursive descent except `->`'s right operand passes through
    /// here, so this one guard bounds the parser's stack.
    fn unary(&mut self, nx: bool, tmp: bool) -> Result<Tree, SmvParseError> {
        self.nested(|p| p.unary_body(nx, tmp))
    }

    fn unary_body(&mut self, nx: bool, tmp: bool) -> Result<Tree, SmvParseError> {
        if self.eat(&Token::Not) {
            let (e, h) = self.unary(nx, tmp)?;
            return Ok((Expr::Not(Box::new(e)), self.grow(h)?));
        }
        if tmp {
            // Temporal unary operators are identifiers at the lexer level.
            if let Token::Ident(id) = self.peek().clone() {
                let make: Option<fn(Box<Expr>) -> Expr> = match id.as_str() {
                    "EX" => Some(Expr::Ex),
                    "AX" => Some(Expr::Ax),
                    "EF" => Some(Expr::Ef),
                    "AF" => Some(Expr::Af),
                    "EG" => Some(Expr::Eg),
                    "AG" => Some(Expr::Ag),
                    _ => None,
                };
                if let Some(make) = make {
                    self.bump();
                    // Temporal unary operators take an equality-level
                    // operand so that `AX r = null` means `AX (r = null)`,
                    // matching the paper's Figure 6 specs.
                    let (e, h) = self.equality(nx, tmp)?;
                    return Ok((make(Box::new(e)), self.grow(h)?));
                }
                if (id == "E" || id == "A")
                    && self.toks.get(self.pos + 1).map(|s| &s.token) == Some(&Token::LBracket)
                {
                    self.bump(); // E / A
                    self.bump(); // [
                    let (f, hf) = self.iff(nx, tmp)?;
                    match self.bump() {
                        Token::Ident(u) if u == "U" => {}
                        other => return Err(self.err(format!("expected U, found {other}"))),
                    }
                    let (g, hg) = self.iff(nx, tmp)?;
                    self.expect(Token::RBracket)?;
                    let make = if id == "E" { Expr::Eu } else { Expr::Au };
                    return Ok((make(Box::new(f), Box::new(g)), self.grow(hf.max(hg))?));
                }
            }
        }
        self.primary(nx, tmp)
    }

    fn primary(&mut self, nx: bool, tmp: bool) -> Result<Tree, SmvParseError> {
        match self.bump() {
            Token::LParen => {
                let e = self.iff(nx, tmp)?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Token::Number(n) => Ok((Expr::Num(n), 1)),
            Token::Ident(id) => Ok((Expr::Ident(id), 1)),
            Token::Next => {
                if !nx {
                    return Err(self.err("next(..) is only allowed in TRANS constraints"));
                }
                self.expect(Token::LParen)?;
                let (e, h) = self.iff(nx, tmp)?;
                self.expect(Token::RParen)?;
                Ok((Expr::Next(Box::new(e)), self.grow(h)?))
            }
            Token::Case => {
                let mut arms = Vec::new();
                let mut h = 0;
                while !self.eat(&Token::Esac) {
                    let (cond, hc) = self.iff(nx, tmp)?;
                    self.expect(Token::Colon)?;
                    let (val, hv) = self.iff(nx, tmp)?;
                    self.expect(Token::Semi)?;
                    h = h.max(hc).max(hv);
                    arms.push((cond, val));
                }
                if arms.is_empty() {
                    return Err(self.err("empty case expression"));
                }
                Ok((Expr::Case(arms), self.grow(h)?))
            }
            Token::LBrace => {
                let mut items = Vec::new();
                let mut h = 0;
                loop {
                    let (item, hi) = self.iff(nx, tmp)?;
                    h = h.max(hi);
                    items.push(item);
                    if self.eat(&Token::Comma) {
                        continue;
                    }
                    self.expect(Token::RBrace)?;
                    break;
                }
                Ok((Expr::Set(items), self.grow(h)?))
            }
            other => Err(SmvParseError {
                line: self.toks[self.pos.saturating_sub(1)].line,
                message: format!("unexpected token {other} in expression"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "
-- a comment
MODULE main
VAR
  x : boolean;
  s : {a, b, c};
  n : 0..3;
ASSIGN
  init(x) := 0;
  next(x) := case s = a : 1; 1 : x; esac;
  next(s) := {a, b};
DEFINE
  both := x & s = b;
FAIRNESS !x | s = c
SPEC AG (x -> AX x)
SPEC E [x U s = c]
";

    /// One `SPEC` over `x` at exactly `levels` levels of nesting, in
    /// each shape the parser recurses or chains on.
    fn deep_specs(levels: usize) -> Vec<String> {
        let wrap = |open: &str, close: &str| {
            format!("{}x{}", open.repeat(levels - 1), close.repeat(levels - 1))
        };
        let chain = |op: &str| vec!["x"; levels].join(op);
        [
            wrap("(", ")"),
            wrap("!", ""),
            wrap("AX ", ""),
            chain(" & "),
            chain(" | "),
            chain(" -> "),
            chain(" <-> "),
        ]
        .into_iter()
        .map(|e| format!("MODULE main\nVAR x : boolean;\nSPEC {e}\n"))
        .collect()
    }

    /// Every shape parses at [`MAX_EXPR_DEPTH`] levels and is refused one
    /// level past it, and far past it, where unbounded recursion would
    /// overflow the stack.
    #[test]
    fn expression_depth_is_bounded() {
        for src in deep_specs(MAX_EXPR_DEPTH) {
            assert!(parse_module(&src).is_ok(), "{}", &src[..60]);
        }
        for levels in [MAX_EXPR_DEPTH + 1, 100_000] {
            for src in deep_specs(levels) {
                let err = parse_module(&src).unwrap_err();
                assert!(err.message.contains("deeper than"), "{err}");
            }
        }
    }

    /// The bound is safe: every shape at [`MAX_EXPR_DEPTH`] checks end to
    /// end inside a 2 MiB thread stack, the default for spawned threads.
    #[test]
    fn expressions_at_the_bound_check_on_a_default_thread_stack() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for src in deep_specs(MAX_EXPR_DEPTH) {
                    crate::run_source(&src).unwrap();
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn parses_full_module() {
        let m = parse_module(TINY).unwrap();
        assert_eq!(m.name, "main");
        assert_eq!(m.vars.len(), 3);
        assert_eq!(
            m.vars[1].1,
            Type::Enum(vec!["a".into(), "b".into(), "c".into()])
        );
        assert_eq!(m.vars[2].1, Type::Range(0, 3));
        assert_eq!(m.init_assigns.len(), 1);
        assert_eq!(m.next_assigns.len(), 2);
        assert_eq!(m.defines.len(), 1);
        assert_eq!(m.fairness.len(), 1);
        assert_eq!(m.specs.len(), 2);
        assert!(m.specs[0].1.is_temporal());
    }

    #[test]
    fn case_arms_in_order() {
        let m = parse_module(TINY).unwrap();
        let (_, next_x) = &m.next_assigns[0];
        match next_x {
            Expr::Case(arms) => {
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[1].0, Expr::Num(1));
            }
            other => panic!("expected case, got {other:?}"),
        }
    }

    #[test]
    fn set_literals() {
        let m = parse_module(TINY).unwrap();
        let (_, next_s) = &m.next_assigns[1];
        assert_eq!(
            *next_s,
            Expr::Set(vec![Expr::Ident("a".into()), Expr::Ident("b".into())])
        );
    }

    #[test]
    fn trans_allows_next() {
        let m = parse_module("MODULE main\nVAR x : boolean;\nTRANS next(x) = x | next(x) != x")
            .unwrap();
        assert_eq!(m.trans_constraints.len(), 1);
        assert!(m.trans_constraints[0].mentions_next());
    }

    #[test]
    fn next_rejected_outside_trans() {
        let err = parse_module("MODULE main\nVAR x : boolean;\nINIT next(x) = x").unwrap_err();
        assert!(err.message.contains("next"));
    }

    #[test]
    fn spec_until_operators() {
        let m = parse_module("MODULE main\nVAR p : boolean;\nSPEC A [p U !p]").unwrap();
        match &m.specs[0].1 {
            Expr::Au(..) => {}
            other => panic!("expected AU, got {other:?}"),
        }
    }

    #[test]
    fn only_main_module() {
        let err = parse_module("MODULE server\n").unwrap_err();
        assert!(err.message.contains("main"));
    }

    #[test]
    fn duplicate_vars_rejected() {
        let err = parse_module("MODULE main\nVAR x : boolean; x : boolean;").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_module("MODULE main\nVAR\n  x : ???;").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn spec_text_is_recorded() {
        let m = parse_module("MODULE main\nVAR x : boolean;\nSPEC AG ( x -> AX x )").unwrap();
        assert_eq!(m.specs[0].0, "AG ( x -> AX x )");
    }

    /// The paper's Figure 5 server model parses.
    #[test]
    fn parses_paper_server() {
        let src = "
MODULE main
VAR
  belief : {none,invalid,valid};
  r : {null,fetch,validate,val,inval};
  validFile : boolean;
ASSIGN
  next(validFile) := validFile;
  next(belief) :=
    case
      (belief = none) & (r = fetch) : valid;
      (belief = invalid) & (r = fetch) : valid;
      (belief = none) & (r = validate) & validFile : valid;
      (belief = none) & (r = validate) & !validFile : invalid;
      1 : belief;
    esac;
  next(r) :=
    case
      (belief = none) & (r = fetch) : val;
      (belief = invalid) & (r = fetch) : val;
      (belief = none) & (r = validate) & validFile : val;
      (belief = none) & (r = validate) & !validFile : inval;
      (belief = valid) & (r = fetch) : val;
      1 : r;
    esac;
";
        let m = parse_module(src).unwrap();
        assert_eq!(m.vars.len(), 3);
        assert_eq!(m.next_assigns.len(), 3);
    }
}
