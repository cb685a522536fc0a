//! A recursive-descent parser for CTL formulas in SMV `SPEC` syntax.
//!
//! Grammar (loosest binding first):
//!
//! ```text
//! iff     := implies ( "<->" implies )*
//! implies := or ( "->" implies )?              (right associative)
//! or      := and ( "|" and )*
//! and     := unary ( "&" unary )*
//! unary   := "!" unary
//!          | ("EX"|"AX"|"EF"|"AF"|"EG"|"AG") unary
//!          | ("E"|"A") "[" iff "U" iff "]"
//!          | "TRUE" | "FALSE" | ident | "(" iff ")"
//! ident   := [A-Za-z_][A-Za-z0-9_.#]*          (dots allow `Server.belief`;
//!                                               `#` allows `cmc-smv` bit
//!                                               names like `belief#0`)
//! ```
//!
//! Identifiers may also be equality atoms like `belief = valid`; the parser
//! folds `lhs = rhs` and `lhs != rhs` into atomic propositions named
//! `lhs=rhs` (negated for `!=`), matching how `cmc-smv` boolean-encodes
//! enumerated variables.
//!
//! Input nested deeper than [`MAX_FORMULA_DEPTH`] is a [`ParseError`],
//! never a stack overflow.

use crate::ast::Formula;
use std::fmt;

/// Deepest formula [`parse`] accepts. An atom is one level, and every
/// operator or parenthesis pair around it adds one; a chain `a & b & c`
/// is three. Parsing and every later pass over a formula (display,
/// rewriting, checking, dropping) recurse once per level, so deeper
/// input — `((((…`, `!!!!…`, `EX EX …` or a long `&` chain — is refused
/// instead of overflowing the stack. At this bound even a debug build
/// handles the deepest accepted formulas inside a 2 MiB thread stack, the
/// default for spawned threads. `cmc-smv` bounds its expressions by the
/// same constant, so every SMV expression it accepts re-parses here.
pub const MAX_FORMULA_DEPTH: usize = 100;

/// A parse error with byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was noticed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a CTL formula from SMV-style text.
pub fn parse(input: &str) -> Result<Formula, ParseError> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let (f, _) = p.iff()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing input"));
    }
    Ok(f)
}

impl std::str::FromStr for Formula {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse(s)
    }
}

/// A formula with its height: the node count of its longest
/// root-to-leaf path.
type Tree = (Formula, usize);

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Formula recursions currently on the stack.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.rest().chars().next() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    /// Consume `kw` only when followed by a non-identifier character, so
    /// that e.g. `EXtra` lexes as an identifier rather than `EX tra`.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        if let Some(rest) = r.strip_prefix(kw) {
            if rest.chars().next().is_none_or(|c| !is_ident_char(c)) {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    /// The height of a node over children at most `child` levels tall,
    /// refused past [`MAX_FORMULA_DEPTH`].
    fn grow(&self, child: usize) -> Result<usize, ParseError> {
        if child >= MAX_FORMULA_DEPTH {
            return Err(self.err(format!(
                "formula nested deeper than {MAX_FORMULA_DEPTH} levels"
            )));
        }
        Ok(child + 1)
    }

    /// Run `f` one recursion level deeper, refused past
    /// [`MAX_FORMULA_DEPTH`] levels.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth = self.grow(self.depth)?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn iff(&mut self) -> Result<Tree, ParseError> {
        let (mut f, mut h) = self.implies()?;
        while self.eat("<->") {
            let (g, hg) = self.implies()?;
            h = self.grow(h.max(hg))?;
            f = f.iff(g);
        }
        Ok((f, h))
    }

    fn implies(&mut self) -> Result<Tree, ParseError> {
        let (f, h) = self.or()?;
        if self.eat("->") {
            let (g, hg) = self.nested(Self::implies)?; // right associative
            Ok((f.implies(g), self.grow(h.max(hg))?))
        } else {
            Ok((f, h))
        }
    }

    fn or(&mut self) -> Result<Tree, ParseError> {
        let (mut f, mut h) = self.and()?;
        loop {
            self.skip_ws();
            // `|` but not `|something-weird`; single char is fine.
            if self.rest().starts_with('|') {
                self.pos += 1;
                let (g, hg) = self.and()?;
                h = self.grow(h.max(hg))?;
                f = f.or(g);
            } else {
                break;
            }
        }
        Ok((f, h))
    }

    fn and(&mut self) -> Result<Tree, ParseError> {
        let (mut f, mut h) = self.unary()?;
        while self.eat("&") {
            let (g, hg) = self.unary()?;
            h = self.grow(h.max(hg))?;
            f = f.and(g);
        }
        Ok((f, h))
    }

    /// Every recursive descent except `->`'s right operand passes through
    /// here, so this one guard bounds the parser's stack.
    fn unary(&mut self) -> Result<Tree, ParseError> {
        self.nested(Self::unary_body)
    }

    fn unary_body(&mut self) -> Result<Tree, ParseError> {
        self.skip_ws();
        if self.eat("!") {
            let (f, h) = self.unary()?;
            return Ok((f.not(), self.grow(h)?));
        }
        for (kw, make) in [
            ("EX", Formula::ex as fn(Formula) -> Formula),
            ("AX", Formula::ax),
            ("EF", Formula::ef),
            ("AF", Formula::af),
            ("EG", Formula::eg),
            ("AG", Formula::ag),
        ] {
            if self.eat_keyword(kw) {
                let (f, h) = self.unary()?;
                return Ok((make(f), self.grow(h)?));
            }
        }
        // E [ f U g ] / A [ f U g ]
        for (kw, existential) in [("E", true), ("A", false)] {
            let save = self.pos;
            if self.eat_keyword(kw) {
                self.skip_ws();
                if self.eat("[") {
                    let (f, hf) = self.iff()?;
                    if !self.eat_keyword("U") {
                        return Err(self.err("expected `U` in until formula"));
                    }
                    let (g, hg) = self.iff()?;
                    if !self.eat("]") {
                        return Err(self.err("expected `]` closing until formula"));
                    }
                    let h = self.grow(hf.max(hg))?;
                    return Ok((if existential { f.eu(g) } else { f.au(g) }, h));
                }
                self.pos = save; // bare E/A: treat as identifier
            }
        }
        if self.eat("(") {
            let tree = self.iff()?;
            if !self.eat(")") {
                return Err(self.err("expected `)`"));
            }
            return Ok(tree);
        }
        if self.eat_keyword("TRUE") {
            return Ok((Formula::True, 1));
        }
        if self.eat_keyword("FALSE") {
            return Ok((Formula::False, 1));
        }
        self.atom()
    }

    /// `ident` or `ident (=|!=) ident` equality atom.
    fn atom(&mut self) -> Result<Tree, ParseError> {
        let lhs = self.ident()?;
        self.skip_ws();
        let negated = if self.rest().starts_with("!=") {
            self.pos += 2;
            true
        } else if self.rest().starts_with('=') && !self.rest().starts_with("==") {
            self.pos += 1;
            false
        } else {
            return Ok((Formula::ap(lhs), 1));
        };
        let rhs = self.ident()?;
        let ap = Formula::ap(format!("{lhs}={rhs}"));
        Ok(if negated { (ap.not(), 2) } else { (ap, 1) })
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut len = 0usize;
        for (i, c) in self.rest().char_indices() {
            if i == 0 {
                if !(c.is_ascii_alphabetic() || c == '_') {
                    return Err(self.err("expected identifier"));
                }
                len = c.len_utf8();
            } else if is_ident_char(c) {
                len = i + c.len_utf8();
            } else {
                break;
            }
        }
        if len == 0 {
            return Err(self.err("expected identifier"));
        }
        self.pos = start + len;
        Ok(self.input[start..start + len].to_string())
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '#'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> Formula {
        let f = parse(text).unwrap_or_else(|e| panic!("{e} in {text:?}"));
        // Printing and reparsing must be stable.
        let printed = f.to_string();
        let again = parse(&printed).unwrap_or_else(|e| panic!("{e} reparsing {printed:?}"));
        assert_eq!(f, again, "print/parse roundtrip failed for {text:?}");
        f
    }

    #[test]
    fn atoms_and_constants() {
        assert_eq!(roundtrip("p"), Formula::ap("p"));
        assert_eq!(roundtrip("TRUE"), Formula::True);
        assert_eq!(roundtrip("FALSE"), Formula::False);
        assert_eq!(roundtrip("Server.belief"), Formula::ap("Server.belief"));
    }

    #[test]
    fn equality_atoms_fold_to_aps() {
        assert_eq!(roundtrip("belief = valid"), Formula::ap("belief=valid"));
        assert_eq!(parse("r != val").unwrap(), Formula::ap("r=val").not());
    }

    #[test]
    fn precedence_and_associativity() {
        assert_eq!(
            roundtrip("a & b | c"),
            Formula::ap("a").and(Formula::ap("b")).or(Formula::ap("c"))
        );
        assert_eq!(
            roundtrip("a -> b -> c"),
            Formula::ap("a").implies(Formula::ap("b").implies(Formula::ap("c")))
        );
        assert_eq!(
            roundtrip("!a & b"),
            Formula::ap("a").not().and(Formula::ap("b"))
        );
        assert_eq!(
            roundtrip("a <-> b & c"),
            Formula::ap("a").iff(Formula::ap("b").and(Formula::ap("c")))
        );
    }

    #[test]
    fn temporal_operators() {
        assert_eq!(roundtrip("AG p"), Formula::ap("p").ag());
        assert_eq!(roundtrip("EX AX p"), Formula::ap("p").ax().ex());
        assert_eq!(
            roundtrip("AG (p -> AX q)"),
            Formula::ap("p").implies(Formula::ap("q").ax()).ag()
        );
        assert_eq!(
            roundtrip("E [p U q]"),
            Formula::ap("p").eu(Formula::ap("q"))
        );
        assert_eq!(
            roundtrip("A [p & r U q]"),
            Formula::ap("p").and(Formula::ap("r")).au(Formula::ap("q"))
        );
    }

    #[test]
    fn keyword_boundary() {
        // EXtra is an identifier, not EX tra.
        assert_eq!(roundtrip("EXtra"), Formula::ap("EXtra"));
        assert_eq!(roundtrip("AGent"), Formula::ap("AGent"));
        // Bare E and A are identifiers when not followed by '['.
        assert_eq!(roundtrip("E & A"), Formula::ap("E").and(Formula::ap("A")));
    }

    #[test]
    fn bit_atoms_roundtrip() {
        // `cmc-smv` boolean-encodes enum variables as `name#j` bits;
        // stored certificates render and re-parse formulas over them.
        assert_eq!(
            roundtrip("!sbelief#0 & sbelief#1"),
            Formula::ap("sbelief#0").not().and(Formula::ap("sbelief#1"))
        );
        assert_eq!(
            roundtrip("AG (r#2 -> AX r#2)").to_string(),
            "AG (r#2 -> AX r#2)"
        );
    }

    #[test]
    fn paper_specs_parse() {
        // Specs from Figures 6 and 9 of the paper.
        for spec in [
            "(belief = valid) -> AX (belief = valid)",
            "(r = val -> belief = valid) -> AX (r = val -> belief = valid)",
            "(r = fetch -> AX (r = fetch | r = val)) & (r = validate & belief = none) -> \
             AX ((belief = none & r = validate) | (belief = valid & r = val) | \
             (belief = invalid & r = inval))",
            "(belief != valid & r != val) -> AX (belief != valid & r != val)",
            "(belief = suspect & r = null) -> EX (belief = suspect & r = validate)",
            "AG ((Client.belief = valid) -> (Server.belief = valid | !time1))",
        ] {
            roundtrip(spec);
        }
    }

    /// A formula over `x` at exactly `levels` levels of nesting, in each
    /// shape the parser recurses or chains on.
    fn deep_formulas(levels: usize) -> Vec<String> {
        let wrap = |open: &str, close: &str| {
            format!("{}x{}", open.repeat(levels - 1), close.repeat(levels - 1))
        };
        let chain = |op: &str| vec!["x"; levels].join(op);
        vec![
            wrap("(", ")"),
            wrap("!", ""),
            wrap("EX ", ""),
            chain(" & "),
            chain(" | "),
            chain(" -> "),
            chain(" <-> "),
        ]
    }

    /// On a 2 MiB thread stack, the default for spawned threads, every
    /// shape parses, prints and re-parses at [`MAX_FORMULA_DEPTH`] levels,
    /// and is a typed error one level past it and far past it, where
    /// unbounded recursion would overflow the stack.
    #[test]
    fn formula_depth_is_bounded_on_a_default_thread_stack() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for text in deep_formulas(MAX_FORMULA_DEPTH) {
                    roundtrip(&text);
                }
                for levels in [MAX_FORMULA_DEPTH + 1, 100_000] {
                    for text in deep_formulas(levels) {
                        let err = parse(&text).unwrap_err();
                        assert!(err.message.contains("deeper than"), "{err}");
                    }
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn errors_carry_position() {
        let e = parse("p &").unwrap_err();
        assert!(e.offset >= 3);
        assert!(parse("(p").is_err());
        assert!(parse("E [p q]").is_err());
        assert!(parse("p q").unwrap_err().message.contains("trailing"));
        assert!(parse("").is_err());
    }
}
