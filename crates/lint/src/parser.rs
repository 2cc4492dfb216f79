//! A hand-rolled item-level recursive-descent parser.
//!
//! The semantic rules need more than a flat token stream: following a
//! `use … as` chain through another file requires knowing what each
//! file *declares*, and the determinism taint pass needs a per-function
//! summary of calls. This module parses every `.rs` file into a
//! lightweight [`FileAst`]: `use` declarations (grouped imports
//! expanded, globs recorded), `type` aliases with the paths on their
//! right-hand side, `mod` declarations (inline bodies parsed
//! recursively), `fn` items with a call summary, `impl` blocks (methods
//! registered as `Type::method`), and bare type definitions. Everything
//! else — expressions, trait bodies, macros — is skipped over with
//! balanced-delimiter scanning; the parser never fails on broken input,
//! it just produces fewer items (rustc rejects the file anyway).
//!
//! What the item grammar deliberately does NOT model: macro expansion,
//! trait method dispatch, and glob-import contents. The resolver treats
//! those as opaque (see `resolve.rs`).

use crate::lexer::{lex, Token, TokenKind};

/// A parsed source file: its top-level items, in source order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FileAst {
    /// Top-level items.
    pub items: Vec<Item>,
}

/// One parsed item with the 1-based line of its first token.
#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    /// Line of the item's first code token (visibility included).
    pub line: u32,
    /// What the item is.
    pub kind: ItemKind,
}

/// The item kinds the semantic rules care about.
#[derive(Clone, Debug, PartialEq)]
pub enum ItemKind {
    /// A `use` declaration (one per leaf of a grouped import).
    Use(UseDecl),
    /// A `type Name = …;` alias.
    TypeAlias(TypeAlias),
    /// A `mod name;` or inline `mod name { … }`.
    Mod(ModDecl),
    /// A free function.
    Fn(FnItem),
    /// An `impl` block and the methods inside it.
    Impl(ImplBlock),
    /// A named type definition (`struct`/`enum`/`trait`/`union`).
    TypeDef(String),
}

/// One `use` path, grouped imports already expanded.
#[derive(Clone, Debug, PartialEq)]
pub struct UseDecl {
    /// Whether the declaration is `pub` (a re-export).
    pub is_pub: bool,
    /// Path segments (`["std", "collections", "HashMap"]`-shaped; the
    /// banned spelling never appears as an identifier here, only as
    /// string data).
    pub path: Vec<String>,
    /// The name bound by `as`, if any.
    pub alias: Option<String>,
    /// Whether the leaf is a `*` glob (recorded, never resolved).
    pub glob: bool,
}

impl UseDecl {
    /// The local name this declaration binds: the alias if present,
    /// else the last path segment. Globs bind no name.
    pub fn bound_name(&self) -> Option<&str> {
        if self.glob {
            return None;
        }
        match &self.alias {
            Some(alias) => Some(alias),
            None => self.path.last().map(String::as_str),
        }
    }
}

/// A `type Name = …;` alias and the paths on its right-hand side.
#[derive(Clone, Debug, PartialEq)]
pub struct TypeAlias {
    /// Whether the alias is `pub`.
    pub is_pub: bool,
    /// The alias name.
    pub name: String,
    /// Every `::`-path appearing on the right-hand side, in order
    /// (`type M = Vec<HashMap<K, V>>;` records `Vec`, `HashMap`, `K`,
    /// `V` as one-or-more-segment paths).
    pub rhs: Vec<Vec<String>>,
}

/// A module declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct ModDecl {
    /// Whether the module is `pub`.
    pub is_pub: bool,
    /// Module name.
    pub name: String,
    /// Inline body items; `None` for an out-of-line `mod name;`.
    pub items: Option<Vec<Item>>,
    /// Whether the module carries a `#[cfg(test)]` attribute.
    pub cfg_test: bool,
}

/// A function item and its call summary.
#[derive(Clone, Debug, PartialEq)]
pub struct FnItem {
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Whether the function is `pub`.
    pub is_pub: bool,
    /// Function name.
    pub name: String,
    /// Whether a `lint:hot-gate` comment marks this function as a
    /// documented hot-path gate (checked by `hot-gate-ordering`).
    pub hot_gate: bool,
    /// Whether the function sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// Every call expression in the body, in source order.
    pub calls: Vec<Call>,
}

/// One call expression inside a function body.
#[derive(Clone, Debug, PartialEq)]
pub struct Call {
    /// Line of the callee identifier.
    pub line: u32,
    /// Callee path (`["std", "time", "Instant", "now"]`); method calls
    /// carry just the method name.
    pub path: Vec<String>,
    /// Whether this is a `.method(` call.
    pub method: bool,
    /// The receiver identifier of a method call, when it is a plain
    /// identifier (`store.record(…)` records `store`; chained and
    /// parenthesised receivers record `None`).
    pub receiver: Option<String>,
    /// The `let` binding whose initializer contains this call, if any.
    pub let_var: Option<String>,
    /// Index (into the owning [`FnItem::calls`]) of the enclosing call
    /// whose argument list contains this one.
    pub parent: Option<usize>,
    /// Identifiers appearing directly in this call's argument list
    /// (identifiers inside nested calls belong to the nested call).
    pub arg_idents: Vec<String>,
}

impl Call {
    /// Last path segment — the bare callee name.
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or_default()
    }
}

/// An `impl` block: the implemented type and its methods.
#[derive(Clone, Debug, PartialEq)]
pub struct ImplBlock {
    /// The implemented type's name (the `Type` of `impl Trait for
    /// Type`, generics stripped).
    pub type_name: String,
    /// Methods and associated functions inside the block.
    pub fns: Vec<FnItem>,
}

/// Parses `source` into a [`FileAst`]. Never fails: unparseable spans
/// are skipped with balanced-delimiter scanning.
pub fn parse(source: &str) -> FileAst {
    let tokens = lex(source);
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|(i, _)| i)
        .collect();
    // Lines whose comments carry the hot-gate marker, for FnItem::hot_gate.
    // Matched structurally (first word of the comment body), like the
    // hot-module marker: a comment merely *mentioning* the marker — this
    // very module's docs, say — must not gate anything.
    let mut gate_lines: Vec<u32> = Vec::new();
    for t in &tokens {
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            let body = t
                .text(source)
                .trim_start_matches(['/', '*', '!'])
                .trim_start();
            if body.split_whitespace().next() == Some(HOT_GATE_MARKER) {
                gate_lines.push(t.line);
            }
        }
    }
    let mut p = Parser {
        source,
        tokens: &tokens,
        code: &code,
        gate_lines,
    };
    FileAst {
        items: p.items(&mut 0, code.len(), false),
    }
}

/// The comment marker declaring a function a documented hot-path gate:
/// its body must be the one-relaxed-load pattern (exactly one atomic
/// load, `Relaxed`, and no other explicitly-ordered atomic operation).
pub const HOT_GATE_MARKER: &str = "lint:hot-gate";

struct Parser<'s> {
    source: &'s str,
    tokens: &'s [Token],
    code: &'s [usize],
    gate_lines: Vec<u32>,
}

impl<'s> Parser<'s> {
    fn tok(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    fn text(&self, ci: usize) -> &str {
        self.tok(ci).text(self.source)
    }

    fn kind(&self, ci: usize) -> TokenKind {
        self.tok(ci).kind
    }

    fn is(&self, ci: usize, t: &str) -> bool {
        ci < self.code.len() && self.text(ci) == t
    }

    fn is_ident(&self, ci: usize) -> bool {
        ci < self.code.len() && self.kind(ci) == TokenKind::Ident
    }

    fn line(&self, ci: usize) -> u32 {
        self.tok(ci).line
    }

    /// Whether a `::` path separator starts at `ci` (the lexer emits it
    /// as two single-byte `:` puncts).
    fn is_path_sep(&self, ci: usize) -> bool {
        self.is(ci, ":") && self.is(ci + 1, ":")
    }

    /// Whether a hot-gate marker comment sits directly above `line`
    /// (within a small window covering attributes). A matched marker is
    /// consumed so it gates only the first following function.
    fn take_gate(&mut self, line: u32) -> bool {
        if let Some(at) = self
            .gate_lines
            .iter()
            .position(|&g| g <= line && line - g <= 3)
        {
            self.gate_lines.remove(at);
            return true;
        }
        false
    }

    /// Advances `i` past one balanced `open`…`close` region (the
    /// opener is at `*i`).
    fn skip_balanced(&self, i: &mut usize, end: usize, open: &str, close: &str) {
        let mut depth = 0i32;
        while *i < end {
            if self.is(*i, open) {
                depth += 1;
            } else if self.is(*i, close) {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    return;
                }
            }
            *i += 1;
        }
    }

    /// Skips an unrecognised item: to the first `;` at brace depth 0,
    /// or past one balanced `{ … }` body, whichever comes first.
    fn skip_item(&self, i: &mut usize, end: usize) {
        while *i < end {
            if self.is(*i, ";") {
                *i += 1;
                return;
            }
            if self.is(*i, "{") {
                self.skip_balanced(i, end, "{", "}");
                return;
            }
            if self.is(*i, "(") {
                self.skip_balanced(i, end, "(", ")");
                continue;
            }
            *i += 1;
        }
    }

    /// Parses items until `end` (exclusive, in code-token indices).
    fn items(&mut self, i: &mut usize, end: usize, in_test: bool) -> Vec<Item> {
        let mut items = Vec::new();
        while *i < end {
            // Attributes: record cfg(test), skip the rest.
            let mut cfg_test = false;
            while self.is(*i, "#") {
                let mut j = *i + 1;
                if self.is(j, "!") {
                    j += 1;
                }
                if !self.is(j, "[") {
                    break;
                }
                let attr_start = j;
                self.skip_balanced(&mut j, end, "[", "]");
                if self.is(attr_start + 1, "cfg")
                    && self.is(attr_start + 2, "(")
                    && self.is(attr_start + 3, "test")
                {
                    cfg_test = true;
                }
                *i = j;
            }
            if *i >= end {
                break;
            }
            let item_line = self.line(*i);
            // Visibility: `pub` with an optional `(crate)` restriction.
            let mut is_pub = false;
            if self.is(*i, "pub") {
                is_pub = true;
                *i += 1;
                if self.is(*i, "(") {
                    self.skip_balanced(i, end, "(", ")");
                }
            }
            if *i >= end {
                break;
            }
            match self.text(*i) {
                "use" => {
                    *i += 1;
                    let decls = self.use_tree(i, end, is_pub);
                    if self.is(*i, ";") {
                        *i += 1;
                    }
                    items.extend(decls.into_iter().map(|d| Item {
                        line: item_line,
                        kind: ItemKind::Use(d),
                    }));
                }
                "type" if self.is_ident(*i + 1) && self.is(*i + 2, "=") => {
                    let name = self.text(*i + 1).to_owned();
                    *i += 3;
                    let rhs = self.rhs_paths(i, end);
                    if self.is(*i, ";") {
                        *i += 1;
                    }
                    items.push(Item {
                        line: item_line,
                        kind: ItemKind::TypeAlias(TypeAlias { is_pub, name, rhs }),
                    });
                }
                "mod" if self.is_ident(*i + 1) => {
                    let name = self.text(*i + 1).to_owned();
                    *i += 2;
                    let body = if self.is(*i, "{") {
                        let mut j = *i;
                        self.skip_balanced(&mut j, end, "{", "}");
                        *i += 1; // past `{`
                        let inner = self.items(i, j.saturating_sub(1), in_test || cfg_test);
                        *i = j;
                        Some(inner)
                    } else {
                        if self.is(*i, ";") {
                            *i += 1;
                        }
                        None
                    };
                    items.push(Item {
                        line: item_line,
                        kind: ItemKind::Mod(ModDecl {
                            is_pub,
                            name,
                            items: body,
                            cfg_test,
                        }),
                    });
                }
                "fn" => {
                    if let Some(f) = self.fn_item(i, end, is_pub, in_test || cfg_test) {
                        items.push(Item {
                            line: item_line,
                            kind: ItemKind::Fn(f),
                        });
                    }
                }
                "const" | "async" | "unsafe" | "extern" if self.fn_keyword_follows(*i + 1, end) => {
                    // Qualified function: skip qualifiers up to `fn`.
                    while *i < end && !self.is(*i, "fn") {
                        *i += 1;
                    }
                    if let Some(f) = self.fn_item(i, end, is_pub, in_test || cfg_test) {
                        items.push(Item {
                            line: item_line,
                            kind: ItemKind::Fn(f),
                        });
                    }
                }
                "impl" => {
                    if let Some(b) = self.impl_block(i, end, in_test || cfg_test) {
                        items.push(Item {
                            line: item_line,
                            kind: ItemKind::Impl(b),
                        });
                    }
                }
                "struct" | "enum" | "trait" | "union" if self.is_ident(*i + 1) => {
                    let name = self.text(*i + 1).to_owned();
                    *i += 2;
                    self.skip_item(i, end);
                    items.push(Item {
                        line: item_line,
                        kind: ItemKind::TypeDef(name),
                    });
                }
                _ => self.skip_item(i, end),
            }
        }
        items
    }

    /// Whether `fn` appears within the next few qualifier tokens
    /// (`const unsafe extern "C" fn …`).
    fn fn_keyword_follows(&self, mut j: usize, end: usize) -> bool {
        let mut budget = 4;
        while j < end && budget > 0 {
            if self.is(j, "fn") {
                return true;
            }
            if !matches!(self.text(j), "const" | "async" | "unsafe" | "extern")
                && self.kind(j) != TokenKind::Str
            {
                return false;
            }
            j += 1;
            budget -= 1;
        }
        false
    }

    /// Parses one `use` tree starting after the `use` keyword; grouped
    /// imports expand into one [`UseDecl`] per leaf.
    fn use_tree(&mut self, i: &mut usize, end: usize, is_pub: bool) -> Vec<UseDecl> {
        self.use_tree_with_prefix(i, end, is_pub, &[])
    }

    fn use_tree_with_prefix(
        &mut self,
        i: &mut usize,
        end: usize,
        is_pub: bool,
        prefix: &[String],
    ) -> Vec<UseDecl> {
        let mut path: Vec<String> = prefix.to_vec();
        let mut decls = Vec::new();
        while *i < end {
            if self.is_ident(*i) {
                path.push(self.text(*i).to_owned());
                *i += 1;
                if self.is_path_sep(*i) {
                    *i += 2;
                    continue;
                }
                // Leaf reached: optional `as` alias.
                let alias = if self.is(*i, "as") && self.is_ident(*i + 1) {
                    let a = self.text(*i + 1).to_owned();
                    *i += 2;
                    Some(a)
                } else {
                    None
                };
                decls.push(UseDecl {
                    is_pub,
                    path,
                    alias,
                    glob: false,
                });
                return decls;
            }
            if self.is(*i, "*") {
                *i += 1;
                decls.push(UseDecl {
                    is_pub,
                    path,
                    alias: None,
                    glob: true,
                });
                return decls;
            }
            if self.is(*i, "{") {
                *i += 1;
                loop {
                    decls.extend(self.use_tree_with_prefix(i, end, is_pub, &path));
                    if self.is(*i, ",") {
                        *i += 1;
                        if self.is(*i, "}") {
                            *i += 1;
                            break;
                        }
                        continue;
                    }
                    if self.is(*i, "}") {
                        *i += 1;
                    }
                    break;
                }
                return decls;
            }
            break;
        }
        decls
    }

    /// Collects every `::`-path on a type-alias right-hand side, up to
    /// the terminating `;`.
    fn rhs_paths(&self, i: &mut usize, end: usize) -> Vec<Vec<String>> {
        let mut paths = Vec::new();
        let mut current: Vec<String> = Vec::new();
        while *i < end && !self.is(*i, ";") {
            if self.is_ident(*i) {
                current.push(self.text(*i).to_owned());
                *i += 1;
                if self.is_path_sep(*i) {
                    *i += 2;
                    continue;
                }
                paths.push(std::mem::take(&mut current));
                continue;
            }
            if !current.is_empty() {
                paths.push(std::mem::take(&mut current));
            }
            *i += 1;
        }
        if !current.is_empty() {
            paths.push(current);
        }
        paths
    }

    /// Parses a function item with `*i` on the `fn` keyword.
    fn fn_item(
        &mut self,
        i: &mut usize,
        end: usize,
        is_pub: bool,
        in_test: bool,
    ) -> Option<FnItem> {
        let fn_line = self.line(*i);
        *i += 1;
        if !self.is_ident(*i) {
            self.skip_item(i, end);
            return None;
        }
        let name = self.text(*i).to_owned();
        *i += 1;
        // Signature: scan to the body `{` or a bodiless `;` at bracket
        // depth 0 (`[u8; 3]` keeps its `;` behind the bracket depth).
        let mut brackets = 0i32;
        while *i < end {
            match self.text(*i) {
                "[" => brackets += 1,
                "]" => brackets -= 1,
                "(" => {
                    self.skip_balanced(i, end, "(", ")");
                    continue;
                }
                ";" if brackets == 0 => {
                    *i += 1;
                    return Some(FnItem {
                        line: fn_line,
                        is_pub,
                        name,
                        hot_gate: self.take_gate(fn_line),
                        in_test,
                        calls: Vec::new(),
                    });
                }
                "{" => break,
                _ => {}
            }
            *i += 1;
        }
        if *i >= end {
            return None;
        }
        let mut body_end = *i;
        self.skip_balanced(&mut body_end, end, "{", "}");
        let calls = self.body_calls(*i + 1, body_end.saturating_sub(1));
        *i = body_end;
        Some(FnItem {
            line: fn_line,
            is_pub,
            name,
            hot_gate: self.take_gate(fn_line),
            in_test,
            calls,
        })
    }

    /// Parses an `impl` block with `*i` on the `impl` keyword.
    fn impl_block(&mut self, i: &mut usize, end: usize, in_test: bool) -> Option<ImplBlock> {
        *i += 1;
        if self.is(*i, "<") {
            self.skip_balanced(i, end, "<", ">");
        }
        // Header path(s): `Type`, `Trait for Type`; take the first
        // identifier after `for` when present, else the first header
        // identifier.
        let mut first: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        while *i < end && !self.is(*i, "{") && !self.is(*i, ";") {
            if self.is(*i, "for") {
                saw_for = true;
            } else if self.is_ident(*i) {
                let name = self.text(*i).to_owned();
                if saw_for && after_for.is_none() {
                    after_for = Some(name);
                } else if first.is_none() {
                    first = Some(name);
                }
            } else if self.is(*i, "<") {
                self.skip_balanced(i, end, "<", ">");
                continue;
            }
            *i += 1;
        }
        if !self.is(*i, "{") {
            self.skip_item(i, end);
            return None;
        }
        let mut block_end = *i;
        self.skip_balanced(&mut block_end, end, "{", "}");
        *i += 1; // past `{`
        let inner = self.items(i, block_end.saturating_sub(1), in_test);
        *i = block_end;
        let fns = inner
            .into_iter()
            .filter_map(|item| match item.kind {
                ItemKind::Fn(f) => Some(f),
                _ => None,
            })
            .collect();
        Some(ImplBlock {
            type_name: after_for.or(first).unwrap_or_default(),
            fns,
        })
    }

    /// Extracts the call summary of one function body (code-token
    /// indices `[start, end)`).
    fn body_calls(&self, start: usize, end: usize) -> Vec<Call> {
        // Pass 1: mark which tokens belong to a call path or are a
        // method receiver, so pass 2 doesn't also record them as
        // argument identifiers.
        let n = end.saturating_sub(start);
        let mut consumed = vec![false; n];
        let mut heads: Vec<(usize, Call)> = Vec::new(); // (head ci, call)
        for ci in start..end {
            if self.kind(ci) != TokenKind::Ident || !self.is(ci + 1, "(") {
                continue;
            }
            // `fn` keywords and definitions are not calls.
            if ci > start && (self.is(ci - 1, "fn") || self.is(ci - 1, "!")) {
                continue;
            }
            if matches!(self.text(ci), "if" | "while" | "for" | "match" | "return") {
                continue;
            }
            let line = self.line(ci);
            if ci > start && self.is(ci - 1, ".") {
                // Method call; the receiver is the identifier before
                // the dot when it is plain.
                let mut receiver = None;
                if ci >= start + 2 && self.kind(ci - 2) == TokenKind::Ident {
                    receiver = Some(self.text(ci - 2).to_owned());
                    consumed[ci - 2 - start] = true;
                }
                consumed[ci - start] = true;
                heads.push((
                    ci,
                    Call {
                        line,
                        path: vec![self.text(ci).to_owned()],
                        method: true,
                        receiver,
                        let_var: None,
                        parent: None,
                        arg_idents: Vec::new(),
                    },
                ));
                continue;
            }
            // Free or associated call: walk the `a::b::name` path back.
            let mut segs = vec![self.text(ci).to_owned()];
            consumed[ci - start] = true;
            let mut j = ci;
            while j >= start + 3
                && self.is(j - 1, ":")
                && self.is(j - 2, ":")
                && self.kind(j - 3) == TokenKind::Ident
            {
                segs.push(self.text(j - 3).to_owned());
                consumed[j - 3 - start] = true;
                j -= 3;
            }
            segs.reverse();
            heads.push((
                ci,
                Call {
                    line,
                    path: segs,
                    method: false,
                    receiver: None,
                    let_var: None,
                    parent: None,
                    arg_idents: Vec::new(),
                },
            ));
        }

        // Pass 2: walk the body once, attributing argument identifiers
        // and parent/child structure via a paren stack, and `let`
        // bindings via brace depth.
        let mut calls: Vec<Call> = Vec::new();
        let mut head_at: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for (ci, call) in heads {
            head_at.insert(ci, calls.len());
            calls.push(call);
        }
        let mut paren_stack: Vec<Option<usize>> = Vec::new();
        let mut brace_depth = 0i32;
        let mut current_let: Option<(String, i32)> = None;
        let mut ci = start;
        while ci < end {
            let text = self.text(ci);
            match text {
                "{" => brace_depth += 1,
                "}" => brace_depth -= 1,
                "(" => {
                    // A call's argument list opens right after its head.
                    let owner = if ci > start {
                        head_at.get(&(ci - 1)).copied()
                    } else {
                        None
                    };
                    if let Some(idx) = owner {
                        let parent = paren_stack.iter().rev().find_map(|c| *c);
                        calls[idx].parent = parent;
                        calls[idx].let_var = current_let.as_ref().map(|(v, _)| v.clone());
                        paren_stack.push(Some(idx));
                    } else {
                        paren_stack.push(None);
                    }
                }
                ")" => {
                    paren_stack.pop();
                }
                ";" => {
                    if let Some((_, at)) = &current_let {
                        if paren_stack.is_empty() && brace_depth <= *at {
                            current_let = None;
                        }
                    }
                }
                "let" if paren_stack.is_empty() => {
                    let mut j = ci + 1;
                    if self.is(j, "mut") {
                        j += 1;
                    }
                    if j < end && self.kind(j) == TokenKind::Ident {
                        current_let = Some((self.text(j).to_owned(), brace_depth));
                    }
                }
                _ => {
                    if self.kind(ci) == TokenKind::Ident && !consumed[ci - start] {
                        if let Some(idx) = paren_stack.iter().rev().find_map(|c| *c) {
                            calls[idx].arg_idents.push(text.to_owned());
                        }
                    }
                }
            }
            ci += 1;
        }
        calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn use_decls(ast: &FileAst) -> Vec<&UseDecl> {
        ast.items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Use(u) => Some(u),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn grouped_imports_expand_to_leaves() {
        let ast = parse("use std::collections::{BTreeMap, btree_map::Entry as E};\n");
        let uses = use_decls(&ast);
        assert_eq!(uses.len(), 2);
        assert_eq!(uses[0].path, ["std", "collections", "BTreeMap"]);
        assert_eq!(uses[0].bound_name(), Some("BTreeMap"));
        assert_eq!(uses[1].path, ["std", "collections", "btree_map", "Entry"]);
        assert_eq!(uses[1].bound_name(), Some("E"));
    }

    #[test]
    fn globs_are_recorded_not_resolved() {
        let ast = parse("pub use crate::inner::*;\n");
        let uses = use_decls(&ast);
        assert!(uses[0].glob && uses[0].is_pub);
        assert_eq!(uses[0].bound_name(), None);
    }

    #[test]
    fn type_alias_records_rhs_paths() {
        let ast = parse("type M = Vec<super::maps::FastMap<u32, u32>>;\n");
        match &ast.items[0].kind {
            ItemKind::TypeAlias(t) => {
                assert_eq!(t.name, "M");
                assert_eq!(t.rhs[0], ["Vec"]);
                assert_eq!(t.rhs[1], ["super", "maps", "FastMap"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inline_and_outline_mods() {
        let ast = parse("mod a;\npub mod b { pub fn f() {} }\n#[cfg(test)]\nmod tests { }\n");
        let mods: Vec<&ModDecl> = ast
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Mod(m) => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(mods.len(), 3);
        assert!(mods[0].items.is_none());
        assert_eq!(mods[1].items.as_ref().unwrap().len(), 1);
        assert!(mods[2].cfg_test);
    }

    #[test]
    fn fn_calls_record_paths_methods_lets_and_nesting() {
        let src =
            "fn f() {\n    let t = std::time::Instant::now();\n    sink.row(cells, g(t));\n}\n";
        let ast = parse(src);
        let f = match &ast.items[0].kind {
            ItemKind::Fn(f) => f,
            other => panic!("{other:?}"),
        };
        assert_eq!(f.calls.len(), 3);
        assert_eq!(f.calls[0].path, ["std", "time", "Instant", "now"]);
        assert_eq!(f.calls[0].let_var.as_deref(), Some("t"));
        assert_eq!(f.calls[0].line, 2);
        let row = &f.calls[1];
        assert!(row.method);
        assert_eq!(row.receiver.as_deref(), Some("sink"));
        assert_eq!(row.arg_idents, ["cells"]);
        let g = &f.calls[2];
        assert_eq!(g.parent, Some(1));
        assert_eq!(g.arg_idents, ["t"]);
    }

    #[test]
    fn impl_methods_carry_the_type_name() {
        let src = "impl<T> Wrapper<T> {\n    pub fn push(&mut self) { self.inner.extend(x); }\n}\nimpl Display for Wrapper<u8> { fn fmt(&self) {} }\n";
        let ast = parse(src);
        match (&ast.items[0].kind, &ast.items[1].kind) {
            (ItemKind::Impl(a), ItemKind::Impl(b)) => {
                assert_eq!(a.type_name, "Wrapper");
                assert_eq!(a.fns[0].name, "push");
                assert_eq!(b.type_name, "Wrapper");
                assert_eq!(b.fns[0].name, "fmt");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hot_gate_marker_is_detected() {
        let src = "// lint:hot-gate\n#[inline(always)]\nfn raw() -> u8 { L.load(Relaxed) }\nfn other() {}\n";
        let ast = parse(src);
        let fns: Vec<&FnItem> = ast
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Fn(f) => Some(f),
                _ => None,
            })
            .collect();
        assert!(fns[0].hot_gate);
        assert!(!fns[1].hot_gate);
    }

    #[test]
    fn cfg_test_marks_nested_fns() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { helper(); }\n}\nfn live() {}\n";
        let ast = parse(src);
        match &ast.items[0].kind {
            ItemKind::Mod(m) => match &m.items.as_ref().unwrap()[0].kind {
                ItemKind::Fn(f) => assert!(f.in_test),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        match &ast.items[1].kind {
            ItemKind::Fn(f) => assert!(!f.in_test),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn broken_input_produces_best_effort_items() {
        // Nothing to assert beyond "no panic, no infinite loop".
        let _ = parse("use std::; fn ( { mod x\nstruct ;\n");
    }
}
