//! Item-level parsing on top of the lexer: functions, impl blocks, modules
//! and `use` imports, with per-function *facts* — calls made, locks taken,
//! allocation/formatting sites, panic sites, ambient clock/entropy reads.
//!
//! This is deliberately **not** a Rust parser. It is a single recursive
//! walk over the significant-token stream that recognizes just enough item
//! structure to attribute every fact to the function containing it, and
//! just enough of each call expression to resolve it later (see
//! [`crate::graph`]): the callee path segments, whether the receiver of a
//! method call is `self` or a typed parameter, and the declared types of
//! parameters. Everything it cannot classify lands in a conservative
//! "unknown callee" bucket rather than silently vanishing — the graph
//! rules report how many calls they could not follow.

use crate::engine::FileView;
use crate::lexer::TokenKind;

/// Keywords that can precede `(` without being a call.
const CALL_KEYWORDS: [&str; 10] = [
    "if", "else", "match", "while", "for", "loop", "return", "fn", "in", "move",
];

/// What kind of invariant-relevant operation a [`Fact`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FactKind {
    /// A `.lock()` acquisition.
    Lock,
    /// An allocation or formatting site (`Box::new`, `Vec::new`, `vec!`,
    /// `format!`, `.to_vec()`, `.collect()`).
    Alloc,
    /// A panicking construct (`unwrap`/`expect`/`panic!`/`unreachable!`/
    /// `todo!`/`unimplemented!`/indexing) — what `no-panic` reports.
    Panic,
    /// An ambient wall-clock read (`Instant::now`, `SystemTime::now`).
    Clock,
    /// An ambient OS-entropy draw (`OsRng`, `thread_rng`, ...).
    Entropy,
}

/// One invariant-relevant site inside a function body.
#[derive(Clone, Debug)]
pub struct Fact {
    pub kind: FactKind,
    /// Human description of the construct (`.lock()`, `format!`, ...).
    pub what: String,
    pub line: usize,
    pub col: usize,
}

/// The receiver of a method call, as far as the token stream tells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Receiver {
    /// `self.method(...)` — resolve against the enclosing impl type.
    SelfRecv,
    /// `param.method(...)` where `param` is a parameter with a declared
    /// type we captured — resolve against that type.
    Param(String),
    /// Anything else: field chains, call results, locals. Resolved by
    /// method name across the workspace, conservatively.
    Other,
}

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub callee: Callee,
    pub line: usize,
    pub col: usize,
}

/// The shape of a call expression.
#[derive(Clone, Debug)]
pub enum Callee {
    /// `foo(...)` or `path::to::foo(...)` — the full segment list, last
    /// segment is the function name.
    Path(Vec<String>),
    /// `.name(...)` with the classified receiver.
    Method { name: String, receiver: Receiver },
}

/// The declared type of a function parameter, reduced to what resolution
/// needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParamType {
    /// A named (possibly generic) type — the last path segment.
    Named(String),
    /// `dyn Trait`, `impl Trait`, generics, or anything else we cannot
    /// name statically. Method calls on these go to the unknown bucket.
    Opaque,
}

/// A lock-lifetime-relevant event inside a function body, in source order.
/// The lock-order rule replays these to approximate which locks are held
/// when another lock is acquired or a call is made.
#[derive(Clone, Debug)]
pub enum LockEvent {
    /// A `.lock()` acquisition. `bound` means the guard was bound with
    /// `let` (held to the end of the enclosing block); unbound guards are
    /// temporaries dropped at the end of their statement.
    Acquire {
        lock: String,
        bound: bool,
        depth: usize,
        line: usize,
        col: usize,
    },
    /// A call, by index into [`FnRecord::calls`].
    Call { index: usize, depth: usize },
    /// A `;` at the given depth — temporaries die here.
    StatementEnd { depth: usize },
    /// A `}` closing a block; `depth` is the depth *after* closing —
    /// `let`-bound guards acquired deeper than this die here.
    BlockClose { depth: usize },
}

/// One parsed function (or method) and its facts.
#[derive(Clone, Debug)]
pub struct FnRecord {
    /// Workspace crate key (directory name under `crates/`, or the
    /// umbrella pseudo-crate) — see [`crate_of`].
    pub crate_name: String,
    /// Enclosing `mod` path inside the file.
    pub module_path: Vec<String>,
    /// The impl/trait type this is a method of, if any.
    pub self_type: Option<String>,
    pub name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Line of the `fn` keyword.
    pub def_line: usize,
    /// Last line of the body (== `def_line` for bodyless declarations).
    pub end_line: usize,
    /// `(line, col)` of the body's `{` (`None` without a body).
    pub body: Option<(usize, usize)>,
    /// Marked `// sdoh-lint: entry(..)`: the purity rule starts here.
    pub entry: bool,
    /// Defined inside a test item — excluded from every graph rule. A
    /// test function records its calls and references (the inventory's
    /// test roots reach through them) but no facts.
    pub in_test: bool,
    /// A method of `impl Trait for Type` or of a `trait` body: called
    /// through dynamic dispatch where the graph cannot see, so the
    /// inventory roots it.
    pub trait_method: bool,
    pub facts: Vec<Fact>,
    pub calls: Vec<CallSite>,
    /// Paths the body names without calling them (`.map(parse_line)`,
    /// `run: e1`): function pointers, for the inventory only.
    pub refs: Vec<Vec<String>>,
    pub lock_events: Vec<LockEvent>,
    /// Parameter name → declared type, for receiver resolution.
    pub params: Vec<(String, ParamType)>,
}

impl FnRecord {
    /// `crate::Type::name`-style display label used in call chains.
    pub fn label(&self) -> String {
        match &self.self_type {
            Some(ty) => format!("{}::{}::{}", self.crate_name, ty, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// A `use` import: the name it binds in this file → the full path.
#[derive(Clone, Debug)]
pub struct Import {
    pub name: String,
    pub path: Vec<String>,
}

/// Everything the parser extracts from one file.
#[derive(Clone, Debug, Default)]
pub struct FileItems {
    pub functions: Vec<FnRecord>,
    pub imports: Vec<Import>,
    /// Paths named in `static` / `const` initializers (a fn-pointer table
    /// such as `EXPERIMENTS`), with whether the item is test code.
    pub static_refs: Vec<(Vec<String>, bool)>,
}

/// The workspace crate key of a workspace-relative path: the directory
/// name under `crates/` (`core`, `runtime`, ...), or `secure-doh` for the
/// umbrella crate's `src/` tree.
pub fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("secure-doh")
        .to_string()
}

/// Maps a path's first segment (a crate alias as written in source:
/// `sdoh_core`, `crate`, `secure_doh`) to the workspace crate key, given
/// the crate the reference appears in. `None` for `std`, `core` (the
/// language crate), and every other non-workspace root.
pub fn crate_alias(seg: &str, current: &str) -> Option<String> {
    match seg {
        "crate" | "self" | "super" => Some(current.to_string()),
        "secure_doh" => Some("secure-doh".to_string()),
        _ => seg.strip_prefix("sdoh_").map(|rest| rest.replace('_', "-")),
    }
}

/// Parses one file's items. `rel` selects the crate key; the view must be
/// built from the same source.
pub fn parse_file(rel: &str, view: &FileView<'_>) -> FileItems {
    let mut items = FileItems::default();
    let mut parser = Parser {
        view,
        file: rel.to_string(),
        crate_name: crate_of(rel),
        items: &mut items,
        trait_method: false,
    };
    let len = parser.view.sig_len();
    parser.parse_items(0, len, &mut Vec::new(), None);
    items
}

struct Parser<'a, 'v> {
    view: &'a FileView<'v>,
    file: String,
    crate_name: String,
    items: &'a mut FileItems,
    /// Inside an `impl Trait for Type` or `trait` body.
    trait_method: bool,
}

impl Parser<'_, '_> {
    fn text(&self, si: usize) -> &str {
        self.view.sig_text(si)
    }

    fn is(&self, si: usize, c: char) -> bool {
        self.view.is_punct(si, c)
    }

    /// Index just past the bracket structure opening at `si` (which must
    /// be `(`, `[` or `{`). Counts all three bracket kinds.
    fn skip_balanced(&self, si: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut i = si;
        while i < end {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Index just past a generic parameter list opening at `si` (`<`).
    fn skip_generics(&self, si: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut i = si;
        while i < end {
            match self.text(i) {
                "<" => depth += 1,
                ">" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                // `->` inside Fn(...) -> Ret generics: the `>` of `->`
                // must not close our angle depth.
                "-" if self.is(i + 1, '>') => i += 1,
                "(" | "[" | "{" => {
                    i = self.skip_balanced(i, end);
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Index just past the `;`-terminated item starting at `si` (skipping
    /// bracket structures on the way).
    fn skip_to_semicolon(&self, si: usize, end: usize) -> usize {
        let mut i = si;
        while i < end {
            match self.text(i) {
                ";" => return i + 1,
                "(" | "[" | "{" => {
                    i = self.skip_balanced(i, end);
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// The recursive item walk over `[si, end)`.
    fn parse_items(
        &mut self,
        mut si: usize,
        end: usize,
        module_path: &mut Vec<String>,
        self_type: Option<&str>,
    ) {
        while si < end {
            let text = self.text(si);
            match text {
                "#" if self.is(si + 1, '[') => {
                    si = self.skip_balanced(si + 1, end);
                    continue;
                }
                "use" => {
                    si = self.parse_use(si + 1, end);
                    continue;
                }
                "mod" => {
                    let name = self.text(si + 1).to_string();
                    let mut i = si + 2;
                    if self.is(i, '{') {
                        let close = self.skip_balanced(i, end);
                        module_path.push(name);
                        self.parse_items(i + 1, close.saturating_sub(1), module_path, self_type);
                        module_path.pop();
                        si = close;
                    } else {
                        i = self.skip_to_semicolon(i, end);
                        si = i;
                    }
                    continue;
                }
                "impl" | "trait" => {
                    si = self.parse_impl_or_trait(si, end, module_path, text == "trait");
                    continue;
                }
                "fn" => {
                    si = self.parse_fn(si, end, module_path, self_type);
                    continue;
                }
                "struct" | "enum" | "union" | "static" | "const" | "type" | "extern"
                | "macro_rules" => {
                    if (text == "static" || text == "const") && !self.is_fn_keyword(si + 1) {
                        let stop = self.skip_to_semicolon(si + 1, end);
                        self.record_static_refs(si + 1, stop);
                        si = stop;
                        continue;
                    }
                    // Skip to the end of the item: its brace body or `;`.
                    let mut i = si + 1;
                    while i < end {
                        match self.text(i) {
                            ";" => {
                                i += 1;
                                break;
                            }
                            "{" => {
                                i = self.skip_balanced(i, end);
                                break;
                            }
                            "<" => {
                                i = self.skip_generics(i, end);
                                continue;
                            }
                            "(" | "[" => {
                                // Tuple struct body — `;` still follows.
                                i = self.skip_balanced(i, end);
                                continue;
                            }
                            "fn" | "impl" | "mod" => break, // malformed; resync
                            _ => i += 1,
                        }
                    }
                    si = i;
                    continue;
                }
                _ => si += 1,
            }
        }
    }

    /// Parses `use a::b::{c, d as e};` starting just past `use`.
    /// Returns the index past the terminating `;`.
    fn parse_use(&mut self, si: usize, end: usize) -> usize {
        let stop = self.skip_to_semicolon(si, end);
        let mut prefix: Vec<String> = Vec::new();
        let mut stack: Vec<usize> = Vec::new(); // prefix lengths at `{`
        let mut current: Vec<String> = Vec::new();
        let mut alias: Option<String> = None;
        let mut i = si;
        let flush = |prefix: &[String],
                     current: &mut Vec<String>,
                     alias: &mut Option<String>,
                     items: &mut FileItems| {
            if current.is_empty() {
                return;
            }
            let mut path = prefix.to_vec();
            path.append(current);
            let name = alias
                .take()
                .or_else(|| path.last().cloned())
                .unwrap_or_default();
            if !name.is_empty() && name != "*" {
                items.imports.push(Import { name, path });
            }
        };
        while i < stop {
            let text = self.text(i);
            match text {
                "{" => {
                    prefix.append(&mut current);
                    stack.push(prefix.len());
                    i += 1;
                }
                "}" => {
                    flush(&prefix, &mut current, &mut alias, self.items);
                    let keep = stack.pop().unwrap_or(0);
                    prefix.truncate(keep.min(prefix.len()));
                    // Track how deep the *enclosing* group prefix was: the
                    // segments this group added are popped with it.
                    let outer = stack.last().copied().unwrap_or(0);
                    prefix.truncate(outer.max(prefix.len().min(keep)));
                    i += 1;
                }
                "," => {
                    flush(&prefix, &mut current, &mut alias, self.items);
                    i += 1;
                }
                ";" => {
                    flush(&prefix, &mut current, &mut alias, self.items);
                    i += 1;
                }
                "as" => {
                    alias = Some(self.text(i + 1).to_string());
                    i += 2;
                }
                ":" => i += 1,
                "*" => {
                    current.clear();
                    i += 1;
                }
                _ if self.view.sig_kind(i) == Some(TokenKind::Ident) => {
                    current.push(text.to_string());
                    i += 1;
                }
                _ => i += 1,
            }
        }
        flush(&prefix, &mut current, &mut alias, self.items);
        stop
    }

    /// Parses an `impl`/`trait` item header and recurses into its body
    /// with the self type set. Returns the index past the item.
    fn parse_impl_or_trait(
        &mut self,
        si: usize,
        end: usize,
        module_path: &mut Vec<String>,
        is_trait: bool,
    ) -> usize {
        let mut i = si + 1;
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut seen_for = false;
        while i < end {
            let text = self.text(i);
            match text {
                "{" => break,
                ";" => return i + 1, // `impl Trait for Type;` etc.
                "<" => {
                    i = self.skip_generics(i, end);
                    continue;
                }
                "(" | "[" => {
                    i = self.skip_balanced(i, end);
                    continue;
                }
                "for" => {
                    seen_for = true;
                    after_for = None;
                    i += 1;
                    continue;
                }
                "where" => {
                    // Bounds may mention types; stop collecting the name.
                    while i < end && !self.is(i, '{') {
                        if self.is(i, '<') {
                            i = self.skip_generics(i, end);
                        } else {
                            i += 1;
                        }
                    }
                    break;
                }
                _ => {
                    if self.view.sig_kind(i) == Some(TokenKind::Ident) && text != "dyn" {
                        if seen_for {
                            after_for = Some(text.to_string());
                        } else {
                            last_ident = Some(text.to_string());
                        }
                    }
                    i += 1;
                }
            }
        }
        if i >= end || !self.is(i, '{') {
            return i;
        }
        let close = self.skip_balanced(i, end);
        let trait_methods = is_trait || after_for.is_some();
        // `impl Trait for Type` → Type; `impl Type` → Type; for traits the
        // trait name itself scopes the default methods.
        let self_type = if is_trait {
            last_ident
        } else {
            after_for.or(last_ident)
        };
        let outer = std::mem::replace(&mut self.trait_method, trait_methods);
        self.parse_items(
            i + 1,
            close.saturating_sub(1),
            module_path,
            self_type.as_deref(),
        );
        self.trait_method = outer;
        close
    }

    /// Parses one `fn` item starting at the `fn` keyword; returns the
    /// index past the body (or `;`).
    fn parse_fn(
        &mut self,
        si: usize,
        end: usize,
        module_path: &mut Vec<String>,
        self_type: Option<&str>,
    ) -> usize {
        let name = self.text(si + 1).to_string();
        let (def_line, _) = self.view.sig_pos(si);
        let mut i = si + 2;
        if self.is(i, '<') {
            i = self.skip_generics(i, end);
        }
        if !self.is(i, '(') {
            return si + 1; // not a function header; resync
        }
        let params_close = self.skip_balanced(i, end);
        let params = self.parse_params(i + 1, params_close.saturating_sub(1));
        // Scan past the return type / where clause to the body or `;`.
        let mut j = params_close;
        while j < end {
            match self.text(j) {
                "{" => break,
                ";" => {
                    // Bodyless declaration (trait method signature).
                    self.items.functions.push(FnRecord {
                        crate_name: self.crate_name.clone(),
                        module_path: module_path.clone(),
                        self_type: self_type.map(str::to_string),
                        name,
                        file: self.file.clone(),
                        def_line,
                        end_line: def_line,
                        body: None,
                        entry: false,
                        in_test: self.view.in_test(si),
                        trait_method: self.trait_method,
                        facts: Vec::new(),
                        calls: Vec::new(),
                        refs: Vec::new(),
                        lock_events: Vec::new(),
                        params,
                    });
                    return j + 1;
                }
                "<" => {
                    j = self.skip_generics(j, end);
                    continue;
                }
                "(" | "[" => {
                    j = self.skip_balanced(j, end);
                    continue;
                }
                _ => j += 1,
            }
        }
        if j >= end {
            return end;
        }
        let close = self.skip_balanced(j, end);
        let body_start = j + 1;
        let body_end = close.saturating_sub(1);
        let (end_line, _) = self.view.sig_pos(body_end.max(j));
        let mut record = FnRecord {
            crate_name: self.crate_name.clone(),
            module_path: module_path.clone(),
            self_type: self_type.map(str::to_string),
            name,
            file: self.file.clone(),
            def_line,
            end_line: end_line.max(def_line),
            body: Some(self.view.sig_pos(j)),
            entry: false,
            in_test: self.view.in_test(si),
            trait_method: self.trait_method,
            facts: Vec::new(),
            calls: Vec::new(),
            refs: Vec::new(),
            lock_events: Vec::new(),
            params,
        };
        self.scan_body(body_start, body_end, &mut record, module_path, self_type);
        self.items.functions.push(record);
        close
    }

    /// Extracts `name: Type` pairs from a parameter list token range.
    fn parse_params(&self, si: usize, end: usize) -> Vec<(String, ParamType)> {
        let mut params = Vec::new();
        let mut i = si;
        while i < end {
            // Parameter name: first ident of the pattern (skip `mut`).
            let mut name: Option<String> = None;
            while i < end && !self.is(i, ':') && !self.is(i, ',') {
                let text = self.text(i);
                if self.view.sig_kind(i) == Some(TokenKind::Ident)
                    && text != "mut"
                    && text != "ref"
                    && name.is_none()
                {
                    name = Some(text.to_string());
                }
                match text {
                    "(" | "[" | "{" => i = self.skip_balanced(i, end),
                    "<" => i = self.skip_generics(i, end),
                    _ => i += 1,
                }
            }
            if i >= end || self.is(i, ',') {
                i += 1;
                continue; // `self` receiver or pattern without a type
            }
            // Type: skip `&`, lifetimes, `mut`; classify the head.
            i += 1; // past `:`
            let mut ty = ParamType::Opaque;
            let mut segments: Vec<String> = Vec::new();
            while i < end && !self.is(i, ',') {
                let text = self.text(i);
                match text {
                    "&" | "mut" => i += 1,
                    _ if self.view.sig_kind(i) == Some(TokenKind::Lifetime) => i += 1,
                    "dyn" | "impl" => {
                        ty = ParamType::Opaque;
                        i = self.skip_param_type(i, end);
                        break;
                    }
                    "(" | "[" => {
                        // Tuple/array/slice type.
                        ty = ParamType::Opaque;
                        i = self.skip_balanced(i, end);
                        break;
                    }
                    _ if self.view.sig_kind(i) == Some(TokenKind::Ident) => {
                        segments.push(text.to_string());
                        i += 1;
                        if self.is(i, '<') {
                            i = self.skip_generics(i, end);
                            break;
                        }
                        if self.is(i, ':') && self.is(i + 1, ':') {
                            i += 2;
                            continue;
                        }
                        break;
                    }
                    _ => {
                        i += 1;
                        break;
                    }
                }
            }
            if let Some(last) = segments.last() {
                ty = ParamType::Named(last.clone());
            }
            // Drain the rest of this parameter.
            while i < end && !self.is(i, ',') {
                match self.text(i) {
                    "(" | "[" | "{" => i = self.skip_balanced(i, end),
                    "<" => i = self.skip_generics(i, end),
                    _ => i += 1,
                }
            }
            i += 1; // past `,`
            if let Some(name) = name {
                if name != "self" {
                    params.push((name, ty));
                }
            }
        }
        params
    }

    /// Skips the remainder of one parameter's type from a `dyn`/`impl`.
    fn skip_param_type(&self, si: usize, end: usize) -> usize {
        let mut i = si;
        while i < end && !self.is(i, ',') {
            match self.text(i) {
                "(" | "[" | "{" => i = self.skip_balanced(i, end),
                "<" => i = self.skip_generics(i, end),
                _ => i += 1,
            }
        }
        i
    }

    /// Scans a function body for facts, calls and lock events. Nested
    /// items (`fn`, `mod`, `impl` inside the body) are parsed as their own
    /// records and excluded from this body's facts.
    fn scan_body(
        &mut self,
        si: usize,
        end: usize,
        record: &mut FnRecord,
        module_path: &mut Vec<String>,
        self_type: Option<&str>,
    ) {
        let mut depth = 0usize;
        let mut i = si;
        while i < end {
            let text = self.text(i);
            // Nested items get their own records; their tokens must not
            // pollute this function's facts.
            if (text == "fn" || text == "impl" || text == "trait") && self.starts_nested_item(i) {
                let next = if text == "fn" {
                    self.parse_fn(i, end, module_path, self_type)
                } else {
                    self.parse_impl_or_trait(i, end, module_path, text == "trait")
                };
                i = next.max(i + 1);
                continue;
            }
            if text == "use" {
                i = self.parse_use(i + 1, end);
                continue;
            }
            if text == "let" && self.view.sig_kind(i) == Some(TokenKind::Ident) {
                self.record_let_binding(i, end, record);
                i += 1; // the initializer still gets scanned for facts/calls
                continue;
            }
            // A test region inside a non-test body is not this function's
            // code; a test function's own body is, for its calls only.
            if self.view.in_test(i) && !record.in_test {
                i += 1;
                continue;
            }
            match text {
                "{" => {
                    depth += 1;
                    i += 1;
                    continue;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    record.lock_events.push(LockEvent::BlockClose { depth });
                    i += 1;
                    continue;
                }
                ";" => {
                    record.lock_events.push(LockEvent::StatementEnd { depth });
                    i += 1;
                    continue;
                }
                _ => {}
            }
            let (line, col) = self.view.sig_pos(i);
            // Method calls and method-shaped facts: `.name(`, or with a
            // turbofish, `.name::<T>(`.
            let turbofish = self.is(i + 2, ':') && self.is(i + 3, ':') && self.is(i + 4, '<');
            let open = if turbofish {
                self.skip_generics(i + 4, end)
            } else {
                i + 2
            };
            if self.is(i, '.')
                && self.view.sig_kind(i + 1) == Some(TokenKind::Ident)
                && self.is(open, '(')
            {
                let name = self.text(i + 1).to_string();
                let (mline, mcol) = self.view.sig_pos(i + 1);
                match name.as_str() {
                    "lock" => {
                        let lock = self.lock_name(i);
                        let bound = self.lock_is_bound(i);
                        let what = format!("`{lock}.lock()`");
                        push_fact(record, self.fact(FactKind::Lock, what, i + 1));
                        record.lock_events.push(LockEvent::Acquire {
                            lock,
                            bound,
                            depth,
                            line: mline,
                            col: mcol,
                        });
                    }
                    "to_vec" | "collect" => {
                        let what = format!("`.{name}()`");
                        push_fact(record, self.fact(FactKind::Alloc, what, i + 1));
                    }
                    "unwrap" | "expect" => {
                        let what = format!("`.{name}()`");
                        push_fact(record, self.fact(FactKind::Panic, what, i + 1));
                    }
                    _ => {
                        let receiver = self.method_receiver(i, &record.params);
                        record.lock_events.push(LockEvent::Call {
                            index: record.calls.len(),
                            depth,
                        });
                        record.calls.push(CallSite {
                            callee: Callee::Method { name, receiver },
                            line: mline,
                            col: mcol,
                        });
                    }
                }
                i = open; // continue at the `(`
                continue;
            }
            // Macros: the panicking family, the allocating family.
            if self.view.sig_kind(i) == Some(TokenKind::Ident) && self.is(i + 1, '!') {
                let kind = match text {
                    "panic" | "unreachable" | "todo" | "unimplemented" => Some(FactKind::Panic),
                    "format" | "vec" => Some(FactKind::Alloc),
                    _ => None,
                };
                if let Some(kind) = kind {
                    push_fact(record, self.fact(kind, format!("`{text}!`"), i));
                }
                i += 2;
                continue;
            }
            // Path-shaped facts and calls: `Seg::seg(...)` / `foo(...)`.
            if self.view.sig_kind(i) == Some(TokenKind::Ident) && !self.is_path_continuation(i) {
                let (path, at, after) = self.read_path(i, end);
                let entropy = path
                    .iter()
                    .zip(&at)
                    .find(|(seg, _)| ENTROPY_IDENTS.contains(&seg.as_str()));
                if let Some((seg, &si)) = entropy {
                    push_fact(record, self.fact(FactKind::Entropy, format!("`{seg}`"), si));
                }
                if let Some((kind, what)) = path_fact(&path) {
                    // Reported at the `Instant` of `std::time::Instant::now`.
                    let head = at.iter().rev().nth(1).copied().unwrap_or(i);
                    push_fact(record, self.fact(kind, what, head));
                } else if self.is(after, '(') && !CALL_KEYWORDS.contains(&text) {
                    record.lock_events.push(LockEvent::Call {
                        index: record.calls.len(),
                        depth,
                    });
                    record.calls.push(CallSite {
                        callee: Callee::Path(path),
                        line,
                        col,
                    });
                } else if self.names_a_value(&path, after) {
                    record.refs.push(path);
                }
                i = after;
                continue;
            }
            // Indexing brackets (the `no-panic` family).
            if self.is(i, '[') && self.is_indexing_bracket(i) {
                let what = "indexing (`[...]`)".to_string();
                push_fact(record, self.fact(FactKind::Panic, what, i));
            }
            i += 1;
        }
    }

    /// Whether a path that is not called (`after` is the token past it)
    /// may name a function as a value: lowercase last segment, and not a
    /// macro, a field label or a pattern binding's type ascription.
    fn names_a_value(&self, path: &[String], after: usize) -> bool {
        let lowercase = path
            .last()
            .and_then(|seg| seg.chars().next())
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_');
        lowercase && !self.is(after, '!') && !self.is(after, ':')
    }

    /// Whether the token at `si` starts a function header after `const`
    /// (`const fn`, `const unsafe fn`).
    fn is_fn_keyword(&self, si: usize) -> bool {
        matches!(self.text(si), "fn" | "unsafe" | "async" | "extern")
    }

    /// Records every path named in a `static` / `const` item's tokens
    /// `[si, end)`: a table of fn pointers roots what it names.
    fn record_static_refs(&mut self, si: usize, end: usize) {
        let in_test = self.view.in_test(si);
        let mut i = si;
        while i < end {
            if self.view.sig_kind(i) == Some(TokenKind::Ident) && !self.is_path_continuation(i) {
                let (path, _, after) = self.read_path(i, end);
                self.items.static_refs.push((path, in_test));
                i = after.max(i + 1);
            } else {
                i += 1;
            }
        }
    }

    /// A fact of `kind` at the position of significant token `si`.
    fn fact(&self, kind: FactKind, what: String, si: usize) -> Fact {
        let (line, col) = self.view.sig_pos(si);
        Fact {
            kind,
            what,
            line,
            col,
        }
    }

    /// Records the declared or constructor-implied type of a `let` binding
    /// so later method calls through it resolve like typed parameters.
    /// Without this, `let mut hasher = DefaultHasher::new()` leaves
    /// `hasher.finish()` to by-name resolution, which pins it on any
    /// workspace `finish` — a non-workspace type must land in the unknown
    /// bucket instead. Pattern bindings and non-path initializers stay
    /// untracked ([`Receiver::Other`]).
    fn record_let_binding(&self, si: usize, end: usize, record: &mut FnRecord) {
        let mut i = si + 1;
        if self.text(i) == "mut" {
            i += 1;
        }
        if self.view.sig_kind(i) != Some(TokenKind::Ident) {
            return;
        }
        let name = self.text(i).to_string();
        let ty = if self.is(i + 1, ':') && !self.is(i + 2, ':') {
            // `let name: Type = ...` — the annotation names the type.
            let mut j = i + 2;
            while j < end
                && (self.is(j, '&')
                    || self.text(j) == "mut"
                    || self.view.sig_kind(j) == Some(TokenKind::Lifetime))
            {
                j += 1;
            }
            (self.view.sig_kind(j) == Some(TokenKind::Ident)).then(|| self.text(j).to_string())
        } else if self.is(i + 1, '=')
            && !self.is(i + 2, '=')
            && self.view.sig_kind(i + 2) == Some(TokenKind::Ident)
        {
            // `let name = Type::constructor(...)` — the last type-shaped
            // (uppercase) segment names the type.
            let (path, _, _) = self.read_path(i + 2, end);
            path.iter()
                .rev()
                .find(|seg| seg.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
                .cloned()
        } else {
            None
        };
        if let Some(ty) = ty {
            record.params.push((name, ParamType::Named(ty)));
        }
    }

    /// Whether the `fn`/`impl`/`trait` keyword at `si` really starts a
    /// nested item (versus `impl Trait` in a type position or a bound).
    fn starts_nested_item(&self, si: usize) -> bool {
        let text = self.text(si);
        if text == "fn" {
            // `fn` in a type (`fn(...)` pointer / `Fn(...)` bound) has no
            // following ident; an item always does.
            return self.view.sig_kind(si + 1) == Some(TokenKind::Ident);
        }
        if text == "impl" {
            // `impl Trait` in type position follows `:`/`->`/`<`/`(`/`,`/
            // `=`; an impl item starts a statement. Heuristic: previous
            // token is `;`, `{`, `}` or the body start.
            let Some(prev) = si.checked_sub(1) else {
                return true;
            };
            return self.is(prev, ';') || self.is(prev, '{') || self.is(prev, '}');
        }
        // `trait` keyword inside a body is always an item.
        true
    }

    /// Whether the ident at `si` is preceded by `::` or `.` (i.e. not the
    /// head of a path expression).
    fn is_path_continuation(&self, si: usize) -> bool {
        let Some(prev) = si.checked_sub(1) else {
            return false;
        };
        if self.is(prev, '.') {
            return true;
        }
        prev.checked_sub(1)
            .map(|p2| self.is(p2, ':') && self.is(prev, ':'))
            .unwrap_or(false)
    }

    /// Reads a `a::b::c` path starting at the ident at `si`; returns the
    /// segments, the token index of each, and the index just past the path.
    fn read_path(&self, si: usize, end: usize) -> (Vec<String>, Vec<usize>, usize) {
        let mut segments = vec![self.text(si).to_string()];
        let mut at = vec![si];
        let mut i = si + 1;
        loop {
            // Turbofish in the middle of a path: `Vec::<u8>::new`.
            if self.is(i, ':') && self.is(i + 1, ':') && self.is(i + 2, '<') {
                let after = self.skip_generics(i + 2, end);
                if self.is(after, ':') && self.is(after + 1, ':') {
                    i = after;
                } else {
                    return (segments, at, after);
                }
            }
            if self.is(i, ':')
                && self.is(i + 1, ':')
                && self.view.sig_kind(i + 2) == Some(TokenKind::Ident)
            {
                segments.push(self.text(i + 2).to_string());
                at.push(i + 2);
                i += 3;
            } else {
                return (segments, at, i);
            }
        }
    }

    /// Heuristic: a `[` is an indexing/slicing expression when the previous
    /// significant token could end an expression — an identifier (other than
    /// a keyword), a closing `)`/`]`, or the `?` operator. Attributes
    /// (`#[...]`), macro brackets (`vec![...]`), array types (`: [u8; 4]`)
    /// and array literals (`= [1, 2]`) are all preceded by other tokens and
    /// are skipped.
    fn is_indexing_bracket(&self, si: usize) -> bool {
        let Some(prev) = si.checked_sub(1) else {
            return false;
        };
        if self.is(prev, ')') || self.is(prev, ']') || self.is(prev, '?') {
            return true;
        }
        self.view.sig_kind(prev) == Some(TokenKind::Ident)
            && !NON_INDEX_PRECEDERS.contains(&self.text(prev))
    }

    /// The name of the lock acquired by the `.lock()` whose `.` is at
    /// `si`: the identifier immediately before the dot.
    fn lock_name(&self, si: usize) -> String {
        si.checked_sub(1)
            .filter(|&p| self.view.sig_kind(p) == Some(TokenKind::Ident))
            .map(|p| self.text(p).to_string())
            .unwrap_or_else(|| "?".to_string())
    }

    /// Whether the `.lock()` at `si` (the `.`) is bound by a `let`: walk
    /// left past the receiver chain; a `=` preceded (eventually) by `let`
    /// within the same statement means the guard lives to the end of the
    /// enclosing block.
    fn lock_is_bound(&self, si: usize) -> bool {
        let mut i = si;
        // Walk left past `recv.chain` idents and dots (and `self`).
        while let Some(prev) = i.checked_sub(1) {
            let t = self.text(prev);
            if self.view.sig_kind(prev) == Some(TokenKind::Ident) || t == "." {
                i = prev;
            } else {
                break;
            }
        }
        let Some(eq) = i.checked_sub(1) else {
            return false;
        };
        if !self.is(eq, '=') || self.is(eq.saturating_sub(1), '=') {
            return false;
        }
        // Walk left past the pattern to `let`.
        let mut j = eq;
        for _ in 0..16 {
            let Some(prev) = j.checked_sub(1) else {
                return false;
            };
            let t = self.text(prev);
            if t == "let" {
                return true;
            }
            if self.view.sig_kind(prev) == Some(TokenKind::Ident)
                || t == "_"
                || t == "mut"
                || t == ":"
                || t == "&"
            {
                j = prev;
                continue;
            }
            return false;
        }
        false
    }

    /// Classifies the receiver of the method call whose `.` is at `si`.
    fn method_receiver(&self, si: usize, params: &[(String, ParamType)]) -> Receiver {
        let Some(prev) = si.checked_sub(1) else {
            return Receiver::Other;
        };
        if self.view.sig_kind(prev) != Some(TokenKind::Ident) {
            return Receiver::Other;
        }
        // A chained receiver (`a.b.method`) is not the bare name.
        if self.is_path_continuation(prev) {
            return Receiver::Other;
        }
        let name = self.text(prev);
        if name == "self" {
            return Receiver::SelfRecv;
        }
        if params.iter().any(|(p, _)| p == name) {
            return Receiver::Param(name.to_string());
        }
        Receiver::Other
    }
}

/// Records a fact unless `record` is test code: tests are exempt from
/// every rule, and their calls are kept only for the inventory.
fn push_fact(record: &mut FnRecord, fact: Fact) {
    if !record.in_test {
        record.facts.push(fact);
    }
}

/// Identifiers that reach for ambient OS entropy.
const ENTROPY_IDENTS: [&str; 4] = ["OsRng", "thread_rng", "from_entropy", "getrandom"];

/// Keyword-ish identifiers that can legitimately precede a `[` that is not
/// an indexing expression (array types, slice patterns, array literals).
const NON_INDEX_PRECEDERS: [&str; 22] = [
    "mut", "ref", "dyn", "in", "as", "return", "break", "continue", "else", "move", "where",
    "impl", "for", "if", "while", "match", "let", "pub", "const", "static", "fn", "unsafe",
];

/// Facts a path's last two segments spell, however the path is qualified
/// (`Instant::now`, `std::time::Instant::now`): allocation constructors
/// and ambient clock reads.
fn path_fact(path: &[String]) -> Option<(FactKind, String)> {
    let [.., head, tail] = path else {
        return None;
    };
    match (head.as_str(), tail.as_str()) {
        ("Box", "new") | ("Vec", "new") => Some((FactKind::Alloc, format!("`{head}::{tail}`"))),
        ("Instant", "now") | ("SystemTime", "now") => {
            Some((FactKind::Clock, format!("`{head}::{tail}()`")))
        }
        _ => None,
    }
}
