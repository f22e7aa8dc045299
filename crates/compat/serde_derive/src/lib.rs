//! Offline stand-in for `serde_derive`.
//!
//! Generates impls for the vendored `serde` crate in this workspace:
//! `#[derive(Serialize)]` produces a `serialize_json` method following
//! serde's data model (structs → objects, newtype structs transparent,
//! enums externally tagged, `#[serde(skip)]` omits a field).
//!
//! The parser is hand-rolled over `proc_macro::TokenTree` — the build
//! environment has no crates.io access, so `syn`/`quote` are not
//! available. It supports exactly the shapes this workspace derives on:
//! non-generic structs (named, tuple, unit) and non-generic enums with
//! unit, tuple, and named-field variants. Anything else produces a
//! `compile_error!` naming the limitation rather than silently wrong
//! code.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the vendored `serde::Serialize` (JSON writer).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item)
            .parse()
            .expect("serde_derive generated invalid Rust"),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("literal parses")
}

struct Item {
    name: String,
    generics: Vec<Param>,
    kind: Kind,
}

/// One generic parameter on the deriving type.
enum Param {
    /// `'a` — full text, e.g. `'a` or `'a: 'b`.
    Lifetime { decl: String, name: String },
    /// `const N: usize` — full declaration plus the bare name.
    Const { decl: String, name: String },
    /// `T` or `S: Ord` — name plus any inline bounds (defaults dropped).
    Type {
        name: String,
        bounds: Option<String>,
    },
}

impl Item {
    /// `<'a, S: Ord + ::serde::Serialize, const N: usize>` — the
    /// parameter list for the generated impl, with `trait_path` bound
    /// added to every type parameter.
    fn impl_generics(&self, trait_path: &str) -> String {
        if self.generics.is_empty() {
            return String::new();
        }
        let parts: Vec<String> = self
            .generics
            .iter()
            .map(|p| match p {
                Param::Lifetime { decl, .. } | Param::Const { decl, .. } => decl.clone(),
                Param::Type {
                    name,
                    bounds: Some(b),
                } => format!("{name}: {b} + {trait_path}"),
                Param::Type { name, bounds: None } => format!("{name}: {trait_path}"),
            })
            .collect();
        format!("<{}>", parts.join(", "))
    }

    /// `<'a, S, N>` — the argument list naming the type being
    /// implemented for.
    fn ty_generics(&self) -> String {
        if self.generics.is_empty() {
            return String::new();
        }
        let parts: Vec<String> = self
            .generics
            .iter()
            .map(|p| match p {
                Param::Lifetime { name, .. }
                | Param::Const { name, .. }
                | Param::Type { name, .. } => name.clone(),
            })
            .collect();
        format!("<{}>", parts.join(", "))
    }
}

enum Kind {
    /// Named-field struct: field names with skip flags.
    Named(Vec<Field>),
    /// Tuple struct: arity (skip is not supported on tuple fields).
    Tuple(usize),
    /// Unit struct.
    Unit,
    /// Enum of variants.
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    skip: bool,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// Consumes leading attributes (`#[...]`), reporting whether any was
/// `#[serde(skip)]`.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) -> bool {
    let mut skip = false;
    while *i < tokens.len() {
        let TokenTree::Punct(p) = &tokens[*i] else {
            break;
        };
        if p.as_char() != '#' {
            break;
        }
        let Some(TokenTree::Group(g)) = tokens.get(*i + 1) else {
            break;
        };
        if g.delimiter() != Delimiter::Bracket {
            break;
        }
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if let Some(TokenTree::Ident(id)) = inner.first() {
            if id.to_string() == "serde" {
                if let Some(TokenTree::Group(args)) = inner.get(1) {
                    let has_skip = args
                        .stream()
                        .into_iter()
                        .any(|t| matches!(&t, TokenTree::Ident(a) if a.to_string() == "skip"));
                    if has_skip {
                        skip = true;
                    } else {
                        // Any other serde attribute would change the
                        // encoding in ways this derive does not
                        // implement; refuse loudly via a marker the
                        // caller surfaces.
                        skip = false;
                    }
                }
            }
        }
        *i += 2;
    }
    skip
}

/// Consumes a visibility qualifier (`pub`, `pub(crate)`, ...), if any.
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Consumes one type, stopping at a top-level comma (angle brackets are
/// `Punct`s, so `<`/`>` depth must be tracked by hand; `(...)`/`[...]`
/// arrive as single groups and need no tracking).
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                *i += 1; // consume the separator
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(group: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let skip = skip_attrs(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected ':' after field {name}, found {other:?}")),
        }
        skip_type(&tokens, &mut i);
        fields.push(Field { name, skip });
    }
    Ok(fields)
}

/// Counts tuple fields: top-level commas plus one, zero for an empty
/// group, ignoring a trailing comma.
fn count_tuple_fields(group: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut fields = 1;
    let mut last_was_comma = false;
    for t in &tokens {
        last_was_comma = false;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                fields += 1;
                last_was_comma = true;
            }
            _ => {}
        }
    }
    if last_was_comma {
        fields -= 1;
    }
    fields
}

fn parse_variants(group: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = group.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(g.stream());
                i += 1;
                Shape::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                i += 1;
                Shape::Named(fields)
            }
            _ => Shape::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the separator.
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct/enum, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    let mut generics = Vec::new();
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            i += 1; // past '<'
            generics = parse_generics(&tokens, &mut i)?;
        }
    }
    // A where clause would carry bounds the generated impl must repeat;
    // nothing in this workspace uses one on a deriving type.
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "where" {
            return Err(format!(
                "the offline serde derive does not support a where clause on {name}; \
                 move the bounds inline or write the impl by hand"
            ));
        }
    }
    let kind = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::Unit,
            other => return Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("unsupported enum body: {other:?}")),
        },
        other => return Err(format!("cannot derive serde traits for `{other}` items")),
    };
    Ok(Item {
        name,
        generics,
        kind,
    })
}

/// Parses the generic parameter list, `tokens[*i]` being the token
/// right after the opening `<`. Leaves `*i` past the matching `>`.
fn parse_generics(tokens: &[TokenTree], i: &mut usize) -> Result<Vec<Param>, String> {
    // Split the parameter tokens at depth-0 commas (depth counts only
    // nested angle brackets; parens/brackets arrive as whole groups).
    let mut params: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut depth = 0i32;
    loop {
        let Some(tok) = tokens.get(*i) else {
            return Err("unclosed generic parameter list".to_string());
        };
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                if depth == 0 {
                    *i += 1;
                    break;
                }
                depth -= 1;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                params.push(Vec::new());
                *i += 1;
                continue;
            }
            _ => {}
        }
        params.last_mut().expect("nonempty").push(tok.clone());
        *i += 1;
    }

    let mut out = Vec::new();
    for toks in params.into_iter().filter(|t| !t.is_empty()) {
        out.push(parse_one_param(&toks)?);
    }
    Ok(out)
}

fn parse_one_param(toks: &[TokenTree]) -> Result<Param, String> {
    let text = |ts: &[TokenTree]| -> String {
        ts.iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    match &toks[0] {
        TokenTree::Punct(p) if p.as_char() == '\'' => {
            let Some(TokenTree::Ident(id)) = toks.get(1) else {
                return Err("malformed lifetime parameter".to_string());
            };
            Ok(Param::Lifetime {
                decl: text(toks),
                name: format!("'{id}"),
            })
        }
        TokenTree::Ident(id) if id.to_string() == "const" => {
            let Some(TokenTree::Ident(name)) = toks.get(1) else {
                return Err("malformed const parameter".to_string());
            };
            // Drop a default value (`= 8`) from the impl declaration.
            let decl_end = toks
                .iter()
                .position(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == '='))
                .unwrap_or(toks.len());
            Ok(Param::Const {
                decl: text(&toks[..decl_end]),
                name: name.to_string(),
            })
        }
        TokenTree::Ident(id) => {
            let name = id.to_string();
            // Bounds run from after `:` to a default's `=` (or the end).
            let colon = toks
                .iter()
                .position(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ':'));
            let eq = toks
                .iter()
                .position(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == '='))
                .unwrap_or(toks.len());
            let bounds = match colon {
                Some(c) if c + 1 < eq => Some(text(&toks[c + 1..eq])),
                _ => None,
            };
            Ok(Param::Type { name, bounds })
        }
        other => Err(format!("unsupported generic parameter: {other:?}")),
    }
}

/// A Rust string literal whose value is `s` (used to embed JSON
/// fragments, which are full of quotes, in generated source).
fn lit(s: &str) -> String {
    format!("{s:?}")
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::Named(fields) => gen_named_body(fields, "self.", ""),
        Kind::Tuple(1) => "::serde::Serialize::serialize_json(&self.0, out);".to_string(),
        Kind::Tuple(n) => {
            let mut b = String::from("out.push('[');\n");
            for idx in 0..*n {
                if idx > 0 {
                    b.push_str("out.push(',');\n");
                }
                b.push_str(&format!(
                    "::serde::Serialize::serialize_json(&self.{idx}, out);\n"
                ));
            }
            b.push_str("out.push(']');");
            b
        }
        Kind::Unit => "out.push_str(\"null\");".to_string(),
        Kind::Enum(variants) => gen_enum_body(name, variants),
    };
    format!(
        "impl{} ::serde::Serialize for {name}{} {{\n\
         fn serialize_json(&self, out: &mut ::std::string::String) {{\n{body}\n}}\n}}",
        item.impl_generics("::serde::Serialize"),
        item.ty_generics(),
    )
}

/// Object body for named fields. `access` prefixes each field
/// (`self.` for structs, empty for match-bound variant fields);
/// `bind_prefix` renames bound identifiers (enum bodies bind `f_name`).
fn gen_named_body(fields: &[Field], access: &str, bind_prefix: &str) -> String {
    let mut b = String::from("out.push('{');\n");
    let mut first = true;
    for f in fields {
        if f.skip {
            continue;
        }
        let key = if first {
            format!("\"{}\":", f.name)
        } else {
            format!(",\"{}\":", f.name)
        };
        first = false;
        b.push_str(&format!("out.push_str({});\n", lit(&key)));
        b.push_str(&format!(
            "::serde::Serialize::serialize_json(&{access}{bind_prefix}{}, out);\n",
            f.name
        ));
    }
    b.push_str("out.push('}');");
    b
}

fn gen_enum_body(name: &str, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for v in variants {
        let vname = &v.name;
        match &v.shape {
            Shape::Unit => {
                let json = lit(&format!("\"{vname}\""));
                arms.push_str(&format!("{name}::{vname} => out.push_str({json}),\n"));
            }
            Shape::Tuple(1) => {
                let open = lit(&format!("{{\"{vname}\":"));
                arms.push_str(&format!(
                    "{name}::{vname}(f0) => {{ out.push_str({open}); \
                     ::serde::Serialize::serialize_json(f0, out); out.push('}}'); }}\n"
                ));
            }
            Shape::Tuple(n) => {
                let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                let open = lit(&format!("{{\"{vname}\":["));
                let mut inner = format!("out.push_str({open});\n");
                for (i, bind) in binds.iter().enumerate() {
                    if i > 0 {
                        inner.push_str("out.push(',');\n");
                    }
                    inner.push_str(&format!(
                        "::serde::Serialize::serialize_json({bind}, out);\n"
                    ));
                }
                inner.push_str("out.push_str(\"]}\");");
                arms.push_str(&format!(
                    "{name}::{vname}({}) => {{ {inner} }}\n",
                    binds.join(", ")
                ));
            }
            Shape::Named(fields) => {
                let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                let open = lit(&format!("{{\"{vname}\":"));
                let mut inner = format!("out.push_str({open});\n");
                inner.push_str(&gen_named_body(fields, "", ""));
                inner.push_str("\nout.push('}');");
                arms.push_str(&format!(
                    "{name}::{vname} {{ {} }} => {{ {inner} }}\n",
                    binds.join(", ")
                ));
            }
        }
    }
    format!("match self {{\n{arms}}}")
}
