//! Offline stand-in for `serde_derive`.
//!
//! The build environment has no access to crates.io, so the real serde
//! proc-macro stack (`syn`/`quote`/`proc-macro2`) is unavailable. This
//! crate re-implements `#[derive(Serialize)]` against the sibling shim
//! `serde` crate using only the compiler's built-in `proc_macro` API: it
//! walks the raw token stream of the type definition (no generics are
//! supported — none of this workspace's types need them) and emits a
//! `to_value` implementation producing the shim's JSON `Value` tree,
//! matching serde_json's externally-tagged conventions (unit variants as
//! strings, newtype fields transparent, tuple payloads as arrays).

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of the deriving type.
enum Shape {
    Unit,
    /// Named-field struct: field identifiers in declaration order.
    Named(Vec<String>),
    /// Tuple struct: field count.
    Tuple(usize),
    /// Enum: (variant name, variant shape) pairs.
    Enum(Vec<(String, Shape)>),
}

struct Input {
    name: String,
    shape: Shape,
}

/// Skips outer attributes (`#[...]`, including doc comments) and
/// visibility qualifiers at the current position.
fn skip_attrs_and_vis(toks: &[TokenTree], mut i: usize) -> usize {
    loop {
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // '#' then bracket group
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                // pub(crate) / pub(super) etc.
                if let Some(TokenTree::Group(g)) = toks.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Splits the tokens of a field list / variant list on top-level commas
/// (commas outside any `<...>` nesting; bracketed groups are single
/// tokens so only angle brackets need tracking).
fn split_top_level_commas(toks: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle: i32 = 0;
    for t in toks {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => {}
            }
        }
        cur.push(t.clone());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Parses `{ a: T, b: U }` into field names.
fn parse_named_fields(body: &[TokenTree]) -> Vec<String> {
    split_top_level_commas(body)
        .iter()
        .filter_map(|field| {
            let i = skip_attrs_and_vis(field, 0);
            match field.get(i) {
                Some(TokenTree::Ident(id)) => Some(id.to_string()),
                _ => None,
            }
        })
        .collect()
}

/// Parses `( T, U )` into a field count.
fn parse_tuple_fields(body: &[TokenTree]) -> usize {
    split_top_level_commas(body)
        .iter()
        .filter(|seg| skip_attrs_and_vis(seg, 0) < seg.len())
        .count()
}

fn parse_enum_variants(body: &[TokenTree]) -> Vec<(String, Shape)> {
    let mut out = Vec::new();
    for var in split_top_level_commas(body) {
        let mut i = skip_attrs_and_vis(&var, 0);
        let name = match var.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => continue,
        };
        i += 1;
        // payload group, discriminant (`= expr`), or bare unit
        let shape = match var.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Named(
                parse_named_fields(&g.stream().into_iter().collect::<Vec<_>>()),
            ),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Shape::Tuple(
                parse_tuple_fields(&g.stream().into_iter().collect::<Vec<_>>()),
            ),
            _ => Shape::Unit,
        };
        out.push((name, shape));
    }
    out
}

fn parse_input(input: TokenStream) -> Input {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&toks, 0);
    let kind = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected struct/enum, got {other}"),
    };
    i += 1;
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other}"),
    };
    i += 1;
    if matches!(&toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic types are not supported (type {name})");
    }
    let shape = match kind.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Named(
                parse_named_fields(&g.stream().into_iter().collect::<Vec<_>>()),
            ),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Shape::Tuple(
                parse_tuple_fields(&g.stream().into_iter().collect::<Vec<_>>()),
            ),
            _ => Shape::Unit,
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Enum(
                parse_enum_variants(&g.stream().into_iter().collect::<Vec<_>>()),
            ),
            _ => panic!("serde_derive shim: enum {name} has no body"),
        },
        other => panic!("serde_derive shim: cannot derive for `{other}` items"),
    };
    Input { name, shape }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    let name = &parsed.name;
    let body = match &parsed.shape {
        Shape::Unit => "::serde::Value::Null".to_string(),
        Shape::Named(fields) => named_fields_expr(fields, &|f| format!("self.{f}")),
        Shape::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(vec![{}])", items.join(", "))
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, shape)| match shape {
                    Shape::Unit => format!(
                        "{name}::{v} => ::serde::Value::Str(\"{v}\".to_string()),"
                    ),
                    Shape::Tuple(1) => format!(
                        "{name}::{v}(__f0) => ::serde::Value::Map(vec![(\"{v}\".to_string(), ::serde::Serialize::to_value(__f0))]),"
                    ),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        format!(
                            "{name}::{v}({}) => ::serde::Value::Map(vec![(\"{v}\".to_string(), ::serde::Value::Seq(vec![{}]))]),",
                            binds.join(", "),
                            items.join(", ")
                        )
                    }
                    Shape::Named(fields) => {
                        let inner = named_fields_expr(fields, &|f| f.to_string());
                        format!(
                            "{name}::{v} {{ {} }} => ::serde::Value::Map(vec![(\"{v}\".to_string(), {inner})]),",
                            fields.join(", ")
                        )
                    }
                    Shape::Enum(_) => unreachable!("variants cannot be enums"),
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("serde_derive shim: generated impl must parse")
}

fn named_fields_expr(fields: &[String], accessor: &dyn Fn(&str) -> String) -> String {
    let entries: Vec<String> = fields
        .iter()
        .map(|f| {
            format!(
                "(\"{f}\".to_string(), ::serde::Serialize::to_value(&{}))",
                accessor(f)
            )
        })
        .collect();
    format!("::serde::Value::Map(vec![{}])", entries.join(", "))
}
