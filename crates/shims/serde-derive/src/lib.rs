//! Derive macros for the in-tree `serde` shim.
//!
//! Supports exactly what this workspace uses: plain structs with named
//! fields, `#[serde(transparent)]` newtype structs, and the field
//! attribute `#[serde(default)]` (a missing key deserializes as
//! `Default::default()`; serialization is unchanged). No generics or
//! enums, and every other `serde` attribute is a `compile_error!` — the
//! derive fails loudly on anything it does not understand rather than
//! generating wrong code.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

struct StructInfo {
    name: String,
    transparent: bool,
    /// Named fields, in declaration order. Empty + `tuple_fields > 0`
    /// for tuple structs.
    fields: Vec<Field>,
    tuple_fields: usize,
}

struct Field {
    name: String,
    /// `#[serde(default)]`: a missing key deserializes as the default.
    default: bool,
}

/// Reads one attribute body (the `[...]` group after `#`). Returns
/// `Ok(false)` for non-`serde` attributes (docs, lints), `Ok(true)` for
/// `serde(<allowed>)`, and an error naming any other `serde` item.
fn serde_attr(attr: &Group, allowed: Option<&str>, position: &str) -> Result<bool, String> {
    let mut tokens = attr.stream().into_iter();
    match tokens.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Ok(false),
    }
    let items = match (tokens.next(), tokens.next()) {
        (Some(TokenTree::Group(g)), None) if g.delimiter() == Delimiter::Parenthesis => {
            g.stream().to_string()
        }
        _ => return Err(format!("malformed serde {position} attribute `{attr}`")),
    };
    for item in items.split(',').map(str::trim) {
        if Some(item) != allowed {
            return Err(format!(
                "serde shim: unsupported {position} attribute `serde({item})`"
            ));
        }
    }
    Ok(true)
}

/// Parses the derive input far enough to know the struct name, whether
/// `#[serde(transparent)]` is present, and the field names.
fn parse_struct(input: TokenStream) -> Result<StructInfo, String> {
    let mut iter = input.into_iter().peekable();
    let mut transparent = false;

    // Leading attributes and visibility.
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.next() {
                    transparent |= serde_attr(&g, Some("transparent"), "container")?;
                } else {
                    return Err("malformed attribute".into());
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                // Optional `(crate)` / `(super)` group.
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next();
                    }
                }
            }
            _ => break,
        }
    }

    match iter.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {}
        other => return Err(format!("only structs are supported, found {other:?}")),
    }
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct name, found {other:?}")),
    };

    match iter.next() {
        // Named-field struct.
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let fields = parse_named_fields(g.stream())?;
            Ok(StructInfo {
                name,
                transparent,
                fields,
                tuple_fields: 0,
            })
        }
        // Tuple struct: count top-level comma-separated fields.
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let mut count = 0usize;
            let mut depth = 0i32;
            let mut saw_token = false;
            for tt in g.stream() {
                match tt {
                    TokenTree::Punct(ref p) if p.as_char() == '<' && depth >= 0 => {
                        depth += 1;
                        saw_token = true;
                    }
                    TokenTree::Punct(ref p) if p.as_char() == '>' => {
                        depth -= 1;
                        saw_token = true;
                    }
                    TokenTree::Punct(ref p) if p.as_char() == ',' && depth == 0 => {
                        count += 1;
                        saw_token = false;
                    }
                    TokenTree::Group(ref g) if g.delimiter() == Delimiter::Bracket => {
                        serde_attr(g, None, "tuple field")?;
                    }
                    _ => saw_token = true,
                }
            }
            if saw_token {
                count += 1;
            }
            Ok(StructInfo {
                name,
                transparent,
                fields: Vec::new(),
                tuple_fields: count,
            })
        }
        other => Err(format!("expected struct body, found {other:?}")),
    }
}

/// Extracts fields from a named-field body: their names and
/// `#[serde(default)]` flags, skipping other attributes, visibility,
/// and the type tokens after each `:`.
fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        let mut default = false;
        // Attributes (doc comments included) and visibility.
        loop {
            match iter.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    iter.next();
                    match iter.next() {
                        Some(TokenTree::Group(g)) => {
                            default |= serde_attr(&g, Some("default"), "field")?
                        }
                        _ => return Err("malformed field attribute".into()),
                    }
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    iter.next();
                    if let Some(TokenTree::Group(g)) = iter.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            iter.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected field name, found {other:?}")),
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        // Consume the type up to a top-level comma.
        let mut angle_depth = 0i32;
        loop {
            match iter.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                    angle_depth += 1;
                    iter.next();
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                    angle_depth -= 1;
                    iter.next();
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && angle_depth == 0 => {
                    iter.next();
                    break;
                }
                Some(_) => {
                    iter.next();
                }
                None => break,
            }
        }
        fields.push(Field { name, default });
    }
    Ok(fields)
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let info = match parse_struct(input) {
        Ok(i) => i,
        Err(e) => return compile_error(&e),
    };
    let name = &info.name;
    let body = if info.tuple_fields > 0 || info.transparent && info.fields.len() == 1 {
        if info.tuple_fields == 1 {
            "::serde::Serialize::to_value(&self.0)".to_string()
        } else if info.tuple_fields > 1 {
            let elems: Vec<String> = (0..info.tuple_fields)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Arr(::std::vec![{}])", elems.join(", "))
        } else {
            let f = &info.fields[0].name;
            format!("::serde::Serialize::to_value(&self.{f})")
        }
    } else {
        let entries: Vec<String> = info
            .fields
            .iter()
            .map(|Field { name: f, .. }| {
                format!(
                    "(::std::string::String::from({f:?}), ::serde::Serialize::to_value(&self.{f}))"
                )
            })
            .collect();
        format!("::serde::Value::Obj(::std::vec![{}])", entries.join(", "))
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .unwrap()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let info = match parse_struct(input) {
        Ok(i) => i,
        Err(e) => return compile_error(&e),
    };
    let name = &info.name;
    let body = if info.tuple_fields == 1 {
        format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
    } else if info.tuple_fields > 1 {
        let elems: Vec<String> = (0..info.tuple_fields)
            .map(|i| format!("::serde::Deserialize::from_value(v.index({i})?)?"))
            .collect();
        format!("::std::result::Result::Ok({name}({}))", elems.join(", "))
    } else if info.transparent && info.fields.len() == 1 {
        let f = &info.fields[0].name;
        format!("::std::result::Result::Ok({name} {{ {f}: ::serde::Deserialize::from_value(v)? }})")
    } else {
        let inits: Vec<String> = info
            .fields
            .iter()
            .map(|Field { name: f, default }| {
                if *default {
                    format!(
                        "{f}: match v.opt_field({f:?})? {{ \
                             ::std::option::Option::Some(x) => ::serde::Deserialize::from_value(x)?, \
                             ::std::option::Option::None => ::std::default::Default::default() }}"
                    )
                } else {
                    format!("{f}: ::serde::Deserialize::from_value(v.field({f:?})?)?")
                }
            })
            .collect();
        format!(
            "::std::result::Result::Ok({name} {{ {} }})",
            inits.join(", ")
        )
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
         }}"
    )
    .parse()
    .unwrap()
}
