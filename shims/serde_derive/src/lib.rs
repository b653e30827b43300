//! Offline stand-in for `serde_derive`.
//!
//! Hand-rolled (no `syn`/`quote` available offline) derive macros for the
//! shim `serde`'s `Serialize`/`Deserialize` traits. Supports the shapes this
//! workspace actually derives on: non-generic named-field structs, newtype
//! structs (serialized transparently), and enums with unit and struct
//! variants (externally tagged, like real serde's default representation).

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    /// Named fields, in declaration order.
    Named(Vec<String>),
    /// Tuple fields; the count is all we need.
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Consumes leading `#[...]` attribute groups.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < tokens.len() {
        match (&tokens[i], &tokens[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            _ => break,
        }
    }
    i
}

/// Consumes a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// Splits a token slice on depth-0 commas, tracking `<...>` nesting so
/// generic argument lists inside field types don't split.
fn count_top_level_elements(tokens: &[TokenTree]) -> usize {
    let mut elements = 0usize;
    let mut saw_token = false;
    let mut angle: i32 = 0;
    for t in tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle += 1;
                saw_token = true;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle -= 1;
                saw_token = true;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                elements += 1;
                saw_token = false;
            }
            _ => saw_token = true,
        }
    }
    if saw_token {
        elements += 1;
    }
    elements
}

/// Parses the contents of a `{ ... }` field list into field names.
fn parse_named_fields(group: &proc_macro::Group) -> Vec<String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_vis(&tokens, skip_attrs(&tokens, i));
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => panic!("serde_derive shim: unexpected token in field list: {other}"),
            None => break,
        };
        fields.push(name);
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive shim: expected `:` after field name, got {other:?}"),
        }
        // Skip the type: consume until a comma at angle-depth 0.
        let mut angle: i32 = 0;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs(&tokens, i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => panic!("serde_derive shim: unexpected token in enum body: {other}"),
            None => break,
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_top_level_elements(&g.stream().into_iter().collect::<Vec<_>>());
                i += 1;
                Fields::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let named = parse_named_fields(g);
                i += 1;
                Fields::Named(named)
            }
            _ => Fields::Unit,
        };
        // Skip an optional `= discriminant`, then the separating comma.
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == ',' => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_vis(&tokens, skip_attrs(&tokens, 0));
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected `struct` or `enum`, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other:?}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde_derive shim: generic type `{name}` is not supported");
        }
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_top_level_elements(
                        &g.stream().into_iter().collect::<Vec<_>>(),
                    ))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("serde_derive shim: unexpected struct body: {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let variants = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => parse_variants(g),
                other => panic!("serde_derive shim: unexpected enum body: {other:?}"),
            };
            Item::Enum { name, variants }
        }
        other => panic!("serde_derive shim: cannot derive for `{other}` items"),
    }
}

// -------------------------------------------------------------- codegen

/// Rejects a shape outside the supported set (see the crate docs).
fn unsupported(derive: &str, what: &str) -> ! {
    panic!("serde_derive shim: cannot derive {derive} for `{what}` (unsupported shape)")
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(names) => {
                    let pairs: Vec<String> = names
                        .iter()
                        .map(|f| {
                            format!("(\"{f}\".to_string(), serde::Serialize::to_value(&self.{f}))")
                        })
                        .collect();
                    format!("serde::Value::Object(vec![{}])", pairs.join(", "))
                }
                Fields::Tuple(1) => "serde::Serialize::to_value(&self.0)".to_string(),
                _ => unsupported("Serialize", name),
            };
            format!(
                "impl serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => format!(
                            "{name}::{vn} => serde::Value::Str(\"{vn}\".to_string()),"
                        ),
                        Fields::Tuple(_) => unsupported("Serialize", &format!("{name}::{vn}")),
                        Fields::Named(fields) => {
                            let binds = fields.join(", ");
                            let pairs: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!("(\"{f}\".to_string(), serde::Serialize::to_value({f}))")
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => serde::Value::Object(vec![(\"{vn}\".to_string(), serde::Value::Object(vec![{}]))]),",
                                pairs.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> serde::Value {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(names) => {
                    let inits: Vec<String> = names
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: serde::Deserialize::from_value(serde::object_field(__obj, \"{f}\")?)?"
                            )
                        })
                        .collect();
                    format!(
                        "let __obj = __v.as_object().ok_or_else(|| serde::DeError::custom(\"expected object for struct {name}\"))?;\n\
                         Ok({name} {{ {} }})",
                        inits.join(", ")
                    )
                }
                Fields::Tuple(1) => {
                    format!("Ok({name}(serde::Deserialize::from_value(__v)?))")
                }
                _ => unsupported("Deserialize", name),
            };
            format!(
                "impl serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &serde::Value) -> Result<Self, serde::DeError> {{\n{body}\n}}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.fields, Fields::Unit))
                .map(|v| format!("\"{0}\" => Ok({name}::{0}),", v.name))
                .collect();
            let tagged_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => None,
                        Fields::Tuple(_) => unsupported("Deserialize", &format!("{name}::{vn}")),
                        Fields::Named(fields) => {
                            let inits: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "{f}: serde::Deserialize::from_value(serde::object_field(__obj, \"{f}\")?)?"
                                    )
                                })
                                .collect();
                            Some(format!(
                                "\"{vn}\" => {{\n\
                                     let __obj = __inner.as_object().ok_or_else(|| serde::DeError::custom(\"expected object for variant {vn}\"))?;\n\
                                     Ok({name}::{vn} {{ {} }})\n\
                                 }}",
                                inits.join(", ")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "impl serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &serde::Value) -> Result<Self, serde::DeError> {{\n\
                         match __v {{\n\
                             serde::Value::Str(__s) => match __s.as_str() {{\n\
                                 {unit}\n\
                                 __other => Err(serde::DeError::custom(format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                             }},\n\
                             serde::Value::Object(__o) if __o.len() == 1 => {{\n\
                                 let (__tag, __inner) = &__o[0];\n\
                                 match __tag.as_str() {{\n\
                                     {tagged}\n\
                                     __other => Err(serde::DeError::custom(format!(\"unknown variant `{{__other}}` of {name}\"))),\n\
                                 }}\n\
                             }}\n\
                             __other => Err(serde::DeError::custom(format!(\"invalid value for enum {name}\"))),\n\
                         }}\n\
                     }}\n\
                 }}",
                unit = unit_arms.join("\n"),
                tagged = tagged_arms.join("\n"),
            )
        }
    }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive shim: generated Serialize impl failed to parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive shim: generated Deserialize impl failed to parse")
}
