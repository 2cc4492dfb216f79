//! Parser property test: the generator below emits seeded source from
//! a subset of Rust — uses, type aliases, external mods, type defs, fns
//! with call bodies (optionally hot-gated), and single-line impl blocks
//! — and records, for each snippet, the item it must parse as. Seeded
//! blank-line jitter between items keeps line numbers exercised, not
//! just token shapes. `parse` must yield exactly the recorded items.

use streamsim_lint::parser::{
    parse, Call, FnItem, ImplBlock, Item, ItemKind, ModDecl, TypeAlias, UseDecl,
};
use streamsim_prng::quickcheck::{check, Gen};
use streamsim_prng::Rng;

const IDENTS: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "probe", "sink", "store", "level",
];
const TYPES: [&str; 4] = ["Widget", "Gauge", "Lookup", "Remap"];

fn ident(g: &mut Gen) -> String {
    g.pick(&IDENTS).to_owned()
}

fn path(g: &mut Gen) -> Vec<String> {
    g.vec(1..=3usize, ident)
}

/// Emits an optional `pub ` and reports whether it did.
fn vis(g: &mut Gen, out: &mut String) -> bool {
    let is_pub = g.gen_bool(0.5);
    if is_pub {
        out.push_str("pub ");
    }
    is_pub
}

/// The 1-based line the next byte appended to `out` lands on.
fn next_line(out: &str) -> u32 {
    out.matches('\n').count() as u32 + 1
}

/// One `recv.method(args);` / `path(args);` statement, optionally
/// `let`-bound, without a trailing newline so impl bodies can inline it.
fn call(g: &mut Gen, out: &mut String) -> Call {
    let line = next_line(out);
    let let_var = g.gen_bool(0.5).then(|| ident(g));
    if let Some(v) = &let_var {
        out.push_str(&format!("let {v} = "));
    }
    let (path, receiver) = if g.gen_bool(0.4) {
        let (recv, method) = (ident(g), ident(g));
        out.push_str(&format!("{recv}.{method}"));
        (vec![method], Some(recv))
    } else {
        let p = path(g);
        out.push_str(&p.join("::"));
        (p, None)
    };
    let arg_idents = g.vec(0..=2usize, ident);
    out.push_str(&format!("({});", arg_idents.join(", ")));
    Call {
        line,
        path,
        method: receiver.is_some(),
        receiver,
        let_var,
        parent: None,
        arg_idents,
    }
}

fn use_item(g: &mut Gen, out: &mut String) -> Item {
    let line = next_line(out);
    let is_pub = vis(g, out);
    let path = path(g);
    out.push_str("use ");
    out.push_str(&path.join("::"));
    let (glob, alias) = match g.gen_range(0..3u32) {
        0 => {
            out.push_str("::*");
            (true, None)
        }
        1 => {
            let alias = g.pick(&TYPES).to_owned();
            out.push_str(&format!(" as {alias}"));
            (false, Some(alias))
        }
        _ => (false, None),
    };
    out.push_str(";\n");
    Item {
        line,
        kind: ItemKind::Use(UseDecl {
            is_pub,
            path,
            alias,
            glob,
        }),
    }
}

fn type_alias_item(g: &mut Gen, out: &mut String) -> Item {
    let line = next_line(out);
    let is_pub = vis(g, out);
    let name = g.pick(&TYPES).to_owned();
    let rhs = g.vec(1..=3usize, path);
    out.push_str(&format!("type {name} = {}", rhs[0].join("::")));
    if rhs.len() > 1 {
        let args: Vec<String> = rhs[1..].iter().map(|p| p.join("::")).collect();
        out.push_str(&format!("<{}>", args.join(", ")));
    }
    out.push_str(";\n");
    Item {
        line,
        kind: ItemKind::TypeAlias(TypeAlias { is_pub, name, rhs }),
    }
}

fn mod_item(g: &mut Gen, out: &mut String) -> Item {
    let line = next_line(out);
    let cfg_test = g.gen_bool(0.3);
    if cfg_test {
        out.push_str("#[cfg(test)] ");
    }
    let is_pub = vis(g, out);
    let name = ident(g);
    out.push_str(&format!("mod {name};\n"));
    Item {
        line,
        kind: ItemKind::Mod(ModDecl {
            is_pub,
            name,
            items: None,
            cfg_test,
        }),
    }
}

fn struct_item(g: &mut Gen, out: &mut String) -> Item {
    let line = next_line(out);
    let name = g.pick(&TYPES).to_owned();
    out.push_str(&format!("struct {name};\n"));
    Item {
        line,
        kind: ItemKind::TypeDef(name),
    }
}

fn fn_item(g: &mut Gen, out: &mut String) -> Item {
    let hot_gate = g.gen_bool(0.25);
    if hot_gate {
        out.push_str("// lint:hot-gate\n");
    }
    let line = next_line(out);
    let is_pub = vis(g, out);
    let name = ident(g);
    out.push_str(&format!("fn {name}() {{\n"));
    let mut calls = Vec::new();
    for _ in 0..g.gen_range(0..4usize) {
        out.push_str("    ");
        calls.push(call(g, out));
        out.push('\n');
    }
    out.push_str("}\n");
    Item {
        line,
        kind: ItemKind::Fn(FnItem {
            line,
            is_pub,
            name,
            hot_gate,
            in_test: false,
            calls,
        }),
    }
}

fn impl_item(g: &mut Gen, out: &mut String) -> Item {
    let line = next_line(out);
    let type_name = g.pick(&TYPES).to_owned();
    out.push_str(&format!("impl {type_name} {{"));
    let mut fns = Vec::new();
    for _ in 0..g.gen_range(1..=2usize) {
        out.push(' ');
        let is_pub = vis(g, out);
        let name = ident(g);
        out.push_str(&format!("fn {name}() {{"));
        let mut calls = Vec::new();
        for _ in 0..g.gen_range(0..2usize) {
            out.push(' ');
            calls.push(call(g, out));
        }
        out.push_str(" }");
        fns.push(FnItem {
            line,
            is_pub,
            name,
            hot_gate: false,
            in_test: false,
            calls,
        });
    }
    out.push_str(" }\n");
    Item {
        line,
        kind: ItemKind::Impl(ImplBlock { type_name, fns }),
    }
}

/// A seeded source file and the items it must parse as.
fn generated_source(g: &mut Gen) -> (String, Vec<Item>) {
    // The leading comment checks that comments shift no line numbers.
    let mut out = String::from("// seeded case from the property harness\n");
    let mut items = Vec::new();
    for _ in 0..g.gen_range(1..=6usize) {
        for _ in 0..g.gen_range(0..=2usize) {
            out.push('\n');
        }
        items.push(match g.gen_range(0..6u32) {
            0 => use_item(g, &mut out),
            1 => type_alias_item(g, &mut out),
            2 => mod_item(g, &mut out),
            3 => struct_item(g, &mut out),
            4 => impl_item(g, &mut out),
            _ => fn_item(g, &mut out),
        });
    }
    (out, items)
}

#[test]
fn parse_yields_exactly_the_generated_items() {
    check("parser items", |g| {
        let (src, expected) = generated_source(g);
        assert_eq!(parse(&src).items, expected, "source:\n{src}");
    });
}
