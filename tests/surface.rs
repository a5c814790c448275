//! The public surface is what something outside a crate links.
//!
//! Three ratchets over the workspace source, read from disk:
//!
//! * `pub fn` per crate must equal its line in `tests/surface_ceilings.txt`.
//!   A count above the ceiling means a PR widened a crate's API; one
//!   below means the ceiling was not lowered with the removal. Either
//!   way the fix is to edit the file and give the reason in CHANGES.md.
//!   The count is the number of lines under `crates/<crate>/src` whose
//!   trimmed text starts with `pub fn `, up to each file's first
//!   `#[cfg(test)]` line.
//! * The `pub` fields of each options struct (`EngineConfig`,
//!   `PropagateConfig`, `DurableOptions`, `ServerConfig`, `ExecCtx`) must
//!   equal their `fields <Struct> <count>` line in the same file, by the
//!   same rule: every settable option doubles the configurations a test
//!   has to cover, so a new knob is a deliberate ceiling edit.
//! * Every name the separate `benchmark/` package links below the
//!   `Engine` facade is still declared `pub` where the benchmark finds
//!   it. The root build does not compile `benchmark/`, so without this a
//!   demotion or rename there would only surface in the benchmark's own
//!   build.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const CEILINGS: &str = "tests/surface_ceilings.txt";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The lines of `path` before its first `#[cfg(test)]` line.
fn non_test_lines(path: &Path) -> Vec<String> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .map(str::to_owned)
        .collect()
}

/// `pub fn` count per crate directory under `crates/`.
fn pub_fn_counts() -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    let crates = root().join("crates");
    for entry in fs::read_dir(&crates).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rs_files(&src, &mut files);
        let n = files
            .iter()
            .flat_map(|f| non_test_lines(f))
            .filter(|l| l.trim_start().starts_with("pub fn "))
            .count();
        let name = dir.file_name().expect("crate dir name").to_string_lossy().into_owned();
        counts.insert(name, n);
    }
    counts
}

/// The options structs whose `pub` fields are ratcheted, with the file
/// (under `crates/`) that declares each.
const OPTION_STRUCTS: &[(&str, &str)] = &[
    ("core/src/engine.rs", "EngineConfig"),
    ("propagate/src/propagator.rs", "PropagateConfig"),
    ("repository/src/store.rs", "DurableOptions"),
    ("server/src/server.rs", "ServerConfig"),
    ("guard/src/ctx.rs", "ExecCtx"),
];

/// The ceiling file's two kinds of line: `<crate> <count>` (`pub fn`
/// per crate) and `fields <Struct> <count>` (`pub` fields per options
/// struct).
struct Ceilings {
    pub_fns: BTreeMap<String, usize>,
    fields: BTreeMap<String, usize>,
}

fn ceilings() -> Ceilings {
    let text = fs::read_to_string(root().join(CEILINGS)).expect("read the ceiling file");
    let mut out = Ceilings { pub_fns: BTreeMap::new(), fields: BTreeMap::new() };
    for l in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let words: Vec<&str> = l.split_whitespace().collect();
        let (map, name, n) = match words[..] {
            [name, n] => (&mut out.pub_fns, name, n),
            ["fields", name, n] => (&mut out.fields, name, n),
            _ => panic!("{CEILINGS}: expected `<crate> <count>` or `fields <Struct> <count>`, got {l:?}"),
        };
        let n = n.parse().unwrap_or_else(|e| panic!("{CEILINGS}: {l:?}: {e}"));
        map.insert(name.to_owned(), n);
    }
    out
}

/// Every way `counts` and `ceilings` disagree, one line each.
fn mismatches(
    what: &str,
    counts: &BTreeMap<String, usize>,
    ceilings: &BTreeMap<String, usize>,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, &n) in counts {
        match ceilings.get(name) {
            None => problems.push(format!("{name}: {n} {what}, no ceiling line")),
            Some(&c) if n > c => {
                problems.push(format!("{name}: {n} {what}, above its ceiling of {c}"))
            }
            Some(&c) if n < c => problems.push(format!(
                "{name}: {n} {what}, below its ceiling of {c}: lower the ceiling to lock the gain in"
            )),
            Some(_) => {}
        }
    }
    for name in ceilings.keys().filter(|k| !counts.contains_key(*k)) {
        problems.push(format!("{name}: ceiling line for something that does not exist"));
    }
    problems
}

fn assert_no_mismatches(problems: Vec<String>) {
    assert!(
        problems.is_empty(),
        "the public surface moved:\n  {}\nEdit {CEILINGS} to the new counts and give the reason \
         in CHANGES.md.",
        problems.join("\n  ")
    );
}

#[test]
fn pub_fn_counts_match_their_ceilings() {
    assert_no_mismatches(mismatches("pub fn", &pub_fn_counts(), &ceilings().pub_fns));
}

/// `pub` fields of each options struct: the lines of its `pub struct`
/// block that start with `pub ` (a unit or `{}` struct has none).
fn pub_field_counts() -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for (file, ty) in OPTION_STRUCTS {
        let lines = non_test_lines(&root().join("crates").join(file));
        let open = format!("pub struct {ty}");
        let decl = lines
            .iter()
            .position(|l| declares(l, &open))
            .unwrap_or_else(|| panic!("crates/{file}: no `{open}`"));
        let n = if lines[decl].trim_end().ends_with(';') || lines[decl].trim_end().ends_with("{}") {
            0
        } else {
            blocks(&lines[decl..], |l| declares(l, &open))[0]
                .iter()
                .skip(1)
                .filter(|l| l.trim_start().starts_with("pub "))
                .count()
        };
        counts.insert((*ty).to_owned(), n);
    }
    counts
}

#[test]
fn pub_field_counts_match_their_ceilings() {
    assert_no_mismatches(mismatches("pub fields", &pub_field_counts(), &ceilings().fields));
}

/// Where a name the benchmark links is declared.
enum Decl {
    /// A free item (`fn`, `const`, `struct`, `mod`): the declaring line
    /// prefix, e.g. `pub fn eval` or `pub mod codec`.
    Item(&'static str),
    /// A method: `pub fn <name>` inside an inherent `impl <type>` block.
    Method(&'static str, &'static str),
    /// A field: `pub <name>:` inside `pub struct <type>`.
    Field(&'static str, &'static str),
}

/// The names `benchmark/src` links below the `Engine` facade, with the
/// file (under `crates/`) that declares each.
const BENCHMARK_LINKS: &[(&str, Decl)] = {
    use Decl::*;
    &[
        ("chase/src/chase.rs", Item("pub fn chase_st_prepared_governed")),
        ("chase/src/plan.rs", Method("ChaseProgram", "compile_costed")),
        ("eval/src/cq.rs", Item("pub fn find_homomorphisms")),
        ("eval/src/cq.rs", Item("pub fn find_homomorphisms_governed")),
        ("eval/src/engine.rs", Item("pub fn eval")),
        ("expr/src/optimize.rs", Item("pub fn optimize")),
        ("eval/src/view.rs", Item("pub fn unfold_query")),
        ("eval/src/view.rs", Item("pub fn materialize_views")),
        ("runtime/src/ivm.rs", Item("pub fn view_insert_delta_governed")),
        ("runtime/src/ivm.rs", Method("Delta", "new")),
        ("runtime/src/ivm.rs", Method("Delta", "insert")),
        ("runtime/src/mediator.rs", Method("Mediator", "new")),
        ("runtime/src/mediator.rs", Method("Mediator", "plan")),
        ("runtime/src/mediator.rs", Method("Mediator", "collapse")),
        ("runtime/src/mediator.rs", Method("Mediator", "answer_with_plan")),
        ("guard/src/governor.rs", Method("Governor", "new")),
        ("guard/src/governor.rs", Method("Governor", "steps_consumed")),
        ("guard/src/budget.rs", Method("ExecBudget", "unbounded")),
        ("repository/src/store.rs", Method("Repository", "open_durable")),
        ("instance/src/database.rs", Method("Database", "empty_of")),
        ("instance/src/relation.rs", Method("Relation", "with_tuples")),
        ("instance/src/lib.rs", Item("pub mod intern")),
        ("instance/src/intern.rs", Item("pub fn alloc_counts")),
        ("repository/src/lib.rs", Item("pub mod codec")),
        ("repository/src/codec.rs", Method("Reader", "new")),
        ("repository/src/codec.rs", Method("Writer", "new")),
        ("repository/src/codec.rs", Method("Writer", "finish")),
        ("repository/src/codec.rs", Item("pub fn crc32")),
        ("server/src/lib.rs", Item("pub mod protocol")),
        ("server/src/protocol.rs", Item("pub fn read_frame")),
        ("server/src/protocol.rs", Item("pub fn write_frame")),
        ("server/src/protocol.rs", Item("pub fn parse_head")),
        ("server/src/protocol.rs", Field("RawFrame", "payload")),
        ("server/src/protocol.rs", Field("RawFrame", "crc")),
        ("server/src/protocol.rs", Method("RawFrame", "crc_ok")),
        ("server/src/protocol.rs", Item("pub fn decode_request")),
        ("server/src/protocol.rs", Item("pub fn decode_response")),
        ("server/src/protocol.rs", Item("pub fn encode_request")),
        ("server/src/protocol.rs", Item("pub fn encode_ok")),
        ("server/src/protocol.rs", Item("pub fn encode_database")),
        ("server/src/protocol.rs", Item("pub fn decode_database")),
        ("server/src/protocol.rs", Item("pub fn engine_error_code")),
        ("server/src/protocol.rs", Item("pub const HEADER_LEN")),
        ("server/src/protocol.rs", Item("pub const PRELUDE_LEN")),
        ("server/src/protocol.rs", Item("pub const DEFAULT_MAX_FRAME_LEN")),
        ("workload/src/scale.rs", Item("pub fn scale_scenarios")),
        ("workload/src/schemas.rs", Item("pub fn er_hierarchy")),
        ("workload/src/data.rs", Item("pub fn populate_er")),
        ("workload/src/lib.rs", Item("pub mod tgds")),
        ("workload/src/tgds.rs", Item("pub fn binary_schema")),
        ("workload/src/tgds.rs", Item("pub fn copy_tgds")),
    ]
};

/// The names the benchmark reaches through `mm_engine::prelude::*`.
const PRELUDE_LINKS: &[&str] = &[
    "chase_st_prepared_governed",
    "ChaseProgram",
    "find_homomorphisms",
    "find_homomorphisms_governed",
    "eval",
    "optimize",
    "unfold_query",
    "materialize_views",
    "view_insert_delta_governed",
    "Delta",
    "Mediator",
    "Governor",
    "ExecBudget",
    "Repository",
    "Database",
    "Relation",
];

/// Does `line` declare `prefix` exactly (the next char ends the name)?
fn declares(line: &str, prefix: &str) -> bool {
    line.trim_start()
        .strip_prefix(prefix)
        .is_some_and(|rest| !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
}

/// The lines of every top-level block of `lines` that `opens` starts,
/// up to its closing `}` in column 0.
fn blocks(lines: &[String], opens: impl Fn(&str) -> bool) -> Vec<&[String]> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if opens(&lines[i]) {
            let end = (i..lines.len()).find(|&j| lines[j] == "}").unwrap_or(lines.len() - 1);
            out.push(&lines[i..=end]);
            i = end;
        }
        i += 1;
    }
    out
}

/// `impl Type {` or `impl<...> Type<...> {`, not a trait impl.
fn opens_impl_of(line: &str, ty: &str) -> bool {
    let Some(rest) = line.strip_prefix("impl") else { return false };
    if line.contains(" for ") {
        return false;
    }
    let rest = if rest.starts_with('<') {
        match rest.find("> ") {
            Some(i) => &rest[i + 1..],
            None => return false,
        }
    } else {
        rest
    };
    let head = rest.trim_start();
    head.strip_prefix(ty)
        .is_some_and(|after| after.starts_with(' ') || after.starts_with('<'))
}

#[test]
fn names_the_benchmark_links_stay_public() {
    let mut missing = Vec::new();
    for (file, decl) in BENCHMARK_LINKS {
        let lines = non_test_lines(&root().join("crates").join(file));
        let found = match decl {
            Decl::Item(prefix) => lines.iter().any(|l| declares(l, prefix)),
            Decl::Method(ty, name) => {
                let want = format!("pub fn {name}");
                blocks(&lines, |l| opens_impl_of(l, ty))
                    .iter()
                    .any(|b| b.iter().any(|l| declares(l, &want)))
            }
            Decl::Field(ty, name) => {
                let open = format!("pub struct {ty}");
                let want = format!("pub {name}:");
                blocks(&lines, |l| declares(l, &open))
                    .iter()
                    .any(|b| b.iter().any(|l| l.trim_start().starts_with(&want)))
            }
        };
        if !found {
            let what = match decl {
                Decl::Item(prefix) => prefix.to_string(),
                Decl::Method(ty, name) => format!("{ty}::{name}"),
                Decl::Field(ty, name) => format!("{ty}.{name}"),
            };
            missing.push(format!("crates/{file}: {what}"));
        }
    }
    let lib = fs::read_to_string(root().join("crates/core/src/lib.rs")).expect("read mm-engine");
    let prelude = lib.split_once("pub mod prelude").map(|(_, p)| p).unwrap_or("");
    for name in PRELUDE_LINKS {
        let word = |t: &str| t == *name;
        if !prelude.split(|c: char| !(c.is_alphanumeric() || c == '_')).any(word) {
            missing.push(format!("mm_engine::prelude: {name}"));
        }
    }
    assert!(
        missing.is_empty(),
        "names the benchmark/ package links are no longer public where it finds them:\n  {}\n\
         Keep them (the benchmark is frozen), or rebuild it with \
         `cargo build --release --manifest-path benchmark/Cargo.toml --all-targets`.",
        missing.join("\n  ")
    );
}
