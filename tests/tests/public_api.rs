//! The checked public-API listing of the shipped crates.
//!
//! Scans every `crates/*/src/**/*.rs` file except the `bench` crate, lists
//! each `pub` item outside `#[cfg(test)]` code with its enclosing `mod` /
//! `impl` / `trait` context, and compares the listing against the committed
//! `tests/public_api.txt`. Growing or shrinking the public surface is thus
//! a visible diff of that file. On a mismatch the test prints the changed
//! lines and writes the full current listing to
//! `target/tmp/public_api.txt`; review it and copy it over the committed
//! file.
//!
//! The scan is lexical, not a compiler pass: it blanks comments and string
//! literals, then follows braces. It is exact for rustfmt-formatted code,
//! which CI enforces. Items are recorded with their header as written
//! (whitespace collapsed), so a signature change shows up too.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Replaces comments and the contents of string and char literals with
/// spaces, keeping newlines, so braces and semicolons in the result are
/// all structural.
fn blank_comments_and_literals(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        let prev_is_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
        } else if c == 'r' && !prev_is_ident && matches!(next, Some('"' | '#')) {
            // Raw string: r"…" or r#…#"…"#…#.
            let mut j = i + 1;
            while chars.get(j) == Some(&'#') {
                j += 1;
            }
            if chars.get(j) != Some(&'"') {
                out.push(c);
                i += 1;
                continue;
            }
            let hashes = j - i - 1;
            out.push_str("\"\"");
            i = j + 1;
            while i < chars.len() {
                if chars[i] == '"' && (1..=hashes).all(|h| chars.get(i + h) == Some(&'#')) {
                    i += 1 + hashes;
                    break;
                }
                out.push(blank(chars[i]));
                i += 1;
            }
        } else if c == '"' {
            out.push_str("\"\"");
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' {
                    out.push(' ');
                    i += 1;
                }
                if i < chars.len() {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
            i += 1;
        } else if c == '\'' && (next == Some('\\') || chars.get(i + 2) == Some(&'\'')) {
            // A char literal ('x', '\n', '\u{..}'); a lifetime has no
            // closing quote right after one character.
            out.push_str("' '");
            i += 2;
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            i += 1;
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// A block the scanner is inside: the brace depth inside it, and the
/// context label it contributes (`mod x`, `impl …`, `pub struct …`); the
/// bodies of functions and anonymous blocks have none.
struct Frame {
    depth: usize,
    label: Option<String>,
    is_fn: bool,
}

/// Collapses whitespace and tidies the spacing multi-line headers leave
/// around brackets.
fn normalize(header: &str) -> String {
    let mut s = header.split_whitespace().collect::<Vec<_>>().join(" ");
    for (from, to) in [
        ("( ", "("),
        (" )", ")"),
        (",)", ")"),
        (" ,", ","),
        (" ]", "]"),
        ("{ ", "{"),
        (" }", "}"),
        (",}", "}"),
        ("< ", "<"),
        (" >", ">"),
    ] {
        s = s.replace(from, to);
    }
    s
}

/// Whether `header` declares a struct field (`pub name: Type`, with any
/// visibility).
fn is_field(header: &str) -> bool {
    let after_visibility = match header.strip_prefix("pub(") {
        Some(rest) => rest.split_once(')').map_or(rest, |(_, r)| r),
        None => header.strip_prefix("pub").unwrap_or(header),
    };
    let rest = after_visibility
        .trim_start()
        .trim_start_matches(|c: char| c.is_alphanumeric() || c == '_');
    rest.starts_with(':') && !rest.starts_with("::")
}

/// Finds where an item header ends: the first `{` or `;` outside
/// parentheses and brackets (for `use`, only `;`; for a field, the first
/// `,` or `}` outside any nesting). Returns the byte offset.
fn header_end(header: &str) -> Option<usize> {
    let is_use = header.starts_with("pub use ") || header.starts_with("use ");
    let field = is_field(header);
    let mut nesting = 0i32;
    let mut angle = 0i32;
    let mut prev = ' ';
    for (i, c) in header.char_indices() {
        match c {
            '(' | '[' => nesting += 1,
            ')' | ']' => nesting -= 1,
            '<' => angle += 1,
            '>' if prev != '-' && prev != '=' => angle -= 1,
            ';' if nesting == 0 => return Some(i),
            '{' if nesting == 0 && !is_use && !field => return Some(i),
            ',' | '}' if field && nesting == 0 && angle == 0 => return Some(i),
            _ => {}
        }
        prev = c;
    }
    None
}

/// Whether a trimmed line starts an item header the scanner follows.
fn starts_item(line: &str) -> bool {
    [
        "pub ",
        "pub(",
        "impl ",
        "impl<",
        "unsafe impl",
        "mod ",
        "trait ",
    ]
    .iter()
    .any(|p| line.starts_with(p))
}

/// Lists the public items of one source file as `path: context > item`.
fn public_items(display_path: &str, source: &str) -> Vec<String> {
    let text = blank_comments_and_literals(source);
    let mut items = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut depth = 0usize;
    // `Some((depth, opened))` while skipping a `#[cfg(test)]` item.
    let mut skipping: Option<(usize, bool)> = None;
    let mut header = String::new();

    for line in text.lines() {
        let trimmed = line.trim();
        if let Some((start, mut opened)) = skipping {
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    ';' if !opened && depth == start => break,
                    _ => continue,
                }
                if opened && depth == start {
                    break;
                }
            }
            let done = depth == start && (opened || line.contains(';'));
            skipping = (!done).then_some((start, opened));
            continue;
        }
        if header.is_empty() && trimmed.starts_with("#[cfg(test)]") {
            skipping = Some((depth, false));
            continue;
        }
        let in_fn = frames.last().is_some_and(|f| f.is_fn);
        let rest: &str = if !header.is_empty() || (!in_fn && starts_item(trimmed)) {
            if !header.is_empty() {
                header.push(' ');
            }
            header.push_str(trimmed);
            match header_end(&header) {
                None => continue,
                Some(end) => {
                    let text = normalize(&header[..end]);
                    let terminator = header.as_bytes()[end];
                    if text.starts_with("pub ") {
                        let context: Vec<&str> =
                            frames.iter().filter_map(|f| f.label.as_deref()).collect();
                        items.push(if context.is_empty() {
                            format!("{display_path}: {text}")
                        } else {
                            format!("{display_path}: {} > {text}", context.join(" > "))
                        });
                    }
                    if terminator == b'{' {
                        depth += 1;
                        let is_fn = text.starts_with("fn ") || text.contains(" fn ");
                        frames.push(Frame {
                            depth,
                            label: (!is_fn).then(|| text.clone()),
                            is_fn,
                        });
                    }
                    let rest = header[end + 1..].to_string();
                    header.clear();
                    // Braces after the header on the same line (one-line
                    // bodies) still count.
                    count_braces(&rest, &mut depth, &mut frames);
                    continue;
                }
            }
        } else {
            line
        };
        count_braces(rest, &mut depth, &mut frames);
    }
    items
}

/// Applies the braces of `text` to the depth, closing frames as their
/// blocks end.
fn count_braces(text: &str, depth: &mut usize, frames: &mut Vec<Frame>) {
    for c in text.chars() {
        match c {
            '{' => {
                *depth += 1;
                frames.push(Frame {
                    depth: *depth,
                    label: None,
                    is_fn: frames.last().is_some_and(|f| f.is_fn),
                });
            }
            '}' => {
                if frames.last().is_some_and(|f| f.depth == *depth) {
                    frames.pop();
                }
                *depth -= 1;
            }
            _ => {}
        }
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The current listing, one item per line, in path order.
fn current_listing(root: &Path) -> String {
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.join("src").is_dir() && !path.ends_with("bench"))
        .collect();
    crates.sort();
    let mut listing = String::new();
    for krate in crates {
        let mut files = Vec::new();
        rust_files(&krate.join("src"), &mut files);
        for file in files {
            let source = fs::read_to_string(&file).expect("readable source");
            let display = file
                .strip_prefix(root.join("crates"))
                .expect("file under crates/")
                .to_string_lossy()
                .replace('\\', "/");
            for item in public_items(&display, &source) {
                listing.push_str(&item);
                listing.push('\n');
            }
        }
    }
    listing
}

#[test]
fn public_api_matches_the_committed_listing() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root");
    let committed_path = root.join("tests/public_api.txt");
    let committed = fs::read_to_string(&committed_path).unwrap_or_default();
    let current = current_listing(root);
    if committed == current {
        return;
    }
    let actual_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("public_api.txt");
    fs::write(&actual_path, &current).expect("writable target directory");
    let old: BTreeSet<&str> = committed.lines().collect();
    let new: BTreeSet<&str> = current.lines().collect();
    let mut diff = String::new();
    for line in old.difference(&new) {
        diff.push_str(&format!("- {line}\n"));
    }
    for line in new.difference(&old) {
        diff.push_str(&format!("+ {line}\n"));
    }
    panic!(
        "the public API changed; review the diff and copy {} over {}:\n{diff}",
        actual_path.display(),
        committed_path.display()
    );
}

#[test]
fn scanner_sees_through_comments_strings_and_test_code() {
    let source = r#"
//! pub fn in_a_doc_comment() {}
pub struct Shown {
    pub field: Vec<(u8, u8)>,
    hidden: u8,
}

impl Shown {
    /// pub fn in_a_comment() {
    pub fn method(&self, a: u8) -> &str {
        let _ = '{';
        "pub fn in_a_string() {"
    }

    pub(crate) fn crate_only(&self) {}
}

pub mod nested {
    pub const LIMIT: usize = 3;
}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}

pub use self::nested::{
    LIMIT,
};
"#;
    assert_eq!(
        public_items("x.rs", source),
        vec![
            "x.rs: pub struct Shown",
            "x.rs: pub struct Shown > pub field: Vec<(u8, u8)>",
            "x.rs: impl Shown > pub fn method(&self, a: u8) -> &str",
            "x.rs: pub mod nested",
            "x.rs: pub mod nested > pub const LIMIT: usize = 3",
            "x.rs: pub use self::nested::{LIMIT}",
        ]
    );
}
