//! Source-level invariant linter for the Basilisk workspace.
//!
//! Clippy and rustc enforce language-level discipline; this crate
//! enforces *repo*-level discipline that neither can see — rules born
//! from the concurrency work in PR 6–8 and checkable with nothing more
//! than a token scan (the build environment is offline, so the linter is
//! a hand-rolled scanner with zero dependencies rather than a syn-based
//! tool):
//!
//! * **`safety-comment`** — every line containing the `unsafe` keyword
//!   (a block, fn, or impl) must have a `// SAFETY:` comment (or a
//!   `# Safety` doc section) on the same line or within the
//!   [`SAFETY_WINDOW`] preceding lines.
//! * **`forbid-unsafe`** — every crate root on the allowlist (all
//!   first-party crates except `basilisk-types` and `basilisk-sched`,
//!   the only two with audited unsafe) must declare
//!   `#![forbid(unsafe_code)]`, so new unsafe can only appear where the
//!   audit already looks.
//! * **`sync-facade`** — `crates/sched` and `crates/serve` must not
//!   import `std::sync` lock/atomic types directly; they go through
//!   `basilisk_types::sync` so `--cfg basilisk_check` builds route every
//!   sync operation through the schedule-exploring runtime. (`Arc`,
//!   `Barrier` and other non-schedulable types stay allowed.)
//! * **`no-sleep`** — no `thread::sleep` outside tests, benches and
//!   examples: production code waits on condvars with real predicates,
//!   and sleeps in the serving path are exactly the latency bugs the
//!   bench gates exist to catch.
//! * **`encoded-internals`** — the raw buffer accessors of the encoded
//!   column layer (`raw_codes`, `raw_dict`, `raw_packed`) may only be
//!   named inside `crates/storage`: the encoding is invisible above the
//!   storage API, and any other crate reaching for the physical buffers
//!   would freeze the layout and break that transparency.
//! * **`variant-twins`** — no `pub fn` whose name ends in `_par`,
//!   `_traced` or `_with` under `crates/core/src`, `crates/exec/src` or
//!   `crates/plan/src`: operators, plan drivers and the execution
//!   context take one `ExecCtx` or `Option<&Tracer>` (serial is
//!   `pool: None`, untraced is `tracer: None`), and a suffixed public
//!   twin is how the `{tagged,traditional} × {·,_with,_traced}` matrix
//!   grew.
//!
//! The scanner strips comments, strings, char literals and raw strings
//! while preserving line structure, so the rules only ever see real
//! code tokens (and, separately, the comment text they need for rule
//! one). Fixtures for every rule live in `tests/fixtures/` and are
//! pinned by `tests/fixtures.rs`; the binary (`cargo run -p
//! basilisk-lint`) walks the workspace and exits non-zero on any
//! finding.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Rule id: unsafe without a SAFETY comment.
pub const RULE_SAFETY: &str = "safety-comment";
/// Rule id: allowlisted crate root missing `#![forbid(unsafe_code)]`.
pub const RULE_FORBID: &str = "forbid-unsafe";
/// Rule id: direct `std::sync` lock/atomic import in a façade-only crate.
pub const RULE_FACADE: &str = "sync-facade";
/// Rule id: `thread::sleep` outside tests/benches/examples.
pub const RULE_SLEEP: &str = "no-sleep";
/// Rule id: encoded-column raw buffer accessor named outside storage.
pub const RULE_ENCODED: &str = "encoded-internals";
/// Rule id: `_par`/`_traced`/`_with` public twin of an operator or driver.
pub const RULE_TWINS: &str = "variant-twins";

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit.
/// Ten covers a multi-line SAFETY block plus an attribute or two between
/// the comment and the unsafe itself.
pub const SAFETY_WINDOW: usize = 10;

/// One lint violation, formatted `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: PathBuf,
    /// 1-based.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which rules apply to one source file (derived from its path by
/// [`classify`], or set directly by the fixture tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct Rules {
    pub safety: bool,
    pub forbid: bool,
    pub facade: bool,
    pub sleep: bool,
    pub encoded: bool,
    pub twins: bool,
}

// ---------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------

/// A source file split into parallel per-line streams: `code` holds only
/// real code tokens (comments, string/char contents blanked), `comments`
/// holds only comment text (line, block and doc comments).
pub struct Scanned {
    pub code: Vec<String>,
    pub comments: Vec<String>,
}

/// If `src[i..]` starts a raw (byte) string — `r"`, `r#"`, `br##"`, … —
/// return `(chars consumed through the opening quote, hash count)`.
fn raw_string_start(b: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b.get(j) == Some(&'b') {
        j += 1;
    }
    if b.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&'"') {
        Some((j + 1 - i, hashes))
    } else {
        None
    }
}

/// Tokenize `src`, blanking everything that is not code. Handles line
/// and (nested) block comments, plain and raw (byte) strings with
/// escapes, char literals (distinguished from lifetimes by lookahead)
/// and keeps the line count of the input exactly.
pub fn scan(src: &str) -> Scanned {
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(usize),
    }
    let b: Vec<char> = src.chars().collect();
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut cl = String::new();
    let mut cm = String::new();
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            if matches!(st, St::Line) {
                st = St::Code;
            }
            code.push(std::mem::take(&mut cl));
            comments.push(std::mem::take(&mut cm));
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let prev_is_ident = i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_');
                if c == '/' && b.get(i + 1) == Some(&'/') {
                    st = St::Line;
                    i += 2;
                    // Skip doc-comment sigils so `comments` holds text.
                    while b.get(i) == Some(&'/') || b.get(i) == Some(&'!') {
                        i += 1;
                    }
                } else if c == '/' && b.get(i + 1) == Some(&'*') {
                    st = St::Block(1);
                    i += 2;
                } else if !prev_is_ident
                    && (c == 'r' || c == 'b')
                    && raw_string_start(&b, i).is_some()
                {
                    let (skip, hashes) = raw_string_start(&b, i).expect("checked above");
                    cl.push('"');
                    st = St::RawStr(hashes);
                    i += skip;
                } else if c == '"' || (c == 'b' && !prev_is_ident && b.get(i + 1) == Some(&'"')) {
                    if c == 'b' {
                        i += 1;
                    }
                    cl.push('"');
                    st = St::Str;
                    i += 1;
                } else if c == '\'' || (c == 'b' && !prev_is_ident && b.get(i + 1) == Some(&'\'')) {
                    let q = if c == 'b' { i + 1 } else { i };
                    // Char literal vs lifetime: a backslash after the
                    // quote, or any single char followed by a closing
                    // quote, is a literal; otherwise it is a lifetime.
                    if b.get(q + 1) == Some(&'\\') {
                        let mut j = q + 2 + 1; // skip the escaped char
                        while j < b.len() && b[j] != '\'' {
                            j += if b[j] == '\\' { 2 } else { 1 };
                        }
                        cl.push_str("' '");
                        i = (j + 1).min(b.len());
                    } else if b.get(q + 2) == Some(&'\'') {
                        cl.push_str("' '");
                        i = q + 3;
                    } else {
                        cl.push('\'');
                        i += 1;
                    }
                } else {
                    cl.push(c);
                    i += 1;
                }
            }
            St::Line => {
                cm.push(c);
                i += 1;
            }
            St::Block(depth) => {
                if c == '/' && b.get(i + 1) == Some(&'*') {
                    st = St::Block(depth + 1);
                    i += 2;
                } else if c == '*' && b.get(i + 1) == Some(&'/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::Block(depth - 1)
                    };
                    i += 2;
                } else {
                    cm.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' && b.get(i + 1).is_some_and(|&n| n != '\n') {
                    cl.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    cl.push('"');
                    st = St::Code;
                    i += 1;
                } else {
                    cl.push(' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && (1..=hashes).all(|k| b.get(i + k) == Some(&'#')) {
                    cl.push('"');
                    st = St::Code;
                    i += 1 + hashes;
                } else {
                    cl.push(' ');
                    i += 1;
                }
            }
        }
    }
    code.push(cl);
    comments.push(cm);
    Scanned { code, comments }
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `hay` contain `word` bounded by non-identifier chars?
pub fn has_word(hay: &str, word: &str) -> bool {
    find_word(hay, word).is_some()
}

fn find_word(hay: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !hay[..at].chars().next_back().is_some_and(is_word_char);
        let after_ok = !hay[at + word.len()..]
            .chars()
            .next()
            .is_some_and(is_word_char);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

fn push(out: &mut Vec<Finding>, file: &Path, line: usize, rule: &'static str, msg: String) {
    out.push(Finding {
        file: file.to_path_buf(),
        line,
        rule,
        message: msg,
    });
}

/// Rule `safety-comment`: every code line containing the `unsafe`
/// keyword needs a `SAFETY:` (or doc `# Safety`) comment nearby.
fn check_safety(file: &Path, sc: &Scanned, out: &mut Vec<Finding>) {
    for (ln, line) in sc.code.iter().enumerate() {
        if !has_word(line, "unsafe") {
            continue;
        }
        let lo = ln.saturating_sub(SAFETY_WINDOW);
        let documented = sc.comments[lo..=ln]
            .iter()
            .any(|c| c.contains("SAFETY:") || c.contains("# Safety"));
        if !documented {
            push(
                out,
                file,
                ln + 1,
                RULE_SAFETY,
                format!(
                    "`unsafe` without a `// SAFETY:` comment on the same line or the {SAFETY_WINDOW} lines above"
                ),
            );
        }
    }
}

/// Rule `forbid-unsafe`: the crate root must declare
/// `#![forbid(unsafe_code)]`.
fn check_forbid(file: &Path, sc: &Scanned, out: &mut Vec<Finding>) {
    let compact: String = sc
        .code
        .iter()
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    if !compact.contains("#![forbid(unsafe_code)]") {
        push(
            out,
            file,
            1,
            RULE_FORBID,
            "crate root of an unsafe-free crate must declare #![forbid(unsafe_code)]".into(),
        );
    }
}

/// `std::sync` names the façade wraps — importing these directly would
/// let code dodge the `basilisk_check` instrumentation.
const FACADE_BANNED: &[&str] = &[
    "Mutex",
    "MutexGuard",
    "Condvar",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "atomic",
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
];

/// Rule `sync-facade`: no direct `std::sync::{Mutex, Condvar, RwLock,
/// atomic…}` mention in façade-only crates (`use` or inline path). The
/// capture window runs from the `std::sync::` occurrence to the next
/// `;`, spanning lines so multi-line `use` groups are covered.
fn check_facade(file: &Path, sc: &Scanned, out: &mut Vec<Finding>) {
    for (ln, line) in sc.code.iter().enumerate() {
        let mut from = 0;
        while let Some(pos) = line[from..].find("std::sync::") {
            let at = from + pos;
            let mut window = line[at..].to_string();
            let mut look = ln + 1;
            while !window.contains(';') && look < sc.code.len() && look <= ln + 12 {
                window.push(' ');
                window.push_str(&sc.code[look]);
                look += 1;
            }
            let window = window.split(';').next().unwrap_or(&window);
            if let Some(banned) = FACADE_BANNED.iter().find(|b| has_word(window, b)) {
                push(
                    out,
                    file,
                    ln + 1,
                    RULE_FACADE,
                    format!(
                        "direct `std::sync::…{banned}` — import it from `basilisk_types::sync` \
                         so `--cfg basilisk_check` builds are instrumented"
                    ),
                );
            }
            from = at + "std::sync::".len();
        }
    }
}

/// Line ranges (0-based, inclusive) covered by `#[cfg(test)] mod … { }`.
fn cfg_test_ranges(sc: &Scanned) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for (ln, line) in sc.code.iter().enumerate() {
        if !line
            .split_whitespace()
            .collect::<String>()
            .contains("#[cfg(test)]")
        {
            continue;
        }
        // Find the `mod` this attribute decorates (same or next lines).
        let Some(mod_ln) = (ln..sc.code.len().min(ln + 4)).find(|&l| has_word(&sc.code[l], "mod"))
        else {
            continue;
        };
        // Brace-match from the first `{` at or after the mod line.
        let mut depth = 0usize;
        let mut opened = false;
        'outer: for (l, line) in sc.code.iter().enumerate().skip(mod_ln) {
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            ranges.push((ln, l));
                            break 'outer;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    ranges
}

/// Rule `no-sleep`: `thread::sleep` only inside `#[cfg(test)]` modules
/// (file-level exemptions — tests/, benches/, examples/ — are handled by
/// [`classify`]).
fn check_sleep(file: &Path, sc: &Scanned, out: &mut Vec<Finding>) {
    let exempt = cfg_test_ranges(sc);
    for (ln, line) in sc.code.iter().enumerate() {
        if line.contains("thread::sleep") && !exempt.iter().any(|&(a, b)| a <= ln && ln <= b) {
            push(
                out,
                file,
                ln + 1,
                RULE_SLEEP,
                "`thread::sleep` outside tests/benches — wait on a condvar predicate instead"
                    .into(),
            );
        }
    }
}

/// The accessors that expose an [`EncodedColumn`]'s physical buffers;
/// naming any of them outside `crates/storage` couples the caller to
/// the encoding and breaks storage-API transparency.
const ENCODED_BANNED: &[&str] = &["raw_codes", "raw_dict", "raw_packed"];

/// Rule `encoded-internals`: no encoded-column raw buffer accessor
/// outside `crates/storage` (file-level scoping is handled by
/// [`classify`]).
fn check_encoded(file: &Path, sc: &Scanned, out: &mut Vec<Finding>) {
    for (ln, line) in sc.code.iter().enumerate() {
        if let Some(banned) = ENCODED_BANNED.iter().find(|b| has_word(line, b)) {
            push(
                out,
                file,
                ln + 1,
                RULE_ENCODED,
                format!(
                    "`{banned}` reaches into an encoded column's physical buffers — \
                     only crates/storage may see the encoding; go through the \
                     `EncodedColumn` API"
                ),
            );
        }
    }
}

/// Name suffixes that mark a public function as a variant twin.
const TWIN_SUFFIXES: &[&str] = &["_par", "_traced", "_with"];

/// Rule `variant-twins`: no `pub fn *_par` / `*_traced` / `*_with`
/// (file-level scoping is handled by [`classify`]).
fn check_twins(file: &Path, sc: &Scanned, out: &mut Vec<Finding>) {
    for (ln, line) in sc.code.iter().enumerate() {
        let Some(at) = find_word(line, "fn") else {
            continue;
        };
        if !has_word(&line[..at], "pub") {
            continue;
        }
        let name: String = line[at + 2..]
            .trim_start()
            .chars()
            .take_while(|&c| is_word_char(c))
            .collect();
        if let Some(suffix) = TWIN_SUFFIXES.iter().find(|s| name.ends_with(**s)) {
            push(
                out,
                file,
                ln + 1,
                RULE_TWINS,
                format!(
                    "`pub fn {name}` is a `{suffix}` twin — take the `ExecCtx` \
                     (pool / tracer are its optional fields) in the one function instead"
                ),
            );
        }
    }
}

/// Run the enabled rules over one source file.
pub fn lint_source(file: &Path, src: &str, rules: &Rules) -> Vec<Finding> {
    let sc = scan(src);
    let mut out = Vec::new();
    if rules.safety {
        check_safety(file, &sc, &mut out);
    }
    if rules.forbid {
        check_forbid(file, &sc, &mut out);
    }
    if rules.facade {
        check_facade(file, &sc, &mut out);
    }
    if rules.sleep {
        check_sleep(file, &sc, &mut out);
    }
    if rules.encoded {
        check_encoded(file, &sc, &mut out);
    }
    if rules.twins {
        check_twins(file, &sc, &mut out);
    }
    out
}

// ---------------------------------------------------------------------
// Workspace walk + per-file rule selection
// ---------------------------------------------------------------------

/// Crates allowed to contain (audited, SAFETY-commented) unsafe; every
/// other first-party crate root must `#![forbid(unsafe_code)]`.
const UNSAFE_ALLOWED_CRATES: &[&str] = &["types", "sched"];

/// Derive the rule set for `rel` (path relative to the workspace root).
pub fn classify(rel: &Path) -> Rules {
    let parts: Vec<&str> = rel
        .components()
        .map(|c| c.as_os_str().to_str().unwrap_or(""))
        .collect();
    let in_crates = parts.first() == Some(&"crates");
    let crate_name = if in_crates {
        parts.get(1).copied()
    } else {
        None
    };
    let under = |dir: &str| parts.contains(&dir);

    // Crate roots: root src/lib.rs, crates/X/src/{lib,main}.rs,
    // crates/X/src/bin/*.rs (each bin is its own crate root).
    let tail: Vec<&str> = if in_crates {
        parts[2..].to_vec()
    } else {
        parts.clone()
    };
    let is_root = matches!(tail.as_slice(), ["src", "lib.rs"] | ["src", "main.rs"])
        || matches!(tail.as_slice(), ["src", "bin", f] if f.ends_with(".rs"));
    let forbid = is_root && !crate_name.is_some_and(|c| UNSAFE_ALLOWED_CRATES.contains(&c));

    let facade =
        matches!(crate_name, Some("sched") | Some("serve")) && parts.get(2) == Some(&"src");

    let sleep = !under("tests") && !under("benches") && !under("examples");

    // Everything outside crates/storage (other crates' tests and
    // benches included) must stay encoding-agnostic.
    let encoded = crate_name != Some("storage");

    // The operator crates and the plan crate: one function per
    // operator or execution entry, variants are `ExecCtx` fields.
    let twins = matches!(crate_name, Some("core") | Some("exec") | Some("plan"))
        && parts.get(2) == Some(&"src");

    Rules {
        safety: true,
        forbid,
        facade,
        sleep,
        encoded,
        twins,
    }
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_str().unwrap_or("");
        if path.is_dir() {
            // Third-party / generated trees, and the lint fixtures
            // (deliberately rule-breaking samples).
            if name == "target" || name == ".git" || (dir == root && name == "vendor") {
                continue;
            }
            if path.ends_with("crates/lint/tests/fixtures") {
                continue;
            }
            collect_rs(root, &path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lint every first-party `.rs` file under `root`; findings are sorted
/// by path and line.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files);
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let Ok(src) = fs::read_to_string(&file) else {
            continue;
        };
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let rules = classify(&rel);
        out.extend(lint_source(&rel, &src, &rules));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_blanks_strings_and_comments() {
        let sc = scan("let x = \"unsafe // not code\"; // unsafe in comment\nunsafe {}\n");
        assert!(!has_word(&sc.code[0], "unsafe"));
        assert!(sc.comments[0].contains("unsafe in comment"));
        assert!(has_word(&sc.code[1], "unsafe"));
    }

    #[test]
    fn scanner_handles_char_literals_and_lifetimes() {
        let sc = scan("let q = '\"'; let s = \"x\"; fn f<'a>(v: &'a str) {}\n");
        // The quote inside the char literal must not open a string.
        assert!(sc.code[0].contains("fn f<'a>"));
        let sc = scan("let c = '\\n'; unsafe {}\n");
        assert!(has_word(&sc.code[0], "unsafe"));
    }

    #[test]
    fn scanner_handles_raw_strings() {
        let sc = scan("let r = r#\"unsafe \" quote\"#; let after = 1;\n");
        assert!(!has_word(&sc.code[0], "unsafe"));
        assert!(sc.code[0].contains("after"));
    }

    #[test]
    fn scanner_handles_nested_block_comments() {
        let sc = scan("/* outer /* inner */ still comment */ let x = 1;\n");
        assert!(sc.code[0].contains("let x = 1;"));
        assert!(!sc.code[0].contains("still"));
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("unsafe {", "unsafe"));
        assert!(!has_word("forbid(unsafe_code)", "unsafe"));
        assert!(!has_word("not_unsafe", "unsafe"));
    }

    #[test]
    fn classify_selects_rules_by_path() {
        let r = classify(Path::new("crates/serve/src/admission.rs"));
        assert!(r.facade && r.sleep && r.safety && !r.forbid);
        let r = classify(Path::new("crates/serve/src/lib.rs"));
        assert!(r.facade && r.forbid);
        let r = classify(Path::new("crates/types/src/lib.rs"));
        assert!(!r.forbid && !r.facade);
        let r = classify(Path::new("crates/bench/src/bin/bench_json.rs"));
        assert!(r.forbid && r.encoded);
        let r = classify(Path::new("crates/storage/src/encode.rs"));
        assert!(!r.encoded, "storage may touch its own buffers");
        let r = classify(Path::new("crates/storage/tests/encode_prop.rs"));
        assert!(!r.encoded);
        let r = classify(Path::new("crates/exec/src/relation.rs"));
        assert!(r.encoded && r.twins);
        assert!(classify(Path::new("crates/plan/src/executor.rs")).twins);
        assert!(classify(Path::new("crates/plan/src/session.rs")).twins);
        assert!(!classify(Path::new("crates/plan/tests/count_differential.rs")).twins);
        assert!(!classify(Path::new("crates/core/tests/parallel_ops.rs")).twins);
        let r = classify(Path::new("tests/serve_concurrent.rs"));
        assert!(!r.sleep);
        let r = classify(Path::new("src/lib.rs"));
        assert!(r.forbid);
    }
}
