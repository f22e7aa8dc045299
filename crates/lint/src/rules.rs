//! The D1–D11 rule catalog and the engine that applies it to one file.
//!
//! D1–D8 and D10 are purely token-based (see [`crate::lexer`]); scope
//! is decided from the [`FileContext`] the workspace walker supplies.
//! D9 (`transitive-panic`) is computed in [`crate::callgraph`] and
//! injected into [`resolve_file`] as extra findings; D11
//! (`stale-allow`) is decided here, after waiver matching.
//! Suppressions are inline comments of the form
//! `// ert-lint: allow(<rule>) — <justification>` and cover the line
//! they sit on plus the following line; the justification is mandatory.

use std::collections::BTreeSet;

use crate::lexer::{lex, Lexed, LineComment, Token, TokenKind};
use crate::parse::test_item_spans;

/// Rule D1: wall-clock reads outside binaries.
pub const WALL_CLOCK: &str = "wall-clock";
/// Rule D2: ambient (non-seeded) randomness anywhere.
pub const AMBIENT_RNG: &str = "ambient-rng";
/// Rule D3: hash-ordered containers in determinism-critical crates.
pub const HASH_CONTAINER: &str = "hash-container";
/// Rule D4: `unwrap`/`expect`/`panic!` in library hot paths.
pub const PANIC_PATH: &str = "panic-path";
/// Rule D5: direct `f64` equality in load/capacity comparisons.
pub const FLOAT_EQ: &str = "float-eq";
/// Rule D6: silently discarded `Result`s in fault-handling code.
pub const SWALLOWED_RESULT: &str = "swallowed-result";
/// Rule D7: raw `std::thread` spawning outside the `ert-par` pool.
pub const RAW_THREAD: &str = "raw-thread";
/// Rule D8: unbounded sample accumulation (`Samples`/`Vec<f64>`) in
/// streaming-capable hot loops.
pub const UNBOUNDED_COLLECTOR: &str = "unbounded-collector";
/// Rule D9: a panic reachable from a hot-path root through the call
/// graph. Detection lives in [`crate::callgraph`]; this module owns the
/// name and the waiver plumbing.
pub const TRANSITIVE_PANIC: &str = "transitive-panic";
/// Rule D10: shared mutable state (`static mut`, locks, atomics,
/// interior mutability) in the crates the shared-nothing sharded core
/// will split. The sharded refactor is only safe if these crates hold
/// no cross-shard state today.
pub const SHARED_STATE: &str = "shared-state";
/// Rule D11: an `ert-lint: allow` that waives nothing. A stale waiver
/// is a hole in the ledger — the next real violation on that line would
/// be silently absorbed.
pub const STALE_ALLOW: &str = "stale-allow";
/// Meta-rule: a malformed `ert-lint:` suppression comment.
pub const SUPPRESSION: &str = "suppression";

/// All suppressible rule names, with their catalog codes.
pub const CATALOG: &[(&str, &str)] = &[
    ("D1", WALL_CLOCK),
    ("D2", AMBIENT_RNG),
    ("D3", HASH_CONTAINER),
    ("D4", PANIC_PATH),
    ("D5", FLOAT_EQ),
    ("D6", SWALLOWED_RESULT),
    ("D7", RAW_THREAD),
    ("D8", UNBOUNDED_COLLECTOR),
    ("D9", TRANSITIVE_PANIC),
    ("D10", SHARED_STATE),
];

/// Crates where hash-ordered iteration breaks run reproducibility
/// (rule D3): anything on the seed → trace path.
const D3_CRATES: &[&str] = &["ert-sim", "ert-network", "ert-core", "ert-overlay"];

/// Hot-path modules where a panic would tear down the whole simulated
/// network mid-run (rule D4). These same files are the roots of the D9
/// reachability walk.
pub(crate) const D4_FILES: &[&str] = &[
    "crates/core/src/forward.rs",
    "crates/core/src/adapt.rs",
    "crates/sim/src/engine.rs",
    "crates/network/src/lookup.rs",
    // The wire codec parses untrusted bytes: a panic here is a remote
    // crash vector, so it gets the same panic-path walk as the sim
    // hot paths.
    "crates/node/src/codec.rs",
];

/// Fault-handling code where a silently discarded outcome hides a
/// recovery bug (rule D6): the fault-injection surface and the network
/// modules that interpret fault schedules.
const D6_FILES: &[&str] = &[
    "crates/network/src/network.rs",
    "crates/network/src/topology.rs",
];

/// D6 also covers the whole fault-injection crate.
const D6_CRATES: &[&str] = &["ert-faults"];

/// Hot-loop modules where per-event sample accumulation grows without
/// bound over a run (rule D8): the sim engine and the network event
/// handlers. A `--stream-stats` run must hold O(1) memory per metric,
/// so these files collect through a [`Digest`](../../obs/src/digest.rs)
/// (`Collector`/`StreamSummary`); uses that are bounded by construction
/// carry a justified suppression naming the bound.
const D8_FILES: &[&str] = &["crates/sim/src/engine.rs", "crates/network/src/network.rs"];

/// Crates the shared-nothing sharded core (`ert_sim::shard`; its fate
/// is the event-core half of ROADMAP item 2) splits into per-shard
/// instances (rule D10). Any shared mutable state here breaks the
/// shard reactors' isolation, so it must be absent or carry a
/// justification that names its single-threaded invariant.
const D10_CRATES: &[&str] = &["ert-sim", "ert-network", "ert-core"];

/// Type names whose appearance in a D10 crate means cross-thread or
/// interior-mutable shared state.
const D10_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "OnceLock",
    "OnceCell",
    "LazyLock",
    "Condvar",
    "Barrier",
    "RefCell",
    "Cell",
    "UnsafeCell",
];

/// Where a source file sits in the workspace; decides rule scope.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Cargo package name the file belongs to (e.g. `ert-core`).
    pub crate_name: String,
    /// True for `src/bin/*`, `src/main.rs`, benches, and examples —
    /// leaf targets where wall-clock time is legitimate.
    pub is_binary: bool,
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (one of the `pub const` rule names in this module).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of what fired.
    pub message: String,
}

/// A violation that an inline `ert-lint: allow` comment waived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// The waived violation.
    pub violation: Violation,
    /// The justification text from the suppression comment.
    pub justification: String,
}

/// Outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Violations that stand (fail the build).
    pub violations: Vec<Violation>,
    /// Violations waived by a justified suppression.
    pub suppressed: Vec<Suppressed>,
}

/// An `ert-lint: allow` comment, parsed.
struct Allow {
    line: u32,
    rules: Vec<String>,
    justification: String,
}

/// A file lexed and rule-checked, with suppression matching still
/// pending. The workspace pass parks every file in this state, computes
/// the cross-file D9 findings from the pooled token streams, and only
/// then lets [`resolve_file`] decide what stands, what is waived, and
/// which waivers are stale.
pub struct FileAnalysis {
    /// The file's location/scope context.
    pub ctx: FileContext,
    /// The token stream — reused by the item parser and the call-graph
    /// builder so every file is lexed exactly once per run.
    pub lexed: Lexed,
    raw: Vec<Violation>,
    malformed: Vec<Violation>,
    allows: Vec<Allow>,
}

/// Rules a single-file pass cannot evaluate: their waivers are only
/// checked for staleness (D11) when the workspace pass supplies the
/// cross-file findings.
const WORKSPACE_RULES: &[&str] = &[TRANSITIVE_PANIC];

/// Lexes `src` and runs every file-local rule, deferring waiver
/// resolution to [`resolve_file`].
pub fn analyze_file(src: &str, ctx: &FileContext) -> FileAnalysis {
    let lexed = lex(src);
    let (allows, malformed) = parse_allows(&lexed.comments, ctx);
    let raw = run_rules(&lexed.tokens, ctx);
    FileAnalysis {
        ctx: ctx.clone(),
        lexed,
        raw,
        malformed,
        allows,
    }
}

/// Matches violations (file-local plus the `extra` cross-file ones)
/// against the file's suppressions and flags stale waivers (D11).
///
/// `workspace_pass` says whether `extra` reflects a full workspace
/// analysis: only then can an `allow(transitive-panic)` that waived
/// nothing be called stale.
pub fn resolve_file(
    analysis: FileAnalysis,
    extra: &[Violation],
    workspace_pass: bool,
) -> FileOutcome {
    let FileAnalysis {
        ctx,
        raw,
        malformed,
        allows,
        ..
    } = analysis;
    let mut out = FileOutcome {
        violations: malformed,
        ..FileOutcome::default()
    };
    // Which rule names each allow actually waived, for D11.
    let mut waived: Vec<BTreeSet<&'static str>> = vec![BTreeSet::new(); allows.len()];
    let mut all = raw;
    all.extend(extra.iter().cloned());
    for v in all {
        // A suppression covers its own line and the next one, so it can
        // trail the offending expression or sit on the line above it.
        let waiver = allows.iter().position(|a| {
            (a.line == v.line || a.line + 1 == v.line) && a.rules.iter().any(|r| r == v.rule)
        });
        match waiver {
            Some(ai) => {
                waived[ai].insert(v.rule);
                out.suppressed.push(Suppressed {
                    violation: v,
                    justification: allows[ai].justification.clone(),
                });
            }
            None => out.violations.push(v),
        }
    }
    // D11: every rule an allow names must have earned its keep.
    for (ai, a) in allows.iter().enumerate() {
        for r in &a.rules {
            if !workspace_pass && WORKSPACE_RULES.contains(&r.as_str()) {
                continue;
            }
            if !waived[ai].contains(r.as_str()) {
                out.violations.push(Violation {
                    rule: STALE_ALLOW,
                    file: ctx.rel_path.clone(),
                    line: a.line,
                    message: format!(
                        "`allow({r})` waives nothing; the violation it masked is gone — \
                         delete the suppression (a stale waiver would silently absorb the \
                         next real `{r}` finding on this line)"
                    ),
                });
            }
        }
    }
    out
}

/// Lints `src` as the file described by `ctx`, single-file mode.
pub fn check_file(src: &str, ctx: &FileContext) -> FileOutcome {
    resolve_file(analyze_file(src, ctx), &[], false)
}

fn run_rules(tokens: &[Token], ctx: &FileContext) -> Vec<Violation> {
    let mut vs = Vec::new();
    let test_spans = test_item_spans(tokens);
    let in_test = |idx: usize| test_spans.iter().any(|&(a, b)| idx >= a && idx <= b);

    let d1 = !ctx.is_binary;
    let d3 = D3_CRATES.contains(&ctx.crate_name.as_str());
    let d4 = D4_FILES.contains(&ctx.rel_path.as_str());
    let d6 =
        D6_FILES.contains(&ctx.rel_path.as_str()) || D6_CRATES.contains(&ctx.crate_name.as_str());
    // All fan-out goes through the ert-par pool so results keep their
    // canonical order; only the pool itself and leaf binaries may
    // spawn. Deliberately no test exemption: a test that spawns raw
    // threads can still scramble shared-sink ordering.
    let d7 = ctx.crate_name != "ert-par" && !ctx.is_binary;
    let d8 = D8_FILES.contains(&ctx.rel_path.as_str());
    let d10 = D10_CRATES.contains(&ctx.crate_name.as_str());

    let ident = |i: usize| match tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize| match tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct(p)) => Some(*p),
        _ => None,
    };
    let mut push = |rule, line, message: String| {
        vs.push(Violation {
            rule,
            file: ctx.rel_path.clone(),
            line,
            message,
        })
    };

    for i in 0..tokens.len() {
        let line = tokens[i].line;
        match ident(i) {
            Some("Instant") if d1 && punct(i + 1) == Some("::") && ident(i + 2) == Some("now") => {
                push(
                    WALL_CLOCK,
                    line,
                    "wall-clock read `Instant::now()`; sims must be pure functions of the seed \
                     (use the event clock)"
                        .into(),
                );
            }
            Some("SystemTime") if d1 => {
                push(
                    WALL_CLOCK,
                    line,
                    "wall-clock type `SystemTime`; sims must be pure functions of the seed".into(),
                );
            }
            Some(r @ ("thread_rng" | "from_entropy" | "OsRng")) => {
                push(
                    AMBIENT_RNG,
                    line,
                    format!("ambient randomness `{r}`; derive all RNG state from the run seed"),
                );
            }
            Some(h @ ("HashMap" | "HashSet")) if d3 => {
                push(
                    HASH_CONTAINER,
                    line,
                    format!(
                        "`{h}` in determinism-critical crate `{}`; iteration order is \
                         randomized — use BTreeMap/BTreeSet",
                        ctx.crate_name
                    ),
                );
            }
            Some(m @ ("unwrap" | "expect"))
                if d4
                    && !in_test(i)
                    && matches!(punct(i.wrapping_sub(1)), Some(".") | Some("::"))
                    && punct(i + 1) == Some("(") =>
            {
                push(
                    PANIC_PATH,
                    line,
                    format!(
                        "`.{m}()` in hot path; propagate with `?`/`Result` or add a justified \
                         `ert-lint: allow(panic-path)`"
                    ),
                );
            }
            Some(m @ ("panic" | "unreachable" | "todo" | "unimplemented"))
                if d4 && !in_test(i) && punct(i + 1) == Some("!") =>
            {
                push(
                    PANIC_PATH,
                    line,
                    format!("`{m}!` in hot path; return an error value instead"),
                );
            }
            // `let _ = ...` (with or without a type ascription the
            // lexer would split after `_`) discards an outcome.
            Some("let")
                if d6
                    && !in_test(i)
                    && ident(i + 1) == Some("_")
                    && matches!(punct(i + 2), Some("=") | Some(":")) =>
            {
                push(
                    SWALLOWED_RESULT,
                    line,
                    "`let _ =` discards a result in fault-handling code; handle the \
                     outcome or bind it to a named `_reason` with a comment"
                        .into(),
                );
            }
            Some(m @ ("spawn" | "scope"))
                if d7
                    && punct(i.wrapping_sub(1)) == Some("::")
                    && ident(i.wrapping_sub(2)) == Some("thread") =>
            {
                push(
                    RAW_THREAD,
                    line,
                    format!(
                        "raw `thread::{m}` outside `ert-par`; fan out through the \
                         deterministic pool (`ert_par::run_labeled`) so results keep \
                         canonical order"
                    ),
                );
            }
            Some("Samples") if d8 && !in_test(i) => {
                push(
                    UNBOUNDED_COLLECTOR,
                    line,
                    "`Samples` accumulates every observation in a hot loop; collect \
                     through a `Digest` (`Collector`/`StreamSummary`) or justify the \
                     bound with `ert-lint: allow(unbounded-collector)`"
                        .into(),
                );
            }
            Some("Vec")
                if d8
                    && !in_test(i)
                    && punct(i + 1) == Some("<")
                    && ident(i + 2) == Some("f64")
                    && punct(i + 3) == Some(">") =>
            {
                push(
                    UNBOUNDED_COLLECTOR,
                    line,
                    "`Vec<f64>` push-accumulation in a hot loop grows with run length; \
                     use an O(1) `Digest` sketch or justify the bound"
                        .into(),
                );
            }
            Some("ok")
                if d6
                    && !in_test(i)
                    && punct(i.wrapping_sub(1)) == Some(".")
                    && punct(i + 1) == Some("(")
                    && punct(i + 2) == Some(")")
                    && punct(i + 3) == Some(";") =>
            {
                push(
                    SWALLOWED_RESULT,
                    line,
                    "`.ok();` swallows a Result in fault-handling code; propagate the \
                     error or record why it is safe to drop"
                        .into(),
                );
            }
            Some(t) if d10 && !in_test(i) && D10_TYPES.contains(&t) => {
                push(
                    SHARED_STATE,
                    line,
                    format!(
                        "`{t}` is shared/interior-mutable state in `{}`; the shared-nothing \
                         sharded core requires these crates to hold none — restructure, or \
                         justify with `ert-lint: allow(shared-state)` naming the \
                         single-threaded invariant",
                        ctx.crate_name
                    ),
                );
            }
            Some(t)
                if d10 && !in_test(i) && t.starts_with("Atomic") && t.len() > "Atomic".len() =>
            {
                push(
                    SHARED_STATE,
                    line,
                    format!(
                        "atomic `{t}` in `{}`; cross-thread state is a blocker for the \
                         shared-nothing sharded core",
                        ctx.crate_name
                    ),
                );
            }
            Some("static") if d10 && !in_test(i) && ident(i + 1) == Some("mut") => {
                push(
                    SHARED_STATE,
                    line,
                    "`static mut` is process-global mutable state; thread it through \
                     explicit parameters instead"
                        .into(),
                );
            }
            Some("thread_local") if d10 && !in_test(i) && punct(i + 1) == Some("!") => {
                push(
                    SHARED_STATE,
                    line,
                    "`thread_local!` hides per-thread state from the shard boundary; \
                     pass state explicitly"
                        .into(),
                );
            }
            _ => {}
        }

        if matches!(punct(i), Some("==") | Some("!=")) {
            let float_operand = [i.wrapping_sub(1), i + 1]
                .iter()
                .any(|&j| matches!(tokens.get(j).map(|t| &t.kind), Some(TokenKind::Float)));
            let loady = |j: usize| {
                ident(j).is_some_and(|s| {
                    let s = s.to_ascii_lowercase();
                    s.contains("load") || s.contains("capacity") || s.contains("congestion")
                })
            };
            if float_operand || (loady(i.wrapping_sub(1)) && loady(i + 1)) {
                push(
                    FLOAT_EQ,
                    tokens[i].line,
                    "direct float equality; compare with an epsilon, `total_cmp`, or integer \
                     units"
                        .into(),
                );
            }
        }
    }
    vs
}

/// Parses `ert-lint: allow(...)` comments; malformed ones (unknown
/// rule, missing justification) come back as violations in their own
/// right so a suppression can never silently rot.
fn parse_allows(comments: &[LineComment], ctx: &FileContext) -> (Vec<Allow>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    let known: Vec<&str> = CATALOG.iter().map(|&(_, name)| name).collect();
    for c in comments {
        if c.doc {
            continue; // Rustdoc may *describe* the syntax; only plain
                      // `//` comments carry live suppressions.
        }
        let Some(pos) = c.text.find("ert-lint:") else {
            continue;
        };
        let mut fail = |msg: String| {
            bad.push(Violation {
                rule: SUPPRESSION,
                file: ctx.rel_path.clone(),
                line: c.line,
                message: msg,
            })
        };
        let rest = c.text[pos + "ert-lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            fail("malformed suppression: expected `ert-lint: allow(<rule>) — <why>`".into());
            continue;
        };
        let Some(close) = args.find(')') else {
            fail("malformed suppression: unclosed `allow(`".into());
            continue;
        };
        let rules: Vec<String> = args[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            fail("suppression names no rule".into());
            continue;
        }
        if let Some(unknown) = rules.iter().find(|r| !known.contains(&r.as_str())) {
            fail(format!(
                "suppression names unknown rule `{unknown}` (known: {})",
                known.join(", ")
            ));
            continue;
        }
        let justification = args[close + 1..]
            .trim_start_matches(|ch: char| {
                ch.is_whitespace() || matches!(ch, '-' | '—' | '–' | ':')
            })
            .trim()
            .to_string();
        if justification.is_empty() {
            fail("suppression has no justification; say why the rule is safe to waive here".into());
            continue;
        }
        allows.push(Allow {
            line: c.line,
            rules,
            justification,
        });
    }
    (allows, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rel: &str, krate: &str) -> FileContext {
        FileContext {
            rel_path: rel.into(),
            crate_name: krate.into(),
            is_binary: false,
        }
    }

    fn rules_fired(src: &str, c: &FileContext) -> Vec<&'static str> {
        check_file(src, c)
            .violations
            .iter()
            .map(|v| v.rule)
            .collect()
    }

    // ---- D1 wall-clock: fires / doesn't fire / suppressed ----

    #[test]
    fn d1_fires_in_library_code() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(
            rules_fired(src, &ctx("crates/x/src/lib.rs", "ert-x")),
            vec![WALL_CLOCK]
        );
        let src2 = "use std::time::SystemTime;";
        assert_eq!(
            rules_fired(src2, &ctx("crates/x/src/lib.rs", "ert-x")),
            vec![WALL_CLOCK]
        );
    }

    #[test]
    fn d1_exempts_only_binaries() {
        let src = "fn f() { let t = Instant::now(); }";
        // No library crate is exempt by name, not even a timing harness.
        assert_eq!(
            rules_fired(src, &ctx("crates/timing/src/lib.rs", "ert-timing")),
            vec![WALL_CLOCK]
        );
        let mut bin = ctx("crates/x/src/bin/tool.rs", "ert-x");
        bin.is_binary = true;
        assert!(rules_fired(src, &bin).is_empty());
        // `Instant` without `::now` (e.g. a type in a signature that a
        // binary passes in) is not flagged either.
        assert!(
            rules_fired("fn g(t: Instant) {}", &ctx("crates/x/src/lib.rs", "ert-x")).is_empty()
        );
    }

    #[test]
    fn d1_suppressed_with_justification() {
        let src = "// ert-lint: allow(wall-clock) — progress logging only, not sim state\n\
                   fn f() { let t = Instant::now(); }";
        let out = check_file(src, &ctx("crates/x/src/lib.rs", "ert-x"));
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressed.len(), 1);
        assert!(out.suppressed[0].justification.contains("progress logging"));
    }

    // ---- D2 ambient-rng ----

    #[test]
    fn d2_fires_everywhere() {
        let src = "fn f() { let mut r = thread_rng(); }";
        assert_eq!(
            rules_fired(src, &ctx("crates/timing/src/lib.rs", "ert-timing")),
            vec![AMBIENT_RNG]
        );
        let src2 = "let r = SmallRng::from_entropy();";
        assert_eq!(
            rules_fired(src2, &ctx("crates/x/src/lib.rs", "ert-x")),
            vec![AMBIENT_RNG]
        );
    }

    #[test]
    fn d2_ignores_seeded_rng_and_strings() {
        let src = "let r = ChaCha8Rng::seed_from_u64(42); let s = \"thread_rng\";";
        assert!(rules_fired(src, &ctx("crates/x/src/lib.rs", "ert-x")).is_empty());
    }

    #[test]
    fn d2_suppressed() {
        let src = "let r = thread_rng(); // ert-lint: allow(ambient-rng) - test shim\n";
        let out = check_file(src, &ctx("crates/x/src/lib.rs", "ert-x"));
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressed.len(), 1);
    }

    // ---- D3 hash-container ----

    #[test]
    fn d3_fires_in_scoped_crates_only() {
        let src = "use std::collections::HashMap;";
        for k in ["ert-sim", "ert-network", "ert-core", "ert-overlay"] {
            assert_eq!(
                rules_fired(src, &ctx("crates/k/src/lib.rs", k)),
                vec![HASH_CONTAINER]
            );
        }
        assert!(rules_fired(
            src,
            &ctx("crates/experiments/src/lib.rs", "ert-experiments")
        )
        .is_empty());
    }

    #[test]
    fn d3_suppressed_on_previous_line() {
        let src = "// ert-lint: allow(hash-container) — drained through a sorted Vec below\n\
                   use std::collections::HashSet;";
        let out = check_file(src, &ctx("crates/core/src/x.rs", "ert-core"));
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressed.len(), 1);
    }

    // ---- D4 panic-path ----

    #[test]
    fn d4_fires_only_in_hot_path_files() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(
            rules_fired(src, &ctx("crates/core/src/forward.rs", "ert-core")),
            vec![PANIC_PATH]
        );
        assert!(rules_fired(src, &ctx("crates/core/src/table.rs", "ert-core")).is_empty());
        let src2 = "fn g() { panic!(\"boom\"); }";
        assert_eq!(
            rules_fired(src2, &ctx("crates/sim/src/engine.rs", "ert-sim")),
            vec![PANIC_PATH]
        );
    }

    #[test]
    fn d4_ignores_tests_and_expect_named_fields() {
        let src = "fn f() -> u32 { 1 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { Some(1).unwrap(); Option::<u32>::None.expect(\"x\"); }\n\
                   }\n";
        assert!(rules_fired(src, &ctx("crates/core/src/forward.rs", "ert-core")).is_empty());
        // A struct field named `expect` is not a call.
        let src2 = "struct S { expect: u32 } fn f(s: S) -> u32 { s.expect }";
        assert!(rules_fired(src2, &ctx("crates/core/src/forward.rs", "ert-core")).is_empty());
    }

    #[test]
    fn d4_suppressed_with_invariant_note() {
        let src = "fn f(v: &[u32]) -> u32 {\n\
                   // ert-lint: allow(panic-path) — v is non-empty: callers check is_empty first\n\
                   *v.first().unwrap()\n\
                   }";
        let out = check_file(src, &ctx("crates/core/src/adapt.rs", "ert-core"));
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressed.len(), 1);
    }

    // ---- D5 float-eq ----

    #[test]
    fn d5_fires_on_float_literal_equality() {
        assert_eq!(
            rules_fired("if x == 0.5 {}", &ctx("crates/x/src/lib.rs", "ert-x")),
            vec![FLOAT_EQ]
        );
        assert_eq!(
            rules_fired(
                "if load != capacity {}",
                &ctx("crates/x/src/lib.rs", "ert-x")
            ),
            vec![FLOAT_EQ]
        );
    }

    #[test]
    fn d5_ignores_integer_equality() {
        assert!(rules_fired(
            "if self.capacity == 0 {}",
            &ctx("crates/x/src/lib.rs", "ert-x")
        )
        .is_empty());
        assert!(rules_fired("if n == 17 {}", &ctx("crates/x/src/lib.rs", "ert-x")).is_empty());
    }

    #[test]
    fn d5_suppressed() {
        let src = "if g == 1.0 { return 1.0; } // ert-lint: allow(float-eq) — exact sentinel\n";
        let out = check_file(src, &ctx("crates/x/src/lib.rs", "ert-x"));
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressed.len(), 1);
    }

    // ---- D6 swallowed-result ----

    #[test]
    fn d6_fires_in_fault_handling_scope_only() {
        let src = "fn f() { let _ = send(); }";
        assert_eq!(
            rules_fired(src, &ctx("crates/network/src/network.rs", "ert-network")),
            vec![SWALLOWED_RESULT]
        );
        assert_eq!(
            rules_fired(src, &ctx("crates/faults/src/plan.rs", "ert-faults")),
            vec![SWALLOWED_RESULT]
        );
        // Out of scope: same pattern elsewhere is fine.
        assert!(rules_fired(src, &ctx("crates/core/src/table.rs", "ert-core")).is_empty());
    }

    #[test]
    fn d6_fires_on_trailing_ok() {
        let src = "fn f() { send().ok(); }";
        assert_eq!(
            rules_fired(src, &ctx("crates/network/src/topology.rs", "ert-network")),
            vec![SWALLOWED_RESULT]
        );
        // `.ok()` feeding into something is a conversion, not a swallow.
        let src2 = "fn f() -> Option<u32> { send().ok() }";
        assert!(
            rules_fired(src2, &ctx("crates/network/src/topology.rs", "ert-network")).is_empty()
        );
    }

    #[test]
    fn d6_ignores_named_bindings_and_tests() {
        // A named placeholder keeps the discard visible and greppable.
        let src = "fn f() { let _ignored = send(); }";
        assert!(rules_fired(src, &ctx("crates/faults/src/plan.rs", "ert-faults")).is_empty());
        let src2 = "#[cfg(test)]\nmod tests {\n#[test]\nfn t() { let _ = send(); send().ok(); }\n}";
        assert!(rules_fired(src2, &ctx("crates/network/src/network.rs", "ert-network")).is_empty());
    }

    #[test]
    fn d6_suppressed_with_justification() {
        let src = "// ert-lint: allow(swallowed-result) — best-effort telemetry flush, failure is benign\n\
                   fn f() { flush().ok(); }";
        let out = check_file(src, &ctx("crates/faults/src/chaos.rs", "ert-faults"));
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressed.len(), 1);
    }

    // ---- D7 raw-thread ----

    #[test]
    fn d7_fires_on_spawn_and_scope_in_library_code() {
        let c = ctx("crates/network/src/network.rs", "ert-network");
        assert!(rules_fired("fn f() { std::thread::spawn(|| {}); }", &c).contains(&RAW_THREAD));
        assert!(rules_fired("fn f() { thread::scope(|s| {}); }", &c).contains(&RAW_THREAD));
    }

    #[test]
    fn d7_exempts_only_the_pool_and_binaries() {
        let src = "fn f() { std::thread::scope(|s| {}); }";
        assert!(rules_fired(src, &ctx("crates/par/src/lib.rs", "ert-par")).is_empty());
        assert_eq!(
            rules_fired(src, &ctx("crates/timing/src/lib.rs", "ert-timing")),
            vec![RAW_THREAD]
        );
        let mut bin = ctx("crates/experiments/src/bin/fig4.rs", "ert-experiments");
        bin.is_binary = true;
        assert!(rules_fired(src, &bin).is_empty());
    }

    #[test]
    fn d7_has_no_test_exemption_and_ignores_other_scopes() {
        // Unlike D4/D6, a `#[cfg(test)]` block does not waive D7.
        let src = "#[cfg(test)]\nmod tests {\n#[test]\nfn t() { std::thread::spawn(|| {}); }\n}";
        assert_eq!(
            rules_fired(src, &ctx("crates/sim/src/engine.rs", "ert-sim")),
            vec![RAW_THREAD]
        );
        // `scope`/`spawn` not qualified by `thread::` are other APIs.
        let src2 = "fn f(s: &Scope) { s.spawn(|| {}); tracing::scope(); }";
        assert!(rules_fired(src2, &ctx("crates/sim/src/engine.rs", "ert-sim")).is_empty());
    }

    #[test]
    fn d7_suppressed_with_justification() {
        let src = "// ert-lint: allow(raw-thread) — watchdog thread, no sim results cross it\n\
                   fn f() { std::thread::spawn(|| {}); }";
        let out = check_file(src, &ctx("crates/faults/src/chaos.rs", "ert-faults"));
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressed.len(), 1);
    }

    // ---- D8 unbounded-collector ----

    #[test]
    fn d8_fires_in_hot_loop_files_only() {
        let src = "fn f() { let mut s = Samples::new(); }";
        assert_eq!(
            rules_fired(src, &ctx("crates/sim/src/engine.rs", "ert-sim")),
            vec![UNBOUNDED_COLLECTOR]
        );
        let src2 = "struct S { lat: Vec<f64> }";
        assert_eq!(
            rules_fired(src2, &ctx("crates/network/src/network.rs", "ert-network")),
            vec![UNBOUNDED_COLLECTOR]
        );
        // Out of scope: aggregation/reporting code may hold full
        // sample sets — `Samples` itself lives in ert-sim's stats.
        assert!(rules_fired(src, &ctx("crates/sim/src/stats.rs", "ert-sim")).is_empty());
        assert!(rules_fired(src2, &ctx("crates/network/src/metrics.rs", "ert-network")).is_empty());
    }

    #[test]
    fn d8_ignores_tests_and_other_element_types() {
        let src = "#[cfg(test)]\nmod tests {\n#[test]\n\
                   fn t() { let s = Samples::new(); let v: Vec<f64> = vec![]; }\n}";
        assert!(rules_fired(src, &ctx("crates/sim/src/engine.rs", "ert-sim")).is_empty());
        // Integer vectors are bounded by what they index, not by run
        // length in observations; D8 only names the sample buffers.
        let src2 = "fn f() { let v: Vec<u64> = Vec::new(); }";
        assert!(rules_fired(src2, &ctx("crates/network/src/network.rs", "ert-network")).is_empty());
    }

    #[test]
    fn d8_suppressed_with_bound_note() {
        let src =
            "// ert-lint: allow(unbounded-collector) — fresh per tick, bounded by host count\n\
             fn f() { let mut c = Samples::new(); }";
        let out = check_file(src, &ctx("crates/network/src/network.rs", "ert-network"));
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressed.len(), 1);
        assert!(out.suppressed[0].justification.contains("bounded"));
    }

    // ---- suppression hygiene ----

    #[test]
    fn suppression_without_justification_is_a_violation() {
        let src = "let r = thread_rng(); // ert-lint: allow(ambient-rng)\n";
        let fired = rules_fired(src, &ctx("crates/x/src/lib.rs", "ert-x"));
        assert!(fired.contains(&SUPPRESSION));
        assert!(fired.contains(&AMBIENT_RNG)); // Broken waiver does not waive.
    }

    #[test]
    fn suppression_with_unknown_rule_is_a_violation() {
        let src = "// ert-lint: allow(no-such-rule) — whatever\nfn f() {}";
        assert_eq!(
            rules_fired(src, &ctx("crates/x/src/lib.rs", "ert-x")),
            vec![SUPPRESSION]
        );
    }

    #[test]
    fn suppression_only_reaches_adjacent_line() {
        let src = "// ert-lint: allow(ambient-rng) — shim\n\nlet r = thread_rng();\n";
        let fired = rules_fired(src, &ctx("crates/x/src/lib.rs", "ert-x"));
        // Two lines away: not covered — the violation stands, and the
        // waiver that reached nothing is itself stale (D11).
        assert_eq!(fired, vec![AMBIENT_RNG, STALE_ALLOW]);
    }

    #[test]
    fn doc_comments_describing_the_syntax_are_inert() {
        let src = "/// Waive with `ert-lint: allow(<rule>) — <why>`.\nfn f() {}";
        assert!(rules_fired(src, &ctx("crates/x/src/lib.rs", "ert-x")).is_empty());
        // ...and a doc comment cannot waive a real violation either.
        let src2 = "/// ert-lint: allow(ambient-rng) — nope\nfn f() { thread_rng(); }";
        assert_eq!(
            rules_fired(src2, &ctx("crates/x/src/lib.rs", "ert-x")),
            vec![AMBIENT_RNG]
        );
    }

    #[test]
    fn one_comment_can_waive_multiple_rules() {
        let src = "// ert-lint: allow(ambient-rng, wall-clock) — fixture exercising both\n\
                   fn f() { thread_rng(); Instant::now(); }";
        let out = check_file(src, &ctx("crates/x/src/lib.rs", "ert-x"));
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressed.len(), 2);
    }

    // ---- D10 shared-state ----

    #[test]
    fn d10_fires_on_locks_and_interior_mutability_in_scoped_crates() {
        for src in [
            "use std::sync::Mutex;",
            "struct S { inner: RwLock<u32> }",
            "static INIT: OnceLock<u32> = OnceLock::new();",
            "use std::cell::RefCell;",
            "fn f(c: &Cell<u32>) {}",
        ] {
            for k in ["ert-sim", "ert-network", "ert-core"] {
                assert!(
                    rules_fired(src, &ctx("crates/k/src/lib.rs", k)).contains(&SHARED_STATE),
                    "{src} should fire in {k}"
                );
            }
        }
        // Out of scope: the telemetry sink and the ert-par pool share
        // state on purpose.
        assert!(rules_fired(
            "use std::sync::Mutex;",
            &ctx("crates/telemetry/src/sink.rs", "ert-telemetry")
        )
        .is_empty());
    }

    #[test]
    fn d10_fires_on_static_mut_atomics_and_thread_local() {
        let c = ctx("crates/sim/src/engine.rs", "ert-sim");
        assert!(rules_fired("static mut COUNTER: u64 = 0;", &c).contains(&SHARED_STATE));
        assert!(rules_fired("use std::sync::atomic::AtomicUsize;", &c).contains(&SHARED_STATE));
        assert!(rules_fired("thread_local! { static TLS: u32 = 0; }", &c).contains(&SHARED_STATE));
        // Immutable statics and non-atomic idents stay quiet.
        assert!(rules_fired("static LIMIT: u64 = 8;", &c).is_empty());
        assert!(rules_fired("fn atomic_step() {}", &c).is_empty());
    }

    #[test]
    fn d10_exempts_tests_and_takes_suppressions() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}";
        assert!(rules_fired(src, &ctx("crates/sim/src/x.rs", "ert-sim")).is_empty());
        let src2 = "// ert-lint: allow(shared-state) — single-threaded by construction\n\
                    use std::cell::RefCell;";
        let out = check_file(src2, &ctx("crates/sim/src/stats.rs", "ert-sim"));
        assert!(out.violations.is_empty());
        assert_eq!(out.suppressed.len(), 1);
    }

    // ---- D11 stale-allow ----

    #[test]
    fn d11_flags_an_allow_that_waives_nothing() {
        let src = "// ert-lint: allow(wall-clock) — leftover from a removed Instant\nfn f() {}";
        let out = check_file(src, &ctx("crates/x/src/lib.rs", "ert-x"));
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].rule, STALE_ALLOW);
        assert_eq!(out.violations[0].line, 1);
    }

    #[test]
    fn d11_staleness_is_per_rule_within_one_comment() {
        let src = "// ert-lint: allow(ambient-rng, wall-clock) — only one still real\n\
                   fn f() { thread_rng(); }";
        let out = check_file(src, &ctx("crates/x/src/lib.rs", "ert-x"));
        assert_eq!(
            out.violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
            vec![STALE_ALLOW],
            "the wall-clock half is stale"
        );
        assert_eq!(out.suppressed.len(), 1, "the ambient-rng half still waives");
    }

    #[test]
    fn d11_defers_transitive_panic_allows_to_the_workspace_pass() {
        // A file-local pass cannot see the call graph, so it must not
        // call a transitive-panic waiver stale...
        let src = "// ert-lint: allow(transitive-panic) — len checked by caller\nfn f() {}";
        let out = check_file(src, &ctx("crates/x/src/lib.rs", "ert-x"));
        assert!(out.violations.is_empty());
        // ...but the workspace pass, given no matching finding, does.
        let analysis = analyze_file(src, &ctx("crates/x/src/lib.rs", "ert-x"));
        let out2 = resolve_file(analysis, &[], true);
        assert_eq!(
            out2.violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
            vec![STALE_ALLOW]
        );
    }

    #[test]
    fn d11_itself_cannot_be_waived() {
        // `allow(stale-allow)` names a meta-rule outside the catalog:
        // the ledger-keeper cannot be silenced.
        let src = "// ert-lint: allow(stale-allow) — nice try\nfn f() {}";
        let fired = rules_fired(src, &ctx("crates/x/src/lib.rs", "ert-x"));
        assert_eq!(fired, vec![SUPPRESSION]);
    }

    #[test]
    fn workspace_extras_are_waivable_and_counted_for_staleness() {
        let src = "fn helper(x: Option<u32>) -> u32 {\n\
                   // ert-lint: allow(transitive-panic) — caller guarantees Some\n\
                   x.unwrap()\n\
                   }";
        let c = ctx("crates/x/src/helper.rs", "ert-x");
        let extra = vec![Violation {
            rule: TRANSITIVE_PANIC,
            file: c.rel_path.clone(),
            line: 3,
            message: "reachable panic".into(),
        }];
        let out = resolve_file(analyze_file(src, &c), &extra, true);
        assert!(out.violations.is_empty(), "waiver covers the injected D9");
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.suppressed[0].violation.rule, TRANSITIVE_PANIC);
    }
}
