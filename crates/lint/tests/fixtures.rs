//! Pins every lint rule against minimal passing/failing samples in
//! `tests/fixtures/` (which the workspace walker deliberately skips).
//! Each failing fixture must fire exactly its rule; each passing one
//! must stay clean — so a rule can neither silently stop firing nor
//! start flagging compliant code.

#![forbid(unsafe_code)]

use std::path::Path;

use basilisk_lint::{
    classify, lint_source, Finding, Rules, RULE_ENCODED, RULE_FACADE, RULE_FORBID, RULE_SAFETY,
    RULE_SLEEP, RULE_TWINS,
};

fn run(fixture: &str, rules: Rules) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    lint_source(Path::new(fixture), &src, &rules)
}

fn all_rules() -> Rules {
    Rules {
        safety: true,
        forbid: false, // fixtures are not crate roots unless the test says so
        facade: false,
        sleep: true,
        encoded: false,
        twins: false,
    }
}

#[test]
fn safety_block_passes() {
    assert!(run("pass_safety_block.rs", all_rules()).is_empty());
}

#[test]
fn missing_safety_fires() {
    let f = run("fail_missing_safety.rs", all_rules());
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, RULE_SAFETY);
    assert_eq!(f[0].line, 4);
}

#[test]
fn unsafe_fn_doc_section_passes() {
    assert!(run("pass_unsafe_fn_doc.rs", all_rules()).is_empty());
}

#[test]
fn undocumented_unsafe_impl_fires() {
    let f = run("fail_unsafe_impl.rs", all_rules());
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, RULE_SAFETY);
}

#[test]
fn direct_mutex_import_fires() {
    let rules = Rules {
        facade: true,
        ..all_rules()
    };
    let f = run("fail_direct_mutex.rs", rules);
    assert_eq!(f.len(), 2, "use group and inline path: {f:?}");
    assert!(f.iter().all(|x| x.rule == RULE_FACADE));
    assert_eq!(f[0].line, 4);
    assert_eq!(f[1].line, 6);
}

#[test]
fn facade_imports_pass() {
    let rules = Rules {
        facade: true,
        ..all_rules()
    };
    assert!(run("pass_facade_sync.rs", rules).is_empty());
}

#[test]
fn production_sleep_fires() {
    let f = run("fail_sleep.rs", all_rules());
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, RULE_SLEEP);
    assert_eq!(f[0].line, 6);
}

#[test]
fn sleep_inside_cfg_test_module_passes() {
    assert!(run("pass_sleep_in_tests.rs", all_rules()).is_empty());
}

#[test]
fn missing_forbid_fires() {
    let rules = Rules {
        forbid: true,
        ..all_rules()
    };
    let f = run("fail_missing_forbid.rs", rules);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, RULE_FORBID);
}

#[test]
fn forbid_present_passes() {
    let rules = Rules {
        forbid: true,
        ..all_rules()
    };
    assert!(run("pass_forbid.rs", rules).is_empty());
}

#[test]
fn encoded_raw_accessor_fires() {
    let rules = Rules {
        encoded: true,
        ..all_rules()
    };
    let f = run("fail_encoded_internals.rs", rules);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, RULE_ENCODED);
    assert_eq!(f[0].line, 8, "the call fires, not the string literal");
}

#[test]
fn encoded_public_api_passes() {
    let rules = Rules {
        encoded: true,
        ..all_rules()
    };
    assert!(run("pass_encoded_api.rs", rules).is_empty());
}

#[test]
fn variant_twins_fire() {
    let rules = Rules {
        twins: true,
        ..all_rules()
    };
    let f = run("fail_variant_twins.rs", rules);
    assert_eq!(f.len(), 3, "one per suffix: {f:?}");
    assert!(f.iter().all(|x| x.rule == RULE_TWINS));
    assert_eq!(
        f.iter().map(|x| x.line).collect::<Vec<_>>(),
        vec![4, 8, 12],
        "private twins, mid-name matches and comments stay quiet"
    );
}

/// The whole plan crate is covered, not only its walker: a session or
/// context method `execute_traced` beside `execute` is such a twin.
#[test]
fn plan_crate_sources_are_twin_checked() {
    for file in ["crates/plan/src/session.rs", "crates/plan/src/executor.rs"] {
        let rules = classify(Path::new(file));
        let f = run("fail_variant_twins.rs", rules);
        assert_eq!(f.len(), 3, "{file}: {f:?}");
        assert!(f.iter().all(|x| x.rule == RULE_TWINS), "{file}: {f:?}");
        assert!(run("pass_variant_twins.rs", rules).is_empty(), "{file}");
    }
}

#[test]
fn context_taking_operators_pass() {
    let rules = Rules {
        twins: true,
        ..all_rules()
    };
    assert!(run("pass_variant_twins.rs", rules).is_empty());
}

/// The linter over the real workspace — the same invocation CI runs —
/// must be clean. Running it as a test too means `cargo test` alone
/// catches a violation before CI does.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let findings = basilisk_lint::lint_workspace(root);
    assert!(
        findings.is_empty(),
        "workspace lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
