//! Diagnostics: the [`Finding`] record, human-readable rendering, and the
//! machine-readable JSON report (written with the in-workspace
//! `cs_core::json` writer — the linter obeys the policy it enforces).

use std::collections::BTreeMap;

use cs_core::json::JsonValue;

use crate::rules::{severity, Severity};

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (kebab-case, e.g. `no-unwrap-in-lib`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// True when an inline `cs-lint: allow(..)` pragma covers this finding.
    pub waived: bool,
    /// A second `(file, line)` a waiver may sit at: the source end of a
    /// determinism-taint path.
    pub(crate) source: Option<(String, u32)>,
}

impl Finding {
    pub fn new(
        rule: &'static str,
        file: impl Into<String>,
        line: u32,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            rule,
            file: file.into(),
            line,
            message: message.into(),
            waived: false,
            source: None,
        }
    }

    /// The `(file, line)` positions a waiver for this finding may cover.
    pub(crate) fn anchors(&self) -> impl Iterator<Item = (&str, u32)> {
        let source = self.source.as_ref().map(|(f, l)| (f.as_str(), *l));
        std::iter::once((self.file.as_str(), self.line)).chain(source)
    }

    /// `file:line: [rule] message` — the clickable diagnostic format.
    /// Warnings carry their severity label so the two gate outcomes are
    /// distinguishable in terminal output.
    pub fn render(&self) -> String {
        let sev = match self.severity() {
            Severity::Error => "",
            Severity::Warning => " warning:",
        };
        format!(
            "{}:{}: [{}]{} {}",
            self.file, self.line, self.rule, sev, self.message
        )
    }

    /// Severity of this finding, derived from its rule.
    pub fn severity(&self) -> Severity {
        severity(self.rule)
    }
}

/// The full result of linting a workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, waived ones included; sorted by file, then line.
    pub findings: Vec<Finding>,
    /// Number of files scanned (Rust sources + manifests).
    pub files_scanned: usize,
}

impl LintReport {
    /// Findings not covered by a waiver pragma — these fail the gate.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// True when no finding is unwaived — the strict bar the shipped tree
    /// is held to (selfcheck), regardless of severity.
    pub fn clean(&self) -> bool {
        self.unwaived().next().is_none()
    }

    /// Unwaived findings whose rule is an error.
    pub fn errors(&self) -> usize {
        self.unwaived()
            .filter(|f| f.severity() == Severity::Error)
            .count()
    }

    /// Unwaived findings whose rule is advisory.
    pub fn warnings(&self) -> usize {
        self.unwaived()
            .filter(|f| f.severity() == Severity::Warning)
            .count()
    }

    /// The CI gate: zero unwaived errors (warnings allowed).
    pub fn gate_ok(&self) -> bool {
        self.errors() == 0
    }

    /// Machine-readable report document: per-finding severity, the
    /// error/warning totals the gate keys on, and per-rule counts so
    /// downstream tooling never has to grep the findings array.
    pub fn to_json(&self) -> JsonValue {
        let findings: Vec<JsonValue> = self
            .findings
            .iter()
            .map(|f| {
                JsonValue::object(vec![
                    ("rule", JsonValue::String(f.rule.to_string())),
                    (
                        "severity",
                        JsonValue::String(f.severity().label().to_string()),
                    ),
                    ("file", JsonValue::String(f.file.clone())),
                    ("line", JsonValue::Number(f.line as f64)),
                    ("message", JsonValue::String(f.message.clone())),
                    ("waived", JsonValue::Bool(f.waived)),
                ])
            })
            .collect();
        // Per-rule tallies over every finding (waived included, tracked
        // separately) for rules that fired at least once.
        let mut tally: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for f in &self.findings {
            let e = tally.entry(f.rule).or_insert((0, 0));
            e.0 += 1;
            if f.waived {
                e.1 += 1;
            }
        }
        let rules: Vec<(&str, JsonValue)> = tally
            .iter()
            .map(|(rule, &(count, waived))| {
                (
                    *rule,
                    JsonValue::object(vec![
                        (
                            "severity",
                            JsonValue::String(severity(rule).label().to_string()),
                        ),
                        ("count", JsonValue::Number(count as f64)),
                        ("waived", JsonValue::Number(waived as f64)),
                    ]),
                )
            })
            .collect();
        JsonValue::object(vec![
            ("tool", JsonValue::String("cs-lint".to_string())),
            (
                "files_scanned",
                JsonValue::Number(self.files_scanned as f64),
            ),
            (
                "unwaived",
                JsonValue::Number(self.unwaived().count() as f64),
            ),
            (
                "waived",
                JsonValue::Number(self.findings.iter().filter(|f| f.waived).count() as f64),
            ),
            ("errors", JsonValue::Number(self.errors() as f64)),
            ("warnings", JsonValue::Number(self.warnings() as f64)),
            ("clean", JsonValue::Bool(self.clean())),
            ("gate_ok", JsonValue::Bool(self.gate_ok())),
            ("rules", JsonValue::object(rules)),
            ("findings", JsonValue::Array(findings)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::rules::NO_LOSSY_CAST_IN_HOT_PATH;

    #[test]
    fn render_format() {
        let f = Finding::new("no-unsafe", "crates/x/src/a.rs", 12, "msg");
        assert_eq!(f.render(), "crates/x/src/a.rs:12: [no-unsafe] msg");
        let w = Finding::new(NO_LOSSY_CAST_IN_HOT_PATH, "a.rs", 3, "msg");
        assert_eq!(
            w.render(),
            "a.rs:3: [no-lossy-cast-in-hot-path] warning: msg"
        );
    }

    #[test]
    fn severity_gate_counts() {
        let mut r = LintReport::default();
        r.findings.push(Finding::new("no-unsafe", "a.rs", 1, "m"));
        r.findings
            .push(Finding::new(NO_LOSSY_CAST_IN_HOT_PATH, "a.rs", 2, "m"));
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert!(!r.gate_ok() && !r.clean());
        // Waiving the error leaves only the warning: gate passes, strict
        // cleanliness does not.
        r.findings[0].waived = true;
        assert_eq!(r.errors(), 0);
        assert!(r.gate_ok() && !r.clean());
    }

    #[test]
    fn rules_tally_in_json() {
        let mut r = LintReport::default();
        r.findings.push(Finding::new("no-unsafe", "a.rs", 1, "m"));
        let mut w = Finding::new(NO_LOSSY_CAST_IN_HOT_PATH, "a.rs", 2, "m");
        w.waived = true;
        r.findings.push(w);
        r.findings
            .push(Finding::new(NO_LOSSY_CAST_IN_HOT_PATH, "b.rs", 3, "m"));
        let doc = r.to_json();
        assert_eq!(doc.get("errors").and_then(JsonValue::as_usize), Some(1));
        assert_eq!(doc.get("warnings").and_then(JsonValue::as_usize), Some(1));
        let rules = doc.get("rules").expect("rules object");
        let cast = rules.get(NO_LOSSY_CAST_IN_HOT_PATH).expect("tallied");
        assert_eq!(cast.get("count").and_then(JsonValue::as_usize), Some(2));
        assert_eq!(cast.get("waived").and_then(JsonValue::as_usize), Some(1));
        assert_eq!(
            cast.get("severity"),
            Some(&JsonValue::String("warning".to_string()))
        );
        let unsafe_rule = rules.get("no-unsafe").expect("tallied");
        assert_eq!(
            unsafe_rule.get("severity"),
            Some(&JsonValue::String("error".to_string()))
        );
    }

    #[test]
    fn report_json_shape() {
        let mut r = LintReport {
            files_scanned: 3,
            ..LintReport::default()
        };
        let mut f = Finding::new("no-unsafe", "a.rs", 1, "m");
        f.waived = true;
        r.findings.push(f);
        r.findings.push(Finding::new("pragma", "b.rs", 2, "m2"));
        let doc = r.to_json();
        assert_eq!(doc.get("clean"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("unwaived").and_then(JsonValue::as_usize), Some(1));
        assert_eq!(doc.get("waived").and_then(JsonValue::as_usize), Some(1));
        assert_eq!(
            doc.get("findings")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(2)
        );
        // Round-trips through the in-workspace parser.
        let text = doc.write_pretty();
        let back = cs_core::json::parse(&text).expect("parses");
        assert_eq!(back.get("clean"), Some(&JsonValue::Bool(false)));
    }
}
