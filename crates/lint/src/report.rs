//! Aggregated lint results and their human diagnostics.

use std::fmt::Write as _;

use crate::rules::{Suppressed, Violation};

/// The outcome of linting a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Standing violations, sorted by file/line/rule.
    pub violations: Vec<Violation>,
    /// Waived violations with their justifications.
    pub suppressed: Vec<Suppressed>,
}

impl Report {
    /// True when the workspace is clean (CI gate passes).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Sorts both lists into a stable file/line/rule order.
    pub fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.suppressed.sort_by(|a, b| {
            (&a.violation.file, a.violation.line, a.violation.rule).cmp(&(
                &b.violation.file,
                b.violation.line,
                b.violation.rule,
            ))
        });
    }

    /// Human-readable diagnostics, one `file:line: [rule] message` per
    /// violation, with a trailing summary line.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            let _ = writeln!(s, "{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
        }
        let _ = writeln!(
            s,
            "ert-lint: {} file(s) scanned, {} violation(s), {} suppressed",
            self.files_scanned,
            self.violations.len(),
            self.suppressed.len()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_summary_counts() {
        let r = Report {
            files_scanned: 5,
            violations: vec![],
            suppressed: vec![],
        };
        assert!(r.is_clean());
        assert!(r.human().contains("5 file(s) scanned, 0 violation(s)"));
    }
}
