//! Parse errors with source positions.

use std::fmt;

/// A byte-offset range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// Span covering both operands.
    pub fn merge(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }
}

/// A lexing or parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub span: Span,
}

impl ParseError {
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        ParseError { message: message.into(), span }
    }

    /// Render the error with a caret line pointing into `source`.
    pub fn render(&self, source: &str) -> String {
        let mut line_start = 0usize;
        let mut line_no = 1usize;
        for (i, c) in source.char_indices() {
            if i >= self.span.start {
                break;
            }
            if c == '\n' {
                line_start = i + 1;
                line_no += 1;
            }
        }
        let line_end = source[line_start..].find('\n').map(|i| line_start + i).unwrap_or(source.len());
        let line = &source[line_start..line_end];
        // Columns count characters, not bytes, so a multi-byte character
        // earlier on the line does not push the caret right.
        let chars = |a: usize, b: usize| {
            source.get(a..b).map_or(b.saturating_sub(a), |s| s.chars().count())
        };
        let col = chars(line_start, self.span.start);
        let width = chars(self.span.start, self.span.end.min(line_end)).max(1);
        format!(
            "parse error at line {line_no}, column {}: {}\n  {line}\n  {}{}",
            col + 1,
            self.message,
            " ".repeat(col),
            "^".repeat(width)
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}..{}: {}", self.span.start, self.span.end, self.message)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_covers_both() {
        let a = Span::new(2, 5);
        let b = Span::new(4, 9);
        assert_eq!(a.merge(b), Span::new(2, 9));
    }

    #[test]
    fn render_counts_columns_in_characters() {
        // The same error after `'José'` and after `'Jose'`: one character
        // each, so the same column and the caret under the same `#`.
        for name in ["José", "Jose"] {
            let script = format!(
                "CREATE TABLE instructor (id INT PRIMARY KEY, name VARCHAR);\n\
                 INSERT INTO instructor VALUES (2, '{name}', 20, 40000) # ;"
            );
            let err = crate::parse_script(&script).unwrap_err();
            let out = err.render(&script);
            assert!(out.starts_with("parse error at line 2, column 54:"), "{name}: {out}");
            let lines: Vec<&str> = out.lines().collect();
            let caret = lines[2].find('^').expect("caret line");
            assert_eq!(lines[1].chars().nth(caret), Some('#'), "{name}: {out}");
        }
    }

    #[test]
    fn render_points_at_offender() {
        let src = "SELECT *\nFROM theres_a_typo HERE";
        let err = ParseError::new("unexpected token", Span::new(27, 31));
        let out = err.render(src);
        assert!(out.contains("line 2"), "{out}");
        assert!(out.contains("^^^^"), "{out}");
    }
}
