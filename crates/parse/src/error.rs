//! Parse error type of the LEF/DEF reader.

use std::error::Error;
use std::fmt;

/// Error produced while parsing a design file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseDesignError {
    /// Which file/section failed.
    pub context: String,
    /// Line number (1-based) when known.
    pub line: Option<usize>,
    /// Description of the problem.
    pub message: String,
}

impl ParseDesignError {
    pub(crate) fn new(context: &str, line: Option<usize>, message: impl Into<String>) -> Self {
        ParseDesignError {
            context: context.to_string(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "{} line {}: {}", self.context, l, self.message),
            None => write!(f, "{}: {}", self.context, self.message),
        }
    }
}

impl Error for ParseDesignError {}

impl From<ParseDesignError> for rdp_guard::RdpError {
    fn from(e: ParseDesignError) -> Self {
        rdp_guard::RdpError::Parse {
            context: e.context,
            line: e.line,
            message: e.message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context_and_line() {
        let e = ParseDesignError::new("nodes", Some(3), "bad token");
        assert_eq!(format!("{e}"), "nodes line 3: bad token");
        let e2 = ParseDesignError::new("aux", None, "missing file");
        assert_eq!(format!("{e2}"), "aux: missing file");
    }
}
