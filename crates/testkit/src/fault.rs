//! Fault-injection harness: deterministic, declarative fault plans for
//! the robustness suite.
//!
//! A [`FaultPlan`] names a fault, says where it strikes, and states the
//! contract the pipeline must honor when it does. File-level faults are
//! pure text transforms applied here ([`FaultKind::mutate_text`]); flow-
//! level faults (injected NaNs, capacity exhaustion) are descriptors that
//! the driver (`tests/robustness.rs`) translates into flow hooks. Nothing
//! here is random: every fault is a deterministic function of the plan,
//! so a failing scenario replays exactly.

/// What the pipeline must do when the fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultExpectation {
    /// The stage must return a clean typed error — never panic.
    TypedError,
    /// The flow must complete in degraded mode and record a warning.
    DegradedOk,
    /// The flow must roll back, re-tune, and still complete.
    RecoveredOk,
}

/// The fault itself.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Replace the `occurrence`-th (0-based) numeric token of an input
    /// file with unparseable garbage.
    CorruptNumber {
        /// 0-based index of the numeric token to corrupt.
        occurrence: usize,
    },
    /// Replace the `occurrence`-th numeric token with `NaN` — parsers
    /// must reject non-finite geometry, not ingest it silently.
    NonFiniteNumber {
        /// 0-based index of the numeric token to replace.
        occurrence: usize,
    },
    /// Drop every line containing `needle` (lost sections, lost headers).
    DropLinesContaining {
        /// Substring selecting the lines to drop.
        needle: &'static str,
    },
    /// Keep only the first `keep` lines of the file (truncated upload).
    TruncateLines {
        /// Number of leading lines to keep.
        keep: usize,
    },
    /// Poison the solver's reference position at a chosen iteration.
    /// `route_iter` 0 means the wirelength phase; ≥1 is that routability
    /// iteration's GP burst. The fault fires exactly once.
    NanReference {
        /// Routability iteration (0 = wirelength phase).
        route_iter: usize,
        /// GP step within that iteration.
        gp_iter: usize,
    },
    /// Poison the DC congestion gradient at a routability iteration.
    NanCongestionGrad {
        /// Routability iteration at which the gradient is poisoned.
        route_iter: usize,
    },
    /// All routing layers get zero capacity: router congestion becomes
    /// non-finite and the flow must fall back to RUDY-only congestion.
    ZeroCapacity,
    /// Degenerate power-rail geometry: DPA track derivation fails and the
    /// flow must skip the D^PG addend with a warning.
    DegenerateRails,
    /// XOR a byte of a checkpoint stream at `offset` (wrapped to len).
    CorruptCheckpointByte {
        /// Byte offset to XOR (wrapped to the stream length).
        offset: usize,
    },
    /// Keep only the first `keep` bytes of a binary stream (torn write:
    /// a record or checkpoint cut off mid-file).
    TruncateBytes {
        /// Number of leading bytes to keep.
        keep: usize,
    },
    /// Service fault: `kill -9` the server `after_ms` into the run, then
    /// restart it. The queue must replay and results stay bitwise.
    KillServer {
        /// Milliseconds to let the server run before the kill.
        after_ms: u64,
    },
    /// Service fault: send a frame whose payload is not valid JSON (or
    /// not valid UTF-8). The server must answer a typed protocol error.
    GarbageFrame,
    /// Service fault: claim a frame length beyond the server's limit.
    /// Must be rejected before any payload is read.
    OversizedFrame,
    /// Service fault: send a frame header, then only part of the payload,
    /// then stall. The server's read deadline must fire.
    TruncatedFrame,
    /// Service fault: drip request bytes slower than the read deadline
    /// allows (slow-loris). The connection must be cut, not held.
    SlowClient,
}

/// A named scenario: one fault plus its contract.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Scenario name, printed on failure.
    pub name: &'static str,
    /// The fault to inject.
    pub kind: FaultKind,
    /// The contract the pipeline must honor.
    pub expect: FaultExpectation,
}

impl FaultPlan {
    /// Builds a named scenario.
    pub fn new(name: &'static str, kind: FaultKind, expect: FaultExpectation) -> Self {
        FaultPlan { name, kind, expect }
    }
}

fn is_numeric_token(tok: &str) -> bool {
    !tok.is_empty() && tok.parse::<f64>().is_ok()
}

impl FaultKind {
    /// Applies a file-level fault to `text`. Flow-level faults return the
    /// text unchanged (they are interpreted by the flow driver instead).
    pub fn mutate_text(&self, text: &str) -> String {
        match self {
            FaultKind::CorruptNumber { occurrence } => {
                replace_numeric_token(text, *occurrence, "x?7")
            }
            FaultKind::NonFiniteNumber { occurrence } => {
                replace_numeric_token(text, *occurrence, "NaN")
            }
            FaultKind::DropLinesContaining { needle } => text
                .lines()
                .filter(|l| !l.contains(needle))
                .map(|l| format!("{l}\n"))
                .collect(),
            FaultKind::TruncateLines { keep } => {
                text.lines().take(*keep).map(|l| format!("{l}\n")).collect()
            }
            _ => text.to_string(),
        }
    }

    /// Applies a byte-level fault to a binary stream (checkpoints, job
    /// records). Faults that are not byte transforms return the stream
    /// unchanged.
    pub fn mutate_bytes(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match self {
            FaultKind::CorruptCheckpointByte { offset } => {
                if !out.is_empty() {
                    let i = offset % out.len();
                    out[i] ^= 0x5a;
                }
            }
            FaultKind::TruncateBytes { keep } => out.truncate(*keep),
            _ => {}
        }
        out
    }
}

/// Replaces the nth whitespace-separated numeric token, preserving all
/// other bytes of the file.
fn replace_numeric_token(text: &str, occurrence: usize, replacement: &str) -> String {
    let mut seen = 0usize;
    let mut out = String::with_capacity(text.len() + replacement.len());
    for line in text.split_inclusive('\n') {
        let body = line.strip_suffix('\n').unwrap_or(line);
        let had_newline = body.len() != line.len();
        let mut first = true;
        for tok in body.split_whitespace() {
            if !first {
                out.push(' ');
            }
            first = false;
            if is_numeric_token(tok) && seen == occurrence {
                out.push_str(replacement);
                seen += 1;
            } else {
                if is_numeric_token(tok) {
                    seen += 1;
                }
                out.push_str(tok);
            }
        }
        if body.split_whitespace().next().is_none() {
            out.push_str(body); // keep blank/whitespace-only lines
        }
        if had_newline {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "NumNodes : 3\no1 4.0 2.0\n\no2 5.5 2.0 terminal\n";

    #[test]
    fn corrupt_number_hits_exactly_one_token() {
        let m = FaultKind::CorruptNumber { occurrence: 1 }.mutate_text(SAMPLE);
        assert!(m.contains("o1 x?7 2.0"), "{m}");
        assert!(m.contains("NumNodes : 3"), "{m}");
        assert!(m.contains("o2 5.5 2.0 terminal"), "{m}");
    }

    #[test]
    fn nonfinite_number_injects_nan() {
        let m = FaultKind::NonFiniteNumber { occurrence: 3 }.mutate_text(SAMPLE);
        assert!(m.contains("o2 NaN 2.0"), "{m}");
    }

    #[test]
    fn drop_and_truncate() {
        let m = FaultKind::DropLinesContaining { needle: "o2" }.mutate_text(SAMPLE);
        assert!(!m.contains("o2"), "{m}");
        assert!(m.contains("o1"), "{m}");
        let t = FaultKind::TruncateLines { keep: 2 }.mutate_text(SAMPLE);
        assert_eq!(t.lines().count(), 2, "{t}");
    }

    #[test]
    fn flow_faults_leave_text_untouched() {
        let m = FaultKind::NanReference {
            route_iter: 1,
            gp_iter: 2,
        }
        .mutate_text(SAMPLE);
        assert_eq!(m, SAMPLE);
    }

    #[test]
    fn byte_fault_flips_one_byte() {
        let bytes = vec![1u8, 2, 3, 4];
        let m = FaultKind::CorruptCheckpointByte { offset: 6 }.mutate_bytes(&bytes);
        assert_eq!(m.len(), bytes.len());
        assert_eq!(m.iter().zip(&bytes).filter(|(a, b)| a != b).count(), 1);
        assert_ne!(m[2], bytes[2]);
    }

    #[test]
    fn truncate_bytes_cuts_the_tail() {
        let bytes = vec![9u8; 16];
        let t = FaultKind::TruncateBytes { keep: 5 }.mutate_bytes(&bytes);
        assert_eq!(t, vec![9u8; 5]);
        // Service descriptors leave streams untouched.
        let s = FaultKind::SlowClient.mutate_bytes(&bytes);
        assert_eq!(s, bytes);
    }

    #[test]
    fn mutation_is_deterministic() {
        let k = FaultKind::CorruptNumber { occurrence: 2 };
        assert_eq!(k.mutate_text(SAMPLE), k.mutate_text(SAMPLE));
    }
}
