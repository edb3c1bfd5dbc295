//! The restricted EQN netlist format of the thesis tool (Sec. 7.3.1).
//!
//! One line per gate, sum-of-products, no brackets:
//!
//! ```text
//! C = A*B' + A*C + B'*C;
//! ```
//!
//! Literals are joined by `*`, product terms by `+`, negation is a `'`
//! suffix, and every equation ends with `;`. The equation gives the gate's
//! pull-up function `f↑` (with feedback literals allowed, so sequential
//! gates such as C-elements are expressible).

use std::error::Error;
use std::fmt;

use crate::gate::MAX_GATE_SUPPORT;

/// One gate equation: output name and sum-of-products over
/// `(input name, positive)` literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqnGate {
    /// The gate's output signal name.
    pub output: String,
    /// Product terms; each term is a list of literals.
    pub terms: Vec<Vec<(String, bool)>>,
}

/// A parsed EQN netlist.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Netlist {
    /// Gates in file order.
    pub gates: Vec<EqnGate>,
}

impl Netlist {
    /// Finds a gate by output name.
    pub fn gate(&self, output: &str) -> Option<&EqnGate> {
        self.gates.iter().find(|g| g.output == output)
    }
}

/// Errors from [`parse_eqn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEqnError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseEqnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eqn parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseEqnError {}

fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '[' || c == ']'
}

/// Parses a restricted EQN netlist.
///
/// Statements may span lines; each must end with `;`. Lines starting with
/// `#` are comments.
///
/// # Errors
///
/// Returns [`ParseEqnError`] on malformed input (missing `=`, brackets,
/// conflicting literals, empty terms, duplicate gate outputs, a gate over
/// more than [`MAX_GATE_SUPPORT`] distinct signals).
pub fn parse_eqn(text: &str) -> Result<Netlist, ParseEqnError> {
    let mut gates: Vec<EqnGate> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 1usize;

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if pending.is_empty() {
            pending_line = lineno;
        }
        pending.push(' ');
        pending.push_str(line);
        while let Some(semi) = pending.find(';') {
            let stmt: String = pending[..semi].to_string();
            pending = pending[semi + 1..].to_string();
            let gate = parse_statement(&stmt, pending_line)?;
            if gates.iter().any(|g| g.output == gate.output) {
                return Err(ParseEqnError {
                    line: pending_line,
                    message: format!("duplicate gate `{}`", gate.output),
                });
            }
            gates.push(gate);
            pending_line = lineno;
        }
    }
    if !pending.trim().is_empty() {
        return Err(ParseEqnError {
            line: pending_line,
            message: "statement does not end with `;`".to_string(),
        });
    }
    Ok(Netlist { gates })
}

fn parse_statement(stmt: &str, line: usize) -> Result<EqnGate, ParseEqnError> {
    let err = |message: String| ParseEqnError { line, message };
    if stmt.contains('(') || stmt.contains(')') {
        return Err(err(
            "brackets are not allowed in the restricted EQN format".into()
        ));
    }
    let (lhs, rhs) = stmt
        .split_once('=')
        .ok_or_else(|| err("missing `=`".into()))?;
    let output = lhs.trim();
    if output.is_empty() || !output.chars().all(is_name_char) {
        return Err(err(format!("bad gate name `{output}`")));
    }
    let mut terms = Vec::new();
    for term in rhs.split('+') {
        let mut literals = Vec::new();
        for lit in term.split('*') {
            let lit = lit.trim();
            if lit.is_empty() {
                return Err(err("empty literal".into()));
            }
            let (name, positive) = match lit.strip_suffix('\'') {
                Some(name) => (name.trim(), false),
                None => (lit, true),
            };
            if name.is_empty() || !name.chars().all(is_name_char) {
                return Err(err(format!("bad literal `{lit}`")));
            }
            if literals
                .iter()
                .any(|&(ref n, p)| n == name && p != positive)
            {
                return Err(err(format!("conflicting literals on `{name}`")));
            }
            if !literals
                .iter()
                .any(|&(ref n, p)| n == name && p == positive)
            {
                literals.push((name.to_string(), positive));
            }
        }
        if literals.is_empty() {
            return Err(err("empty product term".into()));
        }
        terms.push(literals);
    }
    if terms.is_empty() {
        return Err(err("empty right-hand side".into()));
    }
    let mut support: Vec<&str> = terms
        .iter()
        .flatten()
        .map(|(name, _)| name.as_str())
        .collect();
    support.sort_unstable();
    support.dedup();
    if support.len() > MAX_GATE_SUPPORT {
        return Err(err(format!(
            "gate `{output}` reads {} distinct signals; a gate's support is capped at {MAX_GATE_SUPPORT}",
            support.len()
        )));
    }
    Ok(EqnGate {
        output: output.to_string(),
        terms,
    })
}

/// Writes a netlist back in the restricted EQN format.
pub fn write_eqn(netlist: &Netlist) -> String {
    let mut out = String::new();
    for g in &netlist.gates {
        out.push_str(&g.output);
        out.push_str(" = ");
        for (i, term) in g.terms.iter().enumerate() {
            if i > 0 {
                out.push_str(" + ");
            }
            for (j, (name, positive)) in term.iter().enumerate() {
                if j > 0 {
                    out.push('*');
                }
                out.push_str(name);
                if !positive {
                    out.push('\'');
                }
            }
        }
        out.push_str(";\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_c_element() {
        let net = parse_eqn("C = A*B' + A*C + B'*C;").expect("valid");
        assert_eq!(net.gates.len(), 1);
        let g = &net.gates[0];
        assert_eq!(g.output, "C");
        assert_eq!(g.terms.len(), 3);
        assert_eq!(
            g.terms[0],
            vec![("A".to_string(), true), ("B".to_string(), false)]
        );
    }

    #[test]
    fn parses_thesis_imec_netlist_fragment() {
        let text = "\
i0 = precharged + wenin';
ack = i0' + map0';
i2 = csc0' * map0';
wsen = wsldin' * i2';
prnot = i4* precharged + i4 * prnot + precharged * prnot;
";
        let net = parse_eqn(text).expect("valid");
        assert_eq!(net.gates.len(), 5);
        assert_eq!(net.gate("prnot").expect("exists").terms.len(), 3);
        assert_eq!(
            net.gate("ack").expect("exists").terms,
            vec![
                vec![("i0".to_string(), false)],
                vec![("map0".to_string(), false)]
            ]
        );
    }

    #[test]
    fn rejects_brackets() {
        let err = parse_eqn("C = A*(B + C);").unwrap_err();
        assert!(err.message.contains("brackets"));
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse_eqn("C = A*B").is_err());
    }

    #[test]
    fn rejects_conflicting_literals() {
        assert!(parse_eqn("C = A*A';").is_err());
    }

    #[test]
    fn rejects_duplicate_gate() {
        assert!(parse_eqn("C = A; C = B;").is_err());
    }

    #[test]
    fn multi_line_statement() {
        let net = parse_eqn("C = A*B +\n  A*C;\n").expect("valid");
        assert_eq!(net.gates[0].terms.len(), 2);
    }

    #[test]
    fn round_trips_through_writer() {
        let text = "i0 = precharged + wenin';\nack = i0' + map0';\n";
        let net = parse_eqn(text).expect("valid");
        let written = write_eqn(&net);
        assert_eq!(parse_eqn(&written).expect("valid"), net);
    }

    #[test]
    fn rejects_a_gate_wider_than_the_support_cap() {
        let wide = |n: usize| {
            let literals: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
            format!("# header\nok = a0;\ny = {};\n", literals.join("*"))
        };
        assert!(parse_eqn(&wide(MAX_GATE_SUPPORT)).is_ok());
        let err = parse_eqn(&wide(MAX_GATE_SUPPORT + 1)).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(
            err.message,
            "gate `y` reads 21 distinct signals; a gate's support is capped at 20"
        );
        // A signal read in several terms, or in both polarities, counts once.
        let repeated = format!(
            "y = {} + a0';",
            (0..20)
                .map(|i| format!("a{i}"))
                .collect::<Vec<_>>()
                .join("*")
        );
        assert!(parse_eqn(&repeated).is_ok());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let net = parse_eqn("# header\n\nC = A;\n# trailer\n").expect("valid");
        assert_eq!(net.gates.len(), 1);
    }
}
