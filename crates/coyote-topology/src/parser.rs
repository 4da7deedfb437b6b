//! A small line-oriented text format for topologies, so users can bring
//! their own networks without GraphML tooling.
//!
//! Format (one record per line, `#` starts a comment):
//!
//! ```text
//! topology Abilene
//! node Seattle
//! node Sunnyvale
//! link Seattle Sunnyvale 10.0 1.0     # capacity weight (weight optional)
//! ```

use crate::topology::Topology;
use std::collections::HashMap;
use std::fmt;

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A line could not be interpreted.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A link referenced a node that was never declared.
    UnknownNode {
        /// 1-based line number.
        line: usize,
        /// The undeclared node name.
        name: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadLine { line, message } => write!(f, "line {line}: {message}"),
            ParseError::UnknownNode { line, name } => {
                write!(f, "line {line}: unknown node {name:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses the text format into a [`Topology`].
pub fn parse(text: &str) -> Result<Topology, ParseError> {
    let mut topo = Topology::new("unnamed");
    let mut index: HashMap<String, usize> = HashMap::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line_number = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap_or("");
        match keyword {
            "topology" => {
                let name = parts.collect::<Vec<_>>().join(" ");
                if name.is_empty() {
                    return Err(ParseError::BadLine {
                        line: line_number,
                        message: "topology requires a name".into(),
                    });
                }
                topo.name = name;
            }
            "node" => {
                let name = parts.next().ok_or_else(|| ParseError::BadLine {
                    line: line_number,
                    message: "node requires a name".into(),
                })?;
                no_trailing_token(parts, line_number, "node")?;
                if index.contains_key(name) {
                    return Err(ParseError::BadLine {
                        line: line_number,
                        message: format!("duplicate node {name:?}"),
                    });
                }
                let id = topo.add_node(name);
                index.insert(name.to_string(), id);
            }
            "link" => {
                let a = parts.next().ok_or_else(|| ParseError::BadLine {
                    line: line_number,
                    message: "link requires two endpoints".into(),
                })?;
                let b = parts.next().ok_or_else(|| ParseError::BadLine {
                    line: line_number,
                    message: "link requires two endpoints".into(),
                })?;
                let capacity: f64 =
                    parts
                        .next()
                        .unwrap_or("1.0")
                        .parse()
                        .map_err(|_| ParseError::BadLine {
                            line: line_number,
                            message: "capacity must be a number".into(),
                        })?;
                let weight: f64 =
                    parts
                        .next()
                        .unwrap_or("1.0")
                        .parse()
                        .map_err(|_| ParseError::BadLine {
                            line: line_number,
                            message: "weight must be a number".into(),
                        })?;
                no_trailing_token(parts, line_number, "link")?;
                let &ai = index.get(a).ok_or_else(|| ParseError::UnknownNode {
                    line: line_number,
                    name: a.to_string(),
                })?;
                let &bi = index.get(b).ok_or_else(|| ParseError::UnknownNode {
                    line: line_number,
                    name: b.to_string(),
                })?;
                topo.add_link(ai, bi, capacity, weight);
            }
            other => {
                return Err(ParseError::BadLine {
                    line: line_number,
                    message: format!("unknown keyword {other:?}"),
                });
            }
        }
    }
    Ok(topo)
}

/// Rejects a token left over on a `node` or `link` line. A node name with
/// whitespace in it would otherwise be truncated to its first word.
fn no_trailing_token<'a>(
    mut rest: impl Iterator<Item = &'a str>,
    line: usize,
    keyword: &str,
) -> Result<(), ParseError> {
    match rest.next() {
        None => Ok(()),
        Some(extra) => Err(ParseError::BadLine {
            line,
            message: format!("{keyword} line has a trailing token {extra:?}"),
        }),
    }
}

/// Serializes a [`Topology`] into the text format accepted by [`parse`].
/// Node names are written as they are, so a name with whitespace in it
/// serializes to text that [`parse`] rejects.
pub fn serialize(topo: &Topology) -> String {
    let mut out = String::new();
    out.push_str(&format!("topology {}\n", topo.name));
    for n in &topo.nodes {
        out.push_str(&format!("node {n}\n"));
    }
    for l in &topo.links {
        out.push_str(&format!(
            "link {} {} {} {}\n",
            topo.nodes[l.a], topo.nodes[l.b], l.capacity, l.weight
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn parses_a_simple_topology() {
        let text = r"
# toy network
topology Toy
node a
node b
node c
link a b 10 1
link b c 2.5      # default weight
link a c
";
        let t = parse(text).unwrap();
        assert_eq!(t.name, "Toy");
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.links[0].capacity, 10.0);
        assert_eq!(t.links[1].capacity, 2.5);
        assert_eq!(t.links[1].weight, 1.0);
        assert_eq!(t.links[2].capacity, 1.0);
    }

    #[test]
    fn round_trips_every_zoo_topology() {
        for topo in zoo::all() {
            let text = serialize(&topo);
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed, topo, "{} did not round trip", topo.name);
        }
    }

    #[test]
    fn rejects_trailing_tokens_on_node_and_link_lines() {
        let err = parse("node a b\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { line: 1, .. }), "{err}");
        let err = parse("node a\nnode b\nlink a b 1 1 9\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { line: 3, .. }), "{err}");
    }

    #[test]
    fn a_whitespace_named_node_does_not_parse_as_another_topology() {
        let mut topo = Topology::new("Cities");
        let a = topo.add_node("New York");
        let b = topo.add_node("Boston");
        topo.add_link(a, b, 10.0, 1.0);
        let err = parse(&serialize(&topo)).unwrap_err();
        assert!(matches!(err, ParseError::BadLine { line: 2, .. }), "{err}");
    }

    #[test]
    fn reports_unknown_nodes_with_line_numbers() {
        let err = parse("node a\nlink a ghost 1 1\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::UnknownNode {
                line: 2,
                name: "ghost".into()
            }
        );
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn reports_malformed_lines() {
        assert!(matches!(
            parse("frobnicate x\n"),
            Err(ParseError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse("node a\nnode a\n"),
            Err(ParseError::BadLine { line: 2, .. })
        ));
        assert!(matches!(
            parse("node a\nnode b\nlink a b notanumber\n"),
            Err(ParseError::BadLine { line: 3, .. })
        ));
        assert!(matches!(
            parse("topology\n"),
            Err(ParseError::BadLine { line: 1, .. })
        ));
    }

    /// `inf` parses as a number; the graph boundary is what refuses it.
    #[test]
    fn an_infinite_capacity_is_refused_when_the_graph_is_built() {
        let topo = parse("node a\nnode b\nlink a b inf 1\n").unwrap();
        let err = topo.to_graph().unwrap_err();
        assert!(err.to_string().contains("finite and positive"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let t = parse("\n\n# nothing but comments\n").unwrap();
        assert_eq!(t.node_count(), 0);
        assert_eq!(t.name, "unnamed");
    }
}
