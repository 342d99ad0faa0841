//! YAML export.
//!
//! "We also implemented a YAML version that can be used alongside a DevOps
//! tool such as Puppet to build the pattern database XML. YAML can be easier
//! to use if files are maintained by hand."

use super::ExportEntry;

/// Render the selected patterns as a YAML document.
pub fn render(entries: &[ExportEntry]) -> String {
    let mut out = String::from("# Sequence-RTG pattern export\npatterns:\n");
    if entries.is_empty() {
        return String::from("# Sequence-RTG pattern export\npatterns: []\n");
    }
    for e in entries {
        out.push_str(&format!("- id: {}\n", e.stored.id));
        out.push_str(&format!("  service: {}\n", yaml_string(&e.stored.service)));
        // The plain form: a literal `%` is shown as itself, not as the
        // store's `%%` escape.
        out.push_str(&format!(
            "  pattern: {}\n",
            yaml_string(&e.pattern.render_plain())
        ));
        out.push_str(&format!("  count: {}\n", e.stored.count));
        out.push_str(&format!("  first_seen: {}\n", e.stored.first_seen));
        out.push_str(&format!("  last_matched: {}\n", e.stored.last_matched));
        out.push_str(&format!("  complexity: {:.4}\n", e.stored.complexity));
        if e.stored.examples.is_empty() {
            out.push_str("  examples: []\n");
        } else {
            out.push_str("  examples:\n");
            for ex in &e.stored.examples {
                out.push_str(&format!("  - {}\n", yaml_string(ex)));
            }
        }
    }
    out
}

/// Quote a string for YAML using double quotes with JSON-compatible escapes
/// (a valid YAML scalar form that round-trips any content, including
/// newlines in multi-line examples).
pub fn yaml_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoredPattern;
    use sequence_core::Pattern;

    fn entry() -> ExportEntry {
        let text = "%action% from %srcip:ipv4% port %srcport:integer%";
        let p = Pattern::parse(text).unwrap();
        ExportEntry {
            stored: StoredPattern {
                id: "abc123".into(),
                service: "sshd".into(),
                pattern_text: text.into(),
                count: 42,
                first_seen: 100,
                last_matched: 200,
                complexity: 0.6,
                examples: vec![
                    "Accepted from 1.2.3.4 port 22".into(),
                    "line1\nline2".into(),
                ],
                promoted: false,
            },
            pattern: p,
        }
    }

    #[test]
    fn document_shape() {
        let doc = render(&[entry()]);
        assert!(doc.contains("- id: abc123"));
        assert!(doc.contains("  service: \"sshd\""));
        assert!(doc.contains("  count: 42"));
        assert!(doc.contains("  complexity: 0.6000"));
        assert!(doc.contains("\\nline2"));
    }

    #[test]
    fn literal_percent_is_exported_plain() {
        // The store keeps `%%` so the pattern parses back; the export shows
        // the `%` an operator would write.
        let text = "map 100%% reduce %r%";
        let mut e = entry();
        e.stored.pattern_text = text.into();
        e.pattern = Pattern::parse(text).unwrap();
        let doc = render(&[e]);
        assert!(doc.contains("  pattern: \"map 100% reduce %r%\""), "{doc}");
    }

    #[test]
    fn empty_export() {
        assert!(render(&[]).contains("patterns: []"));
    }

    #[test]
    fn string_quoting() {
        assert_eq!(yaml_string("plain"), "\"plain\"");
        assert_eq!(yaml_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(yaml_string("x\ny"), "\"x\\ny\"");
        assert_eq!(yaml_string("t\tab"), "\"t\\tab\"");
    }
}
