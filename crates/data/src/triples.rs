//! Loading real (subject, predicate, object) triple dumps.
//!
//! The paper's inputs are RDF-style dumps (Freebase triples, NELL's
//! `(noun phrase 1, noun phrase 2, context)` rows). This module reads such
//! files — tab- or whitespace-separated string triples — builds the
//! id-mapped vocabularies, and hands back a [`KnowledgeBase`] that flows
//! into the same §IV-C preprocessing and discovery pipeline as the
//! synthetic stand-ins. Literal detection marks `name`/`alias`/`label`
//! predicates and quoted objects the way the paper's literal filter
//! expects.

use crate::kb::KnowledgeBase;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Column order of a triple file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripleOrder {
    /// `subject predicate object` (RDF / N-Triples style, the Freebase way).
    Spo,
    /// `subject object predicate` (the paper's tensor-index order).
    Sop,
}

/// Errors from triple parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct TripleParseError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for TripleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TripleParseError {}

/// Interns strings to dense ids in first-seen order.
#[derive(Debug, Default)]
struct Vocab {
    ids: HashMap<String, u64>,
    names: Vec<String>,
}

impl Vocab {
    fn intern(&mut self, s: &str) -> u64 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.names.len() as u64;
        self.ids.insert(s.to_string(), id);
        self.names.push(s.to_string());
        id
    }
}

/// Parse a triple dump into a [`KnowledgeBase`].
///
/// * Fields are split on tabs when present, otherwise on runs of
///   whitespace (so NELL-style space-separated rows work).
/// * Blank lines and `#` comments are skipped; a trailing ` .` (N-Triples)
///   is tolerated.
/// * Predicates whose name contains `name`, `alias`, or `label`
///   (case-insensitive) are marked literal, as are predicates whose
///   objects are quoted strings — feeding the §IV-C literal filter.
pub fn parse_triples<R: Read>(
    r: R,
    order: TripleOrder,
) -> std::result::Result<KnowledgeBase, TripleParseError> {
    let reader = BufReader::new(r);
    let mut subjects = Vocab::default();
    let mut objects = Vocab::default();
    let mut predicates = Vocab::default();
    let mut triples: Vec<(u64, u64, u64)> = Vec::new();
    let mut quoted_object_preds: HashMap<u64, bool> = HashMap::new();

    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| TripleParseError {
            line: lineno + 1,
            message: format!("I/O: {e}"),
        })?;
        let mut trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(stripped) = trimmed.strip_suffix('.') {
            trimmed = stripped.trim_end();
        }
        let fields: Vec<&str> = if trimmed.contains('\t') {
            trimmed
                .split('\t')
                .map(str::trim)
                .filter(|f| !f.is_empty())
                .collect()
        } else {
            trimmed.split_whitespace().collect()
        };
        if fields.len() != 3 {
            return Err(TripleParseError {
                line: lineno + 1,
                message: format!("expected 3 fields, got {}", fields.len()),
            });
        }
        let (s, p, o) = match order {
            TripleOrder::Spo => (fields[0], fields[1], fields[2]),
            TripleOrder::Sop => (fields[0], fields[2], fields[1]),
        };
        let sid = subjects.intern(s);
        let oid = objects.intern(o);
        let pid = predicates.intern(p);
        let quoted = o.starts_with('"');
        let e = quoted_object_preds.entry(pid).or_insert(true);
        *e = *e && quoted;
        triples.push((sid, oid, pid));
    }

    // Literal predicates: definitional names, or all-quoted objects.
    let literal_predicates: Vec<u64> = predicates
        .names
        .iter()
        .enumerate()
        .filter(|(pid, name)| {
            // Definitional predicates end in name/alias/label (e.g.
            // `ns:type.object.name`, `rdfs:label`); a substring match would
            // wrongly catch `record-label.artist`, so compare the final
            // path segment only.
            let lower = name.to_ascii_lowercase();
            let last = lower.rsplit(['.', '/', ':', '#']).next().unwrap_or("");
            let by_name = matches!(last, "name" | "alias" | "label");
            let by_objects = quoted_object_preds
                .get(&(*pid as u64))
                .copied()
                .unwrap_or(false)
                && triples.iter().any(|&(_, _, p)| p == *pid as u64);
            by_name || by_objects
        })
        .map(|(pid, _)| pid as u64)
        .collect();

    Ok(KnowledgeBase {
        subjects: subjects.names,
        objects: objects.names,
        predicates: predicates.names,
        triples,
        concepts: Vec::new(), // no planted ground truth in real data
        literal_predicates,
    })
}

/// [`parse_triples`] from a file path.
pub fn load_triples<P: AsRef<Path>>(
    path: P,
    order: TripleOrder,
) -> std::result::Result<KnowledgeBase, TripleParseError> {
    let f = std::fs::File::open(&path).map_err(|e| TripleParseError {
        line: 0,
        message: format!("open {}: {e}", path.as_ref().display()),
    })?;
    parse_triples(f, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, PreprocessConfig};

    const SAMPLE: &str = "\
# Freebase-style sample
John\tns:music.artist.track\tImagine
John\tns:type.object.name\t\"John Lennon\"
Paul\tns:music.artist.track\tYesterday
Paul\tns:music.artist.track\tImagine
John\tns:music.record-label.artist\tApple_Records
";

    #[test]
    fn parses_and_interns() {
        let kb = parse_triples(SAMPLE.as_bytes(), TripleOrder::Spo).unwrap();
        assert_eq!(kb.triples.len(), 5);
        assert_eq!(kb.subjects, vec!["John", "Paul"]);
        assert!(kb.objects.contains(&"Imagine".to_string()));
        assert_eq!(kb.predicates.len(), 3);
        // Repeated strings share ids.
        let imagine = kb.objects.iter().position(|o| o == "Imagine").unwrap() as u64;
        let count = kb.triples.iter().filter(|&&(_, o, _)| o == imagine).count();
        assert_eq!(count, 2);
    }

    #[test]
    fn literal_detection_by_name_and_quoting() {
        let kb = parse_triples(SAMPLE.as_bytes(), TripleOrder::Spo).unwrap();
        let name_pid = kb
            .predicates
            .iter()
            .position(|p| p == "ns:type.object.name")
            .unwrap() as u64;
        assert!(kb.literal_predicates.contains(&name_pid));
        // The track predicate is not literal.
        let track_pid = kb
            .predicates
            .iter()
            .position(|p| p == "ns:music.artist.track")
            .unwrap() as u64;
        assert!(!kb.literal_predicates.contains(&track_pid));
    }

    #[test]
    fn whitespace_and_ntriples_styles() {
        let text = "a plays b .\nc plays d\n";
        let kb = parse_triples(text.as_bytes(), TripleOrder::Spo).unwrap();
        assert_eq!(kb.triples.len(), 2);
        assert_eq!(kb.predicates, vec!["plays"]);
    }

    #[test]
    fn sop_order() {
        let text = "subj\tobj\tpred\n";
        let kb = parse_triples(text.as_bytes(), TripleOrder::Sop).unwrap();
        assert_eq!(kb.subjects, vec!["subj"]);
        assert_eq!(kb.objects, vec!["obj"]);
        assert_eq!(kb.predicates, vec!["pred"]);
    }

    #[test]
    fn malformed_rows_error_with_line() {
        let text = "good p o\nbad row with too many fields here\n";
        let err = parse_triples(text.as_bytes(), TripleOrder::Spo).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn flows_into_preprocessing() {
        let kb = parse_triples(SAMPLE.as_bytes(), TripleOrder::Spo).unwrap();
        let cfg = PreprocessConfig {
            min_predicate_count: 0,
            max_predicate_share: 1.0,
            ..Default::default()
        };
        let (tensor, report) = preprocess(&kb, &cfg);
        assert_eq!(report.literals_removed, 1);
        assert_eq!(tensor.nnz(), 4);
        assert_eq!(
            tensor.dims(),
            [
                kb.subjects.len() as u64,
                kb.objects.len() as u64,
                kb.predicates.len() as u64
            ]
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("haten2_triples_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.tsv");
        std::fs::write(&path, SAMPLE).unwrap();
        let kb = load_triples(&path, TripleOrder::Spo).unwrap();
        assert_eq!(kb.triples.len(), 5);
        assert!(load_triples(dir.join("missing.tsv"), TripleOrder::Spo).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
