//! Spans recorded in memory from the benchmark's own files, around the calls
//! into each layer, and written out when the run ends.

use std::io::{BufWriter, Write};
use std::path::Path;

/// One timed interval. `parent` indexes the span that caused this one in the
/// run's span list; spans of one request share `request`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

/// A span's self time: its duration minus the part of its interval that its
/// children cover. Children may overlap each other and may stick out of the
/// parent; overlap is counted once and overhang not at all.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Writes `{"workload", "seed", "spans": [{name, start_ns, end_ns, parent,
/// request}]}`; `parent` is an index into `spans` or null.
pub fn write(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    )?;
    for (i, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}{}",
            span.name, span.start_ns, span.end_ns, parent, span.request, comma
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Overhang on either side is clipped; a child outside is ignored.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200), (300, 400)]), 30);
        // Children covering everything leave nothing.
        assert_eq!(self_time((0, 100), &[(0, 50), (50, 100)]), 0);
    }

    #[test]
    fn the_trace_file_parses() {
        let dir = std::env::temp_dir().join(format!("perf-trace-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        let spans = vec![
            Span {
                name: "request",
                start_ns: 5,
                end_ns: 50,
                parent: None,
                request: 7,
            },
            Span {
                name: "service.submit",
                start_ns: 6,
                end_ns: 9,
                parent: Some(0),
                request: 7,
            },
        ];
        write(&path, "serve_open", 3, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let parsed = crate::report::tests::parse(&text).expect("trace parses");
        let listed = parsed.field("spans").items();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[1].field("name").str(), "service.submit");
        assert_eq!(listed[0].field("parent"), &crate::report::tests::Json::Null);
        assert_eq!(
            listed[1].field("parent"),
            &crate::report::tests::Json::Num(0.0)
        );
    }
}
