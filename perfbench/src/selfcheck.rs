//! The benchmark's self-check at toy size: every workload, untraced and
//! traced, on n=16 and n=8 instances (sweeps) or an n=32 network. It
//! asserts that each run emits exactly the metrics `BENCHMARK.json`
//! names, with its units, and that `BENCHMARK.json`, `perfbench/map.json`
//! and the program's metric tables agree.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::{run, workload, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;

/// A parsed JSON value — just enough JSON for the two files checked here
/// and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value();
        parser.skip_space();
        assert_eq!(parser.at, text.len(), "trailing text after the JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(map) => map
                .get(key)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::String(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(map) => map.keys().map(String::as_str).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(self.bytes.get(self.at), Some(&byte), "at byte {}", self.at);
        self.at += 1;
    }

    fn literal(&mut self, word: &str, value: Json) -> Json {
        assert!(self.bytes[self.at..].starts_with(word.as_bytes()));
        self.at += word.len();
        value
    }

    fn value(&mut self) -> Json {
        self.skip_space();
        match self.bytes[self.at] {
            b'{' => {
                self.at += 1;
                let mut map = BTreeMap::new();
                self.skip_space();
                if self.bytes[self.at] == b'}' {
                    self.at += 1;
                    return Json::Object(map);
                }
                loop {
                    self.skip_space();
                    let Json::String(key) = self.value() else {
                        panic!("object keys are strings")
                    };
                    self.eat(b':');
                    let value = self.value();
                    assert!(map.insert(key, value).is_none(), "duplicate key");
                    self.skip_space();
                    self.at += 1;
                    match self.bytes[self.at - 1] {
                        b',' => continue,
                        b'}' => return Json::Object(map),
                        other => panic!("unexpected {:?}", other as char),
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.bytes[self.at] == b']' {
                    self.at += 1;
                    return Json::Array(items);
                }
                loop {
                    items.push(self.value());
                    self.skip_space();
                    self.at += 1;
                    match self.bytes[self.at - 1] {
                        b',' => continue,
                        b']' => return Json::Array(items),
                        other => panic!("unexpected {:?}", other as char),
                    }
                }
            }
            b'"' => {
                self.at += 1;
                let mut out = String::new();
                loop {
                    let c = self.bytes[self.at];
                    self.at += 1;
                    match c {
                        b'"' => return Json::String(out),
                        b'\\' => {
                            let escaped = self.bytes[self.at];
                            self.at += 1;
                            out.push(match escaped {
                                b'n' => '\n',
                                b't' => '\t',
                                b'"' | b'\\' | b'/' => escaped as char,
                                other => panic!("unsupported escape \\{}", other as char),
                            });
                        }
                        _ => {
                            // `at - 1` is a character boundary: copy the
                            // whole character that starts there.
                            let ch = self.text[self.at - 1..]
                                .chars()
                                .next()
                                .expect("one character");
                            out.push(ch);
                            self.at += ch.len_utf8() - 1;
                        }
                    }
                }
            }
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII");
                Json::Number(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn read_json(path: &Path) -> Json {
    Json::parse(
        &std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display())),
    )
}

/// `(name, unit)` pairs of a metric list.
fn named(list: &Json) -> Vec<(String, String)> {
    list.items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn table(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_map_and_program_agree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = read_json(&root.join("../BENCHMARK.json"));
    let map = read_json(&root.join("map.json"));

    assert_eq!(named(bench.get("end_to_end")), table(END_TO_END));
    assert_eq!(named(bench.get("per_layer")), table(PER_LAYER));
    assert_eq!(named(map.get("end_to_end")), table(END_TO_END));
    assert_eq!(named(map.get("per_layer")), table(PER_LAYER));

    let names = |list: &Json| -> Vec<String> {
        list.items()
            .iter()
            .map(|w| w.get("name").str().to_string())
            .collect()
    };
    assert_eq!(names(bench.get("workloads")), WORKLOADS);
    assert_eq!(names(map.get("workloads")), WORKLOADS);
    for (listed, mapped) in bench
        .get("workloads")
        .items()
        .iter()
        .zip(map.get("workloads").items())
    {
        assert_eq!(listed.get("why"), mapped.get("why"));
        for metric in mapped.get("moves").items() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == metric.str()),
                "{} names unknown per-layer metric {}",
                mapped.get("name").str(),
                metric.str()
            );
        }
    }
    for metric in map.get("per_layer").items() {
        for target in metric.get("moves").items() {
            let e2e = target.get("metric").str();
            let workload = target.get("workload").str();
            assert!(END_TO_END.iter().any(|(n, _)| *n == e2e), "unknown {e2e}");
            assert!(WORKLOADS.contains(&workload), "unknown {workload}");
        }
    }
}

#[test]
fn toy_runs_emit_every_metric_with_its_unit() {
    // The sweeps write their coordinator socket under `.bench_build` of
    // the working directory; run from the repository root like the
    // benchmark does.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    std::env::set_current_dir(&root).expect("enter the repository root");
    for &name in WORKLOADS {
        let toy = workload(name, true).expect("every workload has a toy size");
        for traced in [false, true] {
            let tracer = Tracer::new();
            let mut outcome = run(&toy, 1, 0, traced.then_some(&tracer))
                .unwrap_or_else(|e| panic!("{name} (traced {traced}): {e}"));
            let line = outcome.result_line(traced);
            assert!(
                outcome.correct(),
                "{name} (traced {traced}): {:?}",
                outcome.problems
            );
            let result = Json::parse(&line);
            assert_eq!(
                result.keys(),
                ["attempted", "correct", "failed", "metrics"],
                "{line}"
            );
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert!(matches!(result.get("attempted"), Json::Number(a) if *a >= 1.0));
            assert!(matches!(result.get("failed"), Json::Number(f) if *f == 0.0));
            let expected = if traced { PER_LAYER } else { END_TO_END };
            let metrics = result.get("metrics");
            let mut names = metrics.keys();
            let mut wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
            names.sort_unstable();
            wanted.sort_unstable();
            assert_eq!(names, wanted, "{name} (traced {traced})");
            for (metric, unit) in expected {
                let entry = metrics.get(metric);
                assert_eq!(entry.get("unit").str(), *unit, "{name}: {metric}");
                assert!(matches!(entry.get("value"), Json::Number(_)), "{metric}");
                if !traced {
                    assert!(
                        matches!(entry.get("value"), Json::Number(v) if *v > 0.0),
                        "{name}: end-to-end metric {metric} must not read 0"
                    );
                }
            }
        }
    }
}
