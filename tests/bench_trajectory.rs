//! The committed benchmark trajectory (`bench/BENCH_*.json`) stays
//! machine-readable. Every file parses with the workspace's JSON reader
//! and repeats no key within an object: readers disagree on which copy
//! of a repeated key wins. Both sides, parent and change, hold a correct
//! perfbench result with no failed operation for every workload at both
//! trace settings.

use std::path::Path;

use serde::Value;

const WORKLOADS: [&str; 4] = ["simulate", "trace", "check", "serve"];

/// The first key repeated within one object, anywhere in `value`.
fn repeated_key(value: &Value) -> Option<&str> {
    match value {
        Value::Obj(pairs) => pairs
            .iter()
            .enumerate()
            .find(|(i, (key, _))| pairs[..*i].iter().any(|(k, _)| k == key))
            .map(|(_, (key, _))| key.as_str())
            .or_else(|| pairs.iter().find_map(|(_, v)| repeated_key(v))),
        Value::Arr(items) => items.iter().find_map(repeated_key),
        _ => None,
    }
}

/// What is wrong with one trajectory file.
fn problems(text: &str) -> Vec<String> {
    let doc = match serde_json::parse_value(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("does not parse: {e}")],
    };
    let mut problems: Vec<String> = repeated_key(&doc)
        .map(|key| format!("repeats the key `{key}`"))
        .into_iter()
        .collect();
    for side in ["parent", "change"] {
        for workload in WORKLOADS {
            for trace in ["trace_0", "trace_1"] {
                let at = format!("{side}.{workload}.{trace}");
                let run = [side, workload, trace, "result"]
                    .iter()
                    .try_fold(&doc, |v, key| v.get(key));
                let Some(result) = run else {
                    problems.push(format!("{at} has no result"));
                    continue;
                };
                if result.get("correct") != Some(&Value::Bool(true)) {
                    problems.push(format!("{at} is not correct"));
                }
                if result.get("failed") != Some(&Value::U64(0)) {
                    problems.push(format!("{at} failed operations"));
                }
            }
        }
    }
    problems
}

#[test]
fn every_committed_trajectory_is_complete_and_unambiguous() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench");
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        files += 1;
        let problems = problems(&std::fs::read_to_string(&path).unwrap());
        assert!(problems.is_empty(), "{name}: {problems:?}");
    }
    assert!(files > 0, "no trajectory under {}", dir.display());
}
