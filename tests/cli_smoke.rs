//! End-to-end smoke tests for the `rslpa-cli` binary: every subcommand runs
//! on a tiny synthetic graph and exits 0.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rslpa-cli"))
}

fn tmp_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed with {:?}\nstdout: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// Two triangles joined by a bridge — the quickstart graph.
const TINY_GRAPH: &str = "# two communities\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3\n";

#[test]
fn no_args_prints_usage_and_exits_2() {
    let out = cli().output().expect("spawn rslpa-cli");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn stats_on_tiny_graph() {
    let dir = tmp_dir("stats");
    let graph = dir.join("graph.txt");
    fs::write(&graph, TINY_GRAPH).unwrap();
    let out = cli().arg("stats").arg(&graph).output().expect("spawn");
    assert_success(&out, "stats");
    assert!(!out.stdout.is_empty(), "stats prints something");
}

#[test]
fn detect_writes_a_cover() {
    let dir = tmp_dir("detect");
    let graph = dir.join("graph.txt");
    let cover = dir.join("cover.txt");
    fs::write(&graph, TINY_GRAPH).unwrap();
    let out = cli()
        .args(["detect"])
        .arg(&graph)
        .args(["--iterations", "50", "--seed", "42", "--out"])
        .arg(&cover)
        .output()
        .expect("spawn");
    assert_success(&out, "detect");
    let cover = fs::read_to_string(&cover).expect("cover file written");
    assert!(!cover.trim().is_empty(), "at least one community line");
    for token in cover.split_whitespace() {
        let v: u32 = token.parse().expect("cover lines are vertex ids");
        assert!(v < 6);
    }
}

#[test]
fn stream_applies_edit_batches() {
    let dir = tmp_dir("stream");
    let graph = dir.join("graph.txt");
    let edits = dir.join("edits.txt");
    fs::write(&graph, TINY_GRAPH).unwrap();
    // Batch 1 inserts a cross edge; batch 2 deletes it again.
    fs::write(&edits, "+ 1 4\n\n- 1 4\n").unwrap();
    let out = cli()
        .args(["stream"])
        .arg(&graph)
        .arg(&edits)
        .args(["--iterations", "40", "--seed", "7", "--detect-every", "1"])
        .output()
        .expect("spawn");
    assert_success(&out, "stream");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("batch   1"),
        "per-batch report printed:\n{stdout}"
    );
    assert!(
        stdout.contains("batch   2"),
        "second batch processed:\n{stdout}"
    );
}

#[test]
fn stream_fails_on_malformed_edit_lines() {
    let dir = tmp_dir("stream_malformed");
    let graph = dir.join("graph.txt");
    fs::write(&graph, TINY_GRAPH).unwrap();
    // A malformed line must fail loudly with its line number — silently
    // skipping it would desynchronize the replayed graph.
    for (name, contents, needle) in [
        ("garbage", "+ 1 4\nbogus line here\n", "line 2"),
        ("missing-vertex", "+ 1\n", "line 1"),
        ("bad-op", "* 1 4\n", "unknown op"),
        ("bad-vertex", "+ one 4\n", "bad vertex"),
        ("trailing", "+ 1 4 extra\n", "trailing token"),
    ] {
        let edits = dir.join(format!("{name}.txt"));
        fs::write(&edits, contents).unwrap();
        let out = cli()
            .args(["stream"])
            .arg(&graph)
            .arg(&edits)
            .args(["--iterations", "10"])
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: malformed edits must exit nonzero"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error") && stderr.contains(needle),
            "{name}: diagnostic should mention {needle:?}, got: {stderr}"
        );
    }
}

#[test]
fn replay_serves_edit_log_with_queries() {
    let dir = tmp_dir("replay");
    let graph = dir.join("graph.txt");
    let edits = dir.join("edits.txt");
    let stats = dir.join("stats.json");
    fs::write(&graph, TINY_GRAPH).unwrap();
    // Two barriers: one mid-log, one implicit at the end.
    fs::write(&edits, "+ 0 3\n+ 1 4\n\n- 2 3\n- 0 3\n").unwrap();
    let out = cli()
        .args(["replay"])
        .arg(&graph)
        .arg(&edits)
        .args([
            "--iterations",
            "30",
            "--seed",
            "7",
            "--queries-per-edit",
            "3",
        ])
        .arg("--stats-json")
        .arg(&stats)
        .output()
        .expect("spawn");
    assert_success(&out, "replay");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("epoch 0:"),
        "genesis line printed:\n{stdout}"
    );
    assert!(stdout.contains("replayed 4 edits"), "summary:\n{stdout}");
    let json = fs::read_to_string(&stats).expect("stats json written");
    assert!(json.contains("\"edits_applied\":4"), "{json}");
    assert!(json.contains("\"query_p99_ns\""), "{json}");
}

#[test]
fn replay_sharded_matches_single_shard_and_reports_shards() {
    // The same edit log (with a barrier per batch) must print identical
    // epoch lines at every shard count, and the stats JSON must be
    // self-describing: shard count plus per-shard edit/repair counts.
    let dir = tmp_dir("replay_sharded");
    let graph = dir.join("graph.txt");
    let edits = dir.join("edits.txt");
    fs::write(&graph, TINY_GRAPH).unwrap();
    fs::write(&edits, "+ 0 3\n+ 1 4\n\n- 2 3\n+ 0 5\n\n- 0 3\n").unwrap();
    let run = |shards: &str, json_path: &PathBuf| -> String {
        let out = cli()
            .args(["replay"])
            .arg(&graph)
            .arg(&edits)
            .args(["--iterations", "30", "--seed", "7", "--shards", shards])
            .arg("--stats-json")
            .arg(json_path)
            .output()
            .expect("spawn");
        assert_success(&out, "replay --shards");
        // Epoch 0 ends with its wall-clock "(initial propagation N.NNs)",
        // which varies with host load; every other field must match.
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("epoch"))
            .map(|l| l.split(" (initial propagation").next().unwrap_or(l))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let json1 = dir.join("stats1.json");
    let json3 = dir.join("stats3.json");
    let epochs_single = run("1", &json1);
    let epochs_sharded = run("3", &json3);
    assert_eq!(
        epochs_single, epochs_sharded,
        "sharding changed the published epochs"
    );
    let json = fs::read_to_string(&json3).unwrap();
    assert!(json.contains("\"shards\":3"), "{json}");
    assert!(json.contains("\"shard_edits_routed\":["), "{json}");
    assert!(json.contains("\"shard_slots_repaired\":["), "{json}");
    assert!(
        fs::read_to_string(&json1).unwrap().contains("\"shards\":1"),
        "single-shard json is self-describing too"
    );
}

#[test]
fn replay_fails_on_malformed_edit_lines() {
    let dir = tmp_dir("replay_malformed");
    let graph = dir.join("graph.txt");
    let edits = dir.join("edits.txt");
    fs::write(&graph, TINY_GRAPH).unwrap();
    fs::write(&edits, "+ 0 3\n+ nope 4\n").unwrap();
    let out = cli()
        .args(["replay"])
        .arg(&graph)
        .arg(&edits)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
}

#[test]
fn iterations_above_the_bound_are_a_usage_error() {
    let dir = tmp_dir("iterations_bound");
    let graph = dir.join("graph.txt");
    let edits = dir.join("edits.txt");
    fs::write(&graph, TINY_GRAPH).unwrap();
    fs::write(&edits, "+ 0 3\n").unwrap();
    for cmd in ["detect", "stream", "replay", "serve"] {
        let mut run = cli();
        run.arg(cmd).arg(&graph);
        if cmd != "detect" {
            run.arg(&edits);
        }
        let out = run.args(["--iterations", "65536"]).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr.starts_with("error: --iterations") && stderr.contains("65535"),
            "{cmd}: diagnostic should name the bound, got: {stderr}"
        );
    }
}

#[test]
fn generate_detect_round_trip() {
    let dir = tmp_dir("generate");
    let graph = dir.join("ba.txt");
    let out = cli()
        .args(["generate", "ba", "60", "--seed", "1", "--out"])
        .arg(&graph)
        .output()
        .expect("spawn");
    assert_success(&out, "generate ba");
    assert!(graph.exists(), "graph file written");

    let out = cli()
        .args(["detect"])
        .arg(&graph)
        .args(["--iterations", "30", "--seed", "3"])
        .output()
        .expect("spawn");
    assert_success(&out, "detect on generated graph");
    assert!(!out.stdout.is_empty(), "cover written to stdout");
}

/// Keys of the outermost object of a JSON document whose strings hold no
/// escapes (true of the stats JSON, where only keys are strings).
fn top_level_keys(json: &str) -> Vec<&str> {
    let (mut keys, mut depth, mut open) = (Vec::new(), 0usize, None);
    for (i, c) in json.char_indices() {
        match (open, c) {
            (Some(start), '"') => {
                if depth == 1 && json[i + 1..].starts_with(':') {
                    keys.push(&json[start..i]);
                }
                open = None;
            }
            (Some(_), _) => {}
            (None, '"') => open = Some(i + 1),
            (None, '{' | '[') => depth += 1,
            (None, '}' | ']') => depth -= 1,
            _ => {}
        }
    }
    keys
}

#[test]
fn stats_json_table_documents_every_key() {
    let json = rslpa::serve::StatsReport::default().to_json();
    let keys = top_level_keys(&json);
    assert!(
        keys.contains(&"schema_version"),
        "no keys parsed from {json}"
    );
    let rows: Vec<&str> = include_str!("../src/bin/rslpa-cli.rs")
        .lines()
        .filter(|line| line.starts_with("//! | `"))
        .collect();
    let undocumented: Vec<&str> = keys
        .into_iter()
        .filter(|key| !rows.iter().any(|row| row.contains(&format!("`{key}`"))))
        .collect();
    assert!(
        undocumented.is_empty(),
        "--stats-json keys missing from the rslpa-cli table: {undocumented:?}"
    );
}
