//! Smoke runs of every workload at `--smoke` sizes: each must pass its
//! correctness gate and print every metric `BENCHMARK.json` declares.

use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

fn declared(section: &str) -> Vec<String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest).expect("BENCHMARK.json next to the package");
    let value = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let map = value.as_map().expect("an object");
    let (_, entries) = map
        .iter()
        .find(|(k, _)| k == section)
        .expect("section present");
    entries
        .as_seq()
        .expect("a list")
        .iter()
        .map(|entry| {
            let fields = entry.as_map().expect("an object");
            let (_, name) = fields.iter().find(|(k, _)| k == "name").expect("a name");
            name.as_str().expect("a string").to_string()
        })
        .collect()
}

/// The runs time themselves, so they take turns rather than share the
/// cores with each other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn smoke(workload: &str, trace: bool) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let work = tempdir(workload, trace);
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&work)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::parse_value(last).expect("the last line is JSON");
    let fields = result.as_map().expect("an object");
    let get = |key: &str| &fields.iter().find(|(k, _)| k == key).expect(key).1;
    assert_eq!(get("correct").as_bool(), Some(true));
    assert!(get("attempted").as_u64().expect("a count") >= 1);
    assert_eq!(get("failed").as_u64(), Some(0), "{workload}: {last}");
    let metrics = get("metrics").as_map().expect("metrics");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    for name in declared(section) {
        assert!(
            printed.contains(&name.as_str()),
            "{workload} does not print {name}"
        );
    }
    assert_eq!(
        printed.len(),
        declared(section).len(),
        "{workload} prints extra metrics"
    );
    std::fs::remove_dir_all(&work).ok();
}

fn tempdir(workload: &str, trace: bool) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    dir
}

#[test]
fn cold_translate_smoke() {
    smoke("cold_translate", false);
    smoke("cold_translate", true);
}

#[test]
fn durable_ingest_smoke() {
    smoke("durable_ingest", false);
    smoke("durable_ingest", true);
}
