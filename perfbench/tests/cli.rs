//! The benchmark's own tests, on the tiny scale: every declared metric
//! is emitted with its unit, the sim-outcome digest repeats between
//! timed and traced runs, and each outcome check can fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

struct Run {
    ok: bool,
    stdout: String,
    stderr: String,
}

impl Run {
    fn last_line(&self) -> &str {
        self.stdout.lines().last().expect("output")
    }

    fn digest(&self) -> &str {
        self.stdout
            .lines()
            .find_map(|l| l.strip_prefix("sim-outcome digest = "))
            .expect("digest line")
    }
}

fn perfbench(workload: &str, trace: u8, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .args(extra)
        .output()
        .expect("perfbench runs");
    Run {
        ok: out.status.success(),
        stdout: String::from_utf8(out.stdout).expect("utf-8"),
        stderr: String::from_utf8(out.stderr).expect("utf-8"),
    }
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|item| {
            let name = item.split('"').next().expect("name").to_owned();
            let unit = item
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("unit")
                .to_owned();
            (name, unit)
        })
        .collect()
}

fn assert_emits(run: &Run, metrics: &[(String, String)]) {
    let line = run.last_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{line}");
    assert_eq!(
        line.matches("\"value\": ").count(),
        metrics.len(),
        "exactly the declared metrics: {line}"
    );
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        let rest = &line[at + key.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .unwrap_or_else(|_| panic!("{name} is not a number"));
        assert!(value.is_finite(), "{name}");
        let unit_at = rest.find("\"unit\": \"").expect("unit");
        assert!(
            rest[unit_at..].starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{name} unit: {rest}"
        );
    }
}

#[test]
fn timed_runs_emit_every_end_to_end_metric() {
    let metrics = declared("end_to_end");
    assert!(metrics.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in ["ingest", "query"] {
        let run = perfbench(w, 0, &[]);
        assert!(run.ok, "{w}: {}", run.stdout);
        assert_emits(&run, &metrics);
        for (name, _) in &metrics {
            let line = run.last_line();
            let at = line
                .find(&format!("\"{name}\": {{\"value\": "))
                .expect("present");
            assert!(
                !line[at..].starts_with(&format!("\"{name}\": {{\"value\": 0,")),
                "{w} {name} is 0"
            );
        }
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_and_keep_the_digest() {
    let metrics = declared("per_layer");
    for w in ["ingest", "query"] {
        let traced = perfbench(w, 1, &[]);
        assert!(traced.ok, "{w}: {}", traced.stdout);
        assert_emits(&traced, &metrics);
        let timed = perfbench(w, 0, &[]);
        assert_eq!(timed.digest(), traced.digest(), "{w}: timed vs traced");
    }
}

/// Each injected defect fails the run through the check named by the
/// reasons it must print.
#[test]
fn each_outcome_check_can_fail() {
    for (w, defect, reasons) in [
        ("ingest", "drop-delivery", &["subscriber got"][..]),
        ("ingest", "digest", &["sim-outcome digest"]),
        ("ingest", "drop-sample", &["!= raw fold"]),
        ("ingest", "extra-frame", &["samples, ingested"]),
        ("query", "drop-entity", &["entities"]),
        (
            "query",
            "drop-point",
            &["stored points returned", "JSON and XML answers differ"],
        ),
        ("query", "digest", &["sim-outcome digest"]),
    ] {
        let run = perfbench(w, 0, &["--inject", defect]);
        assert!(!run.ok, "{w} with {defect} must exit non-zero");
        for reason in reasons {
            assert!(
                run.stderr.contains(reason),
                "{w} {defect}: no {reason:?} in {}",
                run.stderr
            );
        }
        let line = run.last_line();
        assert!(
            line.starts_with("{\"correct\": false,"),
            "{w} {defect}: {line}"
        );
        assert!(!line.contains("\"failed\": 0,"), "{w} {defect}: {line}");
        let frac: f64 = run
            .stdout
            .lines()
            .find_map(|l| l.strip_prefix("failed_frac = "))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .expect("failed_frac line");
        assert!(frac > 0.0, "{w} {defect}: failed_frac {frac}");
    }
}
