//! Validates telemetry output files: the O3PipeView pipeline trace written
//! by `dkip-sim timeseries` (line schema plus per-µop monotone stage timestamps)
//! and, optionally, an interval-metrics file (column schema plus monotone
//! cycle/committed columns). CI's trace-smoke job runs this over one kernel
//! per core family.
//!
//!     trace_check <trace-file> [metrics=<metrics-file>] [retires=N]
//!
//! Exits 0 when every check passes, 1 with a message naming the offending
//! line otherwise, and 2 on a malformed command line.
use dkip_model::telemetry::METRICS_COLUMNS;

fn fail(message: String) -> ! {
    eprintln!("trace_check: {message}");
    std::process::exit(1);
}

/// Parses `O3PipeView:<stage>:<tick>` and returns the tick.
fn stage_tick(line: &str, stage: &str, lineno: usize) -> u64 {
    let prefix = format!("O3PipeView:{stage}:");
    let Some(rest) = line.strip_prefix(&prefix) else {
        fail(format!(
            "line {lineno}: expected {prefix}<tick>, got {line:?}"
        ));
    };
    let tick = rest.split(':').next().unwrap_or_default();
    tick.parse::<u64>()
        .unwrap_or_else(|_| fail(format!("line {lineno}: non-numeric {stage} tick {tick:?}")))
}

/// Validates one seven-line O3PipeView block; returns the fetch-line seq.
fn check_block(lines: &[(usize, &str)]) -> u64 {
    let (lineno, fetch_line) = lines[0];
    // O3PipeView:fetch:<tick>:0x<pc>:0:<seq>:<label...>
    let fields: Vec<&str> = fetch_line.splitn(7, ':').collect();
    if fields.len() < 7 || fields[0] != "O3PipeView" || fields[1] != "fetch" {
        fail(format!(
            "line {lineno}: malformed fetch line {fetch_line:?}"
        ));
    }
    let fetch = fields[2]
        .parse::<u64>()
        .unwrap_or_else(|_| fail(format!("line {lineno}: non-numeric fetch tick")));
    if !fields[3].starts_with("0x") {
        fail(format!(
            "line {lineno}: PC must be hex, got {:?}",
            fields[3]
        ));
    }
    let seq = fields[5]
        .parse::<u64>()
        .unwrap_or_else(|_| fail(format!("line {lineno}: non-numeric seq {:?}", fields[5])));
    let mut prev = fetch;
    for (offset, stage) in ["decode", "rename", "dispatch", "issue", "complete"]
        .iter()
        .enumerate()
    {
        let (lineno, line) = lines[offset + 1];
        let tick = stage_tick(line, stage, lineno);
        if tick < prev {
            fail(format!(
                "line {lineno}: {stage} tick {tick} precedes the previous stage at {prev} \
                 (seq {seq})"
            ));
        }
        prev = tick;
    }
    let (lineno, retire_line) = lines[6];
    let retire = stage_tick(retire_line, "retire", lineno);
    if retire < prev {
        fail(format!(
            "line {lineno}: retire tick {retire} precedes complete at {prev} (seq {seq})"
        ));
    }
    if !retire_line.ends_with(":store:0") {
        fail(format!("line {lineno}: retire line must end in :store:0"));
    }
    seq
}

fn check_trace(path: &str, expected_retires: Option<u64>) -> u64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|err| fail(format!("cannot read {path}: {err}")));
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(idx, line)| (idx + 1, line))
        .collect();
    if !lines.len().is_multiple_of(7) {
        fail(format!(
            "{path}: {} lines is not a whole number of 7-line µop blocks",
            lines.len()
        ));
    }
    let mut retires = 0u64;
    for block in lines.chunks(7) {
        check_block(block);
        retires += 1;
    }
    if retires == 0 {
        fail(format!("{path}: empty trace"));
    }
    if let Some(expected) = expected_retires {
        if retires != expected {
            fail(format!(
                "{path}: {retires} retired µops, expected {expected}"
            ));
        }
    }
    retires
}

fn check_metrics(path: &str) -> u64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|err| fail(format!("cannot read {path}: {err}")));
    let jsonl = path.ends_with(".jsonl") || path.ends_with(".json");
    let mut rows = 0u64;
    let mut prev = (0u64, 0u64); // (cycle, committed)
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if jsonl {
            if !(line.starts_with("{\"interval\": ") && line.ends_with('}')) {
                fail(format!("{path} line {lineno}: malformed JSON-lines row"));
            }
            rows += 1;
            continue;
        }
        if lineno == 1 {
            let expected = METRICS_COLUMNS.join(",");
            if line != expected {
                fail(format!("{path}: header {line:?} != {expected:?}"));
            }
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != METRICS_COLUMNS.len() {
            fail(format!(
                "{path} line {lineno}: {} fields, expected {}",
                fields.len(),
                METRICS_COLUMNS.len()
            ));
        }
        rows += 1;
        if fields[0] != rows.to_string() {
            fail(format!(
                "{path} line {lineno}: interval column {:?} is not {rows}",
                fields[0]
            ));
        }
        let cycle = fields[1]
            .parse::<u64>()
            .unwrap_or_else(|_| fail(format!("{path} line {lineno}: non-numeric cycle")));
        let committed = fields[2]
            .parse::<u64>()
            .unwrap_or_else(|_| fail(format!("{path} line {lineno}: non-numeric committed")));
        if cycle <= prev.0 || committed <= prev.1 {
            fail(format!(
                "{path} line {lineno}: cycle/committed must be strictly increasing"
            ));
        }
        prev = (cycle, committed);
    }
    if rows == 0 {
        fail(format!("{path}: no metrics rows"));
    }
    rows
}

fn main() {
    let mut trace_path = None;
    let mut metrics_path = None;
    let mut retires = None;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("metrics=") {
            metrics_path = Some(v.to_owned());
        } else if let Some(v) = arg.strip_prefix("retires=") {
            match v.parse::<u64>() {
                Ok(n) => retires = Some(n),
                Err(_) => {
                    eprintln!("invalid retires={v:?}: expected an unsigned integer");
                    std::process::exit(2);
                }
            }
        } else if trace_path.is_none() {
            trace_path = Some(arg);
        } else {
            eprintln!("unexpected argument {arg:?}");
            eprintln!("usage: trace_check <trace-file> [metrics=<metrics-file>] [retires=N]");
            std::process::exit(2);
        }
    }
    let Some(trace_path) = trace_path else {
        eprintln!("usage: trace_check <trace-file> [metrics=<metrics-file>] [retires=N]");
        std::process::exit(2);
    };
    let retired = check_trace(&trace_path, retires);
    println!("{trace_path}: OK ({retired} µop blocks, monotone stage timestamps)");
    if let Some(metrics_path) = metrics_path {
        let rows = check_metrics(&metrics_path);
        println!("{metrics_path}: OK ({rows} metrics rows)");
    }
}
