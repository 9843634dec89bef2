//! `shard-trace` — CLI over the offline trace/sidecar operations and
//! the online stream monitors.
//!
//! The subcommand list, the usage text and the dispatch all come from
//! one table ([`COMMANDS`]); run `shard-trace help` for the live list
//! rather than trusting any comment to stay current. Usage mistakes
//! (unknown subcommand, wrong argument shape) exit 2; operational
//! failures (unreadable file, failed validation) exit 1.

use shard_core::stream::{StreamChecker, StreamRow};
use std::path::Path;
use std::process::ExitCode;

/// How a command invocation failed.
enum CliError {
    /// The arguments did not fit the command's shape (exit 2).
    Usage(String),
    /// The command ran and failed (exit 1).
    Failed(String),
}

type CmdResult = Result<(), CliError>;

/// One subcommand: its name, argument synopsis, one-line description
/// and implementation. This table is the single source of truth for
/// dispatch, the usage string and `help`.
struct Command {
    name: &'static str,
    synopsis: &'static str,
    blurb: &'static str,
    run: fn(&[String]) -> CmdResult,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "summarize",
        synopsis: "<trace.jsonl>",
        blurb: "event counts, undo/redo depth quantiles, fault tally and span times of a trace",
        run: summarize,
    },
    Command {
        name: "check",
        synopsis: "<sidecar.json> [key | metric<=limit ...]",
        blurb: "validate a sidecar: required top-level keys, counter/gauge budgets, histogram quantiles",
        run: check,
    },
    Command {
        name: "aggregate",
        synopsis: "<dir> <out.json>",
        blurb: "validate every *.json sidecar in <dir> and combine them into one document",
        run: aggregate,
    },
    Command {
        name: "diff",
        synopsis: "<a.json> <b.json>",
        blurb: "compare two sidecars ignoring wall time, spans and pool.* metrics",
        run: diff,
    },
    Command {
        name: "certify",
        synopsis: "<trace.jsonl> <cert.json>",
        blurb: "re-validate a monitor certificate against the raw trace in O(|certificate|)",
        run: certify,
    },
    Command {
        name: "store",
        synopsis: "<dir> [--stats]",
        blurb: "inspect on-disk store segments, read-only (a node dir or a fleet dir of node-*/); exit 1 on an invalid record",
        run: store,
    },
    Command {
        name: "watch",
        synopsis: "<trace.jsonl> [--window N] [--follow] [--cert-out <path>]",
        blurb: "run the online SS3 monitors over a (growing) trace, emitting window verdicts",
        run: watch,
    },
    Command {
        name: "help",
        synopsis: "",
        blurb: "print this command list",
        run: help,
    },
];

/// The usage string, generated from [`COMMANDS`].
fn usage() -> String {
    let mut out = String::from("usage: shard-trace <command> [args]\n\ncommands:\n");
    for c in COMMANDS {
        let head = format!("{} {}", c.name, c.synopsis);
        out.push_str(&format!("  {:<52} {}\n", head.trim_end(), c.blurb));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(c) => (c.run)(&args[1..]),
            None => Err(CliError::Usage(format!("unknown command {name:?}"))),
        },
        None => Err(CliError::Usage("no command given".to_string())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("shard-trace: {e}\n\n{}", usage());
            ExitCode::from(2)
        }
        Err(CliError::Failed(e)) => {
            eprintln!("shard-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fail(msg: impl Into<String>) -> CliError {
    CliError::Failed(msg.into())
}

fn bad_usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| fail(format!("{path}: {e}")))
}

fn help(_args: &[String]) -> CmdResult {
    print!("{}", usage());
    Ok(())
}

fn summarize(args: &[String]) -> CmdResult {
    let [path] = args else {
        return Err(bad_usage("summarize takes exactly one trace file"));
    };
    let summary = shard_obs::summarize(&read(path)?);
    print!("{}", summary.render());
    // An empty trace and one with no well-formed event line are
    // refused alike: neither recorded anything.
    if summary.lines == summary.malformed {
        return Err(fail(format!("{path}: trace holds no well-formed event")));
    }
    Ok(())
}

fn check(args: &[String]) -> CmdResult {
    let Some((path, keys)) = args.split_first() else {
        return Err(bad_usage(
            "check takes a sidecar file and optional required keys",
        ));
    };
    let mut required: Vec<&str> = Vec::new();
    let mut budgets: Vec<(&str, u64)> = Vec::new();
    for key in keys {
        match key.split_once("<=") {
            Some(("", _)) => return Err(bad_usage(format!("budget {key:?} names no metric"))),
            Some((counter, limit)) => {
                let limit = limit
                    .parse::<u64>()
                    .map_err(|e| bad_usage(format!("budget {key:?}: bad limit: {e}")))?;
                budgets.push((counter, limit));
            }
            None => required.push(key),
        }
    }
    let doc = shard_obs::check_sidecar(&read(path)?, &required)
        .map_err(|e| fail(format!("{path}: {e}")))?;
    for (metric, limit) in &budgets {
        // Budgets apply to counters and gauges alike; counters win on a
        // (never occurring in practice) name collision.
        let (kind, value) = [("counter", "counters"), ("gauge", "gauges")]
            .iter()
            .find_map(|(kind, section)| {
                let v = doc
                    .get(section)
                    .and_then(|c| c.get(metric))
                    .and_then(shard_obs::Json::as_u64)?;
                Some((*kind, v))
            })
            .ok_or_else(|| fail(format!("{path}: metric {metric:?} not recorded in sidecar")))?;
        if value > *limit {
            return Err(fail(format!(
                "{path}: {kind} {metric} = {value} exceeds budget {limit}"
            )));
        }
        println!("{path}: {kind} {metric} = {value} within budget {limit}");
    }
    let quantiles = shard_obs::render_sidecar_histograms(&doc);
    if !quantiles.is_empty() {
        print!("{quantiles}");
    }
    println!(
        "{path}: ok ({} required keys present, {} budgets met)",
        required.len(),
        budgets.len()
    );
    Ok(())
}

fn diff(args: &[String]) -> CmdResult {
    let [a, b] = args else {
        return Err(bad_usage("diff takes exactly two sidecar files"));
    };
    shard_obs::diff_sidecars(&read(a)?, &read(b)?).map_err(|e| fail(format!("{a} vs {b}: {e}")))?;
    println!("{a} and {b} describe the same outcome");
    Ok(())
}

fn aggregate(args: &[String]) -> CmdResult {
    let [dir, out] = args else {
        return Err(bad_usage(
            "aggregate takes a sidecar directory and an output path",
        ));
    };
    let mut sidecars: Vec<(String, String)> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| fail(format!("{dir}: {e}")))?;
    for entry in entries {
        let path = entry.map_err(|e| fail(format!("{dir}: {e}")))?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| fail(format!("{}: non-UTF-8 file name", path.display())))?
                .to_string();
            sidecars.push((stem, read(&path.display().to_string())?));
        }
    }
    if sidecars.is_empty() {
        return Err(fail(format!("{dir}: no *.json sidecars found")));
    }
    let doc = shard_obs::aggregate(&sidecars).map_err(CliError::Failed)?;
    if let Some(parent) = Path::new(out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| fail(format!("{out}: {e}")))?;
        }
    }
    std::fs::write(out, format!("{doc}\n")).map_err(|e| fail(format!("{out}: {e}")))?;
    println!("aggregated {} sidecars into {out}", sidecars.len());
    Ok(())
}

fn certify(args: &[String]) -> CmdResult {
    let [trace_path, cert_path] = args else {
        return Err(bad_usage(
            "certify takes a trace file and a certificate file",
        ));
    };
    let verdict = shard_obs::certify(&read(trace_path)?, &read(cert_path)?)
        .map_err(|e| fail(format!("{cert_path}: rejected: {e}")))?;
    println!(
        "{cert_path}: {} certificate accepted: {}",
        verdict.property, verdict.detail
    );
    Ok(())
}

/// Renders one store directory's [`shard_store::WalInspection`] — read
/// only, whatever state the directory is in — and returns whether its
/// log holds an invalid record. With `stats`, each segment's key range
/// and how a key scan of the log would read it.
fn store_one(label: &str, dir: &Path, stats: bool) -> Result<bool, CliError> {
    let info = shard_store::DiskStore::inspect(dir).map_err(|e| fail(format!("{label}: {e}")))?;
    let fmt_key = |k: Option<shard_store::StoreKey>| {
        k.map_or("-".into(), |k| format!("{}.{}", k.primary, k.secondary))
    };
    // Only the last segment can be torn (a rotation fsyncs the one it
    // closes); an invalid record anywhere else is corruption.
    let closed = |index: u64| info.segments.last().is_some_and(|last| index < last.index);
    println!("{label}:");
    for s in &info.segments {
        let tail = if s.valid_bytes < s.file_bytes {
            format!(
                "  {} ({} trailing bytes invalid)",
                if closed(s.index) { "CORRUPT" } else { "TORN" },
                s.file_bytes - s.valid_bytes
            )
        } else {
            String::new()
        };
        let keys = if stats {
            format!(", keys {} .. {}", fmt_key(s.first_key), fmt_key(s.last_key))
        } else {
            String::new()
        };
        println!(
            "  segment {:06}: {} record(s), {}/{} bytes valid{keys}{tail}",
            s.index, s.records, s.valid_bytes, s.file_bytes
        );
    }
    println!(
        "  total: {} entr{} in {} segment(s), {} bytes; keys {} .. {}",
        info.entries,
        if info.entries == 1 { "y" } else { "ies" },
        info.segments.len(),
        info.bytes,
        fmt_key(info.first_key),
        fmt_key(info.last_key),
    );
    if stats {
        println!(
            "  key scans: {}",
            if info.in_key_order {
                "the log is in key order — a seek over one fence per segment"
            } else {
                "the log is not in key order — a sort per scan"
            }
        );
    }
    if let Some(at) = info.torn_at {
        let invalid = info.segments.iter().find(|s| s.valid_bytes < s.file_bytes);
        if invalid.is_some_and(|s| closed(s.index)) {
            println!(
                "  invalid record in a closed segment at global offset {at} \
                 (not a torn tail: DiskStore::open refuses this log)"
            );
        } else {
            println!("  torn tail at global offset {at} (DiskStore::open would truncate here)");
        }
    }
    Ok(info.torn_at.is_some())
}

fn store(args: &[String]) -> CmdResult {
    let stats = args.iter().any(|a| a == "--stats");
    let dirs: Vec<&String> = args.iter().filter(|a| *a != "--stats").collect();
    let [dir] = dirs.as_slice() else {
        return Err(bad_usage("store takes exactly one directory"));
    };
    let dir = *dir;
    let root = Path::new(dir);
    // A fleet directory (what `DurableFleet` lays down) holds one
    // `node-<i>` store per replica; anything else is a single store.
    let mut nodes: Vec<std::path::PathBuf> = std::fs::read_dir(root)
        .map_err(|e| fail(format!("{dir}: {e}")))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("node-"))
        })
        .collect();
    nodes.sort();
    let mut torn = false;
    if nodes.is_empty() {
        torn = store_one(dir, root, stats)?;
    } else {
        for node in &nodes {
            let label = node.display().to_string();
            torn |= store_one(&label, node, stats)?;
        }
    }
    if torn {
        return Err(fail(
            "invalid record present (a torn tail is unsynced bytes from the last crash; \
             anywhere else it is corruption)",
        ));
    }
    Ok(())
}

fn watch(args: &[String]) -> CmdResult {
    let Some((path, rest)) = args.split_first() else {
        return Err(bad_usage("watch takes a trace file"));
    };
    let mut window = 64usize;
    let mut follow = false;
    let mut cert_out: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--window" => {
                window = it
                    .next()
                    .ok_or_else(|| bad_usage("--window takes a row count"))?
                    .parse()
                    .map_err(|e| bad_usage(format!("--window: {e}")))?;
                if window == 0 {
                    return Err(bad_usage("--window must be at least 1"));
                }
            }
            "--follow" => follow = true,
            "--cert-out" => {
                cert_out = Some(
                    it.next()
                        .ok_or_else(|| bad_usage("--cert-out takes a path"))?,
                );
            }
            other => return Err(bad_usage(format!("watch: unknown flag {other:?}"))),
        }
    }

    let mut checker = StreamChecker::new(window);
    let mut offset = 0usize;
    loop {
        let bytes = std::fs::read(path).map_err(|e| fail(format!("{path}: {e}")))?;
        if bytes.len() < offset {
            return Err(fail(format!("{path}: file shrank while watching")));
        }
        let violated = scan_new_rows(path, &mut checker, &bytes, &mut offset, !follow)?;
        if violated || !follow {
            return finish_watch(path, &checker, cert_out);
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

/// One watch poll: feeds every complete JSONL line in `bytes[offset..]`
/// into the checker and advances `offset` past them. The tail after the
/// last newline is a write in progress — possibly torn mid-line or even
/// mid-UTF-8-sequence — so it is left for the next poll untouched. On
/// the *final* pass there is no next poll: a tail that already parses
/// as a full `txn` row is a flushed line missing only its newline and
/// still counts; anything else is a torn scrap and is dropped. Returns
/// whether a transitivity violation ended the stream.
fn scan_new_rows(
    path: &str,
    checker: &mut StreamChecker,
    bytes: &[u8],
    offset: &mut usize,
    final_pass: bool,
) -> Result<bool, CliError> {
    let complete = bytes[*offset..]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(*offset, |i| *offset + i + 1);
    for chunk in bytes[*offset..complete].split(|&b| b == b'\n') {
        if chunk.is_empty() {
            continue;
        }
        let line = std::str::from_utf8(chunk)
            .map_err(|e| fail(format!("{path}: invalid UTF-8 in a complete line: {e}")))?;
        if push_row(path, checker, line)? {
            *offset = complete;
            return Ok(true);
        }
    }
    *offset = complete;
    if final_pass && complete < bytes.len() {
        if let Ok(frag) = std::str::from_utf8(&bytes[complete..]) {
            let frag = frag.trim();
            if frag.contains("\"event\":\"txn\"") && StreamRow::from_json_line(frag).is_ok() {
                *offset = bytes.len();
                return push_row(path, checker, frag);
            }
        }
    }
    Ok(false)
}

/// Feeds one complete trace line into the checker (non-`txn` events
/// pass through), printing any window verdict. Returns whether the
/// stream is now in violation.
fn push_row(path: &str, checker: &mut StreamChecker, line: &str) -> Result<bool, CliError> {
    if !line.contains("\"event\":\"txn\"") {
        return Ok(false);
    }
    let row = StreamRow::from_json_line(line).map_err(|e| fail(format!("{path}: {e}")))?;
    let verdict = checker
        .try_push(row.index, row.time, &row.missed)
        .map_err(|e| fail(format!("{path}: {e}")))?;
    if let Some(verdict) = verdict {
        println!("{}", verdict.to_json_line());
    }
    Ok(!checker.transitive_so_far())
}

/// Prints the final report (and certificates), writes the violation
/// certificate if asked, and turns a violated stream into exit 1.
fn finish_watch(path: &str, checker: &StreamChecker, cert_out: Option<&str>) -> CmdResult {
    let report = checker.report();
    println!(
        "{}",
        shard_obs::ObjWriter::new()
            .str("event", "monitor.final")
            .u64("rows", report.rows as u64)
            .bool("transitive", report.transitive)
            .u64("max_missed", report.max_missed as u64)
            .u64("delay_bound", report.min_delay_bound)
            .finish()
    );
    for cert in &report.certificates {
        println!("{}", cert.to_json());
    }
    if let Some(out) = cert_out {
        let cert = report
            .violation()
            .ok_or_else(|| fail(format!("{path}: no violation, no certificate to write")))?;
        std::fs::write(out, format!("{}\n", cert.to_json()))
            .map_err(|e| fail(format!("{out}: {e}")))?;
    }
    if report.transitive {
        Ok(())
    } else {
        Err(fail(format!(
            "{path}: transitivity violated after {} rows (certificate above)",
            report.rows
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_table_is_the_single_source_of_truth() {
        // Unique names, and the generated usage mentions every one.
        let u = usage();
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(
                COMMANDS[i + 1..].iter().all(|d| d.name != c.name),
                "duplicate command {}",
                c.name
            );
            assert!(u.contains(c.name), "usage omits {}", c.name);
            assert!(u.contains(c.blurb), "usage omits the {} blurb", c.name);
        }
    }

    #[test]
    fn watch_scan_tolerates_byte_by_byte_appends() {
        // A live writer appends in arbitrary chunks — the scan must
        // treat every prefix as a valid intermediate state: complete
        // lines land exactly once, the torn tail waits, and on the
        // final pass a flushed-but-unterminated row still counts.
        let rows: Vec<String> = (0..6)
            .map(|i| {
                StreamRow {
                    index: i,
                    time: i as u64 * 3,
                    missed: vec![],
                }
                .to_json_line()
            })
            .collect();
        let mut trace = String::from("{\"event\":\"merge.append\",\"node\":0}\n");
        for r in &rows[..5] {
            trace.push_str(r);
            trace.push('\n');
        }
        trace.push_str(&rows[5]); // flushed, newline not yet written
        let bytes = trace.as_bytes();

        // One checker fed as the file grows a byte at a time.
        let mut checker = StreamChecker::new(4);
        let mut offset = 0usize;
        for end in 0..=bytes.len() {
            let final_pass = end == bytes.len();
            let violated = scan_new_rows("t", &mut checker, &bytes[..end], &mut offset, final_pass)
                .unwrap_or_else(|_| panic!("poll at byte {end} must not error"));
            assert!(!violated);
        }
        assert_eq!(checker.rows(), 6, "all rows, tail included, land once");

        // A from-scratch non-follow watch of any prefix (a reader
        // racing the writer) never errors and never over-counts.
        for end in 0..=bytes.len() {
            let mut checker = StreamChecker::new(4);
            let mut offset = 0usize;
            scan_new_rows("t", &mut checker, &bytes[..end], &mut offset, true)
                .unwrap_or_else(|_| panic!("prefix of {end} bytes must not error"));
            assert!(checker.rows() <= 6);
        }
    }

    #[test]
    fn store_inspects_fleets_and_flags_torn_tails() {
        use shard_store::{DiskStore, Store, StoreKey, StoreOptions};
        let root = std::env::temp_dir().join(format!("shard-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let node = root.join("node-0");
        let (mut disk, _) = DiskStore::open(&node, StoreOptions::default()).unwrap();
        for i in 0..5u64 {
            disk.append(
                StoreKey {
                    primary: i,
                    secondary: 0,
                },
                &[7u8; 9],
            )
            .unwrap();
        }
        disk.sync().unwrap();
        drop(disk);

        // Clean: both the fleet directory and the node directory pass.
        let fleet_arg = [root.display().to_string()];
        assert!(store(&fleet_arg).is_ok());
        assert!(store(&[node.display().to_string()]).is_ok());

        // Cut the last record in half: inspection must report the torn
        // tail and the command must fail (non-zero exit in the CLI).
        let seg = std::fs::read_dir(&node)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.is_file())
            .unwrap();
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(store(&fleet_arg), Err(CliError::Failed(_))));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn check_budgets_cover_counters_and_gauges() {
        let dir = std::env::temp_dir().join(format!("shard-cli-check-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sidecar = dir.join("run.json");
        std::fs::write(
            &sidecar,
            r#"{"counters":{"merge.appends":7},"gauges":{"state.peak_resident_bytes":4096}}"#,
        )
        .unwrap();
        let path = sidecar.display().to_string();
        let run = |budget: &str| check(&[path.clone(), budget.to_string()]);
        assert!(run("merge.appends<=7").is_ok());
        assert!(run("state.peak_resident_bytes<=4096").is_ok(), "gauge met");
        assert!(
            matches!(
                run("state.peak_resident_bytes<=4095"),
                Err(CliError::Failed(_))
            ),
            "gauge budget exceeded"
        );
        assert!(
            matches!(run("state.other<=1"), Err(CliError::Failed(_))),
            "unknown metric in either section fails"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_stats_reads_a_torn_directory_and_changes_no_byte_of_it() {
        use shard_store::{DiskStore, Store, StoreKey, StoreOptions};
        let root =
            std::env::temp_dir().join(format!("shard-cli-store-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let opts = StoreOptions {
            segment_bytes: 4096,
            ..StoreOptions::default()
        };
        let (mut disk, _) = DiskStore::open(&root, opts).unwrap();
        for i in 0..500u64 {
            disk.append(StoreKey::new(i, 0), &i.to_be_bytes()).unwrap();
        }
        disk.sync().unwrap();
        drop(disk);
        let files = || -> Vec<(std::path::PathBuf, Vec<u8>)> {
            let mut files: Vec<_> = std::fs::read_dir(&root)
                .unwrap()
                .map(|e| e.unwrap().path())
                .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
                .collect();
            files.sort();
            files
        };
        let args = [root.display().to_string(), "--stats".to_string()];
        assert!(store(&args).is_ok());
        // Flag order must not matter.
        let flag_first = ["--stats".to_string(), root.display().to_string()];
        assert!(store(&flag_first).is_ok());

        // Tear the tail: `--stats` still reports (exit 1) and leaves
        // every file as the crash left it — the inspection is not the
        // recovery.
        let (last, bytes) = files().pop().unwrap();
        std::fs::write(&last, &bytes[..bytes.len() - 5]).unwrap();
        let before = files();
        assert!(before.len() > 2, "several segments");
        assert!(matches!(store(&args), Err(CliError::Failed(_))));
        assert_eq!(files(), before, "no file created, cut or rewritten");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn argument_shape_errors_are_usage_errors() {
        assert!(matches!(summarize(&[]), Err(CliError::Usage(_))));
        assert!(matches!(diff(&[]), Err(CliError::Usage(_))));
        assert!(matches!(certify(&[]), Err(CliError::Usage(_))));
        assert!(matches!(store(&[]), Err(CliError::Usage(_))));
        let bad = [
            "t.jsonl".to_string(),
            "--window".to_string(),
            "x".to_string(),
        ];
        assert!(matches!(watch(&bad), Err(CliError::Usage(_))));
        // A budget must name its metric.
        let nameless = ["run.json".to_string(), "<=5".to_string()];
        assert!(matches!(check(&nameless), Err(CliError::Usage(_))));
        // A missing file is operational, not usage.
        let missing = ["/nonexistent/trace.jsonl".to_string()];
        assert!(matches!(summarize(&missing), Err(CliError::Failed(_))));
    }

    #[test]
    fn a_trace_with_no_well_formed_event_is_refused() {
        let dir = std::env::temp_dir().join(format!("shard-cli-summarize-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let run = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            summarize(&[path.display().to_string()])
        };
        assert!(matches!(run("empty.jsonl", ""), Err(CliError::Failed(_))));
        let base64 = "eyJldmVudCI6InR4biJ9\n".repeat(6);
        assert!(matches!(
            run("b64.jsonl", &base64),
            Err(CliError::Failed(_))
        ));
        let one_event = format!("{base64}{{\"event\":\"txn\"}}\n");
        assert!(run("mixed.jsonl", &one_event).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
