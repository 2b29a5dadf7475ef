//! `pw` driven in-process: every pinned output of the five subcommands —
//! the model checker's counts, the chaos fingerprints at 1 and 4 shards,
//! the shard-invariant trace log, the metrics report round trip and a
//! loopback cluster — asserted on the exact text the binary prints.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Runs `pw args…` and returns its exit code, stdout and stderr.
fn pw(args: &[&str]) -> (u8, String, String) {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = peerwindow_cli::run(&args, &mut out, &mut err);
    let text = |b: Vec<u8>| String::from_utf8(b).expect("pw writes UTF-8");
    (code, text(out), text(err))
}

fn tmp_path(name: &str) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("pw");
    std::fs::create_dir_all(&dir).expect("create the test output directory");
    dir.join(name).to_string_lossy().into_owned()
}

/// FNV-1a over a file's bytes: a dependency-free content pin.
fn fnv1a(path: &str) -> u64 {
    let bytes = std::fs::read(path).expect("read the pinned file");
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------
// The shared argument reader
// ---------------------------------------------------------------------

#[test]
fn no_subcommand_is_a_usage_error() {
    for args in [&[][..], &["frobnicate"]] {
        let (code, out, err) = pw(args);
        assert_eq!(code, 2);
        assert!(out.is_empty());
        assert!(err.starts_with("usage: pw <chaos | check | cluster | stat | trace>"));
    }
}

#[test]
fn unknown_flag_is_a_usage_error_in_every_subcommand() {
    for (args, usage) in [
        (&["chaos", "crash-storm", "--bogus"][..], "usage: pw chaos"),
        (&["check", "run", "--bogus"], "usage: pw check"),
        (&["cluster", "--bogus"], "usage: pw cluster"),
        (
            &["stat", "prom", "report.jsonl", "--bogus"],
            "usage: pw stat",
        ),
        (&["trace", "record", "--bogus"], "usage: pw trace"),
    ] {
        let (code, out, err) = pw(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(out.is_empty(), "{args:?}");
        assert!(
            err.starts_with("unexpected argument \"--bogus\"\n"),
            "{args:?}: {err}"
        );
        assert!(err.contains(usage), "{args:?}: {err}");
    }
}

#[test]
fn missing_value_is_a_usage_error() {
    for (args, msg) in [
        (
            &["chaos", "crash-storm", "--shards"][..],
            "--shards needs a value",
        ),
        (&["check", "run", "--ids"], "--ids needs a value"),
        (&["cluster", "--pwnode"], "--pwnode needs a value"),
        (&["trace", "record", "--out"], "--out needs a value"),
    ] {
        let (code, _, err) = pw(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(err.starts_with(msg), "{args:?}: {err}");
    }
}

#[test]
fn unparsable_value_is_a_usage_error() {
    let (code, _, err) = pw(&["chaos", "crash-storm", "--shards", "four"]);
    assert_eq!(code, 2);
    assert!(
        err.starts_with("--shards: cannot parse \"four\"\n"),
        "{err}"
    );
    let (code, _, err) = pw(&["check", "run", "--levels", "0,x"]);
    assert_eq!(code, 2);
    assert!(err.starts_with("--levels: cannot parse \"x\"\n"), "{err}");
}

#[test]
fn out_of_range_options_are_usage_errors() {
    for args in [
        &["chaos", "crash-storm", "--nodes", "4"][..],
        &["chaos", "no-such-scenario"],
        &["check", "explore"],
        &["check", "run", "--ids", "9"],
        &["cluster", "--plan", "storm"],
        &["trace", "record", "--shards", "0"],
    ] {
        assert_eq!(pw(args).0, 2, "{args:?}");
    }
}

// ---------------------------------------------------------------------
// pw check: the model checker's pinned counts
// ---------------------------------------------------------------------

#[test]
fn check_stats_dedup_finishes_where_equal_budget_brute_force_does_not() {
    let (code, out, _) = pw(&["check", "stats", "--ids", "6", "--depth", "3"]);
    assert_eq!(code, 0);
    assert_eq!(
        out,
        "dedup:       raw states 73, canonical 35, reduction 2.09x, transitions 72, pruned 38, events checked 9609, completed true\n\
         brute force: raw states 73, canonical 73, reduction 1.00x, transitions 72, pruned 0, events checked 9246, completed false\n\
         reduction factor: 2.09x; equal-budget brute force did NOT finish\n"
    );
}

#[test]
fn check_run_partition_liveness_holds() {
    let (code, out, _) = pw(&["check", "run", "--ids", "3", "--depth", "2", "--partition"]);
    assert_eq!(code, 0);
    assert_eq!(
        out,
        "ok: raw states 9, canonical 8, reduction 1.12x, transitions 8, pruned 1, events checked 3028, completed true\n\
         reduction factor: 1.12x\n"
    );
}

#[test]
fn check_run_no_departed_pointer_at_depth_four() {
    let (code, out, _) = pw(&[
        "check",
        "run",
        "--ids",
        "3",
        "--depth",
        "4",
        "--levels",
        "0,1",
        "--departed",
    ]);
    assert_eq!(code, 0);
    assert_eq!(
        out,
        "ok: raw states 132, canonical 84, reduction 1.57x, transitions 131, pruned 48, events checked 53269, completed true\n\
         reduction factor: 1.57x\n"
    );
}

#[test]
fn check_shrink_catches_the_rearmed_gap13_bug() {
    let (code, out, _) = pw(&[
        "check",
        "shrink",
        "--ids",
        "3",
        "--depth",
        "2",
        "--partition",
        "--gap13-bug",
    ]);
    assert_eq!(code, 1, "the re-armed gap-13 bug must be caught");
    assert!(
        out.contains(
            "minimal repro (2 ops, 3 ids):\n\
             \x20 id[0] = 0x20000000000000000000000000000000\n\
             \x20 id[1] = 0x60000000000000000000000000000000\n\
             \x20 id[2] = 0xa0000000000000000000000000000000\n\
             \x20 0: Join(1)\n\
             \x20 1: Join(2)\n"
        ),
        "{out}"
    );
}

// ---------------------------------------------------------------------
// pw chaos: every scenario's fingerprint, at 1 and 4 shards
// ---------------------------------------------------------------------

/// Runs `scenario` with `--fingerprint-only` at 1 and 4 shards, asserts
/// both print `fingerprint`, and returns each run's exit code and stderr.
fn chaos_fingerprints(scenario: &str, fingerprint: &str) -> [(u8, String); 2] {
    ["1", "4"].map(|shards| {
        let (code, out, err) = pw(&["chaos", scenario, "--shards", shards, "--fingerprint-only"]);
        assert_eq!(
            out,
            format!("{fingerprint}\n"),
            "{scenario} at {shards} shard(s)"
        );
        (code, err)
    })
}

#[test]
fn chaos_burst_loss_storm_settles_at_one_and_four_shards() {
    for (code, err) in chaos_fingerprints("burst-loss-storm", "689824030e0a1345") {
        assert_eq!(code, 0, "{err}");
    }
}

#[test]
fn chaos_stub_partition_heal_settles_at_one_and_four_shards() {
    for (code, err) in chaos_fingerprints("stub-partition-heal", "6b00c4e9c16f96f0") {
        assert_eq!(code, 0, "{err}");
    }
}

#[test]
fn chaos_crash_storm_settles_at_one_and_four_shards() {
    for (code, err) in chaos_fingerprints("crash-storm", "ab565151d5276c49") {
        assert_eq!(code, 0, "{err}");
    }
}

/// The pinned state of the `flappy-link` defect (ROADMAP): 91 entries
/// missing at 700 s, listed 20 at a time on `err`.
#[test]
fn chaos_flappy_link_fingerprint_is_shard_invariant() {
    for (code, err) in chaos_fingerprints("flappy-link", "7d96d473e0844b13") {
        assert_eq!(code, 1);
        assert!(err.starts_with(
            "FAIL: no peer-list entries missing\n\
             FAIL: partition-aware settle audit\n\
             \x20 actor 0 missing 08d12e6b76c84d1d5eec9fc43640a547\n"
        ));
        assert_eq!(
            err.lines().filter(|l| l.starts_with("  actor ")).count(),
            20
        );
        assert!(
            err.ends_with("  … and 71 more\nflappy-link: NOT SETTLED\n"),
            "{err}"
        );
    }
}

#[test]
#[ignore = "flappy-link does not settle: actors 13 and 47 and the seed miss 91 entries at 700 s (ROADMAP)"]
fn chaos_flappy_link_settles() {
    let (code, _, err) = pw(&["chaos", "flappy-link"]);
    assert_eq!(code, 0, "{err}");
}

#[test]
fn chaos_list_names_every_scenario() {
    let (code, out, _) = pw(&["chaos", "list"]);
    assert_eq!(code, 0);
    assert_eq!(
        out,
        "burst-loss-storm\nstub-partition-heal\ncrash-storm\nflappy-link\n"
    );
}

// ---------------------------------------------------------------------
// pw stat: a metered chaos run's report
// ---------------------------------------------------------------------

/// One `stub-partition-heal --shards 4 --profile` report, shared by the
/// `pw stat` tests.
fn profile_report() -> &'static str {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| {
        let path = tmp_path("profile_report.jsonl");
        let (code, out, err) = pw(&[
            "chaos",
            "stub-partition-heal",
            "--shards",
            "4",
            "--profile",
            &path,
        ]);
        assert_eq!(code, 0, "{err}");
        assert!(out.starts_with(
            "stub-partition-heal: 48 nodes, 4 shards, seed 7 → fingerprint 6b00c4e9c16f96f0\n"
        ));
        assert!(out.ends_with("stub-partition-heal: settled ✔\n"), "{out}");
        path
    })
}

#[test]
fn stat_render_fractions_sum_to_one() {
    let (code, out, err) = pw(&["stat", "render", profile_report(), "--assert-fractions"]);
    assert_eq!(code, 0, "{err}");
    assert!(out.starts_with("# run stub-partition-heal_4 — shards=4 workers="));
    assert_eq!(err, "fractions ok: 1 run(s) each sum to 1.0\n");
}

#[test]
fn stat_prom_exports_the_time_attribution() {
    let (code, out, _) = pw(&["stat", "prom", profile_report()]);
    assert_eq!(code, 0);
    assert!(out.contains(
        "peerwindow_engine_time_ns_total{run=\"stub-partition-heal_4\",cat=\"execute\"} "
    ));
}

#[test]
fn stat_roundtrip_re_exports_byte_identically() {
    let (code, _, err) = pw(&["stat", "roundtrip", profile_report()]);
    assert_eq!(code, 0, "{err}");
    assert!(err.starts_with("roundtrip ok: 1 report(s), "), "{err}");
}

/// 60 000 `[` (they fit one UDP datagram) are a parse error, not a stack
/// overflow, for the cluster-summary and the trace-log readers alike.
#[test]
fn deep_nesting_is_a_parse_error() {
    let path = tmp_path("deep.json");
    std::fs::write(&path, "[".repeat(60_000)).expect("write the deep file");
    let cause = "nested deeper than 64 at byte 64";
    let (code, out, err) = pw(&["stat", "cluster", &path]);
    assert_eq!((code, out.as_str()), (2, ""));
    assert_eq!(err, format!("error: {path}: trace parse error: {cause}\n"));
    let (code, _, err) = pw(&["trace", "filter", &path]);
    assert_eq!(code, 1);
    assert_eq!(err, format!("{path}: trace parse error: line 1: {cause}\n"));
}

// ---------------------------------------------------------------------
// pw trace: a traced run, recorded at 1 and 4 shards
// ---------------------------------------------------------------------

/// The 16-node, 40 s log recorded at 1 and at 4 shards: each one's path
/// and what `pw trace record` printed.
fn recorded() -> &'static [(String, String); 2] {
    static LOGS: OnceLock<[(String, String); 2]> = OnceLock::new();
    LOGS.get_or_init(|| {
        ["1", "4"].map(|shards| {
            let path = tmp_path(&format!("trace_{shards}.jsonl"));
            let args = [
                "trace", "record", "--out", &path, "--shards", shards, "--nodes", "16",
                "--until-s", "40",
            ];
            let (code, out, err) = pw(&args);
            assert_eq!(code, 0, "{err}");
            assert!(out.starts_with(&format!(
                "{path}: 3324 records from 16 nodes over 40s ({shards} shards, fingerprint 2f4ebda0344af54c)\n"
            )));
            (path, out)
        })
    })
}

#[test]
fn trace_record_is_byte_identical_across_shards() {
    let [(one, _), (four, _)] = recorded();
    // The same bytes whose md5 is 22cdf956485b8e00781256515283ab2e.
    assert_eq!(fnv1a(one), 0x8372_5471_9241_62de);
    assert_eq!(fnv1a(four), 0x8372_5471_9241_62de);
    let (code, out, _) = pw(&["trace", "diff", one, four]);
    assert_eq!(code, 0);
    assert_eq!(out, "identical: 3324 records\n");
}

/// The counter, gauge and bandwidth tables `pw trace record` prints after
/// its summary line. At 1 shard `engine.workers` is 1 on any host.
#[test]
fn trace_record_prints_its_metric_tables() {
    let [(_, out), _] = recorded();
    let (_, tables) = out.split_once('\n').expect("a summary line");
    assert_eq!(
        tables,
        "\
| counter           | value |
|-------------------|-------|
| engine.processed  | 2505  |
| faults.dropped    | 0     |
| faults.duplicated | 0     |
| faults.jittered   | 0     |
| faults.judged     | 0     |
| rpc.retries       | 6     |
| gauge          | value |
|----------------|-------|
| engine.pending | 58.00 |
| engine.shards  | 1.00  |
| engine.workers | 1.00  |
| nodes.live     | 14.00 |
| peers.mean     | 13.00 |
| class             | msgs | bits   |
|-------------------|------|--------|
| probe             | 280  | 140000 |
| probe_ack         | 274  | 137000 |
| multicast         | 332  | 332208 |
| multicast_ack     | 327  | 32700  |
| find_top_reply    | 15   | 18428  |
| level_query       | 15   | 1500   |
| level_query_reply | 15   | 2460   |
| download          | 30   | 6840   |
| download_reply    | 30   | 95000  |
"
    );
}

#[test]
fn trace_queries_read_the_recorded_log() {
    let [(log, _), _] = recorded();
    let (code, out, err) = pw(&["trace", "filter", log, "--kind", "mcast_hop"]);
    assert_eq!(code, 0);
    assert_eq!(out.lines().count(), 327);
    assert_eq!(err, "327 of 3324 records\n");

    let (code, out, _) = pw(&["trace", "tree", log]);
    assert_eq!(code, 0);
    assert!(out.starts_with(
        "cause     08d12e6b76c84d1d5eec9fc43640a547#2\n\
         root      08d12e6b76c84d1d5eec9fc43640a547\n\
         receivers 15\n"
    ));

    let (code, out, _) = pw(&["trace", "bandwidth", log]);
    assert_eq!(code, 0);
    assert!(
        out.contains("| multicast         | 332  | 332208 |\n"),
        "{out}"
    );
}

#[test]
fn trace_diff_reports_differing_logs() {
    let [(log, _), _] = recorded();
    let short = tmp_path("trace_short.jsonl");
    let (code, _, err) = pw(&[
        "trace",
        "record",
        "--out",
        &short,
        "--nodes",
        "16",
        "--until-s",
        "20",
    ]);
    assert_eq!(code, 0, "{err}");
    let (code, out, _) = pw(&["trace", "diff", log, &short]);
    assert_eq!(code, 1);
    assert!(!out.is_empty());
}

// ---------------------------------------------------------------------
// pw cluster: real pwnode processes over loopback
// ---------------------------------------------------------------------

/// The `pwnode` binary of this build: root `cargo test` builds it for the
/// transport crate's integration tests, into the directory above this
/// test's `deps/`.
fn pwnode() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let path = exe.parent()?.parent()?.join("pwnode");
    path.exists().then_some(path)
}

fn spec_file(base_port: u16) -> PathBuf {
    std::env::temp_dir().join(format!("pwcluster-{}-{base_port}.shim", std::process::id()))
}

#[test]
fn cluster_kill_one_resettles_and_stat_renders_the_summary() {
    let Some(pwnode) = pwnode() else {
        eprintln!("skipped: no pwnode binary beside the test directory (run the workspace tests)");
        return;
    };
    let base_port = 23_917;
    let summary = tmp_path("cluster_summary.json");
    let (code, out, err) = pw(&[
        "cluster",
        "--nodes",
        "4",
        "--base-port",
        &base_port.to_string(),
        "--plan",
        "none",
        "--kill-one",
        "--pwnode",
        &pwnode.to_string_lossy(),
        "--out",
        &summary,
    ]);
    if code == 77 {
        eprintln!("skipped: {err}");
        return;
    }
    assert_eq!(code, 0, "{err}");
    assert!(
        out.starts_with(
            "{\"nodes\":4,\"plan\":\"none\",\"seed\":793093,\"kill_one\":1,\"converged\":1,"
        ),
        "{out}"
    );
    assert!(err.contains("kill -9 node 3 at "), "{err}");
    assert!(
        !spec_file(base_port).exists(),
        "the shim spec outlived the run"
    );

    let (code, out, _) = pw(&["stat", "cluster", &summary]);
    assert_eq!(code, 0);
    assert!(out.starts_with("cluster run: 4 node(s), plan none, seed 793093 — SETTLED\n"));
    let (code, out, _) = pw(&["stat", "cluster", &summary, "--prom"]);
    assert_eq!(code, 0);
    assert!(out.contains("peerwindow_cluster_converged 1\n"));
}

#[test]
fn cluster_without_free_ports_exits_77_and_leaves_nothing_behind() {
    let taken = std::net::UdpSocket::bind("127.0.0.1:0");
    let Ok(port) = taken
        .as_ref()
        .map(|s| s.local_addr().expect("bound").port())
    else {
        eprintln!("skipped: no loopback sockets");
        return;
    };
    let (code, out, err) = pw(&[
        "cluster",
        "--nodes",
        "2",
        "--base-port",
        &port.to_string(),
        "--pwnode",
        "unused",
    ]);
    assert_eq!(code, 77);
    assert!(out.is_empty());
    assert!(
        err.starts_with(&format!("cannot bind 127.0.0.1:{port}: ")),
        "{err}"
    );
    assert!(!spec_file(port).exists());
}
