//! `pwnode` turns a malformed flag into its cause and the usage text on
//! stderr and exit status 2, the `pw` convention, instead of a panic.

use std::process::Command;

fn pwnode(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pwnode"))
        .args(args)
        .output()
        .expect("run pwnode");
    let err = String::from_utf8(out.stderr).expect("pwnode writes UTF-8");
    (out.status.code(), err)
}

#[test]
fn malformed_flags_are_usage_errors() {
    for (args, cause) in [
        (
            &["--listen", "nonsense"][..],
            "--listen: cannot parse \"nonsense\"",
        ),
        (&["--seed"][..], "--seed needs a value"),
        (&["--ctl", "70000"][..], "--ctl: cannot parse \"70000\""),
        (&["--frobnicate"][..], "unknown argument --frobnicate"),
    ] {
        let (code, err) = pwnode(args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(
            err.starts_with(&format!("{cause}\nusage: pwnode ")),
            "{args:?}: {err}"
        );
    }
}
