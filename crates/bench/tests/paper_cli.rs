//! Argument handling of the `paper` binary.

use std::process::Command;

#[test]
fn unknown_flag_exits_2_listing_the_accepted_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["bench-engine", "--smok"])
        .output()
        .expect("paper runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no target ran");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(r#"`--smok`; accepted: ["--full", "--smoke"]"#),
        "{err}"
    );
}
