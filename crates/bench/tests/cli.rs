//! `mspastry-sim` rejects bad flags up front: exit status 2 and a message
//! naming the flag, before any trace is built or any file written. Out of
//! range values, fractional integers and a flag in a value's place all fail.

use std::process::Command;

#[test]
fn bad_flags_are_rejected_before_any_work() {
    let dir = std::env::temp_dir().join(format!("mspastry-sim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&[&str], &str); 9] = [
        (&["--b", "9"], "b must be in 1..=8, got 9"),
        (&["--l", "33"], "leaf set size must be even"),
        (&["--loss", "150"], "bad value for --loss: 150"),
        (&["--loss", "-1"], "bad value for --loss: -1"),
        (&["--b", "1.7"], "bad value for --b: 1.7"),
        (&["--l", "33.9"], "bad value for --l: 33.9"),
        (&["--seed", "2.5"], "bad value for --seed: 2.5"),
        (&["--json", "--trace", "1"], "--json needs a value"),
        (&["--json"], "--json needs a value"),
    ];
    for (args, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_mspastry-sim"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(stderr.contains(expected), "{args:?}: stderr {stderr}");
        let written = std::fs::read_dir(&dir).unwrap().next();
        assert!(written.is_none(), "{args:?} wrote {written:?}");
    }
    std::fs::remove_dir(&dir).unwrap();
}
