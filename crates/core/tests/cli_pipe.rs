//! `dsv3` whose reader goes away (`dsv3 all | head -n 1`) exits cleanly
//! instead of panicking on the broken pipe.

use std::process::Command;

#[test]
fn closed_stdout_is_a_clean_exit() {
    // Drop the read end before the child starts, so its first write
    // already finds no reader.
    let (reader, writer) = std::io::pipe().expect("pipe opens");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_dsv3"))
        .arg("table1")
        .stdout(writer)
        .output()
        .expect("dsv3 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "dsv3 panicked on a closed pipe:\n{stderr}");
    assert!(out.status.success(), "dsv3 failed on a closed pipe: {}\n{stderr}", out.status);
}
