//! Byte pins on what the paper reproduces: every `exp_*` binary's
//! stdout, as its length and SHA-256. Every experiment is seeded, so it
//! prints the same bytes on every run, in debug and release builds
//! alike; a change that moves any printed figure, table or label fails
//! here and has to re-pin deliberately.

use geoproof_crypto::sha256::Sha256;
use std::process::{Command, Stdio};

/// (binary, path, stdout length, stdout SHA-256 in hex).
const PINS: [(&str, &str, usize, &str); 20] = [
    (
        "exp_ablation",
        env!("CARGO_BIN_EXE_exp_ablation"),
        3067,
        "29f249480619ce53dab78574db65b0258438c8388a9e3adfa484cbd69e923143",
    ),
    (
        "exp_audit_cost",
        env!("CARGO_BIN_EXE_exp_audit_cost"),
        984,
        "a868ae1077a8aa4ff75d16fbe3c2257836f50201928ccbab533ba6021a0ffd1e",
    ),
    (
        "exp_budget",
        env!("CARGO_BIN_EXE_exp_budget"),
        1790,
        "0d58cc9c0922c5ba6c141eb32569ef3e7698fc68d40a015e3258296b7b6c51f9",
    ),
    (
        "exp_cache_attack",
        env!("CARGO_BIN_EXE_exp_cache_attack"),
        1338,
        "b4f6cce8abcbdcef460e13648440afd93ab42b5c8716c35f30d7c2c7f72f741c",
    ),
    (
        "exp_db_protocols",
        env!("CARGO_BIN_EXE_exp_db_protocols"),
        1129,
        "8ca20fa7f64b6c7a66428dc1292ef45bd05775ff9e976a348a1037a515632a78",
    ),
    (
        "exp_detection",
        env!("CARGO_BIN_EXE_exp_detection"),
        1729,
        "19f9a7cf0df7a86c8367e3b34aba4adddbd2f7e963368b923e828cde528c317d",
    ),
    (
        "exp_fig1",
        env!("CARGO_BIN_EXE_exp_fig1"),
        1964,
        "ebb33e3c2fa510e38379daf137484eac16a1fe712584214955b3ac4f4f8f23db",
    ),
    (
        "exp_fig2",
        env!("CARGO_BIN_EXE_exp_fig2"),
        1041,
        "126f8892191c7527c2b9b151a109a921ff568f0ac810d5a35f6a93a38b34f533",
    ),
    (
        "exp_fig3",
        env!("CARGO_BIN_EXE_exp_fig3"),
        846,
        "f80140d6ab9f9a891439ec7fa923fda796e48465a529eea6ff0996c31b49b881",
    ),
    (
        "exp_fig4",
        env!("CARGO_BIN_EXE_exp_fig4"),
        1014,
        "5cd240132256a52aa355b2740524cae012b1ceb050cde3ff76f826eeac0142e1",
    ),
    (
        "exp_fig5",
        env!("CARGO_BIN_EXE_exp_fig5"),
        1418,
        "7f89ed3cff1aeb42067c32341f8417181062a1461678281243f8e3f1a214d62c",
    ),
    (
        "exp_fig6",
        env!("CARGO_BIN_EXE_exp_fig6"),
        1901,
        "b186ceb1ee18c56dff60efca9d94afe4cea553ad1c78948e29f27ff693b31b00",
    ),
    (
        "exp_geoloc_baselines",
        env!("CARGO_BIN_EXE_exp_geoloc_baselines"),
        1431,
        "4519d9b41a1c5a11b42759005c596904869266b8c4708ede8b9272f9d60eb411",
    ),
    (
        "exp_noise",
        env!("CARGO_BIN_EXE_exp_noise"),
        2036,
        "3c4761bee8dc5b74c2b0e95fe82b6ce56c2f5bca88a4b60c1241240465d80759",
    ),
    (
        "exp_overhead",
        env!("CARGO_BIN_EXE_exp_overhead"),
        1156,
        "0e28045d114aae9c2b7f5a881337c5b44dcca00f78961a7a634e5adade28c2c2",
    ),
    (
        "exp_table1",
        env!("CARGO_BIN_EXE_exp_table1"),
        959,
        "ef649666a6aa43bc8da9ca59aae13d005f462b964a6352fdc3a0a45931fb7f14",
    ),
    (
        "exp_table2",
        env!("CARGO_BIN_EXE_exp_table2"),
        935,
        "bddb450b96704d9af9fdb9db505bc0a7fac824605e5438191d6318ab1f3b4d7c",
    ),
    (
        "exp_table3",
        env!("CARGO_BIN_EXE_exp_table3"),
        1498,
        "a83e858d9b9f5d34519845f503c741d74a978a923e41bd01ee38055812ee14b4",
    ),
    (
        "exp_time_to_detect",
        env!("CARGO_BIN_EXE_exp_time_to_detect"),
        1167,
        "56b76cbda1e89729fe7f5e219dc2da3b78369223b74b68e8a9bee923173858d3",
    ),
    (
        "exp_timing_error",
        env!("CARGO_BIN_EXE_exp_timing_error"),
        1609,
        "4857e1c030092a13e9489b39ef0b4b60ce87de3569ac480afd86aeea06a34d74",
    ),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_experiment_prints_its_pinned_bytes() {
    // Start every experiment, then collect: the slowest one bounds the
    // test's wall time instead of the sum of all twenty.
    let running: Vec<_> = PINS
        .iter()
        .map(|&(name, path, ..)| {
            let child = Command::new(path)
                .stdout(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("start {name}: {e}"));
            (name, child)
        })
        .collect();
    let mut moved = Vec::new();
    for ((name, child), (_, _, len, digest)) in running.into_iter().zip(PINS) {
        let out = child.wait_with_output().expect("collect experiment output");
        assert!(out.status.success(), "{name} exited with {}", out.status);
        let got = hex(&Sha256::digest(&out.stdout));
        if out.stdout.len() != len || got != digest {
            moved.push(format!(
                "{name}: {} bytes sha256 {got} (pinned {len} bytes {digest})",
                out.stdout.len()
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "experiment output moved:\n{}",
        moved.join("\n")
    );
}
