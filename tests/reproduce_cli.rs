//! The `reproduce` binary's command line: one argument names the table
//! or figure to print, none (or `all`) prints every one, and anything
//! else is refused rather than silently printing everything.

use std::process::{Command, Output};

const USAGE: &str = "usage: reproduce [fig4|fig5|fig6|fig7|table1|tflops|ablations|all]";

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("reproduce runs")
}

#[test]
fn an_unknown_argument_prints_the_usage_and_exits_2() {
    let out = reproduce(&["fig8"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing is printed on stdout");
    assert_eq!(String::from_utf8_lossy(&out.stderr).trim_end(), USAGE);
}

#[test]
fn one_table_prints_only_that_table() {
    let out = reproduce(&["table1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.starts_with("Table 1"), "{stdout}");
    assert!(!stdout.contains("Figure 4"), "{stdout}");
}

#[test]
fn no_argument_prints_what_all_prints() {
    let (none, all) = (reproduce(&[]), reproduce(&["all"]));
    assert!(none.status.success() && all.status.success());
    assert!(none.stdout.starts_with(b"Figure 4"));
    assert_eq!(none.stdout, all.stdout);
}
