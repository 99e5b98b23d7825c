//! # bqs-cli — command-line front end for the BQS workspace
//!
//! The command synopsis is [`args::USAGE`], the text `bqs help` prints.
//! Traces are the `x,y,t` CSV format of [`bqs_sim::Trace`]. Argument
//! parsing is hand-rolled (no CLI dependency) and unit-tested here; the
//! thin binary in `main.rs` just forwards `std::env::args` and exit codes.

#![deny(missing_docs)]

pub mod args;
pub mod commands;
pub mod error;

pub use args::{parse, Command};
pub use commands::{execute, run};
pub use error::CliError;

/// Entry point shared by the binary and the tests: parse and run, mapping
/// errors to a message + exit code.
pub fn main_with_args(argv: &[String]) -> Result<String, (String, i32)> {
    let command = args::parse(argv).map_err(|e| (e, 2))?;
    commands::run(&command).map_err(|e| (e, 1))
}
