//! The `bqs` binary: parse arguments, run, print, exit.

use std::io::{ErrorKind, Write};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (message, code) = match bqs_cli::main_with_args(&argv) {
        Ok(text) => {
            let mut out = std::io::stdout().lock();
            match writeln!(out, "{text}").and_then(|()| out.flush()) {
                // A reader that stops early (`bqs query D | head -1`) is
                // not a failure of the command.
                Err(e) if e.kind() != ErrorKind::BrokenPipe => (format!("writing output: {e}"), 1),
                _ => return,
            }
        }
        Err(failure) => failure,
    };
    eprintln!("error: {message}");
    std::process::exit(code);
}
