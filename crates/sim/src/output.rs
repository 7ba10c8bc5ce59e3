//! Command output for the `replay` CLI and the example binaries: `out!`
//! and `outln!` print like `print!` and `println!`, through [`emit`].

use std::io::Write;

/// `print!` for command output, through [`emit`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::output::emit(format_args!($($arg)*))
    };
}

/// `println!` for command output, through [`emit`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::output::emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::output::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes command output to stdout. A reader that closed early (`replay
/// disasm excel | head -1`) ends the process quietly with status 0, the
/// way a pipeline expects; any other write failure panics like `print!`.
pub fn emit(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}
