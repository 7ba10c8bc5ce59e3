//! A server started under a small open-file limit sheds the connections
//! it has no descriptors for as typed `Overloaded`, and keeps serving. It
//! used to keep its 20,000-connection ceiling, fail `accept` with
//! `EMFILE`, and spin on the level-triggered listener at full CPU.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the server if the test fails before it drains.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The value of `name` in `replay serve`'s drain table, 0 when absent.
fn counter(table: &str, name: &str) -> u64 {
    table
        .lines()
        .find_map(|line| {
            let mut cols = line.split_whitespace();
            (cols.next() == Some(name)).then(|| cols.next().unwrap_or("0").parse().unwrap())
        })
        .unwrap_or(0)
}

#[test]
fn a_small_fd_limit_sheds_connections_and_does_not_spin() {
    let replay = env!("CARGO_BIN_EXE_replay");
    let child = Command::new("bash")
        .args([
            "-c",
            r#"ulimit -n 128 && exec "$0" serve --addr 127.0.0.1:0 --jobs 1 --no-store"#,
            replay,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bash");
    let mut server = Server(child);
    let mut stdout = BufReader::new(server.0.stdout.take().expect("stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    // "replay-serve listening on ADDR (...)"
    let addr = banner
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .to_string();

    // More idle connections than the limit has descriptors for.
    let held: Vec<TcpStream> = (0..200)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_secs(1));
    drop(held);

    let submit = Command::new(replay)
        .args(["submit", "gzip", "-n", "1000", "--addr", &addr])
        .output()
        .expect("run submit");
    assert!(
        submit.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&submit.stderr)
    );

    let pid = server.0.id().to_string();
    let killed = Command::new("kill").args(["-TERM", &pid]).status();
    assert!(killed.expect("run kill").success());
    let start = Instant::now();
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("poll server") {
            break status;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "server did not drain"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut table = String::new();
    stdout.read_to_string(&mut table).expect("drain table");
    assert!(status.success(), "exit {status:?}:\n{table}");
    assert!(counter(&table, "serve.shed.conn") > 0, "{table}");
    assert_eq!(counter(&table, "serve.requests.ok"), 1, "{table}");
    let wakeups = counter(&table, "serve.poll.wakeups");
    assert!(wakeups < 1_000, "{wakeups} poll wakeups:\n{table}");
}
