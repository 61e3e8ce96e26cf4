//! Connection churn against a live `rtft-serve` server: what one
//! connection costs must be given back when it ends, not when the server
//! stops. Alone in its binary because the fd table it counts is
//! process-wide — a neighbouring test opening sockets would be counted.

#![cfg(target_os = "linux")]

use rtft_serve::{Client, Server, ServerConfig};
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn short_lived_connections_do_not_accumulate_fds() {
    const CONNECTIONS: usize = 200;
    const SLACK: usize = 8;

    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let before = open_fds();
    for i in 0..CONNECTIONS {
        let client = Client::connect(server.addr(), &format!("churn-{i}")).expect("handshake");
        drop(client);
    }
    // Each handler exits on its peer's EOF; give the last ones a moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds() > before + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let after = open_fds();
    assert!(
        after <= before + SLACK,
        "{CONNECTIONS} closed connections left {} fds open ({before} -> {after})",
        after - before
    );

    let report = server.shutdown();
    assert_eq!(report.connections, CONNECTIONS as u64);
}
