//! Idle means asleep: a server with connected but silent clients makes no
//! wake-ups of its own and holds one descriptor per connection. Alone in
//! its binary because both measurements are process-wide — the thread
//! list and the fd table would include a neighbouring test's.

#![cfg(target_os = "linux")]

use rtft_apps::networks::App;
use rtft_serve::{workload, Client, Server, ServerConfig};
use std::time::Duration;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

/// Voluntary context switches so far, summed over every live thread.
fn voluntary_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

#[test]
fn idle_server_sleeps_and_holds_one_fd_per_connection() {
    const CLIENTS: usize = 4;

    // Both deadlines on: the deadline-guarded reader must sleep too.
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Some(Duration::from_secs(1)),
            max_idle: Some(Duration::from_secs(30)),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let fds_before = open_fds();
    let batch = workload(App::Adpcm, 5, 8);
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|i| {
            let mut client = Client::connect(server.addr(), &format!("idle-{i}")).expect("connect");
            let stream = client
                .open_stream(App::Adpcm, 2)
                .expect("open")
                .expect_stream();
            client.send_tokens(stream, &batch).expect("send");
            let outcome = client.flush(stream).expect("flush");
            assert_eq!(outcome.outputs.len(), batch.len());
            client
        })
        .collect();
    // The client's own socket plus the server's: two per connection.
    let fds = open_fds() - fds_before;
    assert!(
        fds <= 2 * CLIENTS,
        "{CLIENTS} connections hold {fds} descriptors"
    );

    // Every pool worker, reader and the acceptor is now waiting for an
    // event that will not come. Let the last flush's threads park first.
    std::thread::sleep(Duration::from_millis(200));
    let before = voluntary_switches();
    std::thread::sleep(Duration::from_secs(1));
    let woken = voluntary_switches().saturating_sub(before);
    assert!(
        woken <= 20,
        "an idle server made {woken} voluntary context switches in 1 s"
    );

    drop(clients);
    let report = server.shutdown();
    assert_eq!(report.connections, CLIENTS as u64);
    assert!(report.balanced());
}
