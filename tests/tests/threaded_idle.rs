//! A threaded run leaves nothing behind: every thread it spawns is joined
//! when the network deadlocks, so no thread outlives its job and none
//! wakes up afterwards. Alone in its binary because both measurements are
//! process-wide — the thread list and the context-switch counts would
//! include a neighbouring test's. The two phases are one `#[test]` so they
//! run one after the other.

#![cfg(target_os = "linux")]

use rtft_apps::networks::App;
use rtft_core::{DuplicationConfig, JitterStageReplica};
use rtft_fleet::{execute, JobRuntime, JobTemplate};
use rtft_kpn::Payload;
use rtft_rtc::sizing::DuplicationModel;
use rtft_rtc::PjdModel;
use rtft_serve::{workload, Client, ServeRuntime, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
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

/// A duplicated 4-token job at a 1 ms period: producer, consumer and
/// four replica threads, two of them shapers that never halt.
fn small_duplicated_job() -> JobTemplate {
    let model = DuplicationModel::symmetric(
        PjdModel::from_ms(1.0, 0.1, 0.0),
        PjdModel::from_ms(1.0, 0.1, 4.0),
        [
            PjdModel::from_ms(1.0, 0.2, 0.0),
            PjdModel::from_ms(1.0, 0.5, 0.0),
        ],
    );
    let cfg = DuplicationConfig::from_model(model)
        .expect("bounded model")
        .with_token_count(4)
        .with_payload(Arc::new(Payload::U64));
    let factory = Arc::new(JitterStageReplica::from_model(&cfg.model));
    JobTemplate::Duplicated { cfg, factory }
}

#[test]
fn threaded_runs_join_every_thread_and_leave_no_wakeups() {
    // (a) 200 threaded jobs, one after the other: the thread count comes
    // back to where it started.
    const JOBS: usize = 200;
    let template = small_duplicated_job();
    let runtime = JobRuntime::Threaded {
        deadline: Duration::from_secs(30),
    };
    let threads_before = live_threads();
    for i in 0..JOBS {
        let result = execute(&template, &runtime);
        assert!(result.completed(), "job {i} delivered {}", result.arrivals);
    }
    // A joined thread can linger in the task list for a moment while the
    // kernel tears it down; a leaked one stays for good.
    let settle = Instant::now();
    while live_threads() > threads_before && settle.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        live_threads(),
        threads_before,
        "{JOBS} threaded jobs left threads behind"
    );

    // (b) A threaded server whose connections have each flushed once makes
    // no wake-ups of its own.
    const CLIENTS: usize = 4;
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            runtime: ServeRuntime::Threaded {
                deadline: Duration::from_secs(30),
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
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

    // Every pool worker, reader and the acceptor is now waiting for an
    // event that will not come, and every flush's process threads have
    // been joined. Let the last settle finish first.
    std::thread::sleep(Duration::from_millis(200));
    let before = voluntary_switches();
    std::thread::sleep(Duration::from_secs(1));
    let woken = voluntary_switches().saturating_sub(before);
    assert!(
        woken <= 20,
        "an idle threaded server made {woken} voluntary context switches in 1 s"
    );

    drop(clients);
    let report = server.shutdown();
    assert_eq!(report.connections, CLIENTS as u64);
    assert!(report.balanced());
}
