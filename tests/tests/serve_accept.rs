//! A failed `accept` must not kill the listener: a server that ran out of
//! file descriptors refuses *that* connection attempt, not every later
//! one. Alone in its binary because it exhausts the process-wide fd table
//! — a neighbouring test could open nothing while it runs.

#![cfg(target_os = "linux")]

use rtft_serve::wire::{read_frame, write_frame, Frame, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};
use rtft_serve::{Server, ServerConfig};
use std::fs::File;
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn listener_survives_fd_exhaustion() {
    const EMFILE: i32 = 24;

    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("server starts");

    // Fill the fd table, then free exactly one slot for the client's own
    // socket: the connection completes in the kernel's backlog, and the
    // server's `accept` — which needs a descriptor too — fails.
    let mut filler = Vec::new();
    let full = loop {
        match File::open("/dev/null") {
            Ok(f) => filler.push(f),
            Err(e) => break e,
        }
    };
    assert_eq!(full.raw_os_error(), Some(EMFILE), "{full}");
    filler.pop();
    let starved = TcpStream::connect(server.addr()).expect("backlog takes the connection");
    std::thread::sleep(Duration::from_millis(300));
    drop(filler);

    // With descriptors available again the server must still be listening.
    let mut sock = TcpStream::connect(server.addr()).expect("listener is still open");
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write_frame(
        &mut sock,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "after-emfile".into(),
        },
    )
    .expect("hello");
    let (reply, _) = read_frame(&mut sock, DEFAULT_MAX_FRAME).expect("reply within 5 s");
    assert!(matches!(reply, Frame::Accepted { .. }), "{reply:?}");

    let errors = server.registry().counter("serve.accept.errors").get();
    assert!(errors > 0, "the starved accepts were counted");
    drop((starved, sock));
    server.shutdown();
}
