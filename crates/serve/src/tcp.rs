//! The TCP front end: newline-delimited requests in, one JSON line
//! out per request, multiplexed over a bounded worker pool.
//!
//! Each accepted connection becomes one job on a
//! [`scoped_threadpool::Pool`], so at most `workers` connections are
//! serviced concurrently — the pool is the transport-level bound,
//! while [`Server`]'s high-water mark bounds the exact-solve tier
//! *within* those connections. Requests on one connection are handled
//! in order; responses for `LOAD`/`SOLVE`/`RESOLVE`/`STATS`/`EVICT`
//! come back on the same connection, one line each. A `QUIT` line
//! closes the connection; blank lines and `#` comments are ignored.
//! A request line longer than [`MAX_LINE_BYTES`] gets one error line,
//! and then the connection is closed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::proto::err_line;
use crate::server::Server;

/// The longest request line a connection reads, newline excluded
/// (1 MiB).
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// Serves `server` on `listener` until `stop` becomes true, handling
/// at most `workers` connections at a time. Returns the number of
/// connections served. The listener should usually be non-blocking or
/// the caller should arrange a final wake-up connection after setting
/// `stop` — `accept` itself is not interrupted.
pub fn serve_listener(
    server: &Server,
    listener: &TcpListener,
    workers: u32,
    stop: &AtomicBool,
) -> std::io::Result<u64> {
    let mut pool = scoped_threadpool::Pool::new(workers.max(1));
    let mut served = 0u64;
    pool.scoped(|scope| {
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    served += 1;
                    scope.execute(move || {
                        // A dropped connection only ends that stream.
                        let _ = handle_connection(server, stream);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
    });
    Ok(served)
}

/// Runs one connection to completion: read request lines, write one
/// response line per request, stop at EOF or `QUIT`. A line longer
/// than [`MAX_LINE_BYTES`] is not read to its end: it is answered with
/// one error line and ends the connection.
pub fn handle_connection(server: &Server, stream: TcpStream) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let read = (&mut reader)
            .take(MAX_LINE_BYTES + 1)
            .read_until(b'\n', &mut buf)?;
        if read == 0 {
            break;
        }
        // Without a newline the line either ends at EOF or hit the cap.
        let complete = buf.ends_with(b"\n");
        let response = if complete || read as u64 <= MAX_LINE_BYTES {
            let line = std::str::from_utf8(&buf)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            let line = line.strip_suffix('\n').unwrap_or(line);
            let line = line.strip_suffix('\r').unwrap_or(line);
            if line.trim().eq_ignore_ascii_case("QUIT") {
                break;
            }
            server.handle(line)
        } else {
            Some(err_line(&format!(
                "request line longer than {MAX_LINE_BYTES} bytes"
            )))
        };
        if let Some(response) = response {
            writer.write_all(response.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        if !complete {
            break;
        }
    }
    Ok(())
}
