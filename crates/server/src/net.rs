//! TCP front-end: newline-delimited JSON over `std::net`.
//!
//! Deliberately boring: a nonblocking accept poll loop plus one scoped
//! thread per connection, each reading capped lines and answering
//! through [`ServerHandle::handle_line`]. All robustness lives below
//! this layer (admission, deadlines, containment) or in the protocol
//! module (typed parse errors); the only policies here are bounds — a
//! per-line byte cap enforced *while reading* (a peer that never sends
//! a newline cannot grow memory without bound) and an optional total
//! line budget so test and CLI runs terminate deterministically.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::protocol::{render_protocol_error, MAX_LINE_BYTES};
use crate::ServerHandle;

/// Accept-loop poll interval (the listener is nonblocking so the loop
/// can observe the line budget between accepts). The wait doubles from
/// [`ACCEPT_POLL_MIN`] up to this while nobody connects and starts over
/// after every accept, so a peer that connects just after the loop
/// first looked is not held for a whole idle interval.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// First wait of an accept poll backoff.
const ACCEPT_POLL_MIN: Duration = Duration::from_micros(50);

/// Per-connection read timeout: how quickly a connection thread
/// notices the stop flag when its peer has gone quiet.
const READ_POLL: Duration = Duration::from_millis(50);

/// Serve connections from `listener` until `max_lines` protocol lines
/// have been answered (`None`: forever). Blocks; returns the number of
/// lines served. Connection threads are scoped, so every in-flight
/// response completes before this returns.
pub fn serve(
    server: &ServerHandle,
    listener: &TcpListener,
    max_lines: Option<u64>,
) -> io::Result<u64> {
    listener.set_nonblocking(true)?;
    let served = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| -> io::Result<()> {
        let mut poll = ACCEPT_POLL_MIN;
        loop {
            if let Some(max) = max_lines {
                // ordering(Relaxed): advisory budget check; an answer
                // racing past the budget is served, not lost.
                if served.load(Ordering::Relaxed) >= max {
                    break;
                }
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    poll = ACCEPT_POLL_MIN;
                    let (served, stop) = (&served, &stop);
                    scope.spawn(move || serve_connection(server, stream, served, stop));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(poll);
                    poll = (poll * 2).min(ACCEPT_POLL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    // ordering(Relaxed): plain stop flag; scope join is
                    // the synchronisation point.
                    stop.store(true, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
        // ordering(Relaxed): plain stop flag; scope join is the
        // synchronisation point.
        stop.store(true, Ordering::Relaxed);
        Ok(())
    })?;
    // ordering(Relaxed): all writers joined by the scope above.
    Ok(served.load(Ordering::Relaxed))
}

/// One connection: read capped lines, answer each, exit on EOF, peer
/// error, an over-long line (the stream can no longer be resynced), or
/// the server-wide stop flag.
fn serve_connection(
    server: &ServerHandle,
    stream: TcpStream,
    served: &AtomicU64,
    stop: &AtomicBool,
) {
    // Replies are whole messages; never hold one back to coalesce it.
    if stream.set_read_timeout(Some(READ_POLL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        // ordering(Relaxed): advisory; a final in-flight line finishes.
        if stop.load(Ordering::Relaxed) {
            return;
        }
        // Cap the read, not just the parse: read at most cap+1 bytes
        // looking for the newline, so an unbounded line is detected
        // without buffering it.
        let cap = (MAX_LINE_BYTES + 1 - buf.len().min(MAX_LINE_BYTES)) as u64;
        match reader.by_ref().take(cap).read_until(b'\n', &mut buf) {
            Ok(0) if buf.is_empty() => return, // clean EOF
            Ok(0) => {
                // EOF with a dangling unterminated line: answer it
                // (typed) and close.
                let line = String::from_utf8_lossy(&buf);
                let _ = respond(&mut writer, server.handle_line(line.trim_end()), served);
                return;
            }
            Ok(_) if buf.last() != Some(&b'\n') => {
                if buf.len() > MAX_LINE_BYTES {
                    // Over-long line: no resync point, so answer and close.
                    let msg = render_protocol_error(&format!(
                        "line exceeds the {MAX_LINE_BYTES}-byte cap"
                    ));
                    let _ = respond(&mut writer, msg, served);
                    return;
                }
                // Partial line (short read); keep accumulating.
            }
            Ok(_) => {
                let line = String::from_utf8_lossy(&buf);
                let response = server.handle_line(line.trim_end());
                if respond(&mut writer, response, served).is_err() {
                    return;
                }
                buf.clear();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn respond(writer: &mut TcpStream, mut line: String, served: &AtomicU64) -> io::Result<()> {
    // One write per reply: a line and its newline sent as two segments
    // leave the second waiting on the peer's delayed ACK (~40 ms).
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    // ordering(Relaxed): monotone tally read by the accept loop's
    // advisory budget check and, finally, after the scope joins.
    served.fetch_add(1, Ordering::Relaxed);
    Ok(())
}
