//! A minimal built-in HTTP listener serving live metrics.
//!
//! One background thread, `std::net` only (the container has no
//! crates.io access, so no hyper/axum — exactly like the JSON module
//! stands in for serde). Three routes:
//!
//! * `GET /metrics` — the global registry rendered as OpenMetrics text
//!   ([`crate::openmetrics::render`]); scrape this with Prometheus or
//!   `curl`.
//! * `GET /healthz` — liveness probe (`ok`).
//! * `GET /flight` — the flight recorder's current ring as JSON (the
//!   same document [`crate::flight::dump_now`] writes on a trigger).
//!
//! The listener binds lazily-typically to `127.0.0.1:0` in tests — and
//! serves until the [`MetricsExporter`] is dropped. Requests are
//! handled serially on the accept thread: a scrape every few seconds
//! is the intended load, not a user-facing endpoint.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running metrics endpoint; dropping it stops the listener.
pub struct MetricsExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"`, or port 0 for an
    /// ephemeral port) and starts serving on a background thread.
    pub fn serve(addr: &str) -> std::io::Result<MetricsExporter> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("mrhs-metrics-exporter".into())
            .spawn(move || accept_loop(listener, &stop2))
            .expect("spawn exporter thread");
        Ok(MetricsExporter { addr: local, stop, handle: Some(handle) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve serially; a failed client must not kill the
                // exporter thread.
                let _ = handle_client(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn handle_client(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 4096];
    let mut total = 0usize;
    // Read until the end of the request head (we ignore any body).
    loop {
        if total == buf.len() {
            break;
        }
        let n = stream.read(&mut buf[total..])?;
        if n == 0 {
            break;
        }
        total += n;
        if buf[..total].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..total]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "method not allowed\n".into())
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                crate::openmetrics::render(&crate::snapshot()),
            ),
            "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
            "/flight" => (
                "200 OK",
                "application/json",
                crate::flight::recorder().dump_json("scrape").to_string_pretty(),
            ),
            _ => ("404 Not Found", "text/plain", "not found\n".into()),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Performs one `GET` against a local exporter and returns the
/// response body — the in-tree scrape client used by `service-bench`
/// and tests (the container has no curl-equivalent crate).
pub fn scrape(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "malformed HTTP response",
            )
        })?;
    if !response.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::other(format!(
            "non-200 response: {}",
            response.lines().next().unwrap_or("")
        )));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_route_serves_ring_json() {
        let exp = MetricsExporter::serve("127.0.0.1:0").unwrap();
        let body = scrape(exp.local_addr(), "/flight").unwrap();
        let j = crate::json::Json::parse(&body).unwrap();
        assert_eq!(
            j.get("format").and_then(crate::json::Json::as_str),
            Some("mrhs-flight-v1")
        );
    }
}
