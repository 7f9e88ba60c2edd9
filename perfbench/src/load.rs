//! The closed-loop HTTP client: one keep-alive connection, one request
//! in flight, the next one sent as soon as the previous answer is in.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How long to wait for a connection or a response.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Render a `POST` exactly as the client sends it.
pub fn render_post(path: &str, code: &str) -> Vec<u8> {
    let body = serde_json::to_string(&serve::analyze::AnalyzeRequest {
        code: code.to_string(),
    })
    .expect("request serialization is infallible");
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nhost: racellm\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    req
}

/// A keep-alive connection that reconnects after a failed request.
pub struct Client {
    addr: SocketAddr,
    conn: Option<serve::http::client::Client>,
}

impl Client {
    /// Connect to the server at `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let conn = serve::http::client::Client::connect(addr, TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Client {
            addr,
            conn: Some(conn),
        })
    }

    /// Send one rendered request and read the response. Returns the
    /// status and body, and the time from the first byte sent to the
    /// last byte received, in ms. A failed request drops the connection;
    /// the next one reconnects.
    pub fn post(&mut self, rendered: &[u8]) -> (io::Result<(u16, Vec<u8>)>, f64) {
        if self.conn.is_none() {
            self.conn = serve::http::client::Client::connect(self.addr, TIMEOUT).ok();
        }
        let t = Instant::now();
        let reply = match self.conn.as_mut() {
            Some(c) => c.send_raw(rendered).and_then(|()| c.read_response()),
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if reply.is_err() {
            self.conn = None;
        }
        (reply, ms)
    }
}
