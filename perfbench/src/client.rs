//! A minimal blocking HTTP/1.1 keep-alive client.
//!
//! One request in flight per connection; the response is framed by
//! `Content-Length` (the only framing `oak-serve` emits for these
//! requests) and borrowed from the connection's buffer, so reading a
//! response costs no allocation once the buffer has grown.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One response, borrowing the connection's buffer.
pub struct Reply<'a> {
    pub status: u16,
    pub alternate: Option<&'a [u8]>,
    pub body: &'a [u8],
    pub close: bool,
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_owned())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends `request` and reads the whole response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply<'_>> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        let mut alternate = None;
        let mut close = false;
        let mut offset = head.find("\r\n").map_or(0, |i| i + 2);
        for line in lines {
            let line_start = offset;
            offset += line.len() + 2;
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("x-oak-alternate") {
                let start = line_start + line.len() - value.len();
                alternate = Some(start..start + value.len());
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(bad("unexpected transfer-encoding"));
            }
        }
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Reply {
            status,
            alternate: alternate.map(|range| &self.buf[range]),
            body: &self.buf[head_end..head_end + length],
            close,
        })
    }
}

/// A one-shot `GET` on a fresh connection: `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut conn = Conn::connect(addr)?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    let reply = conn.exchange(request.as_bytes())?;
    Ok((reply.status, reply.body.to_vec()))
}
