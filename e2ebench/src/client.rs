//! A minimal keep-alive HTTP/1.1 client: one persistent connection,
//! requests sent one at a time, each response framed by its
//! `Content-Length`. (The program's own client, used for fresh
//! connections, sends `Connection: close` and reads to end of stream.)

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

pub struct KeepAlive {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One response: status and body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl KeepAlive {
    pub fn connect(addr: &str) -> Result<KeepAlive, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(KeepAlive {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads exactly one response off the
    /// connection.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        let wire = request_bytes(method, path, body);
        self.writer
            .write_all(&wire)
            .map_err(|e| format!("send {method} {path}: {e}"))?;
        read_response(&mut self.reader)
    }
}

/// The bytes of one keep-alive request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: daydream\r\n");
    if !body.is_empty() {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Reads one response: status line, headers up to the blank line, then
/// exactly `Content-Length` body bytes. Bytes after the body stay in the
/// reader for the next response.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, String> {
    let mut line = String::new();
    let read_line = |reader: &mut R, line: &mut String| -> Result<(), String> {
        line.clear();
        match reader.read_line(line) {
            Ok(0) => Err("connection closed before a complete response".to_string()),
            Ok(_) if !line.ends_with("\r\n") => Err(format!("unterminated header line {line:?}")),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read response: {e}")),
        }
    };
    read_line(reader, &mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .filter(|_| line.starts_with("HTTP/1.1 "))
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut length = None;
    loop {
        read_line(reader, &mut line)?;
        if line == "\r\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let n = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?;
                length = Some(n);
            }
        }
    }
    let length = length.ok_or("response has no Content-Length")?;
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("response body ({length} bytes): {e}"))?;
    let body = String::from_utf8(body).map_err(|e| format!("response body: {e}"))?;
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_back_to_back_responses_by_content_length() {
        let wire =
            daydream_serve::http::response_bytes(200, "application/json", b"{\"a\":1}", false);
        let mut two = wire.clone();
        two.extend(daydream_serve::http::response_bytes(
            404,
            "application/json",
            b"{\"error\":\"x\"}",
            false,
        ));
        let mut r = Cursor::new(two);
        assert_eq!(
            read_response(&mut r).unwrap(),
            Response {
                status: 200,
                body: "{\"a\":1}".into()
            }
        );
        assert_eq!(read_response(&mut r).unwrap().status, 404);
        assert!(read_response(&mut r).unwrap_err().contains("closed"));
    }

    #[test]
    fn rejects_truncated_and_unframed_responses() {
        let cut = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{\"a\"".to_vec();
        assert!(read_response(&mut Cursor::new(cut)).is_err());
        let unframed = b"HTTP/1.1 200 OK\r\n\r\n{}".to_vec();
        assert!(read_response(&mut Cursor::new(unframed))
            .unwrap_err()
            .contains("Content-Length"));
        let garbage = b"SSH-2.0\r\n\r\n".to_vec();
        assert!(read_response(&mut Cursor::new(garbage)).is_err());
    }

    #[test]
    fn request_carries_its_body_length() {
        let wire = String::from_utf8(request_bytes("POST", "/whatif", "{\"m\":1}")).unwrap();
        assert!(wire.starts_with("POST /whatif HTTP/1.1\r\n"));
        assert!(wire.contains("Content-Length: 7\r\n"));
        assert!(wire.ends_with("\r\n\r\n{\"m\":1}"));
        assert!(!wire.contains("Connection: close"));
    }
}
