//! A streaming `/generate` client: like `spectragan_serve::client`,
//! but it reads the chunked band stream as it arrives, so it can time
//! the response head and the first band.

use spectragan_geo::TrafficMap;
use spectragan_serve::client::{assemble_bands, HttpResponse};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One `/generate` exchange, timed from just before connecting.
pub struct Reply {
    /// When the exchange started (just before connecting).
    pub start: Instant,
    pub status: u16,
    /// Seconds until the response head was read.
    pub head_s: f64,
    /// Seconds until the first band chunk was read.
    pub first_band_s: Option<f64>,
    /// Seconds until the terminal chunk was read.
    pub total_s: f64,
    /// The reassembled map of a complete 200 band stream.
    pub map: Option<TrafficMap>,
}

/// Posts one band-streamed generation request and reads the whole
/// response. `Err` means the exchange broke (refused, reset, short or
/// malformed stream).
pub fn generate(addr: SocketAddr, city: &str, t_out: usize, seed: u64) -> Result<Reply, String> {
    let body = format!("{{\"city\":\"{city}\",\"t_out\":{t_out},\"seed\":{seed}}}");
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    // A stalled server fails the request instead of hanging the run.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let head = format!(
        "POST /generate HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);

    let status_line = read_line(&mut reader)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let head_s = start.elapsed().as_secs_f64();
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    if status != 200 || !chunked {
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        return Ok(Reply {
            start,
            status,
            head_s,
            first_band_s: None,
            total_s: start.elapsed().as_secs_f64(),
            map: None,
        });
    }

    let mut chunks = Vec::new();
    let mut first_band_s = None;
    loop {
        let size_line = read_line(&mut reader)?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            read_line(&mut reader)?;
            break;
        }
        let mut chunk = vec![0u8; size];
        reader
            .read_exact(&mut chunk)
            .map_err(|e| format!("short chunk: {e}"))?;
        if !read_line(&mut reader)?.is_empty() {
            return Err("chunk not followed by CRLF".into());
        }
        first_band_s.get_or_insert_with(|| start.elapsed().as_secs_f64());
        chunks.push(chunk);
    }
    let total_s = start.elapsed().as_secs_f64();
    let response = HttpResponse {
        status,
        headers,
        body: Vec::new(),
        chunks,
    };
    let map = assemble_bands(&response).map_err(|e| e.to_string())?;
    Ok(Reply {
        start,
        status,
        head_s,
        first_band_s,
        total_s,
        map: Some(map),
    })
}

/// Reads one CRLF-terminated line; EOF before the terminator is a
/// short stream.
fn read_line(reader: &mut impl BufRead) -> Result<String, String> {
    let mut buf = Vec::new();
    reader
        .read_until(b'\n', &mut buf)
        .map_err(|e| format!("read: {e}"))?;
    if !buf.ends_with(b"\r\n") {
        return Err("stream ended mid-line".into());
    }
    buf.truncate(buf.len() - 2);
    String::from_utf8(buf).map_err(|_| "non-UTF-8 line".into())
}
