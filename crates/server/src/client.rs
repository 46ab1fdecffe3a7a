//! A thin blocking client for the line protocol — everything the
//! `smarts` CLI's `submit`/`status`/`cancel` subcommands and the tests
//! need, with raw-byte access to report payloads so byte-identity can
//! be asserted end to end.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use crate::json::Json;
use crate::proto::{JobSpec, Request};

/// The message of a refusal (`"ok":false`), led by its code when it is
/// a typed one: `busy: …`, `evicted: …`.
fn refusal(value: &Json) -> String {
    let message = value.get("error").and_then(Json::as_str);
    let message = message.unwrap_or("unspecified server error");
    match value.get("code").and_then(Json::as_str) {
        Some(code) => format!("{code}: {message}"),
        None => message.to_string(),
    }
}

/// One connection to a running `smarts-server`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:4617`).
    ///
    /// # Errors
    ///
    /// Returns the connect error message.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        // One-line request/response traffic: Nagle buys nothing and
        // costs delayed-ACK stalls.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?,
        );
        Ok(Client { stream, reader })
    }

    /// Sends one raw line and reads one raw response line.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or server disconnect.
    pub fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| format!("send failed: {e}"))?;
        self.read_line()
    }

    /// Reads the next response line (for `watch` streams).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or server disconnect.
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("receive failed: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(response.trim_end().to_string())
    }

    /// Round-trips a request and parses the response, surfacing
    /// protocol-level refusals (`"ok":false`) as errors.
    fn call(&mut self, request: Request) -> Result<Json, String> {
        let response = self.round_trip(&request.to_line())?;
        let value = crate::json::parse(&response).map_err(|e| format!("bad response: {e}"))?;
        match value.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(value),
            Some(false) => Err(refusal(&value)),
            None => Err(format!("response missing `ok`: {response}")),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Returns a message if the server is unreachable or refuses.
    pub fn ping(&mut self) -> Result<(), String> {
        self.call(Request::Ping).map(|_| ())
    }

    /// Submits a job, returning its server-assigned id.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal (bad spec, shutting down) verbatim;
    /// past the admission cap it starts `busy: `.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<String, String> {
        let response = self.call(Request::Submit(spec.clone()))?;
        response
            .get("job")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "submit response missing `job`".to_string())
    }

    /// One job's status object, or every job when `job` is `None`.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal (e.g. unknown id).
    pub fn status(&mut self, job: Option<&str>) -> Result<Json, String> {
        self.call(Request::Status(job.map(str::to_string)))
    }

    /// A finished job's result: `(source, raw canonical report bytes)`.
    ///
    /// The report substring is extracted positionally from the raw
    /// response line — never re-serialized — so callers can compare it
    /// byte-for-byte against other paths.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal (unknown id, no result yet); a job
    /// whose record or report is no longer retained starts `evicted: `.
    pub fn result(&mut self, job: &str) -> Result<(String, String), String> {
        let line = self.round_trip(&Request::Result(job.to_string()).to_line())?;
        let value = crate::json::parse(&line).map_err(|e| format!("bad response: {e}"))?;
        if value.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(refusal(&value));
        }
        let source = value
            .get("source")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let marker = ",\"report\":";
        let at = line
            .find(marker)
            .ok_or_else(|| "result response missing `report`".to_string())?;
        let raw = &line[at + marker.len()..line.len() - 1];
        Ok((source, raw.to_string()))
    }

    /// Requests cancellation; returns the job state the server observed.
    ///
    /// # Errors
    ///
    /// Returns the server's refusal (unknown id).
    pub fn cancel(&mut self, job: &str) -> Result<String, String> {
        let response = self.call(Request::Cancel(job.to_string()))?;
        Ok(response
            .get("was")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string())
    }

    /// Server counters (jobs, warm passes, store hits, cache hits).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O or protocol failure.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.call(Request::Stats)
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O or protocol failure.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.call(Request::Shutdown).map(|_| ())
    }

    /// Streams `watch` events for a job, invoking `on_event` per line,
    /// until the terminal `"end"` event (whose parsed form is
    /// returned).
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or a refused watch.
    pub fn watch<F: FnMut(&Json)>(&mut self, job: &str, mut on_event: F) -> Result<Json, String> {
        let mut line = self.round_trip(&Request::Watch(job.to_string()).to_line())?;
        loop {
            let value = crate::json::parse(&line).map_err(|e| format!("bad event: {e}"))?;
            if value.get("ok").and_then(Json::as_bool) == Some(false) {
                return Err(refusal(&value));
            }
            on_event(&value);
            if value.get("event").and_then(Json::as_str) == Some("end") {
                return Ok(value);
            }
            line = self.read_line()?;
        }
    }
}
