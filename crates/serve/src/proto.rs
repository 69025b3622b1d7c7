//! The serving byte protocol.
//!
//! Client traffic rides the same checksummed wire frames as the worker
//! mesh ([`sar_comm::wire`]), under the serving-only frame kinds
//! `Request` / `Response`; the frame `tag` carries a client-chosen
//! request id echoed back on the response. This module defines what goes
//! *inside* those frames, plus the rank-0 → worker control codec.
//!
//! Request body: one opcode byte, then opcode-specific little-endian
//! payload. Response body: one status byte (0 = ok, 1 = error), then a
//! result payload (logits matrix, stats block, or a UTF-8 error message).
//!
//! Everything here is pure encode/decode — malformed input returns
//! [`ServeError::Protocol`], never a panic, because these bytes arrive
//! from the network.

use crate::error::ServeError;

/// Opcode: query a batch of node ids for logits.
pub const OP_QUERY: u8 = 1;
/// Opcode: overwrite one node's input feature row.
pub const OP_UPDATE: u8 = 2;
/// Opcode: reload model parameters from the server's checkpoint path.
pub const OP_RELOAD: u8 = 3;
/// Opcode: fetch the front-end's serving statistics.
pub const OP_STATS: u8 = 4;
/// Opcode: drain in-flight requests and shut the cluster down.
pub const OP_SHUTDOWN: u8 = 5;

/// Response status: success.
pub const STATUS_OK: u8 = 0;
/// Response status: failure (body is a UTF-8 message).
pub const STATUS_ERR: u8 = 1;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Node-classification query over global node ids.
    Query(Vec<u32>),
    /// Overwrite the input feature row of one node.
    Update {
        /// Global node id.
        node: u32,
        /// New feature values (base feature width, label-augmentation
        /// channels are derived server-side).
        values: Vec<f32>,
    },
    /// Reload parameters from the configured checkpoint.
    Reload,
    /// Fetch serving statistics.
    Stats,
    /// Graceful shutdown.
    Shutdown,
}

/// A decoded response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Query result: `[rows, cols]` logits, row-major, in request order.
    Logits {
        /// Number of queried nodes.
        rows: usize,
        /// Number of classes.
        cols: usize,
        /// Row-major values.
        values: Vec<f32>,
    },
    /// Acknowledgement with no payload (update / reload / shutdown).
    Ack,
    /// Statistics block.
    Stats(Vec<u64>),
    /// Server-side failure.
    Error(String),
}

// ----------------------------------------------------------------------
// Little-endian cursor helpers
// ----------------------------------------------------------------------

/// A bounds-checked little-endian reader over a received byte buffer.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a buffer.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ServeError::Protocol(format!(
                "message truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ServeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ServeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, ServeError> {
        let b = self.take(n.saturating_mul(4))?;
        Ok(b.chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads `n` little-endian `f32`s.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, ServeError> {
        let b = self.take(n.saturating_mul(4))?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// The remaining bytes.
    #[must_use]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Errors unless the buffer is fully consumed.
    pub fn finish(&self) -> Result<(), ServeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    out.reserve(vs.len() * 4);
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    out.reserve(vs.len() * 4);
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

// ----------------------------------------------------------------------
// Request codec
// ----------------------------------------------------------------------

/// Encodes a client request body.
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Query(ids) => {
            out.push(OP_QUERY);
            put_u32(&mut out, ids.len() as u32);
            put_u32s(&mut out, ids);
        }
        Request::Update { node, values } => {
            out.push(OP_UPDATE);
            put_u32(&mut out, *node);
            put_u32(&mut out, values.len() as u32);
            put_f32s(&mut out, values);
        }
        Request::Reload => out.push(OP_RELOAD),
        Request::Stats => out.push(OP_STATS),
        Request::Shutdown => out.push(OP_SHUTDOWN),
    }
    out
}

/// Decodes a client request body.
///
/// # Errors
///
/// [`ServeError::Protocol`] on unknown opcodes, truncation, or trailing
/// bytes.
pub fn decode_request(buf: &[u8]) -> Result<Request, ServeError> {
    let mut c = Cursor::new(buf);
    let op = c.u8()?;
    let req = match op {
        OP_QUERY => {
            let n = c.u32()? as usize;
            Request::Query(c.u32s(n)?)
        }
        OP_UPDATE => {
            let node = c.u32()?;
            let dim = c.u32()? as usize;
            Request::Update {
                node,
                values: c.f32s(dim)?,
            }
        }
        OP_RELOAD => Request::Reload,
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        other => {
            return Err(ServeError::Protocol(format!(
                "unknown request opcode {other}"
            )))
        }
    };
    c.finish()?;
    Ok(req)
}

// ----------------------------------------------------------------------
// Response codec
// ----------------------------------------------------------------------

/// Encodes a successful query response.
#[must_use]
pub fn encode_logits(rows: usize, cols: usize, values: &[f32]) -> Vec<u8> {
    let mut out = vec![STATUS_OK, OP_QUERY];
    put_u32(&mut out, rows as u32);
    put_u32(&mut out, cols as u32);
    put_f32s(&mut out, values);
    out
}

/// Encodes a payload-free acknowledgement.
#[must_use]
pub fn encode_ack(op: u8) -> Vec<u8> {
    vec![STATUS_OK, op]
}

/// Encodes a statistics block (a flat list of named-by-position `u64`
/// counters; see [`StatsSnapshot`](crate::StatsSnapshot) for the order).
#[must_use]
pub fn encode_stats(counters: &[u64]) -> Vec<u8> {
    let mut out = vec![STATUS_OK, OP_STATS];
    put_u32(&mut out, counters.len() as u32);
    for &v in counters {
        put_u64(&mut out, v);
    }
    out
}

/// Encodes a failure response.
#[must_use]
pub fn encode_error(msg: &str) -> Vec<u8> {
    let mut out = vec![STATUS_ERR];
    out.extend_from_slice(msg.as_bytes());
    out
}

/// Decodes a response body.
///
/// # Errors
///
/// [`ServeError::Protocol`] on malformed bytes.
pub fn decode_response(buf: &[u8]) -> Result<Response, ServeError> {
    let mut c = Cursor::new(buf);
    let status = c.u8()?;
    if status == STATUS_ERR {
        return Ok(Response::Error(
            String::from_utf8_lossy(c.rest()).into_owned(),
        ));
    }
    if status != STATUS_OK {
        return Err(ServeError::Protocol(format!(
            "unknown response status {status}"
        )));
    }
    let op = c.u8()?;
    let resp = match op {
        OP_QUERY => {
            let rows = c.u32()? as usize;
            let cols = c.u32()? as usize;
            let values = c.f32s(rows.saturating_mul(cols))?;
            Response::Logits { rows, cols, values }
        }
        OP_STATS => {
            let n = c.u32()? as usize;
            // The count is untrusted: grow as values decode, never
            // reserve it up front.
            let mut counters = Vec::new();
            for _ in 0..n {
                counters.push(c.u64()?);
            }
            Response::Stats(counters)
        }
        OP_UPDATE | OP_RELOAD | OP_SHUTDOWN => Response::Ack,
        other => {
            return Err(ServeError::Protocol(format!(
                "unknown response opcode {other}"
            )))
        }
    };
    c.finish()?;
    Ok(resp)
}

// ----------------------------------------------------------------------
// Rank-0 → worker control codec
// ----------------------------------------------------------------------

/// A control message broadcast from rank 0 to the resident workers.
/// Every rank (0 included) executes the same sequence of these, which is
/// what keeps the SPMD engine in lockstep.
#[derive(Debug, Clone, PartialEq)]
pub enum Ctrl {
    /// Execute one query batch (global node ids, deduplicated order
    /// preserved rank-side).
    Query(Vec<u32>),
    /// Overwrite one node's feature row; owner applies, everyone
    /// invalidates their cache.
    Update {
        /// Global node id.
        node: u32,
        /// New base-feature values.
        values: Vec<f32>,
    },
    /// Install new parameters (already validated by rank 0; shipped as
    /// raw shape/value pairs so every rank installs identical bits).
    Reload(Vec<(Vec<usize>, Vec<f32>)>),
    /// Leave the serving loop after a final barrier.
    Shutdown,
}

const CTRL_QUERY: u8 = 1;
const CTRL_UPDATE: u8 = 2;
const CTRL_RELOAD: u8 = 3;
const CTRL_SHUTDOWN: u8 = 4;

/// Encodes a control message.
#[must_use]
pub fn encode_ctrl(ctrl: &Ctrl) -> Vec<u8> {
    let mut out = Vec::new();
    match ctrl {
        Ctrl::Query(ids) => {
            out.push(CTRL_QUERY);
            put_u32(&mut out, ids.len() as u32);
            put_u32s(&mut out, ids);
        }
        Ctrl::Update { node, values } => {
            out.push(CTRL_UPDATE);
            put_u32(&mut out, *node);
            put_u32(&mut out, values.len() as u32);
            put_f32s(&mut out, values);
        }
        Ctrl::Reload(params) => {
            out.push(CTRL_RELOAD);
            put_u32(&mut out, params.len() as u32);
            for (shape, data) in params {
                put_u32(&mut out, shape.len() as u32);
                for &d in shape {
                    put_u32(&mut out, d as u32);
                }
                put_u32(&mut out, data.len() as u32);
                put_f32s(&mut out, data);
            }
        }
        Ctrl::Shutdown => out.push(CTRL_SHUTDOWN),
    }
    out
}

/// Decodes a control message.
///
/// # Errors
///
/// [`ServeError::Protocol`] on malformed bytes.
pub fn decode_ctrl(buf: &[u8]) -> Result<Ctrl, ServeError> {
    let mut c = Cursor::new(buf);
    let op = c.u8()?;
    let ctrl = match op {
        CTRL_QUERY => {
            let n = c.u32()? as usize;
            Ctrl::Query(c.u32s(n)?)
        }
        CTRL_UPDATE => {
            let node = c.u32()?;
            let dim = c.u32()? as usize;
            Ctrl::Update {
                node,
                values: c.f32s(dim)?,
            }
        }
        CTRL_RELOAD => {
            // Both counts are untrusted: grow as entries decode, never
            // reserve them up front.
            let count = c.u32()? as usize;
            let mut params = Vec::new();
            for _ in 0..count {
                let ndims = c.u32()? as usize;
                let mut shape = Vec::new();
                for _ in 0..ndims {
                    shape.push(c.u32()? as usize);
                }
                let len = c.u32()? as usize;
                params.push((shape, c.f32s(len)?));
            }
            Ctrl::Reload(params)
        }
        CTRL_SHUTDOWN => Ctrl::Shutdown,
        other => {
            return Err(ServeError::Protocol(format!(
                "unknown control opcode {other}"
            )))
        }
    };
    c.finish()?;
    Ok(ctrl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Query(vec![3, 1, 4, 1, 5]),
            Request::Update {
                node: 7,
                values: vec![0.5, -1.25],
            },
            Request::Reload,
            Request::Stats,
            Request::Shutdown,
        ] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let logits = decode_response(&encode_logits(2, 3, &[1.0; 6])).unwrap();
        assert_eq!(
            logits,
            Response::Logits {
                rows: 2,
                cols: 3,
                values: vec![1.0; 6]
            }
        );
        assert_eq!(
            decode_response(&encode_ack(OP_RELOAD)).unwrap(),
            Response::Ack
        );
        assert_eq!(
            decode_response(&encode_stats(&[1, 2, 3])).unwrap(),
            Response::Stats(vec![1, 2, 3])
        );
        match decode_response(&encode_error("boom")).unwrap() {
            Response::Error(m) => assert_eq!(m, "boom"),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn ctrl_round_trips() {
        for ctrl in [
            Ctrl::Query(vec![0, 9]),
            Ctrl::Update {
                node: 2,
                values: vec![1.0, 2.0, 3.0],
            },
            Ctrl::Reload(vec![(vec![2, 3], vec![0.5; 6]), (vec![3], vec![1.0; 3])]),
            Ctrl::Shutdown,
        ] {
            let bytes = encode_ctrl(&ctrl);
            assert_eq!(decode_ctrl(&bytes).unwrap(), ctrl);
        }
    }

    #[test]
    fn malformed_bytes_are_typed_errors() {
        assert!(matches!(
            decode_request(&[99]),
            Err(ServeError::Protocol(_))
        ));
        // Truncated query: claims 4 ids, carries 1.
        let mut buf = vec![OP_QUERY];
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes());
        assert!(matches!(decode_request(&buf), Err(ServeError::Protocol(_))));
        // Trailing garbage.
        let mut buf = encode_request(&Request::Reload);
        buf.push(0);
        assert!(matches!(decode_request(&buf), Err(ServeError::Protocol(_))));
        assert!(matches!(decode_ctrl(&[77]), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn huge_claimed_counts_are_errors_not_allocations() {
        // A 5-byte reload claiming u32::MAX parameters, a reload whose one
        // parameter claims u32::MAX dimensions, and a stats response
        // claiming u32::MAX counters: each is a typed error, with no
        // allocation sized by the claim.
        assert!(matches!(
            decode_ctrl(&[CTRL_RELOAD, 0xff, 0xff, 0xff, 0xff]),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            decode_ctrl(&[CTRL_RELOAD, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            decode_response(&[STATUS_OK, OP_STATS, 0xff, 0xff, 0xff, 0xff]),
            Err(ServeError::Protocol(_))
        ));
    }
}
