//! Length-prefixed binary wire protocol for the network frontend.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload; the payload's first byte is the opcode. Integers are
//! little-endian, names are UTF-8. The protocol is intentionally tiny —
//! a session is `HELLO → HELLO_OK`, any number of `SUBMIT → COMPLETE`
//! exchanges (completions may arrive out of submission order and carry
//! virtual timestamps), then `BYE`.
//!
//! | opcode | frame      | body                                          |
//! |-------:|------------|-----------------------------------------------|
//! | `0x01` | `Hello`    | weight `u64`, name length `u16`, name bytes   |
//! | `0x81` | `HelloOk`  | tenant index `u16`                            |
//! | `0x02` | `Submit`   | id `u64`, kind `u8`, lpn `u64`, pages `u32`   |
//! | `0x82` | `Complete` | id `u64`, status `u8`, submitted µs `u64`, completed µs `u64` |
//! | `0x03` | `Bye`      | —                                             |
//!
//! Kind codes: 0 read, 1 buffered write, 2 direct write, 3 trim.
//! Status codes: 0 done, 1 busy (shed by backpressure).

use std::io::{self, Read, Write};

use jitgc_workload::IoKind;

use crate::queue::CompletionStatus;

/// Frames larger than this are rejected as corrupt (the largest legal
/// frame is a `Hello` with a 64 KiB name).
const MAX_FRAME: u32 = 1 << 17;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client opens a session as the named tenant.
    Hello {
        /// Requested fair-queueing weight (informational; the server's
        /// roster wins).
        weight: u64,
        /// Tenant name, matched against the server's roster.
        name: String,
    },
    /// Server accepts the session and assigns the tenant index.
    HelloOk {
        /// Roster index of the tenant.
        tenant: u16,
    },
    /// Client submits one request.
    Submit {
        /// Client-chosen request id, echoed in the completion.
        id: u64,
        /// Operation type.
        kind: IoKind,
        /// Tenant-local first LPN.
        lpn: u64,
        /// Pages touched.
        pages: u32,
    },
    /// Server posts one completion.
    Complete {
        /// The submission's id.
        id: u64,
        /// How the request ended.
        status: CompletionStatus,
        /// Submission virtual timestamp, µs.
        submitted_us: u64,
        /// Completion virtual timestamp, µs.
        completed_us: u64,
    },
    /// Client closes the session.
    Bye,
}

fn kind_code(kind: IoKind) -> u8 {
    match kind {
        IoKind::Read => 0,
        IoKind::BufferedWrite => 1,
        IoKind::DirectWrite => 2,
        IoKind::Trim => 3,
    }
}

fn kind_from(code: u8) -> io::Result<IoKind> {
    match code {
        0 => Ok(IoKind::Read),
        1 => Ok(IoKind::BufferedWrite),
        2 => Ok(IoKind::DirectWrite),
        3 => Ok(IoKind::Trim),
        other => Err(bad(format!("unknown kind code {other}"))),
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Frame {
    /// Encodes the frame, including its length prefix.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Frame::Hello { weight, name } => {
                body.push(0x01);
                body.extend_from_slice(&weight.to_le_bytes());
                let bytes = name.as_bytes();
                body.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                body.extend_from_slice(bytes);
            }
            Frame::HelloOk { tenant } => {
                body.push(0x81);
                body.extend_from_slice(&tenant.to_le_bytes());
            }
            Frame::Submit {
                id,
                kind,
                lpn,
                pages,
            } => {
                body.push(0x02);
                body.extend_from_slice(&id.to_le_bytes());
                body.push(kind_code(*kind));
                body.extend_from_slice(&lpn.to_le_bytes());
                body.extend_from_slice(&pages.to_le_bytes());
            }
            Frame::Complete {
                id,
                status,
                submitted_us,
                completed_us,
            } => {
                body.push(0x82);
                body.extend_from_slice(&id.to_le_bytes());
                body.push(match status {
                    CompletionStatus::Done => 0,
                    CompletionStatus::Busy => 1,
                });
                body.extend_from_slice(&submitted_us.to_le_bytes());
                body.extend_from_slice(&completed_us.to_le_bytes());
            }
            Frame::Bye => body.push(0x03),
        }
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decodes one frame payload (without the length prefix).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on an unknown opcode, a truncated body, or a
    /// non-UTF-8 name.
    pub fn decode(payload: &[u8]) -> io::Result<Frame> {
        let mut cur = Cursor {
            buf: payload,
            at: 0,
        };
        let frame = match cur.u8()? {
            0x01 => {
                let weight = cur.u64()?;
                let len = cur.u16()? as usize;
                let name = String::from_utf8(cur.bytes(len)?.to_vec())
                    .map_err(|_| bad("tenant name is not UTF-8".into()))?;
                Frame::Hello { weight, name }
            }
            0x81 => Frame::HelloOk { tenant: cur.u16()? },
            0x02 => Frame::Submit {
                id: cur.u64()?,
                kind: kind_from(cur.u8()?)?,
                lpn: cur.u64()?,
                pages: cur.u32()?,
            },
            0x82 => Frame::Complete {
                id: cur.u64()?,
                status: match cur.u8()? {
                    0 => CompletionStatus::Done,
                    1 => CompletionStatus::Busy,
                    other => return Err(bad(format!("unknown status code {other}"))),
                },
                submitted_us: cur.u64()?,
                completed_us: cur.u64()?,
            },
            0x03 => Frame::Bye,
            other => return Err(bad(format!("unknown opcode {other:#04x}"))),
        };
        if cur.at != payload.len() {
            return Err(bad(format!(
                "{} trailing bytes after frame",
                payload.len() - cur.at
            )));
        }
        Ok(frame)
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn bytes(&mut self, n: usize) -> io::Result<&[u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated frame".into()))?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Writes one frame to `w`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// Reads one frame from `r`; `Ok(None)` on a clean EOF at a frame
/// boundary, that is before the first byte of the length prefix.
///
/// A claimed length above the largest legal frame is refused before any
/// payload buffer is allocated, whatever the prefix says (up to
/// `u32::MAX`).
///
/// # Errors
///
/// Returns `InvalidData` on an oversized or malformed frame,
/// `UnexpectedEof` when the stream ends inside a frame (its length prefix
/// included), and propagates other I/O errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream ended {got} bytes into a frame's length prefix"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(bad(format!("frame of {len} bytes exceeds {MAX_FRAME}")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Frame::decode(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let encoded = frame.encode();
        let mut reader = &encoded[..];
        let decoded = read_frame(&mut reader)
            .expect("decodes")
            .expect("one frame");
        assert_eq!(decoded, frame);
        assert!(reader.is_empty(), "frame fully consumed");
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame::Hello {
            weight: 7,
            name: "reader".into(),
        });
        round_trip(Frame::HelloOk { tenant: 2 });
        round_trip(Frame::Submit {
            id: u64::MAX,
            kind: IoKind::DirectWrite,
            lpn: 123_456,
            pages: 32,
        });
        round_trip(Frame::Complete {
            id: 9,
            status: CompletionStatus::Busy,
            submitted_us: 1_000,
            completed_us: 2_500,
        });
        round_trip(Frame::Bye);
    }

    #[test]
    fn every_kind_code_round_trips() {
        for kind in [
            IoKind::Read,
            IoKind::BufferedWrite,
            IoKind::DirectWrite,
            IoKind::Trim,
        ] {
            round_trip(Frame::Submit {
                id: 1,
                kind,
                lpn: 0,
                pages: 1,
            });
        }
    }

    #[test]
    fn clean_eof_is_none() {
        let mut empty: &[u8] = &[];
        assert_eq!(read_frame(&mut empty).expect("clean EOF"), None);
    }

    #[test]
    fn a_stream_cut_inside_the_length_prefix_is_an_error() {
        let encoded = Frame::Bye.encode();
        for cut in 1..4 {
            let err = read_frame(&mut &encoded[..cut]).expect_err("cut inside the prefix");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn truncated_and_malformed_frames_are_rejected() {
        // Truncated body.
        let mut encoded = Frame::HelloOk { tenant: 1 }.encode();
        encoded.truncate(5);
        assert!(read_frame(&mut &encoded[..]).is_err());
        // Unknown opcode.
        assert!(Frame::decode(&[0x7f]).is_err());
        // Trailing garbage.
        assert!(Frame::decode(&[0x03, 0xff]).is_err());
        // Oversized length prefix.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // Bad status code.
        let mut complete = Frame::Complete {
            id: 1,
            status: CompletionStatus::Done,
            submitted_us: 0,
            completed_us: 0,
        }
        .encode();
        complete[4 + 1 + 8] = 9;
        assert!(read_frame(&mut &complete[..]).is_err());
    }
}
