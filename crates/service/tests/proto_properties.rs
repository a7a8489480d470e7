//! `read_frame` on hostile input: whatever bytes arrive, it returns `Ok`
//! or `Err` and never panics, takes an empty stream — and only that — for
//! a clean close, and never allocates for a length prefix it will refuse.

use jitgc_service::{read_frame, CompletionStatus, Frame};
use jitgc_sim::check::{check, Gen};
use jitgc_workload::IoKind;
use std::io;

/// The largest payload `read_frame` accepts (a `Hello` with a 64 KiB
/// name fits under it). The property checks both sides of it.
const MAX_FRAME: u32 = 1 << 17;

/// A frame of every opcode, drawn at random; names are up to 40
/// characters, some of them multi-byte.
fn any_frame(g: &mut Gen) -> Frame {
    let kinds = [
        IoKind::Read,
        IoKind::BufferedWrite,
        IoKind::DirectWrite,
        IoKind::Trim,
    ];
    match g.u64(0, 5) {
        0 => Frame::Hello {
            weight: g.any_u64(),
            name: (0..g.u64(0, 41))
                .map(|_| g.pick(&['a', 'z', '0', '-', 'é', '文', '🦀']))
                .collect(),
        },
        1 => Frame::HelloOk {
            tenant: g.u64(0, 1 << 16) as u16,
        },
        2 => Frame::Submit {
            id: g.any_u64(),
            kind: g.pick(&kinds),
            lpn: g.any_u64(),
            pages: g.any_u64() as u32,
        },
        3 => Frame::Complete {
            id: g.any_u64(),
            status: g.pick(&[CompletionStatus::Done, CompletionStatus::Busy]),
            submitted_us: g.any_u64(),
            completed_us: g.any_u64(),
        },
        _ => Frame::Bye,
    }
}

/// Reads one frame from `bytes`, checking what any input must give:
/// no panic, `None` only for an empty stream, an `UnexpectedEof`
/// error for one cut inside the length prefix, and a decoded frame
/// only when it re-encodes to exactly the bytes consumed. Returns the
/// result and the bytes consumed.
fn read_any(bytes: &[u8]) -> (io::Result<Option<Frame>>, usize) {
    let mut reader = bytes;
    let result = read_frame(&mut reader);
    let consumed = bytes.len() - reader.len();
    match &result {
        Ok(None) => assert!(bytes.is_empty(), "None from {bytes:02x?}"),
        Ok(Some(frame)) => assert_eq!(frame.encode(), bytes[..consumed], "{frame:?}"),
        Err(e) if bytes.len() < 4 => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
        Err(_) => {}
    }
    (result, consumed)
}

/// `read_frame` returns `Ok` or `Err` and never panics on any input:
/// arbitrary byte strings, every truncation of a valid frame (an
/// error except at the two ends), every single-bit flip of one, and
/// length prefixes up to `u32::MAX`, which are refused after the four
/// prefix bytes, before any payload is read or allocated. 512 cases,
/// each a drawn frame's every truncation and bit flip plus three more
/// inputs: 116 168 reads, under 0.1 s.
#[test]
fn any_bytes_decode_to_ok_or_err() {
    check(0x5EED_F4A3, 512, |g| {
        let frame = any_frame(g);
        let drawn = g.u64(u64::from(MAX_FRAME) + 1, 1 << 32) as u32;
        let claimed = g.pick(&[MAX_FRAME + 1, u32::MAX, drawn]);
        let garbage = g.vec(0, 64, |g| g.u64(0, 256) as u8);
        let encoded = frame.encode();
        for cut in 0..=encoded.len() {
            let (result, _) = read_any(&encoded[..cut]);
            match cut {
                0 => assert!(matches!(result, Ok(None))),
                _ if cut == encoded.len() => {
                    assert_eq!(result.expect("whole frame"), Some(frame.clone()));
                }
                _ => assert!(result.is_err(), "cut {cut} of {frame:?} decoded"),
            }
        }
        let mut flipped = encoded.clone();
        for bit in 0..encoded.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = read_any(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let _ = read_any(&garbage);
        let mut oversized = claimed.to_le_bytes().to_vec();
        oversized.extend_from_slice(&garbage);
        let (result, consumed) = read_any(&oversized);
        let err = result.expect_err("oversized frame");
        assert_eq!((err.kind(), consumed), (io::ErrorKind::InvalidData, 4));
        // The largest legal claim is read, not refused.
        let (result, consumed) = read_any(&MAX_FRAME.to_le_bytes());
        assert_eq!(
            (result.expect_err("no payload").kind(), consumed),
            (io::ErrorKind::UnexpectedEof, 4)
        );
    });
}
