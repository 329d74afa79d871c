//! Length-prefixed framing over any `Read`/`Write` pair.
//!
//! A frame is a 4-byte **big-endian** `u32` length followed by exactly that
//! many bytes of UTF-8 JSON. That is the entire grammar — no magic numbers,
//! no version bytes, no compression flags. The JSON payloads carry their own
//! `"type"` tags (see `netband_spec::wire`), and the codec's strictness does
//! the validation a fancier envelope would.
//!
//! The length prefix is what makes the protocol safe to serve: a reader knows
//! the full size of a frame **before** buffering it, so a configured
//! [`read_frame`] `max` cap rejects oversized frames in constant memory
//! instead of feeding an unbounded `Vec`.

use std::fmt;
use std::io::{self, Read, Write};

/// Default maximum frame payload size (8 MiB) — far above any sane batch,
/// far below anything that could hurt a host.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Framing failures.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes timeouts and truncated frames,
    /// surfaced as `UnexpectedEof`).
    Io(io::Error),
    /// The peer announced a frame larger than the configured cap. The frame
    /// was **not** read; the stream is out of sync and should be closed.
    TooLarge {
        /// Announced payload length.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The payload was not valid UTF-8.
    Utf8(std::string::FromUtf8Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Utf8(e) => write!(f, "frame payload is not UTF-8: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes.
///
/// Prefix and payload go down in **one** `write_all` of a single buffer.
/// Two calls would let a payload too big for a `BufWriter`'s spare capacity
/// push the 4-byte prefix out in a write of its own — a separate syscall,
/// and under `TCP_NODELAY` a separate packet.
pub fn write_frame(writer: &mut impl Write, payload: &str) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::TooLarge {
        len: payload.len(),
        max: u32::MAX as usize,
    })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame, enforcing the `max` payload cap *before* buffering.
///
/// Returns `Ok(None)` on a clean end of stream (the peer closed between
/// frames). End of stream **inside** a frame — mid-prefix or mid-payload —
/// is a truncated frame and surfaces as an `UnexpectedEof` i/o error.
pub fn read_frame(reader: &mut impl Read, max: usize) -> Result<Option<String>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None), // clean EOF between frames
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(FrameError::Utf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"type":"metrics"}"#).unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "π😀").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().as_deref(),
            Some(r#"{"type":"metrics"}"#)
        );
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().as_deref(),
            Some("")
        );
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().as_deref(),
            Some("π😀")
        );
        assert!(read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn oversized_frames_are_rejected_before_buffering() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes()); // 4 GiB announcement
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        match err {
            FrameError::TooLarge { len, max } => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_clean_eof() {
        // Cut inside the prefix.
        let err = read_frame(&mut Cursor::new(vec![0u8, 0]), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err:?}");
        // Cut inside the payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err:?}");
    }

    /// Counts the writes that reach the wrapped writer.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_larger_than_the_buffer_reaches_the_socket_in_one_write() {
        let payload = "x".repeat(20 * 1024);
        let mut writer = io::BufWriter::new(CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        });
        write_frame(&mut writer, &payload).unwrap();
        let inner = writer.get_ref();
        assert_eq!(inner.writes, 1, "prefix and payload must share one write");
        assert_eq!(&inner.bytes[..4], &(20u32 * 1024).to_be_bytes());
        assert_eq!(&inner.bytes[4..], payload.as_bytes());
        // A small frame is buffered whole and flushed in one write too.
        write_frame(&mut writer, "{}").unwrap();
        assert_eq!(writer.get_ref().writes, 2);
    }

    #[test]
    fn non_utf8_payloads_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Utf8(_)), "{err:?}");
    }
}
