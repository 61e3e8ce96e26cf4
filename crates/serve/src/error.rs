//! One boxed-error-compatible error type for the whole serve path.
//!
//! Every failure the server or client can hit — socket I/O, a malformed
//! `RTFT/1` frame, fleet admission refusing work — folds into
//! [`ServeError`] via `From`, so public APIs return a single type and
//! callers can `?` straight into `Box<dyn Error>`.

use std::fmt;

use rtft_fleet::RejectReason;

/// A violation of the `RTFT/1` frame grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// The length field exceeds the negotiated maximum frame size.
    Oversized {
        /// The offending length field.
        len: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// The tag byte names no known frame.
    UnknownTag(u8),
    /// A body field was truncated, malformed, or left trailing bytes.
    BadPayload(&'static str),
    /// A well-formed frame arrived where the protocol does not allow it.
    UnexpectedFrame {
        /// What the state machine was waiting for.
        expected: &'static str,
        /// What actually arrived.
        got: &'static str,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version offered by the peer.
        offered: u32,
        /// Version this implementation speaks.
        supported: u32,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            ProtocolError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            ProtocolError::BadPayload(what) => write!(f, "malformed frame body: {what}"),
            ProtocolError::UnexpectedFrame { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
            ProtocolError::VersionMismatch { offered, supported } => {
                write!(
                    f,
                    "peer speaks RTFT/{offered}, this side speaks RTFT/{supported}"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Why the server evicted a connection (read-deadline enforcement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// No frame arrived within `ServerConfig::max_idle` while the
    /// connection had no in-flight work.
    Idle,
    /// A started frame did not complete within
    /// `ServerConfig::read_timeout` (stalled or slow-loris writer).
    Stalled,
}

impl EvictReason {
    /// Stable lowercase label (event names, reports).
    pub fn label(&self) -> &'static str {
        match self {
            EvictReason::Idle => "idle",
            EvictReason::Stalled => "stalled",
        }
    }
}

impl fmt::Display for EvictReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Anything that can go wrong on the serve path.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// `RTFT/1` grammar violation.
    Protocol(ProtocolError),
    /// Fleet admission refused the work (backpressure; retryable when the
    /// reason is `QueueFull`).
    Rejected(RejectReason),
    /// The peer closed the connection mid-exchange.
    ConnectionClosed,
    /// The server evicted the connection for violating a read deadline.
    /// Accounting stays lossless: the evicted streams' buffered tokens
    /// are reported `undelivered`, never dropped.
    Evicted(EvictReason),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServeError::Rejected(r) => write!(f, "admission rejected: {r}"),
            ServeError::ConnectionClosed => write!(f, "connection closed by peer"),
            ServeError::Evicted(reason) => write!(f, "connection evicted ({reason})"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            ServeError::Rejected(r) => Some(r),
            ServeError::ConnectionClosed => None,
            ServeError::Evicted(_) => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::ConnectionClosed
        } else {
            ServeError::Io(e)
        }
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

impl From<RejectReason> for ServeError {
    fn from(r: RejectReason) -> Self {
        ServeError::Rejected(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_boxes_into_dyn_error() {
        let cases: Vec<ServeError> = vec![
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe").into(),
            ProtocolError::UnknownTag(9).into(),
            RejectReason::ShuttingDown.into(),
            ServeError::ConnectionClosed,
        ];
        for case in cases {
            let boxed: Box<dyn std::error::Error> = Box::new(case);
            assert!(!boxed.to_string().is_empty());
        }
    }

    #[test]
    fn eof_maps_to_connection_closed() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(
            ServeError::from(eof),
            ServeError::ConnectionClosed
        ));
    }
}
