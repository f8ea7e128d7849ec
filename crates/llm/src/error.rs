//! Error type for language-model calls.

use std::error::Error;
use std::fmt;

/// Errors a [`crate::LanguageModel`] call can produce.
///
/// The variants split into two classes that the resilient backend layer
/// (`unidm::backend`) treats differently:
///
/// * **Permanent** — [`LlmError::EmptyPrompt`] and
///   [`LlmError::PromptTooLong`]: retrying the identical call cannot
///   succeed, so they surface immediately.
/// * **Transient** — [`LlmError::Timeout`], [`LlmError::RateLimited`],
///   [`LlmError::Transient`] and [`LlmError::CircuitOpen`]: the endpoint
///   (or the client's own protection machinery) failed this *attempt*, and
///   a later attempt of the same call may succeed. [`LlmError::is_transient`]
///   is the classification the retry loop keys on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LlmError {
    /// The prompt exceeded the model's context window.
    PromptTooLong {
        /// Tokens in the prompt.
        tokens: usize,
        /// The model's context window.
        limit: usize,
    },
    /// The prompt was empty.
    EmptyPrompt,
    /// The endpoint did not answer within the attempt's time budget.
    Timeout {
        /// Virtual microseconds the attempt ran before giving up.
        elapsed_us: u64,
    },
    /// The endpoint rejected the attempt with a 429-style rate limit.
    RateLimited {
        /// How long the endpoint asked the client to back off, in
        /// microseconds (0 when the endpoint gave no hint).
        retry_after_us: u64,
    },
    /// The endpoint failed with a transient 5xx-style server error.
    Transient {
        /// The HTTP-style status code (500, 502, 503, ...).
        status: u16,
    },
    /// The client-side circuit breaker is open: recent attempts failed so
    /// consistently that the call was rejected without reaching the
    /// endpoint.
    CircuitOpen {
        /// Microseconds until the breaker half-opens and allows a probe.
        cooldown_us: u64,
    },
}

impl LlmError {
    /// Whether a later attempt of the identical call may succeed.
    ///
    /// Retry layers must only retry transient errors; permanent ones
    /// (malformed input) surface immediately.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            LlmError::Timeout { .. }
                | LlmError::RateLimited { .. }
                | LlmError::Transient { .. }
                | LlmError::CircuitOpen { .. }
        )
    }
}

impl fmt::Display for LlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlmError::PromptTooLong { tokens, limit } => {
                write!(
                    f,
                    "prompt of {tokens} tokens exceeds context window of {limit}"
                )
            }
            LlmError::EmptyPrompt => write!(f, "prompt is empty"),
            LlmError::Timeout { elapsed_us } => {
                write!(f, "attempt timed out after {elapsed_us}us")
            }
            LlmError::RateLimited { retry_after_us } => {
                write!(f, "rate limited (retry after {retry_after_us}us)")
            }
            LlmError::Transient { status } => {
                write!(f, "transient server error (status {status})")
            }
            LlmError::CircuitOpen { cooldown_us } => {
                write!(f, "circuit breaker open (half-opens in {cooldown_us}us)")
            }
        }
    }
}

impl Error for LlmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = LlmError::PromptTooLong {
            tokens: 9000,
            limit: 4096,
        };
        assert!(e.to_string().contains("9000"));
        assert_eq!(LlmError::EmptyPrompt.to_string(), "prompt is empty");
        assert!(LlmError::Timeout { elapsed_us: 5 }
            .to_string()
            .contains("5us"));
        assert!(LlmError::RateLimited { retry_after_us: 7 }
            .to_string()
            .contains("rate limited"));
        assert!(LlmError::Transient { status: 503 }
            .to_string()
            .contains("503"));
        assert!(LlmError::CircuitOpen { cooldown_us: 9 }
            .to_string()
            .contains("breaker"));
    }

    #[test]
    fn transience_classification() {
        assert!(LlmError::Timeout { elapsed_us: 1 }.is_transient());
        assert!(LlmError::RateLimited { retry_after_us: 1 }.is_transient());
        assert!(LlmError::Transient { status: 500 }.is_transient());
        assert!(LlmError::CircuitOpen { cooldown_us: 1 }.is_transient());
        assert!(!LlmError::EmptyPrompt.is_transient());
        assert!(!LlmError::PromptTooLong {
            tokens: 1,
            limit: 0
        }
        .is_transient());
    }

    #[test]
    fn send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<LlmError>();
    }
}
