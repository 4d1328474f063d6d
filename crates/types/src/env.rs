//! The one way a `SMOOTH_*` environment knob is read: unset means the
//! caller's default, a value the knob's parser rejects aborts.

use std::env::VarError;

/// Read knob `key` through `parse`; `None` when the variable is unset.
///
/// # Panics
///
/// When the variable holds text `parse` rejects (or that is not
/// unicode), naming the variable and the text. A malformed knob must
/// not run as its default: `SMOOTH_MEM_BYTES=16k` would mean
/// "unlimited", and a chaos leg with one misspelt `SMOOTH_FAULTS` key
/// would pass fault-free.
pub fn env_knob<T>(
    key: &str,
    parse: impl FnOnce(&str) -> std::result::Result<T, String>,
) -> Option<T> {
    match std::env::var(key) {
        Ok(text) => Some(parse(&text).unwrap_or_else(|why| panic!("{key}={text:?}: {why}"))),
        Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(raw)) => panic!("{key}={raw:?}: not unicode"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knob_reads_as_none_without_consulting_the_parser() {
        let parsed = env_knob("SMOOTH_KNOB_NO_SUITE_EVER_SETS", |_| -> Result<u8, String> {
            panic!("parser ran for an unset variable")
        });
        assert_eq!(parsed, None);
    }
}
