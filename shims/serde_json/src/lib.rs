//! JSON front end for the offline serde shim: `to_string` / `from_str`
//! with the same externally-tagged encoding real serde_json uses for the
//! type shapes this workspace serializes.

use std::fmt;

/// Serialization / deserialization error.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias matching real serde_json.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.json_ser(&mut out);
    Ok(out)
}

/// Serializes `value` to JSON text (the shim emits compact output).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    to_string(value)
}

/// Parses a value from JSON text.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let mut p = serde::de::Parser::new(s);
    let v = T::json_deser(&mut p).map_err(|e| Error(e.to_string()))?;
    if !p.at_end() {
        return Err(Error("trailing characters after JSON value".into()));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::from_str;
    use serde::de::MAX_DEPTH;

    /// One known field; the unknown `rows` goes through `skip_value`.
    #[derive(serde::Deserialize)]
    struct Doc {
        device_cycles: Vec<u64>,
    }

    /// A document `arrays + 1` levels deep: `arrays` nested in `rows`.
    fn nested_rows(arrays: usize) -> String {
        let (open, close) = ("[".repeat(arrays), "]".repeat(arrays));
        format!("{{\"rows\":{open}{close},\"device_cycles\":[7]}}")
    }

    #[test]
    fn hundred_thousand_deep_unknown_field_is_an_error_not_a_stack_overflow() {
        let err = from_str::<Doc>(&nested_rows(100_000))
            .err()
            .expect("too deep");
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }

    #[test]
    fn document_at_the_depth_limit_parses() {
        let doc: Doc = from_str(&nested_rows(MAX_DEPTH - 1)).expect("depth 128 parses");
        assert_eq!(doc.device_cycles, [7]);
        assert!(from_str::<Doc>(&nested_rows(MAX_DEPTH)).is_err());
    }
}
