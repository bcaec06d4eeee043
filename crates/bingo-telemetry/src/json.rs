//! A tiny dependency-free JSON writer.
//!
//! The `repro` harness, the CI-run examples, the service and gateway
//! stats' `to_json()` and the obs plane's `/status` all emit one-line
//! machine-readable summaries; before this module each emitter
//! hand-rolled its own escaping and comma placement.
//! [`JsonObject`]/[`JsonArray`] centralize that: push fields in order, get
//! the serialized string back. Numbers are written via `Display`, so
//! callers keep full control over float formatting (pass a pre-formatted
//! `format!("{v:.4}")` through [`JsonObject::field_raw`] when a fixed
//! precision matters).

/// Escape a string for inclusion in a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Incremental `{…}` builder.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Add a string field (escaped and quoted).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        let quoted = format!("\"{}\"", escape(value));
        self.key(key).push_str(&quoted);
        self
    }

    /// Add a numeric field (anything `Display`, written verbatim).
    pub fn field_num(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        let text = value.to_string();
        self.key(key).push_str(&text);
        self
    }

    /// Add a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Add a field whose value is already serialized JSON.
    pub fn field_raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// Serialize to `{…}`.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Incremental `[…]` builder.
#[derive(Debug, Default)]
pub struct JsonArray {
    buf: String,
}

impl JsonArray {
    /// Start an empty array.
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        &mut self.buf
    }

    /// Push a string element (escaped and quoted).
    pub fn push_str_elem(&mut self, value: &str) -> &mut Self {
        let quoted = format!("\"{}\"", escape(value));
        self.sep().push_str(&quoted);
        self
    }

    /// Push an element that is already serialized JSON.
    pub fn push_raw(&mut self, json: &str) -> &mut Self {
        self.sep().push_str(json);
        self
    }

    /// Serialize to `[…]`.
    pub fn finish(&self) -> String {
        format!("[{}]", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_nests() {
        let mut inner = JsonArray::new();
        inner.push_raw("1").push_raw("2.5").push_str_elem("a\"b");
        let mut obj = JsonObject::new();
        obj.field_str("name", "line\nbreak")
            .field_num("count", 7)
            .field_bool("ok", true)
            .field_raw("items", &inner.finish());
        assert_eq!(
            obj.finish(),
            "{\"name\":\"line\\nbreak\",\"count\":7,\"ok\":true,\"items\":[1,2.5,\"a\\\"b\"]}"
        );
    }
}
