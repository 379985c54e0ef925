//! The flat JSON objects `dcfb run --json` prints, escaped through the
//! workspace's one JSON codec.

use dcfb_telemetry::json::write_escaped;

/// Builds one flat JSON object from key/value pairs.
#[derive(Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// Creates an empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Adds a string field (escaped).
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        let mut quoted = String::new();
        write_escaped(&mut quoted, value);
        self.fields.push(field(key, &quoted));
        self
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push(field(key, &value.to_string()));
        self
    }

    /// Adds a float field (6 significant decimals; NaN/inf become null).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() {
            format!("{value:.6}")
        } else {
            "null".to_owned()
        };
        self.fields.push(field(key, &v));
        self
    }

    /// Renders the object.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}

/// `"key": ` followed by `value`.
fn field(key: &str, value: &str) -> String {
    let mut out = String::new();
    write_escaped(&mut out, key);
    out.push_str(": ");
    out.push_str(value);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_object() {
        let mut o = JsonObject::new();
        o.string("name", "SN4L+Dis+BTB")
            .int("cycles", 123)
            .float("ipc", 0.75);
        assert_eq!(
            o.render(),
            "{\"name\": \"SN4L+Dis+BTB\", \"cycles\": 123, \"ipc\": 0.750000}"
        );
    }

    #[test]
    fn escapes_specials() {
        let mut o = JsonObject::new();
        o.string("k", "a\"b\\c\nd");
        assert_eq!(o.render(), "{\"k\": \"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = JsonObject::new();
        o.float("x", f64::NAN);
        assert_eq!(o.render(), "{\"x\": null}");
    }
}
