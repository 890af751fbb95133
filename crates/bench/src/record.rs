//! The one `BENCH_*.json` record format. A bench builds its record as a
//! [`Value`] and hands it to [`write()`], which writes it to the
//! repository root with `modref_obs::json::write_value`. Every record is
//! therefore strict JSON that `modref_obs::json::parse`, or any JSON
//! reader, reads back.

use std::collections::BTreeMap;

pub use modref_obs::json::Value;

/// An object of `(key, value)` fields. Keys are written in sorted order.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// A measurement rounded to `places` decimals, so a record carries
/// the precision its measurement has and no more.
pub fn fixed(value: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Num((value * scale).round() / scale)
}

/// A count.
pub fn uint(n: impl TryInto<u64>) -> Value {
    Value::UInt(n.try_into().unwrap_or(u64::MAX))
}

/// A string.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Writes `record` to `BENCH_<name>.json` at the repository root.
pub fn write(name: &str, record: &Value) {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let mut out = String::new();
    modref_obs::json::write_value(&mut out, record);
    out.push('\n');
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_the_strict_parser() {
        let record = obj([
            ("bench", text("demo")),
            ("steps", uint(24642usize)),
            ("ns_per_step", fixed(16.349, 1)),
            ("rows", Value::Arr(vec![obj([("name", text("a\"b"))])])),
        ]);
        let mut out = String::new();
        modref_obs::json::write_value(&mut out, &record);
        assert_eq!(
            out,
            r#"{"bench":"demo","ns_per_step":16.3,"rows":[{"name":"a\"b"}],"steps":24642}"#
        );
        assert_eq!(modref_obs::json::parse(&out).expect("strict JSON"), record);
    }
}
