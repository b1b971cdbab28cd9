//! Schema validation for `BENCH_*.json` perf artifacts.
//!
//! The bench harnesses (`ingest_perf`, `cache_perf`) append result
//! rows over time; EXPERIMENTS.md and external tooling read them.
//! Nothing previously pinned their shape, so a refactor could rename
//! `requests_per_sec` or change `seconds` to a string and every
//! downstream consumer would drift silently. This module is the pin:
//! a dependency-free JSON parser plus a strict whitelist of known
//! fields and their types. Unknown fields are violations by design —
//! adding a bench column means adding it here, which is the review
//! hook.
//!
//! Driven by `cbs-lint --check-bench FILE...` (exit 1 on violations,
//! 2 on unparseable JSON) and wired into `scripts/check.sh`.

/// A parsed JSON value. Numbers remember whether they were written as
/// integers, because the schema distinguishes counts from ratios.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; `is_int` when written without `.`/exponent.
    Num {
        /// The numeric value.
        value: f64,
        /// Written as an integer literal.
        is_int: bool,
    },
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num { is_int: true, .. } => "int",
            Json::Num { is_int: false, .. } => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Expected type of a schema field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Integer literal.
    Int,
    /// Float (an integer literal is accepted — JSON writers drop
    /// trailing `.0`).
    Float,
    /// String.
    Str,
    /// Boolean.
    Bool,
    /// Array (element shape not pinned).
    Arr,
    /// Object (nested shape not pinned).
    Obj,
}

impl Ty {
    fn admits(self, v: &Json) -> bool {
        match self {
            Ty::Int => matches!(v, Json::Num { is_int: true, .. }),
            Ty::Float => matches!(v, Json::Num { .. }),
            Ty::Str => matches!(v, Json::Str(_)),
            Ty::Bool => matches!(v, Json::Bool(_)),
            Ty::Arr => matches!(v, Json::Arr(_)),
            Ty::Obj => matches!(v, Json::Obj(_)),
        }
    }
}

/// Top-level `BENCH_*.json` fields. All required.
const TOP_FIELDS: &[(&str, Ty)] = &[("bench", Ty::Str), ("cores", Ty::Int), ("results", Ty::Arr)];

/// Known result-row fields across every bench. A row carries a subset
/// (keyed by `phase`, which is required); an unknown field is a
/// violation — extend this table when a harness grows a column. A
/// field lists every type it may legally carry: most admit exactly
/// one, but e.g. `lanes` is an array in `cache_perf` sweep rows and a
/// lane count (integer) in `replay_perf` lane-curve rows.
const RESULT_FIELDS: &[(&str, &[Ty])] = &[
    ("accesses", &[Ty::Int]),
    ("achieved_offered_ratio", &[Ty::Float]),
    ("achieved_rps", &[Ty::Float]),
    ("backend", &[Ty::Str]),
    ("backpressure_nanos", &[Ty::Int]),
    ("bytes", &[Ty::Int]),
    ("cbt", &[Ty::Obj]),
    ("cbt_bytes", &[Ty::Int]),
    ("cbt_mmap", &[Ty::Obj]),
    ("cbt_slice", &[Ty::Obj]),
    ("exact_sweep_speedup", &[Ty::Float]),
    ("expand_nanos", &[Ty::Int]),
    ("grid", &[Ty::Arr]),
    ("grids_bit_identical", &[Ty::Bool]),
    ("idle_nanos", &[Ty::Int]),
    ("imbalance", &[Ty::Float]),
    ("issue_lag", &[Ty::Obj]),
    ("lanes", &[Ty::Arr, Ty::Int]),
    ("merge_overhead_frac", &[Ty::Float]),
    ("metrics", &[Ty::Obj]),
    ("n_threads", &[Ty::Int]),
    ("offered_nanos", &[Ty::Int]),
    ("offered_rps", &[Ty::Float]),
    ("pair_seconds", &[Ty::Arr]),
    ("pairs", &[Ty::Int]),
    ("parallel_1_thread", &[Ty::Obj]),
    ("peak_rss_kb", &[Ty::Int]),
    ("per_lane_lag", &[Ty::Arr]),
    ("phase", &[Ty::Str]),
    ("rate_multiplier", &[Ty::Float]),
    ("rates", &[Ty::Arr]),
    ("reanalysis_identical", &[Ty::Bool]),
    ("records", &[Ty::Int]),
    ("remap", &[Ty::Str]),
    ("requests", &[Ty::Int]),
    ("requests_per_sec", &[Ty::Int]),
    ("sample_rate", &[Ty::Float]),
    ("sampled_accesses", &[Ty::Int]),
    ("sampled_fraction", &[Ty::Float]),
    ("sampled_sweep_speedup", &[Ty::Float]),
    ("seconds", &[Ty::Float]),
    ("sequential", &[Ty::Obj]),
    ("sequential_seconds", &[Ty::Float]),
    ("speedup_4_vs_1", &[Ty::Float]),
    ("shard_requests", &[Ty::Arr]),
    ("shards", &[Ty::Int]),
    ("stages", &[Ty::Obj]),
    ("verdicts_identical", &[Ty::Bool]),
    ("volumes", &[Ty::Int]),
    ("wall_nanos", &[Ty::Int]),
    ("workers_curve", &[Ty::Arr]),
];

/// Validates one `BENCH_*.json` document.
///
/// `Err` means the text is not valid JSON (an internal/usage failure:
/// exit 2); `Ok(violations)` lists schema violations (exit 1 when
/// non-empty).
pub fn validate(text: &str) -> Result<Vec<String>, String> {
    let doc = parse(text)?;
    let mut out = Vec::new();
    let Json::Obj(_) = doc else {
        out.push(format!(
            "top level must be an object, got {}",
            doc.type_name()
        ));
        return Ok(out);
    };
    for &(name, ty) in TOP_FIELDS {
        match doc.get(name) {
            None => out.push(format!("missing required top-level field `{name}`")),
            Some(v) if !ty.admits(v) => out.push(format!(
                "top-level `{name}` must be {ty:?}, got {}",
                v.type_name()
            )),
            Some(_) => {}
        }
    }
    if let Json::Obj(fields) = &doc {
        for (k, _) in fields {
            if !TOP_FIELDS.iter().any(|(n, _)| n == k) {
                out.push(format!("unknown top-level field `{k}`"));
            }
        }
    }
    let Some(Json::Arr(rows)) = doc.get("results") else {
        return Ok(out);
    };
    for (i, row) in rows.iter().enumerate() {
        let Json::Obj(fields) = row else {
            out.push(format!(
                "results[{i}] must be an object, got {}",
                row.type_name()
            ));
            continue;
        };
        if row.get("phase").is_none() {
            out.push(format!("results[{i}] is missing required field `phase`"));
        }
        for (k, v) in fields {
            match RESULT_FIELDS.iter().find(|(n, _)| n == k) {
                None => out.push(format!(
                    "results[{i}] has unknown field `{k}` — extend RESULT_FIELDS \
                     in crates/lint/src/bench_schema.rs if this column is intentional"
                )),
                Some(&(_, tys)) if !tys.iter().any(|ty| ty.admits(v)) => {
                    let expected = match tys {
                        [single] => format!("{single:?}"),
                        _ => format!("one of {tys:?}"),
                    };
                    out.push(format!(
                        "results[{i}].{k} must be {expected}, got {}",
                        v.type_name()
                    ));
                }
                Some(_) => {}
            }
        }
    }
    Ok(out)
}

/// Parses a JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let mut is_int = true;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_int = false;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = core::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    let value: f64 = text
        .parse()
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))?;
    Ok(Json::Num { value, is_int })
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    // Caller verified the opening quote.
    *pos += 1;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_owned())?;
                        let hex = core::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through bytewise.
                let ch_len = utf8_len(c);
                let chunk = b
                    .get(*pos..*pos + ch_len)
                    .ok_or("truncated UTF-8".to_owned())?;
                s.push_str(core::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_round_trip_shapes() {
        let doc = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": true, "e": null}"#)
            .expect("parses");
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num {
                    value: 1.0,
                    is_int: true
                },
                Json::Num {
                    value: 2.5,
                    is_int: false
                },
                Json::Num {
                    value: -3.0,
                    is_int: true
                },
            ]))
        );
        let b = doc.get("b").expect("b");
        assert_eq!(b.get("c"), Some(&Json::Str("x\ny".into())));
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn valid_bench_doc_passes() {
        let text = r#"{
  "bench": "ingest_perf",
  "cores": 1,
  "results": [
    {"phase": "sequential", "seconds": 1.5, "requests": 1000, "requests_per_sec": 666},
    {"phase": "stream_shards", "shards": 4, "imbalance": 0.01, "shard_requests": [1, 2],
     "metrics": {"x": 1}, "stages": {}},
    {"phase": "analyze_partitioned", "requests": 1000, "volumes": 8,
     "sequential_seconds": 1.2,
     "workers_curve": [{"workers": 1, "seconds": 1.3, "requests_per_sec": 769}],
     "speedup_4_vs_1": 1.0, "merge_overhead_frac": 0.083,
     "verdicts_identical": true, "peak_rss_kb": 1024}
  ]
}"#;
        let v = validate(text).expect("parses");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn valid_replay_doc_passes() {
        let text = r#"{
  "bench": "replay",
  "cores": 8,
  "results": [
    {"phase": "replay", "backend": "null", "remap": "identity",
     "rate_multiplier": 1000.0, "requests": 1000000, "bytes": 4096000000,
     "volumes": 64, "wall_nanos": 3700000000, "offered_nanos": 3600000000,
     "offered_rps": 277777.8, "achieved_rps": 270270.3,
     "achieved_offered_ratio": 0.973,
     "issue_lag": {"p50": 800, "p99": 4100}, "seconds": 3.7,
     "reanalysis_identical": true, "peak_rss_kb": 120000},
    {"phase": "smoke", "backend": "null", "remap": "fanout:4",
     "rate_multiplier": 1000.0, "requests": 20000,
     "achieved_offered_ratio": 0.99, "reanalysis_identical": true}
  ]
}"#;
        let v = validate(text).expect("parses");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lane_curve_rows_pass_and_multi_type_fields_admit_each_shape() {
        // `lanes` is an array in cache_perf sweep rows but a lane
        // count in replay_perf lane-curve rows; both must validate.
        let text = r#"{
  "bench": "replay",
  "cores": 1,
  "results": [
    {"phase": "lanes", "backend": "direct", "remap": "identity",
     "rate_multiplier": 1000.0, "lanes": 4, "requests": 1000000,
     "backpressure_nanos": 120, "idle_nanos": 4500, "issue_lag": {"p50": 300, "p99": 900},
     "per_lane_lag": [{"lane": 0, "requests": 250000, "p99": 800}],
     "achieved_offered_ratio": 0.99, "reanalysis_identical": true},
    {"phase": "sweep", "lanes": [1, 2, 4]}
  ]
}"#;
        let v = validate(text).expect("parses");
        assert!(v.is_empty(), "{v:?}");
        // A shape outside the admitted set names every legal type.
        let text = r#"{"bench": "x", "cores": 1,
  "results": [{"phase": "p", "lanes": "four"}]}"#;
        let v = validate(text).expect("parses");
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("must be one of [Arr, Int]"), "{v:?}");
    }

    #[test]
    fn schema_violations_are_reported() {
        // Unknown field, wrong type, missing phase, missing top-level.
        let text = r#"{
  "bench": "x",
  "results": [
    {"phase": 12, "made_up_column": 1},
    {"seconds": "fast"}
  ]
}"#;
        let v = validate(text).expect("parses");
        assert!(
            v.iter()
                .any(|m| m.contains("missing required top-level field `cores`")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|m| m.contains("unknown field `made_up_column`")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains("phase must be Str")), "{v:?}");
        assert!(
            v.iter()
                .any(|m| m.contains("missing required field `phase`")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|m| m.contains("seconds must be Float")),
            "{v:?}"
        );
    }

    #[test]
    fn int_accepted_where_float_expected() {
        let text = r#"{"bench": "x", "cores": 1, "results": [{"phase": "p", "seconds": 2}]}"#;
        assert!(validate(text).expect("parses").is_empty());
        // But not the reverse: a float where an int is pinned.
        let text = r#"{"bench": "x", "cores": 1, "results": [{"phase": "p", "requests": 2.5}]}"#;
        let v = validate(text).expect("parses");
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("must be Int"));
    }

    #[test]
    fn unparseable_is_err_not_violations() {
        assert!(validate("{nope}").is_err());
    }
}
