//! The scenario wire codec: versioned, dependency-free JSON.
//!
//! Distributed sweeps ship [`Scenario`]s between processes (and machines)
//! through spool files, so scenarios need a stable wire form. The repo has
//! no registry access (hence no serde); this module hand-rolls a small
//! JSON value model ([`Json`]) plus encoders/decoders for every type a
//! scenario closes over — the same approach the bench harness already uses
//! for its `BENCH_*.json` reports, promoted to a first-class, versioned,
//! round-trip-tested codec.
//!
//! ## Guarantees
//!
//! * **Deterministic encoding.** Field order is fixed, floats are written
//!   in Rust's shortest round-trip representation, and no whitespace is
//!   emitted — `encode(decode(encode(x)))` is byte-identical to
//!   `encode(x)`. Byte equality of encodings is therefore a valid
//!   cross-machine equality witness.
//! * **Exactness.** Finite `f64`s round-trip bit-exactly (shortest-repr
//!   printing is parsed back to the identical bits); non-finite values are
//!   encoded as the strings `"NaN"` / `"Infinity"` / `"-Infinity"`; `u64`
//!   seeds and hashes are encoded as decimal strings because JSON numbers
//!   only cover the 53-bit integer range.
//! * **Forward compatibility.** Decoders ignore unknown fields, so a
//!   payload written by a newer codec version (which may add fields and
//!   bump the top-level `"v"`) still decodes. A *missing* required field
//!   is a structured [`CodecError`], never a panic.
//!
//! The top-level payloads ([`encode_scenario`]) carry a `"v"` version
//! field; nested objects are versioned by their enclosing payload.

use std::fmt::Write as _;
use std::sync::Arc;

use simcal_platform::{MultiSiteSpec, NodeSpec, PlatformSpec, WanLink};
use simcal_workload::{ArrivalProcess, Distribution, JobSpec, Workload, WorkloadSpec};

use crate::config::{FlowLevelCfg, NoiseConfig, SimConfig, WanModel};
use crate::scenario::{CacheSpec, Scenario, WorkloadSource};
use crate::scheduler::SchedulerPolicy;

/// The codec version written into top-level payloads.
///
/// Version policy: a decoder accepts exactly this version and anything
/// newer. An older `"v"` is a [`CodecError::UnsupportedVersion`] naming
/// both versions; there is no decode-compat layer, so a payload from an
/// older binary is re-encoded (or the sweep re-spooled), never silently
/// read with defaulted fields. A newer payload decodes best-effort:
/// unknown fields are ignored, so a later version may add optional fields
/// without breaking this one. A field may likewise be retired in place
/// without a bump (encoders stop emitting it, decoders already ignore
/// it). Adding, changing or removing a required field is a bump.
pub const CODEC_VERSION: u64 = 7;

/// A decoding (or parsing) failure. Every variant carries enough context
/// to say *which* type and field went wrong — decoders never panic on
/// malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The text is not syntactically valid JSON.
    Parse {
        /// Byte offset the parser stopped at.
        offset: usize,
        /// What the parser expected or found.
        msg: String,
    },
    /// A required field is absent.
    MissingField {
        /// Type being decoded (e.g. `"Scenario"`).
        ty: &'static str,
        /// The missing field name.
        field: &'static str,
    },
    /// A field holds a JSON value of the wrong shape.
    WrongType {
        /// Type being decoded.
        ty: &'static str,
        /// The offending field name.
        field: &'static str,
        /// What the decoder expected (e.g. `"number"`).
        expected: &'static str,
    },
    /// A field decoded but holds a semantically invalid value.
    Invalid {
        /// Type being decoded.
        ty: &'static str,
        /// Description of the violation.
        msg: String,
    },
    /// The payload's `"v"` field is older than [`CODEC_VERSION`] (newer
    /// versions decode best-effort).
    UnsupportedVersion {
        /// Type being decoded.
        ty: &'static str,
        /// The version found.
        version: u64,
        /// The oldest version this decoder accepts ([`CODEC_VERSION`]).
        supported: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Parse { offset, msg } => {
                write!(f, "JSON parse error at byte {offset}: {msg}")
            }
            CodecError::MissingField { ty, field } => {
                write!(f, "{ty}: missing required field {field:?}")
            }
            CodecError::WrongType { ty, field, expected } => {
                write!(f, "{ty}: field {field:?} is not a {expected}")
            }
            CodecError::Invalid { ty, msg } => write!(f, "{ty}: {msg}"),
            CodecError::UnsupportedVersion { ty, version, supported } => {
                write!(f, "{ty}: codec version {version} is older than the supported {supported}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A parsed JSON value. Objects preserve insertion order (a `Vec`, not a
/// map) — the deterministic-encoding guarantee depends on it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON text.
    pub fn parse(text: &str) -> Result<Json, CodecError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after JSON value"));
        }
        Ok(v)
    }

    /// Serialize compactly (no whitespace), deterministically.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                debug_assert!(v.is_finite(), "non-finite numbers are encoded as strings");
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Look a field up in an object (`None` for non-objects too).
    pub fn field(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable access to an object's field list (test surgery helper).
    pub fn fields_mut(&mut self) -> Option<&mut Vec<(String, Json)>> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting the parser accepts. Deeper input gets a
/// structured parse error instead of a stack overflow (the codec's
/// decoders must never abort on malformed input); real payloads nest a
/// handful of levels.
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> CodecError {
        CodecError::Parse { offset: self.pos, msg: msg.to_string() }
    }

    fn descend(&mut self) -> Result<(), CodecError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), CodecError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_lit(&mut self, lit: &str, val: Json) -> Result<Json, CodecError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, CodecError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, CodecError> {
        self.descend()?;
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, CodecError> {
        self.descend()?;
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, CodecError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                            // hex4 leaves pos just past the last digit;
                            // skip the increment below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole unescaped run up to the next quote or
                    // backslash. Both are ASCII, so the run ends on a char
                    // boundary and validating it costs its own length.
                    let rest = &self.bytes[self.pos..];
                    let len =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, CodecError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, CodecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        s.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

// ---- typed field access ---------------------------------------------------

/// Typed, error-reporting reader over one JSON object.
pub struct ObjReader<'a> {
    ty: &'static str,
    json: &'a Json,
}

impl<'a> ObjReader<'a> {
    /// Wrap `json`, which must be an object, for decoding type `ty`.
    pub fn new(ty: &'static str, json: &'a Json) -> Result<Self, CodecError> {
        match json {
            Json::Obj(_) => Ok(Self { ty, json }),
            _ => Err(CodecError::WrongType { ty, field: "<self>", expected: "object" }),
        }
    }

    /// The field, if present (unknown fields are simply never asked for).
    pub fn get(&self, field: &str) -> Option<&'a Json> {
        self.json.field(field)
    }

    /// The field, or a [`CodecError::MissingField`].
    pub fn req(&self, field: &'static str) -> Result<&'a Json, CodecError> {
        self.get(field).ok_or(CodecError::MissingField { ty: self.ty, field })
    }

    fn wrong(&self, field: &'static str, expected: &'static str) -> CodecError {
        CodecError::WrongType { ty: self.ty, field, expected }
    }

    /// A (possibly non-finite) `f64`: a JSON number, or the strings
    /// `"NaN"` / `"Infinity"` / `"-Infinity"`.
    pub fn f64(&self, field: &'static str) -> Result<f64, CodecError> {
        json_to_f64(self.req(field)?).ok_or_else(|| self.wrong(field, "number"))
    }

    /// A `u64`, encoded as a decimal string (or a small integer number).
    pub fn u64(&self, field: &'static str) -> Result<u64, CodecError> {
        json_to_u64(self.req(field)?).ok_or_else(|| self.wrong(field, "u64"))
    }

    /// A `usize` (plain JSON number with no fractional part).
    pub fn usize(&self, field: &'static str) -> Result<usize, CodecError> {
        let v = self.u64(field)?;
        usize::try_from(v).map_err(|_| self.wrong(field, "usize"))
    }

    /// A boolean.
    pub fn bool(&self, field: &'static str) -> Result<bool, CodecError> {
        match self.req(field)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(self.wrong(field, "bool")),
        }
    }

    /// A string.
    pub fn str(&self, field: &'static str) -> Result<&'a str, CodecError> {
        match self.req(field)? {
            Json::Str(s) => Ok(s),
            _ => Err(self.wrong(field, "string")),
        }
    }

    /// An array.
    pub fn arr(&self, field: &'static str) -> Result<&'a [Json], CodecError> {
        match self.req(field)? {
            Json::Arr(items) => Ok(items),
            _ => Err(self.wrong(field, "array")),
        }
    }

    /// An array of `f64`s.
    pub fn f64_arr(&self, field: &'static str) -> Result<Vec<f64>, CodecError> {
        self.arr(field)?
            .iter()
            .map(|v| json_to_f64(v).ok_or_else(|| self.wrong(field, "array of numbers")))
            .collect()
    }
}

fn json_to_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        Json::Str(s) => match s.as_str() {
            "NaN" => Some(f64::NAN),
            "Infinity" => Some(f64::INFINITY),
            "-Infinity" => Some(f64::NEG_INFINITY),
            _ => None,
        },
        _ => None,
    }
}

fn json_to_u64(v: &Json) -> Option<u64> {
    match v {
        Json::Str(s) => s.parse::<u64>().ok(),
        // Tolerate plain numbers within the exactly-representable range.
        Json::Num(n) if n.fract() == 0.0 && (0.0..=9e15).contains(n) => Some(*n as u64),
        _ => None,
    }
}

/// Encode an `f64` (non-finite values become marker strings).
pub fn json_f64(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else if v.is_nan() {
        Json::Str("NaN".to_string())
    } else if v > 0.0 {
        Json::Str("Infinity".to_string())
    } else {
        Json::Str("-Infinity".to_string())
    }
}

/// Encode a `u64` as a decimal string (JSON numbers lose >53-bit values).
pub fn json_u64(v: u64) -> Json {
    Json::Str(v.to_string())
}

/// Build a JSON object from `(field, value)` pairs in order (the
/// building block every encoder in this codec — and the spool record
/// writers in `simcal-study` — composes payloads from).
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

// ---- scenario encoding ----------------------------------------------------

/// Encode a scenario as a versioned JSON payload.
pub fn encode_scenario(sc: &Scenario) -> String {
    scenario_to_json(sc).write()
}

/// Decode a scenario payload produced by [`encode_scenario`] (or a newer
/// codec version — unknown fields are ignored).
pub fn decode_scenario(text: &str) -> Result<Scenario, CodecError> {
    scenario_from_json(&Json::parse(text)?)
}

/// The scenario as a JSON value (with the version field), for embedding in
/// larger payloads (spool task files, manifests).
pub fn scenario_to_json(sc: &Scenario) -> Json {
    let mut fields = vec![
        ("v", Json::Num(CODEC_VERSION as f64)),
        ("name", Json::Str(sc.name.clone())),
        ("platform", platform_to_json(&sc.platform)),
        ("workload", workload_source_to_json(&sc.workload)),
        ("cache", cache_spec_to_json(&sc.cache)),
        ("config", sim_config_to_json(&sc.config)),
    ];
    if let Some(ms) = &sc.multisite {
        fields.push(("multisite", multisite_to_json(ms)));
    }
    if let Some(h) = &sc.horizon {
        fields.push((
            "horizon",
            obj(vec![("duration", json_f64(h.duration)), ("slo_wait", json_f64(h.slo_wait))]),
        ));
    }
    obj(fields)
}

/// Decode a scenario from its JSON value form (nested objects are
/// versioned by the enclosing payload's `"v"`).
pub fn scenario_from_json(json: &Json) -> Result<Scenario, CodecError> {
    let r = ObjReader::new("Scenario", json)?;
    check_version("Scenario", &r)?;
    // Absent (any single-site scenario) means the classic single-site
    // path — never a required field.
    let multisite = match r.get("multisite") {
        None | Some(Json::Null) => None,
        Some(ms) => Some(multisite_from_json(ms)?),
    };
    // Absent (any run-to-completion scenario) means the classic mode —
    // never a required field.
    let horizon = match r.get("horizon") {
        None | Some(Json::Null) => None,
        Some(h) => {
            let hr = ObjReader::new("HorizonSpec", h)?;
            let spec = crate::stream::HorizonSpec {
                duration: hr.f64("duration")?,
                slo_wait: hr.f64("slo_wait")?,
            };
            let ok = |v: f64| v.is_finite() && v > 0.0;
            if !ok(spec.duration) || !ok(spec.slo_wait) {
                return Err(CodecError::Invalid {
                    ty: "HorizonSpec",
                    msg: format!(
                        "horizon parameters must be positive: duration={} slo_wait={}",
                        spec.duration, spec.slo_wait
                    ),
                });
            }
            Some(spec)
        }
    };
    Ok(Scenario {
        name: r.str("name")?.to_string(),
        platform: platform_from_json(r.req("platform")?)?,
        workload: workload_source_from_json(r.req("workload")?)?,
        cache: cache_spec_from_json(r.req("cache")?)?,
        config: sim_config_from_json(r.req("config")?)?,
        multisite,
        horizon,
    })
}

/// Check a payload's `"v"` field against the [`CODEC_VERSION`] policy:
/// older versions are rejected, newer ones decode best-effort (their
/// extra fields are ignored).
pub fn check_version(ty: &'static str, r: &ObjReader<'_>) -> Result<(), CodecError> {
    let version = r.u64("v")?;
    if version < CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion { ty, version, supported: CODEC_VERSION });
    }
    Ok(())
}

fn platform_to_json(p: &PlatformSpec) -> Json {
    obj(vec![
        ("name", Json::Str(p.name.clone())),
        ("page_cache_enabled", Json::Bool(p.page_cache_enabled)),
        ("nominal_wan_bw", json_f64(p.nominal_wan_bw)),
        (
            "nodes",
            Json::Arr(
                p.nodes
                    .iter()
                    .map(|n| {
                        obj(vec![
                            ("name", Json::Str(n.name.clone())),
                            ("cores", Json::Num(n.cores as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn platform_from_json(json: &Json) -> Result<PlatformSpec, CodecError> {
    let r = ObjReader::new("PlatformSpec", json)?;
    let mut nodes = Vec::new();
    for n in r.arr("nodes")? {
        let nr = ObjReader::new("NodeSpec", n)?;
        let cores = nr.usize("cores")?;
        let cores = u32::try_from(cores).ok().filter(|&c| c > 0).ok_or(CodecError::Invalid {
            ty: "NodeSpec",
            msg: format!("bad core count {cores}"),
        })?;
        nodes.push(NodeSpec::new(nr.str("name")?.to_string(), cores));
    }
    Ok(PlatformSpec {
        name: r.str("name")?.to_string(),
        nodes,
        page_cache_enabled: r.bool("page_cache_enabled")?,
        nominal_wan_bw: r.f64("nominal_wan_bw")?,
    })
}

fn multisite_to_json(ms: &MultiSiteSpec) -> Json {
    obj(vec![
        ("name", Json::Str(ms.name.clone())),
        ("sites", Json::Arr(ms.sites.iter().map(platform_to_json).collect())),
        (
            "links",
            Json::Arr(
                ms.links
                    .iter()
                    .map(|l| {
                        obj(vec![
                            ("a", Json::Num(l.a as f64)),
                            ("b", Json::Num(l.b as f64)),
                            ("bandwidth", json_f64(l.bandwidth)),
                            ("latency", json_f64(l.latency)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("storage_site", Json::Num(ms.storage_site as f64)),
    ])
}

fn multisite_from_json(json: &Json) -> Result<MultiSiteSpec, CodecError> {
    let r = ObjReader::new("MultiSiteSpec", json)?;
    let mut sites = Vec::new();
    for s in r.arr("sites")? {
        sites.push(platform_from_json(s)?);
    }
    let mut links = Vec::new();
    for l in r.arr("links")? {
        let lr = ObjReader::new("WanLink", l)?;
        let link =
            WanLink::new(lr.usize("a")?, lr.usize("b")?, lr.f64("bandwidth")?, lr.f64("latency")?);
        // The structural rules MultiSiteSpec::validate asserts, reported
        // as structured errors at the codec boundary (like arrival
        // parameters): a malformed payload must not panic a sweep worker.
        if link.a >= sites.len() || link.b >= sites.len() || link.a == link.b {
            return Err(CodecError::Invalid {
                ty: "WanLink",
                msg: format!("bad link endpoints {}-{}", link.a, link.b),
            });
        }
        if !(link.latency.is_finite()
            && link.latency > 0.0
            && link.bandwidth.is_finite()
            && link.bandwidth > 0.0)
        {
            return Err(CodecError::Invalid {
                ty: "WanLink",
                msg: format!("bad latency {} or bandwidth {}", link.latency, link.bandwidth),
            });
        }
        links.push(link);
    }
    let storage_site = r.usize("storage_site")?;
    if sites.len() < 2 || storage_site >= sites.len() || links.is_empty() {
        return Err(CodecError::Invalid {
            ty: "MultiSiteSpec",
            msg: format!(
                "need >= 2 sites, links, and an in-range hub (got {} sites, {} links, hub {})",
                sites.len(),
                links.len(),
                storage_site
            ),
        });
    }
    let ms = MultiSiteSpec { name: r.str("name")?.to_string(), sites, links, storage_site };
    if ms.path_latencies().iter().any(|row| !row[ms.storage_site].is_finite()) {
        return Err(CodecError::Invalid {
            ty: "MultiSiteSpec",
            msg: "a site is not connected to the storage hub".to_string(),
        });
    }
    Ok(ms)
}

fn workload_source_to_json(src: &WorkloadSource) -> Json {
    match src {
        WorkloadSource::Spec { spec, seed } => obj(vec![
            ("kind", Json::Str("spec".to_string())),
            ("seed", json_u64(*seed)),
            ("spec", workload_spec_to_json(spec)),
        ]),
        WorkloadSource::Concrete(w) => obj(vec![
            ("kind", Json::Str("concrete".to_string())),
            (
                "jobs",
                Json::Arr(
                    w.jobs
                        .iter()
                        .map(|j| {
                            obj(vec![
                                (
                                    "files",
                                    Json::Arr(
                                        j.input_files.iter().map(|f| json_f64(f.size)).collect(),
                                    ),
                                ),
                                ("flops_per_byte", json_f64(j.flops_per_byte)),
                                ("output_bytes", json_f64(j.output_bytes)),
                                ("release", json_f64(j.release)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn workload_source_from_json(json: &Json) -> Result<WorkloadSource, CodecError> {
    let r = ObjReader::new("WorkloadSource", json)?;
    match r.str("kind")? {
        "spec" => Ok(WorkloadSource::Spec {
            spec: workload_spec_from_json(r.req("spec")?)?,
            seed: r.u64("seed")?,
        }),
        "concrete" => {
            let mut jobs = Vec::new();
            for j in r.arr("jobs")? {
                let jr = ObjReader::new("JobSpec", j)?;
                let sizes = jr.f64_arr("files")?;
                if sizes.is_empty() {
                    return Err(CodecError::Invalid {
                        ty: "JobSpec",
                        msg: "job has no input files".to_string(),
                    });
                }
                let mut input_files = Vec::with_capacity(sizes.len());
                for size in sizes {
                    if !(size.is_finite() && size > 0.0) {
                        return Err(CodecError::Invalid {
                            ty: "JobSpec",
                            msg: format!("bad file size {size}"),
                        });
                    }
                    input_files.push(simcal_workload::FileSpec::new(size));
                }
                let flops_per_byte = jr.f64("flops_per_byte")?;
                let output_bytes = jr.f64("output_bytes")?;
                let release = jr.f64("release")?;
                if !(flops_per_byte.is_finite()
                    && flops_per_byte >= 0.0
                    && output_bytes.is_finite()
                    && output_bytes >= 0.0
                    && release.is_finite()
                    && release >= 0.0)
                {
                    return Err(CodecError::Invalid {
                        ty: "JobSpec",
                        msg: "negative or non-finite volume".to_string(),
                    });
                }
                jobs.push(JobSpec { input_files, flops_per_byte, output_bytes, release });
            }
            if jobs.is_empty() {
                return Err(CodecError::Invalid {
                    ty: "WorkloadSource",
                    msg: "concrete workload has no jobs".to_string(),
                });
            }
            if jobs.windows(2).any(|w| w[0].release > w[1].release) {
                return Err(CodecError::Invalid {
                    ty: "WorkloadSource",
                    msg: "job release times out of order (index order is submission order)"
                        .to_string(),
                });
            }
            Ok(WorkloadSource::Concrete(Arc::new(Workload::new(jobs))))
        }
        other => Err(CodecError::Invalid {
            ty: "WorkloadSource",
            msg: format!("unknown kind {other:?}"),
        }),
    }
}

fn workload_spec_to_json(spec: &WorkloadSpec) -> Json {
    obj(vec![
        ("n_jobs", Json::Num(spec.n_jobs as f64)),
        ("files_per_job", Json::Num(spec.files_per_job as f64)),
        ("file_size", distribution_to_json(&spec.file_size)),
        ("flops_per_byte", distribution_to_json(&spec.flops_per_byte)),
        ("output_bytes", distribution_to_json(&spec.output_bytes)),
        ("arrival", arrival_to_json(&spec.arrival)),
    ])
}

fn workload_spec_from_json(json: &Json) -> Result<WorkloadSpec, CodecError> {
    let r = ObjReader::new("WorkloadSpec", json)?;
    let arrival = arrival_from_json(r.req("arrival")?)?;
    Ok(WorkloadSpec {
        n_jobs: r.usize("n_jobs")?,
        files_per_job: r.usize("files_per_job")?,
        file_size: distribution_from_json(r.req("file_size")?)?,
        flops_per_byte: distribution_from_json(r.req("flops_per_byte")?)?,
        output_bytes: distribution_from_json(r.req("output_bytes")?)?,
        arrival,
    })
}

fn arrival_to_json(a: &ArrivalProcess) -> Json {
    match *a {
        ArrivalProcess::Immediate => obj(vec![("kind", Json::Str("immediate".into()))]),
        ArrivalProcess::Poisson { rate } => {
            obj(vec![("kind", Json::Str("poisson".into())), ("rate", json_f64(rate))])
        }
        ArrivalProcess::Diurnal { base_rate, amplitude, period } => obj(vec![
            ("kind", Json::Str("diurnal".into())),
            ("base_rate", json_f64(base_rate)),
            ("amplitude", json_f64(amplitude)),
            ("period", json_f64(period)),
        ]),
        ArrivalProcess::Bursty { batch_size, batch_interval } => obj(vec![
            ("kind", Json::Str("bursty".into())),
            ("batch_size", Json::Num(batch_size as f64)),
            ("batch_interval", json_f64(batch_interval)),
        ]),
    }
}

fn arrival_from_json(json: &Json) -> Result<ArrivalProcess, CodecError> {
    let r = ObjReader::new("ArrivalProcess", json)?;
    let arrival = match r.str("kind")? {
        "immediate" => ArrivalProcess::Immediate,
        "poisson" => ArrivalProcess::Poisson { rate: r.f64("rate")? },
        "diurnal" => ArrivalProcess::Diurnal {
            base_rate: r.f64("base_rate")?,
            amplitude: r.f64("amplitude")?,
            period: r.f64("period")?,
        },
        "bursty" => ArrivalProcess::Bursty {
            batch_size: r.usize("batch_size")?,
            batch_interval: r.f64("batch_interval")?,
        },
        other => {
            return Err(CodecError::Invalid {
                ty: "ArrivalProcess",
                msg: format!("unknown kind {other:?}"),
            })
        }
    };
    // Range/finiteness checks at the codec boundary (like release and
    // release_time_scale): a malformed payload must be a structured error
    // here, not an assert panic when a sweep worker materializes the
    // workload mid-drain.
    let valid = match arrival {
        ArrivalProcess::Immediate => true,
        ArrivalProcess::Poisson { rate } => rate.is_finite() && rate > 0.0,
        ArrivalProcess::Diurnal { base_rate, amplitude, period } => {
            base_rate.is_finite()
                && base_rate > 0.0
                && (0.0..=1.0).contains(&amplitude)
                && period.is_finite()
                && period > 0.0
        }
        ArrivalProcess::Bursty { batch_size, batch_interval } => {
            batch_size > 0 && batch_interval.is_finite() && batch_interval > 0.0
        }
    };
    if !valid {
        return Err(CodecError::Invalid {
            ty: "ArrivalProcess",
            msg: format!("invalid parameters {arrival:?}"),
        });
    }
    Ok(arrival)
}

fn distribution_to_json(d: &Distribution) -> Json {
    match *d {
        Distribution::Constant(value) => {
            obj(vec![("dist", Json::Str("constant".into())), ("value", json_f64(value))])
        }
        Distribution::Uniform { lo, hi } => obj(vec![
            ("dist", Json::Str("uniform".into())),
            ("lo", json_f64(lo)),
            ("hi", json_f64(hi)),
        ]),
        Distribution::Normal { mean, std_dev, floor } => obj(vec![
            ("dist", Json::Str("normal".into())),
            ("mean", json_f64(mean)),
            ("std_dev", json_f64(std_dev)),
            ("floor", json_f64(floor)),
        ]),
        Distribution::LogNormal { mu, sigma } => obj(vec![
            ("dist", Json::Str("log_normal".into())),
            ("mu", json_f64(mu)),
            ("sigma", json_f64(sigma)),
        ]),
        Distribution::Exponential { rate } => {
            obj(vec![("dist", Json::Str("exponential".into())), ("rate", json_f64(rate))])
        }
    }
}

fn distribution_from_json(json: &Json) -> Result<Distribution, CodecError> {
    let r = ObjReader::new("Distribution", json)?;
    match r.str("dist")? {
        "constant" => Ok(Distribution::Constant(r.f64("value")?)),
        "uniform" => Ok(Distribution::Uniform { lo: r.f64("lo")?, hi: r.f64("hi")? }),
        "normal" => Ok(Distribution::Normal {
            mean: r.f64("mean")?,
            std_dev: r.f64("std_dev")?,
            floor: r.f64("floor")?,
        }),
        "log_normal" => Ok(Distribution::LogNormal { mu: r.f64("mu")?, sigma: r.f64("sigma")? }),
        "exponential" => Ok(Distribution::Exponential { rate: r.f64("rate")? }),
        other => {
            Err(CodecError::Invalid { ty: "Distribution", msg: format!("unknown dist {other:?}") })
        }
    }
}

fn cache_spec_to_json(c: &CacheSpec) -> Json {
    obj(vec![("icd", json_f64(c.icd)), ("seed", c.seed.map_or(Json::Null, json_u64))])
}

fn cache_spec_from_json(json: &Json) -> Result<CacheSpec, CodecError> {
    let r = ObjReader::new("CacheSpec", json)?;
    let seed = match r.req("seed")? {
        Json::Null => None,
        v => Some(json_to_u64(v).ok_or(CodecError::WrongType {
            ty: "CacheSpec",
            field: "seed",
            expected: "u64 or null",
        })?),
    };
    Ok(CacheSpec { icd: r.f64("icd")?, seed })
}

/// Encode a [`SimConfig`] as a JSON value (public so result payloads and
/// manifests can embed configurations).
pub fn sim_config_to_json(c: &SimConfig) -> Json {
    obj(vec![
        (
            "hardware",
            obj(vec![
                ("core_speed", json_f64(c.hardware.core_speed)),
                ("disk_bw", json_f64(c.hardware.disk_bw)),
                ("page_cache_bw", json_f64(c.hardware.page_cache_bw)),
                ("lan_bw", json_f64(c.hardware.lan_bw)),
                ("wan_bw", json_f64(c.hardware.wan_bw)),
                ("remote_storage_bw", json_f64(c.hardware.remote_storage_bw)),
                ("disk_contention_alpha", json_f64(c.hardware.disk_contention_alpha)),
                ("wan_latency", json_f64(c.hardware.wan_latency)),
                ("disk_latency", json_f64(c.hardware.disk_latency)),
            ]),
        ),
        (
            "granularity",
            obj(vec![
                ("block_size", json_f64(c.granularity.block_size)),
                ("buffer_size", json_f64(c.granularity.buffer_size)),
            ]),
        ),
        ("per_connection_cap", c.per_connection_cap.map_or(Json::Null, json_f64)),
        ("cache_write_through", Json::Bool(c.cache_write_through)),
        ("release_time_scale", json_f64(c.release_time_scale)),
        (
            "noise",
            obj(vec![
                (
                    "compute_factors",
                    Json::Arr(c.noise.compute_factors.iter().map(|&f| json_f64(f)).collect()),
                ),
                ("read_jitter_sigma", json_f64(c.noise.read_jitter_sigma)),
                ("seed", json_u64(c.noise.seed)),
            ]),
        ),
        ("scheduler", Json::Str(c.scheduler.label().to_string())),
        ("wan_model", wan_model_to_json(&c.wan_model)),
    ])
}

fn wan_model_to_json(m: &WanModel) -> Json {
    match m {
        WanModel::MaxMin => Json::Str("maxmin".to_string()),
        WanModel::FlowLevel(cfg) => obj(vec![
            ("model", Json::Str("flow-level".to_string())),
            ("prop_delay", json_f64(cfg.prop_delay)),
            ("per_node_delay_step", json_f64(cfg.per_node_delay_step)),
            ("window", cfg.window.map_or(Json::Null, json_f64)),
            ("gain", json_f64(cfg.gain)),
            ("additive_increase", json_f64(cfg.additive_increase)),
            ("mark_threshold", json_f64(cfg.mark_threshold)),
        ]),
    }
}

fn wan_model_from_json(json: &Json) -> Result<WanModel, CodecError> {
    if let Json::Str(s) = json {
        return match s.as_str() {
            "maxmin" => Ok(WanModel::MaxMin),
            other => Err(CodecError::Invalid {
                ty: "WanModel",
                msg: format!("unknown WAN model {other:?}"),
            }),
        };
    }
    let r = ObjReader::new("WanModel", json)?;
    let model = r.str("model")?;
    if model != "flow-level" {
        return Err(CodecError::Invalid {
            ty: "WanModel",
            msg: format!("unknown WAN model object {model:?}"),
        });
    }
    let window = match r.req("window")? {
        Json::Null => None,
        v => Some(json_to_f64(v).ok_or(CodecError::WrongType {
            ty: "WanModel",
            field: "window",
            expected: "number or null",
        })?),
    };
    let cfg = FlowLevelCfg {
        prop_delay: r.f64("prop_delay")?,
        per_node_delay_step: r.f64("per_node_delay_step")?,
        window,
        gain: r.f64("gain")?,
        additive_increase: r.f64("additive_increase")?,
        mark_threshold: r.f64("mark_threshold")?,
    };
    let nonneg = |x: f64| x.is_finite() && x >= 0.0;
    let valid = nonneg(cfg.prop_delay)
        && nonneg(cfg.per_node_delay_step)
        && cfg.gain > 0.0
        && cfg.gain < 2.0
        && nonneg(cfg.additive_increase)
        && nonneg(cfg.mark_threshold)
        && window.is_none_or(|w| w.is_finite() && w > 0.0);
    if !valid {
        return Err(CodecError::Invalid {
            ty: "WanModel",
            msg: "flow-level parameters out of range".to_string(),
        });
    }
    Ok(WanModel::FlowLevel(cfg))
}

/// Decode a [`SimConfig`] from its JSON value form (nested objects carry
/// no `"v"` of their own; the enclosing payload's is checked).
pub fn sim_config_from_json(json: &Json) -> Result<SimConfig, CodecError> {
    let r = ObjReader::new("SimConfig", json)?;
    let h = ObjReader::new("HardwareParams", r.req("hardware")?)?;
    let hardware = simcal_platform::HardwareParams {
        core_speed: h.f64("core_speed")?,
        disk_bw: h.f64("disk_bw")?,
        page_cache_bw: h.f64("page_cache_bw")?,
        lan_bw: h.f64("lan_bw")?,
        wan_bw: h.f64("wan_bw")?,
        remote_storage_bw: h.f64("remote_storage_bw")?,
        disk_contention_alpha: h.f64("disk_contention_alpha")?,
        wan_latency: h.f64("wan_latency")?,
        disk_latency: h.f64("disk_latency")?,
    };
    let g = ObjReader::new("XRootDConfig", r.req("granularity")?)?;
    let block_size = g.f64("block_size")?;
    let buffer_size = g.f64("buffer_size")?;
    if !(block_size.is_finite() && block_size > 0.0 && buffer_size.is_finite() && buffer_size > 0.0)
        || buffer_size > block_size
    {
        return Err(CodecError::Invalid {
            ty: "XRootDConfig",
            msg: format!("invalid granularity B={block_size} b={buffer_size}"),
        });
    }
    let per_connection_cap = match r.req("per_connection_cap")? {
        Json::Null => None,
        v => Some(json_to_f64(v).ok_or(CodecError::WrongType {
            ty: "SimConfig",
            field: "per_connection_cap",
            expected: "number or null",
        })?),
    };
    let n = ObjReader::new("NoiseConfig", r.req("noise")?)?;
    let noise = NoiseConfig {
        compute_factors: n.f64_arr("compute_factors")?,
        read_jitter_sigma: n.f64("read_jitter_sigma")?,
        seed: n.u64("seed")?,
    };
    let label = r.str("scheduler")?;
    let scheduler = SchedulerPolicy::parse(label).ok_or(CodecError::Invalid {
        ty: "SimConfig",
        msg: format!("unknown scheduler policy {label:?}"),
    })?;
    let release_time_scale = r.f64("release_time_scale")?;
    if !(release_time_scale.is_finite() && release_time_scale >= 0.0) {
        return Err(CodecError::Invalid {
            ty: "SimConfig",
            msg: format!("bad release time scale {release_time_scale}"),
        });
    }
    let wan_model = wan_model_from_json(r.req("wan_model")?)?;
    Ok(SimConfig {
        hardware,
        granularity: simcal_storage::XRootDConfig::new(block_size, buffer_size),
        per_connection_cap,
        cache_write_through: r.bool("cache_write_through")?,
        noise,
        scheduler,
        release_time_scale,
        wan_model,
    })
}

// ---- sweep protocol envelope ----------------------------------------------

/// One message of the TCP sweep protocol.
///
/// The coordinator listens, workers dial in, and every exchange is one of
/// these envelopes. The conversation per connection is **windowed**: the
/// worker opens with `Hello` (advertising its thread count), then
/// pipelines `ClaimN { max, holding }` → (`TaskBatch` | `Drain`) while
/// streaming `Result`s back as tasks finish, with `Heartbeat`s
/// interleaved from a side thread. The `holding` list names every task
/// the worker has claimed but not yet resulted — TCP ordering makes it a
/// loss detector (see `study::net`). `Drain` from the coordinator means "queue is empty, finish up";
/// the worker answers `Bye` and disconnects. A worker may also *send*
/// `Drain` to announce a graceful leave after its in-flight tasks.
///
/// When the coordinator requires a shared secret it opens with
/// `AuthChallenge { nonce }`; the worker answers `AuthProof { mac }`
/// (HMAC-SHA256 of the nonce under the token). A failed or missing proof
/// earns a structured `Reject { reason }` before the close.
///
/// `TaskBatch` and `Result` embed their payloads as raw [`Json`]
/// values (the scenario / sweep-result forms already defined by this
/// codec) so the envelope adds no second serialization layer.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Worker introduction: a display name and thread count for the
    /// coordinator's summary.
    Hello {
        /// Worker's self-chosen name (e.g. `"pid-1234/t0"`).
        worker: String,
        /// Worker threads behind this connection's process.
        threads: u64,
    },
    /// Worker asks for up to `max` more tasks and reports which claimed
    /// task indices it is still holding results for.
    ClaimN {
        /// Upper bound on how many tasks the reply batch may carry.
        max: u64,
        /// Indices claimed on this connection whose `Result` has not yet
        /// been sent (ordered send ⇒ the coordinator can requeue any
        /// outstanding index missing from this list).
        holding: Vec<u64>,
    },
    /// Coordinator hands out a window of tasks (possibly empty: "nothing
    /// right now, back off and re-claim").
    TaskBatch {
        /// `(index, scenario)` pairs, one per granted task: the spool task
        /// index and the scenario in its [`scenario_to_json`] form.
        tasks: Vec<(u64, Json)>,
    },
    /// Coordinator demands proof of the shared secret before serving.
    AuthChallenge {
        /// Connection-unique nonce the proof must cover.
        nonce: u64,
    },
    /// Worker's answer: hex HMAC-SHA256 of the nonce under the token.
    AuthProof {
        /// Lowercase hex MAC (64 chars).
        mac: String,
    },
    /// Structured refusal (bad auth, protocol violation); the sender
    /// closes the connection right after.
    Reject {
        /// Human-readable reason, surfaced in the peer's error.
        reason: String,
    },
    /// Worker returns the finished result for task `index`.
    Result {
        /// Spool task index the result answers.
        index: u64,
        /// FNV-1a checksum of the encoded result payload (the same
        /// checksum the spool result files carry).
        sum: u64,
        /// The sweep result, in its `sweep_result_to_json` form.
        payload: Json,
    },
    /// Worker liveness signal, sent while computing (and when idle).
    Heartbeat {
        /// The task index the worker believes it is computing, if any.
        inflight: Option<u64>,
    },
    /// "No more work" (coordinator → worker) or "leaving after my current
    /// claim" (worker → coordinator).
    Drain,
    /// Clean goodbye; the connection closes right after.
    Bye,
}

impl WireMsg {
    /// The `"type"` discriminant this message encodes as.
    pub fn kind(&self) -> &'static str {
        match self {
            WireMsg::Hello { .. } => "hello",
            WireMsg::ClaimN { .. } => "claim-n",
            WireMsg::TaskBatch { .. } => "task-batch",
            WireMsg::AuthChallenge { .. } => "auth-challenge",
            WireMsg::AuthProof { .. } => "auth-proof",
            WireMsg::Reject { .. } => "reject",
            WireMsg::Result { .. } => "result",
            WireMsg::Heartbeat { .. } => "heartbeat",
            WireMsg::Drain => "drain",
            WireMsg::Bye => "bye",
        }
    }
}

/// The message as a JSON value (with the version field).
pub fn msg_to_json(msg: &WireMsg) -> Json {
    let mut fields =
        vec![("v", Json::Num(CODEC_VERSION as f64)), ("type", Json::Str(msg.kind().to_string()))];
    match msg {
        WireMsg::Hello { worker, threads } => {
            fields.push(("worker", Json::Str(worker.clone())));
            fields.push(("threads", json_u64(*threads)));
        }
        WireMsg::Drain | WireMsg::Bye => {}
        WireMsg::ClaimN { max, holding } => {
            fields.push(("max", json_u64(*max)));
            fields.push(("holding", Json::Arr(holding.iter().copied().map(json_u64).collect())));
        }
        WireMsg::TaskBatch { tasks } => {
            let items = tasks
                .iter()
                .map(|(index, scenario)| {
                    obj(vec![("index", json_u64(*index)), ("scenario", scenario.clone())])
                })
                .collect();
            fields.push(("tasks", Json::Arr(items)));
        }
        WireMsg::AuthChallenge { nonce } => fields.push(("nonce", json_u64(*nonce))),
        WireMsg::AuthProof { mac } => fields.push(("mac", Json::Str(mac.clone()))),
        WireMsg::Reject { reason } => fields.push(("reason", Json::Str(reason.clone()))),
        WireMsg::Result { index, sum, payload } => {
            fields.push(("index", json_u64(*index)));
            fields.push(("sum", json_u64(*sum)));
            fields.push(("payload", payload.clone()));
        }
        WireMsg::Heartbeat { inflight } => {
            fields.push(("inflight", inflight.map_or(Json::Null, json_u64)));
        }
    }
    obj(fields)
}

/// Decode a protocol message from its JSON value form.
pub fn msg_from_json(json: &Json) -> Result<WireMsg, CodecError> {
    let r = ObjReader::new("WireMsg", json)?;
    check_version("WireMsg", &r)?;
    match r.str("type")? {
        "hello" => {
            Ok(WireMsg::Hello { worker: r.str("worker")?.to_string(), threads: r.u64("threads")? })
        }
        "claim-n" => {
            let holding = r
                .arr("holding")?
                .iter()
                .map(|v| {
                    json_to_u64(v).ok_or(CodecError::WrongType {
                        ty: "WireMsg",
                        field: "holding",
                        expected: "array of u64",
                    })
                })
                .collect::<Result<Vec<u64>, CodecError>>()?;
            Ok(WireMsg::ClaimN { max: r.u64("max")?, holding })
        }
        "task-batch" => {
            let tasks = r
                .arr("tasks")?
                .iter()
                .map(|item| {
                    let t = ObjReader::new("WireMsg", item)?;
                    Ok((t.u64("index")?, t.req("scenario")?.clone()))
                })
                .collect::<Result<Vec<(u64, Json)>, CodecError>>()?;
            Ok(WireMsg::TaskBatch { tasks })
        }
        "auth-challenge" => Ok(WireMsg::AuthChallenge { nonce: r.u64("nonce")? }),
        "auth-proof" => Ok(WireMsg::AuthProof { mac: r.str("mac")?.to_string() }),
        "reject" => Ok(WireMsg::Reject { reason: r.str("reason")?.to_string() }),
        "result" => Ok(WireMsg::Result {
            index: r.u64("index")?,
            sum: r.u64("sum")?,
            payload: r.req("payload")?.clone(),
        }),
        "heartbeat" => {
            let inflight = match r.req("inflight")? {
                Json::Null => None,
                v => Some(json_to_u64(v).ok_or(CodecError::WrongType {
                    ty: "WireMsg",
                    field: "inflight",
                    expected: "u64 or null",
                })?),
            };
            Ok(WireMsg::Heartbeat { inflight })
        }
        "drain" => Ok(WireMsg::Drain),
        "bye" => Ok(WireMsg::Bye),
        other => Err(CodecError::Invalid { ty: "WireMsg", msg: format!("unknown type {other:?}") }),
    }
}

/// Encode a protocol message as its JSON text.
pub fn encode_msg(msg: &WireMsg) -> String {
    msg_to_json(msg).write()
}

/// Decode a protocol message text produced by [`encode_msg`].
pub fn decode_msg(text: &str) -> Result<WireMsg, CodecError> {
    msg_from_json(&Json::parse(text)?)
}

// ---- length-prefixed framing ----------------------------------------------

/// Largest frame [`read_frame`] accepts (a declared length beyond this is
/// a [`FrameError::Oversized`], read before allocating). Generously above
/// any real payload — the biggest scenario encodings are tens of KiB.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// How many consecutive read-timeout retries [`read_frame`] tolerates
/// *mid-frame* before giving up with an I/O error. Callers poll with
/// short `set_read_timeout` windows; a timeout before any frame byte
/// arrives is a routine [`FrameError::TimedOut`], but a peer that stalls
/// after sending a partial frame is broken and must not wedge the reader
/// forever (the fault-injection truncation tests exercise exactly this).
const MID_FRAME_TIMEOUT_RETRIES: usize = 240;

/// A framing failure from [`read_frame`].
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The read timed out before any byte of a new frame arrived (the
    /// routine "nothing to read yet" signal under `set_read_timeout`).
    TimedOut,
    /// The frame declared a length beyond [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// The frame body is not a valid protocol message.
    Codec(CodecError),
    /// Any other I/O failure (including EOF mid-frame = a truncated
    /// frame, and a peer stalling mid-frame past the retry budget).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TimedOut => write!(f, "read timed out before a frame arrived"),
            FrameError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            FrameError::Codec(e) => write!(f, "bad frame payload: {e}"),
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Codec(e)
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Write one length-prefixed frame (4-byte big-endian length, then the
/// [`encode_msg`] JSON bytes) and flush it.
pub fn write_frame<W: std::io::Write>(w: &mut W, msg: &WireMsg) -> std::io::Result<()> {
    write_frame_text(w, &encode_msg(msg))
}

/// [`write_frame`] for an already-encoded message body. Prefix and body
/// go out as one buffer — one syscall per frame, which matters on the
/// result hot path where the payload text is also reused for the
/// checksum and the journal.
pub fn write_frame_text<W: std::io::Write>(w: &mut W, body: &str) -> std::io::Result<()> {
    let len = u32::try_from(body.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large to encode")
    })?;
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(body.as_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Encode a `Result` message around an **already-serialized** payload,
/// byte-identical to `encode_msg(&WireMsg::Result { .. })` with the
/// parsed equivalent. The worker's hot path serializes each result
/// payload exactly once — checksum, frame, and (coordinator-side)
/// journal all reuse that text.
pub fn encode_result_msg(index: u64, sum: u64, payload: &str) -> String {
    format!(
        "{{\"v\":{CODEC_VERSION},\"type\":\"result\",\"index\":\"{index}\",\"sum\":\"{sum}\",\"payload\":{payload}}}"
    )
}

/// Encode a `TaskBatch` message around **already-serialized** scenarios,
/// byte-identical to `encode_msg(&WireMsg::TaskBatch { .. })` with the
/// parsed equivalents. The grant-side twin of [`encode_result_msg`]: a
/// coordinator encodes each scenario once and splices that text into
/// every grant that carries it.
pub fn encode_task_batch_msg(tasks: &[(u64, &str)]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\"v\":{CODEC_VERSION},\"type\":\"task-batch\",\"tasks\":[");
    for (i, (index, scenario)) in tasks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"index\":\"{index}\",\"scenario\":{scenario}}}");
    }
    out.push_str("]}");
    out
}

/// Read exactly `buf.len()` bytes. `consumed` says whether any byte of
/// the current frame has already arrived: before that, a timeout is the
/// routine [`FrameError::TimedOut`] and EOF is a clean [`FrameError::Closed`];
/// after it, timeouts retry (bounded) and EOF is a truncated frame.
fn read_exact_frame<R: std::io::Read>(
    r: &mut R,
    buf: &mut [u8],
    mut consumed: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    let mut timeouts = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if consumed {
                    FrameError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                } else {
                    FrameError::Closed
                });
            }
            Ok(n) => {
                filled += n;
                consumed = true;
                timeouts = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if !consumed {
                    return Err(FrameError::TimedOut);
                }
                timeouts += 1;
                if timeouts > MID_FRAME_TIMEOUT_RETRIES {
                    return Err(FrameError::Io(e));
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Read one length-prefixed frame and decode its protocol message.
///
/// Designed for polling loops over sockets with `set_read_timeout`:
/// [`FrameError::TimedOut`] means "no frame yet, go do other work" (the
/// caller's heartbeat/deadline checks run between calls), while
/// [`FrameError::Closed`] is a clean goodbye. Everything else is a broken
/// peer. A frame that decodes but is not valid JSON-protocol is a
/// [`FrameError::Codec`] — never a panic, whatever bytes arrive.
pub fn read_frame<R: std::io::Read>(r: &mut R) -> Result<WireMsg, FrameError> {
    let mut len_buf = [0u8; 4];
    read_exact_frame(r, &mut len_buf, false)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    read_exact_frame(r, &mut body, true)?;
    let text = String::from_utf8(body).map_err(|_| {
        FrameError::Codec(CodecError::Parse { offset: 0, msg: "frame is not UTF-8".to_string() })
    })?;
    Ok(decode_msg(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ScenarioRegistry;

    #[test]
    fn json_parser_round_trips_core_shapes() {
        for text in [
            r#"{"a":1,"b":[true,false,null],"c":"x\ny \"q\" é"}"#,
            "[]",
            "{}",
            "[1.5,-2,1e10,0.001]",
            r#""😀""#, // surrogate pair (emoji)
        ] {
            let v = Json::parse(text).unwrap();
            let w = Json::parse(&v.write()).unwrap();
            assert_eq!(v, w, "for {text}");
        }
    }

    #[test]
    fn json_parser_rejects_malformed_text() {
        for text in ["{", "[1,", "tru", "\"unterminated", "{\"a\" 1}", "1 2", "{\"a\":}"] {
            assert!(
                matches!(Json::parse(text), Err(CodecError::Parse { .. })),
                "{text:?} should not parse"
            );
        }
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(matches!(Json::parse(&deep), Err(CodecError::Parse { .. })));
        let deep_objs = "{\"a\":".repeat(100_000);
        assert!(matches!(Json::parse(&deep_objs), Err(CodecError::Parse { .. })));
        // Reasonable nesting (well under the limit) still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn decode_cost_is_linear_in_payload_size() {
        // A same-run ratio, so it holds on any machine: a task batch 32
        // times larger must decode in at most 4x the linear share of the
        // time, 128x (a parser that re-scans the rest of the input per
        // string character reads over 300x here). Best of seven rounds
        // damps scheduler noise.
        let sc = scenario_to_json(&ScenarioRegistry::reduced().scenarios().remove(0));
        let batch = |n: u64| {
            encode_msg(&WireMsg::TaskBatch { tasks: (0..n).map(|i| (i, sc.clone())).collect() })
        };
        let (small, large) = (batch(5), batch(160));
        let scale = large.len() as f64 / small.len() as f64;
        assert!((30.0..=33.0).contains(&scale), "payloads {scale:.1}x apart");
        let best = |text: &str| {
            (0..7)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    decode_msg(text).expect("decode");
                    t0.elapsed()
                })
                .min()
                .expect("seven rounds")
        };
        let (t_small, t_large) = (best(&small), best(&large));
        let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
        assert!(
            ratio <= 4.0 * scale,
            "{scale:.1}x payload took {ratio:.1}x the time ({t_large:?} vs {t_small:?})"
        );
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.0, -0.0, 1.5, 427e6, 1e-300, f64::MIN_POSITIVE, 0.1 + 0.2] {
            let enc = json_f64(v).write();
            let dec = json_to_f64(&Json::parse(&enc).unwrap()).unwrap();
            assert_eq!(v.to_bits(), dec.to_bits(), "{v} -> {enc}");
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let enc = json_f64(v).write();
            let dec = json_to_f64(&Json::parse(&enc).unwrap()).unwrap();
            assert_eq!(v.to_bits(), dec.to_bits(), "{v} -> {enc}");
        }
    }

    #[test]
    fn u64_round_trips_beyond_53_bits() {
        let v = 0xDEAD_BEEF_CAFE_F00Du64;
        let enc = json_u64(v).write();
        assert_eq!(json_to_u64(&Json::parse(&enc).unwrap()), Some(v));
    }

    #[test]
    fn every_registry_scenario_round_trips() {
        for reg in [ScenarioRegistry::builtin(), ScenarioRegistry::reduced()] {
            for e in reg.entries() {
                let text = encode_scenario(&e.scenario);
                let back = decode_scenario(&text).expect("decode");
                assert_eq!(back, e.scenario, "{}", e.scenario.name);
                assert_eq!(encode_scenario(&back), text, "{}: re-encode", e.scenario.name);
            }
        }
    }

    #[test]
    fn every_builtin_scenario_round_trips_with_each_wan_model() {
        // v7 round-trip over the full registry x every WanModel variant:
        // the scalar default, the flow-level default, and the degenerate
        // flow-level corner (window: null on the wire).
        let variants = [
            WanModel::MaxMin,
            WanModel::FlowLevel(crate::config::FlowLevelCfg::default()),
            WanModel::FlowLevel(crate::config::FlowLevelCfg::degenerate()),
        ];
        for reg in [ScenarioRegistry::builtin(), ScenarioRegistry::reduced()] {
            for e in reg.entries() {
                for m in &variants {
                    let mut sc = e.scenario.clone();
                    sc.config.wan_model = m.clone();
                    let text = encode_scenario(&sc);
                    let back = decode_scenario(&text).expect("decode");
                    assert_eq!(back, sc, "{} under {}", sc.name, m.name());
                    assert_eq!(encode_scenario(&back), text, "{}: re-encode", sc.name);
                }
            }
        }
    }

    #[test]
    fn bad_wan_models_are_structured_errors() {
        assert!(matches!(
            wan_model_from_json(&Json::Str("token-bucket".into())),
            Err(CodecError::Invalid { ty: "WanModel", .. })
        ));
        // Out-of-range gain is rejected with context, not a panic.
        let cfg = FlowLevelCfg { gain: 7.5, ..FlowLevelCfg::default() };
        let json = wan_model_to_json(&WanModel::FlowLevel(cfg));
        assert!(matches!(
            wan_model_from_json(&json),
            Err(CodecError::Invalid { ty: "WanModel", .. })
        ));
    }

    #[test]
    fn concrete_workload_round_trips() {
        let w = Arc::new(WorkloadSpec::constant(3, 2, 1e6, 6.0, 1e5).generate(1));
        let sc = Scenario {
            name: "concrete".into(),
            platform: simcal_platform::catalog::scsn(),
            workload: WorkloadSource::Concrete(w),
            cache: CacheSpec::seeded(0.25, 99),
            config: SimConfig::default(),
            multisite: None,
            horizon: None,
        };
        let back = decode_scenario(&encode_scenario(&sc)).unwrap();
        assert_eq!(back, sc);
    }

    #[test]
    fn missing_field_is_a_structured_error() {
        let sc = ScenarioRegistry::reduced().scenarios().remove(0);
        let mut json = scenario_to_json(&sc);
        json.fields_mut().unwrap().retain(|(k, _)| k != "name");
        assert_eq!(
            scenario_from_json(&json),
            Err(CodecError::MissingField { ty: "Scenario", field: "name" })
        );
    }

    #[test]
    fn unknown_fields_and_newer_versions_are_tolerated() {
        let sc = ScenarioRegistry::reduced().scenarios().remove(0);
        let mut json = scenario_to_json(&sc);
        let fields = json.fields_mut().unwrap();
        for (k, v) in fields.iter_mut() {
            if k == "v" {
                *v = Json::Num(CODEC_VERSION as f64 + 1.0);
            }
        }
        fields.push(("future_knob".to_string(), Json::Str("ignored".to_string())));
        assert_eq!(scenario_from_json(&json).unwrap(), sc);
    }

    #[test]
    fn malformed_arrival_parameters_are_structured_errors() {
        // Bad parameters must fail at the codec boundary, not as an
        // assert panic when a worker materializes the workload.
        let sc = Scenario {
            name: "arrivals".into(),
            platform: simcal_platform::catalog::scsn(),
            workload: WorkloadSource::Spec {
                spec: WorkloadSpec::constant(4, 2, 1e6, 6.0, 1e5)
                    .with_arrival(ArrivalProcess::Poisson { rate: 1.0 }),
                seed: 7,
            },
            cache: CacheSpec::canonical(0.5),
            config: SimConfig::default(),
            multisite: None,
            horizon: None,
        };
        let text = encode_scenario(&sc);
        for (from, to) in [
            ("\"rate\":1", "\"rate\":-1"),
            ("\"rate\":1", "\"rate\":0"),
            ("\"rate\":1", "\"rate\":\"NaN\""),
            (
                "\"kind\":\"poisson\",\"rate\":1",
                "\"kind\":\"bursty\",\"batch_size\":0,\"batch_interval\":5",
            ),
            (
                "\"kind\":\"poisson\",\"rate\":1",
                "\"kind\":\"diurnal\",\"base_rate\":1,\"amplitude\":1.5,\"period\":60",
            ),
        ] {
            let tampered = text.replacen(from, to, 1);
            assert_ne!(tampered, text, "{to}: replacement must apply");
            assert!(
                matches!(decode_scenario(&tampered), Err(CodecError::Invalid { .. })),
                "{to}: must be a structured error"
            );
        }
    }

    #[test]
    fn payloads_require_the_release_fields_and_the_wan_model() {
        // A writer that drops one of these produced a broken payload, and
        // decoding reports it instead of silently assuming "no queueing"
        // or "max–min WAN".
        let sc = ScenarioRegistry::reduced().scenarios().remove(0);
        for field in ["arrival", "release_time_scale", "wan_model"] {
            let mut json = scenario_to_json(&sc);
            fn drop_field(json: &mut Json, field: &str) {
                if let Json::Obj(fields) = json {
                    fields.retain(|(k, _)| k != field);
                    for (_, v) in fields.iter_mut() {
                        drop_field(v, field);
                    }
                }
            }
            drop_field(&mut json, field);
            assert!(
                matches!(
                    scenario_from_json(&json),
                    Err(CodecError::MissingField { field: f, .. }) if f == field
                ),
                "dropping {field:?} must be a MissingField error"
            );
        }
    }

    #[test]
    fn arrival_processes_round_trip() {
        for arrival in [
            ArrivalProcess::Immediate,
            ArrivalProcess::Poisson { rate: 0.25 },
            ArrivalProcess::Diurnal { base_rate: 0.1, amplitude: 0.8, period: 3600.0 },
            ArrivalProcess::Bursty { batch_size: 12, batch_interval: 300.0 },
        ] {
            let sc = Scenario {
                name: "arrivals".into(),
                platform: simcal_platform::catalog::scsn(),
                workload: WorkloadSource::Spec {
                    spec: WorkloadSpec::constant(4, 2, 1e6, 6.0, 1e5).with_arrival(arrival),
                    seed: 7,
                },
                cache: CacheSpec::canonical(0.5),
                config: SimConfig::default(),
                multisite: None,
                horizon: None,
            };
            let text = encode_scenario(&sc);
            let back = decode_scenario(&text).unwrap();
            assert_eq!(back, sc, "{arrival:?}");
            assert_eq!(encode_scenario(&back), text);
        }
    }

    #[test]
    fn concrete_release_times_round_trip_and_reject_disorder() {
        let mut w = WorkloadSpec::constant(3, 2, 1e6, 6.0, 1e5).generate(1);
        for (i, j) in w.jobs.iter_mut().enumerate() {
            j.release = i as f64 * 60.0;
        }
        let sc = Scenario {
            name: "released".into(),
            platform: simcal_platform::catalog::scsn(),
            workload: WorkloadSource::Concrete(Arc::new(w)),
            cache: CacheSpec::canonical(0.5),
            config: SimConfig::default(),
            multisite: None,
            horizon: None,
        };
        let text = encode_scenario(&sc);
        assert_eq!(decode_scenario(&text).unwrap(), sc);
        // Out-of-order releases are a structured error, not a panic.
        let tampered = text.replacen("\"release\":0", "\"release\":500", 1);
        assert!(matches!(decode_scenario(&tampered), Err(CodecError::Invalid { .. })));
        // A negative release is likewise rejected.
        let negative = text.replacen("\"release\":0", "\"release\":-5", 1);
        assert!(matches!(decode_scenario(&negative), Err(CodecError::Invalid { .. })));
    }

    fn demo_multisite() -> MultiSiteSpec {
        simcal_platform::catalog::multisite_star(simcal_platform::PlatformKind::Fcsn, 3)
    }

    #[test]
    fn multisite_scenarios_round_trip_byte_exactly() {
        let sc = Scenario {
            name: "ms".into(),
            platform: simcal_platform::catalog::fcsn(),
            workload: WorkloadSource::Spec {
                spec: WorkloadSpec::constant(12, 2, 1e6, 6.0, 1e5),
                seed: 5,
            },
            cache: CacheSpec::canonical(0.5),
            config: SimConfig::default(),
            multisite: Some(demo_multisite()),
            horizon: None,
        };
        let text = encode_scenario(&sc);
        let back = decode_scenario(&text).unwrap();
        assert_eq!(back, sc);
        assert_eq!(encode_scenario(&back), text, "re-encode not byte-identical");
    }

    #[test]
    fn payloads_without_multisite_decode_to_single_site() {
        // The field is optional: single-site payloads omit it and decode
        // to multisite = None, and an explicit null means the same thing.
        let sc = ScenarioRegistry::reduced().scenarios().remove(0);
        assert_eq!(sc.multisite, None);
        let mut json = scenario_to_json(&sc);
        assert!(json.field("multisite").is_none(), "None is omitted, not encoded");
        assert_eq!(scenario_from_json(&json).unwrap(), sc);
        json.fields_mut().unwrap().push(("multisite".to_string(), Json::Null));
        assert_eq!(scenario_from_json(&json).unwrap(), sc);
    }

    #[test]
    fn malformed_multisite_payloads_are_structured_errors() {
        let sc = Scenario {
            name: "ms".into(),
            platform: simcal_platform::catalog::fcsn(),
            workload: WorkloadSource::Spec {
                spec: WorkloadSpec::constant(4, 2, 1e6, 6.0, 1e5),
                seed: 5,
            },
            cache: CacheSpec::canonical(0.5),
            config: SimConfig::default(),
            multisite: Some(demo_multisite()),
            horizon: None,
        };
        let text = encode_scenario(&sc);
        for (from, to) in [
            // Zero latency would destroy the sync lookahead.
            ("\"latency\":0.02", "\"latency\":0"),
            // Out-of-range link endpoint.
            ("\"a\":0,\"b\":1", "\"a\":0,\"b\":99"),
            // Self-link.
            ("\"a\":0,\"b\":1", "\"a\":0,\"b\":0"),
            // Hub index out of range.
            ("\"storage_site\":0", "\"storage_site\":9"),
        ] {
            let tampered = text.replacen(from, to, 1);
            assert_ne!(tampered, text, "{to}: replacement must apply");
            assert!(
                matches!(decode_scenario(&tampered), Err(CodecError::Invalid { .. })),
                "{to}: must be a structured error"
            );
        }
    }

    #[test]
    fn decoding_garbage_reports_not_panics() {
        assert!(decode_scenario("not json").is_err());
        assert!(decode_scenario("[]").is_err());
        assert!(decode_scenario("{\"v\":7}").is_err());
        // A structurally-valid payload with a semantically bad value.
        let sc = ScenarioRegistry::reduced().scenarios().remove(0);
        let text = encode_scenario(&sc).replace("\"first-free\"", "\"no-such-policy\"");
        assert!(matches!(decode_scenario(&text), Err(CodecError::Invalid { .. })));
    }

    fn demo_msgs() -> Vec<WireMsg> {
        let sc = ScenarioRegistry::reduced().scenarios().remove(0);
        vec![
            WireMsg::Hello { worker: "pid-42/t1".into(), threads: 4 },
            WireMsg::ClaimN { max: 8, holding: vec![3, 11, u64::MAX] },
            WireMsg::ClaimN { max: 1, holding: vec![] },
            WireMsg::TaskBatch {
                tasks: vec![(3, scenario_to_json(&sc)), (4, scenario_to_json(&sc))],
            },
            WireMsg::TaskBatch { tasks: vec![] },
            WireMsg::AuthChallenge { nonce: 0x5EED_CAFE_1234_5678 },
            WireMsg::AuthProof { mac: "ab".repeat(32) },
            WireMsg::Reject { reason: "bad auth token".into() },
            WireMsg::Result {
                index: 3,
                sum: 0xDEAD_BEEF_CAFE_F00D,
                payload: obj(vec![("makespan", json_f64(1.5))]),
            },
            WireMsg::Heartbeat { inflight: Some(7) },
            WireMsg::Heartbeat { inflight: None },
            WireMsg::Drain,
            WireMsg::Bye,
        ]
    }

    #[test]
    fn protocol_messages_round_trip_byte_exactly() {
        for msg in demo_msgs() {
            let text = encode_msg(&msg);
            let back = decode_msg(&text).unwrap();
            assert_eq!(back, msg, "{text}");
            assert_eq!(encode_msg(&back), text, "{}: re-encode", msg.kind());
        }
    }

    #[test]
    fn raw_result_encoding_matches_the_structured_encoder() {
        let payload = obj(vec![
            ("name", Json::Str("grid-0".into())),
            ("makespan", json_f64(1.5)),
            ("hashes", Json::Arr(vec![json_u64(u64::MAX), json_u64(0)])),
        ]);
        let text = payload.write();
        let msg = WireMsg::Result { index: 7, sum: 0xDEAD_BEEF_CAFE_F00D, payload };
        assert_eq!(encode_result_msg(7, 0xDEAD_BEEF_CAFE_F00D, &text), encode_msg(&msg));
    }

    #[test]
    fn raw_task_encodings_match_the_structured_encoder() {
        let a = obj(vec![
            ("name", Json::Str("grid-0".into())),
            ("scale", json_f64(0.25)),
            ("tags", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        let b = Json::Str("degenerate \"scenario\"\n".into());
        assert_eq!(
            encode_task_batch_msg(&[(0, &a.write()), (u64::MAX, &b.write())]),
            encode_msg(&WireMsg::TaskBatch { tasks: vec![(0, a.clone()), (u64::MAX, b)] })
        );
        assert_eq!(
            encode_task_batch_msg(&[]),
            encode_msg(&WireMsg::TaskBatch { tasks: Vec::new() })
        );
    }

    #[test]
    fn task_envelopes_carry_decodable_scenarios() {
        let sc = ScenarioRegistry::reduced().scenarios().remove(0);
        let msg = WireMsg::TaskBatch { tasks: vec![(0, scenario_to_json(&sc))] };
        match decode_msg(&encode_msg(&msg)).unwrap() {
            WireMsg::TaskBatch { tasks } => {
                assert_eq!(scenario_from_json(&tasks[0].1).unwrap(), sc);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn malformed_protocol_messages_are_structured_errors() {
        assert!(matches!(decode_msg("not json"), Err(CodecError::Parse { .. })));
        assert!(matches!(
            decode_msg("{\"v\":7}"),
            Err(CodecError::MissingField { ty: "WireMsg", field: "type" })
        ));
        assert!(matches!(
            decode_msg("{\"v\":7,\"type\":\"warp\"}"),
            Err(CodecError::Invalid { ty: "WireMsg", .. })
        ));
        assert!(matches!(
            decode_msg("{\"v\":0,\"type\":\"claim-n\"}"),
            Err(CodecError::UnsupportedVersion { ty: "WireMsg", version: 0, .. })
        ));
        assert!(matches!(
            decode_msg("{\"v\":7,\"type\":\"task-batch\",\"tasks\":[{\"index\":\"1\"}]}"),
            Err(CodecError::MissingField { ty: "WireMsg", field: "scenario" })
        ));
    }

    #[test]
    fn v4_lock_step_envelopes_are_errors() {
        // The lock-step `claim`/`task` types are unknown at the current
        // version (a v4 envelope fails the version check before that),
        // and a Hello must advertise its threads.
        for kind in ["claim", "task"] {
            let text = format!(r#"{{"v":7,"type":"{kind}","index":"1","scenario":{{}}}}"#);
            assert!(
                matches!(decode_msg(&text), Err(CodecError::Invalid { ty: "WireMsg", .. })),
                "{kind}"
            );
        }
        assert_eq!(
            decode_msg(r#"{"v":7,"type":"hello","worker":"w"}"#),
            Err(CodecError::MissingField { ty: "WireMsg", field: "threads" })
        );
    }

    #[test]
    fn retired_hello_shard_count_is_ignored_and_not_re_emitted() {
        // v5-v7 workers advertised `engine_shards`; the field was retired
        // in place (no version bump), so an old Hello still decodes and
        // re-encodes without it.
        let old = r#"{"v":7,"type":"hello","worker":"old","threads":"2","engine_shards":"4"}"#;
        let hello = decode_msg(old).unwrap();
        assert_eq!(hello, WireMsg::Hello { worker: "old".into(), threads: 2 });
        assert_eq!(encode_msg(&hello), r#"{"v":7,"type":"hello","worker":"old","threads":"2"}"#);
    }

    #[test]
    fn hostile_envelopes_are_structured_errors() {
        // claim-n with a non-numeric holding entry, task-batch with a
        // malformed element, and missing required fields: never a panic.
        for text in [
            r#"{"v":7,"type":"claim-n","max":"2","holding":["1","x"]}"#,
            r#"{"v":7,"type":"claim-n","holding":[]}"#,
            r#"{"v":7,"type":"task-batch","tasks":[{"index":"1"}]}"#,
            r#"{"v":7,"type":"task-batch","tasks":"nope"}"#,
            r#"{"v":7,"type":"auth-challenge"}"#,
            r#"{"v":7,"type":"auth-proof","mac":7}"#,
            r#"{"v":7,"type":"reject"}"#,
        ] {
            assert!(decode_msg(text).is_err(), "{text} decoded");
        }
    }

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let msgs = demo_msgs();
        let mut buf = Vec::new();
        for msg in &msgs {
            write_frame(&mut buf, msg).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for msg in &msgs {
            assert_eq!(&read_frame(&mut cursor).unwrap(), msg);
        }
        // The stream is drained: the next read is a clean close.
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn truncated_frames_are_io_errors_not_closed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMsg::Hello { worker: "w".into(), threads: 1 }).unwrap();
        // Cut the frame anywhere after the first byte: mid-length-prefix
        // and mid-body truncations are both "broken peer", never a clean
        // Closed and never a panic.
        for cut in 1..buf.len() {
            let mut cursor = std::io::Cursor::new(&buf[..cut]);
            assert!(
                matches!(read_frame(&mut cursor), Err(FrameError::Io(_))),
                "cut at {cut} of {}",
                buf.len()
            );
        }
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut buf = Vec::from((u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"xx");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized(n)) if n == u32::MAX as usize
        ));
    }

    #[test]
    fn garbage_frame_bodies_are_codec_errors() {
        // Valid framing around an invalid body (bad UTF-8, bad JSON, or a
        // non-protocol object) is a structured Codec error.
        for body in [&b"\xff\xfe"[..], b"not json", b"{\"v\":7,\"type\":\"nope\"}", b"[]"] {
            let mut buf = Vec::from((body.len() as u32).to_be_bytes());
            buf.extend_from_slice(body);
            let mut cursor = std::io::Cursor::new(buf);
            assert!(matches!(read_frame(&mut cursor), Err(FrameError::Codec(_))), "{body:?}");
        }
    }
}
