//! The structured event vocabulary and its JSONL wire form.
//!
//! Events are flat, self-describing JSON objects, one per line, tagged by
//! an `"ev"` field. Serialization is hand-rolled (this crate is
//! dependency-free by design) and round-trips exactly: `f64` cycles go
//! through Rust's shortest-representation `Display`, everything else is
//! integral.

use core::fmt;

/// Miss taxonomy mirrored from the cache layer (§1 of Yang & Wu: self-
/// vs cross-interference), defined here so the tracing crate has no
/// dependency on — and can be depended on by — the simulator crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MissClass {
    /// First touch of the line anywhere.
    Compulsory,
    /// Would miss even fully-associative at this size.
    Capacity,
    /// Mapping conflict within one access stream.
    ConflictSelf,
    /// Mapping conflict between different streams.
    ConflictCross,
}

impl MissClass {
    /// All classes, in taxonomy order.
    pub const ALL: [MissClass; 4] = [
        MissClass::Compulsory,
        MissClass::Capacity,
        MissClass::ConflictSelf,
        MissClass::ConflictCross,
    ];

    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Compulsory => "compulsory",
            Self::Capacity => "capacity",
            Self::ConflictSelf => "conflict_self",
            Self::ConflictCross => "conflict_cross",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }
}

impl fmt::Display for MissClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a memory bank could take the request immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankEventKind {
    /// Bank idle at request time; the access issued immediately.
    Free,
    /// Bank still serving an earlier access; the request waited.
    Busy,
}

impl BankEventKind {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Free => "free",
            Self::Busy => "busy",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "free" => Some(Self::Free),
            "busy" => Some(Self::Busy),
            _ => None,
        }
    }
}

/// Which machine phase a boundary event delimits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// One vector operation sequence (a chime) — one access group of the
    /// program.
    Chime,
    /// A whole program execution.
    Program,
}

impl PhaseKind {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Chime => "chime",
            Self::Program => "program",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "chime" => Some(Self::Chime),
            "program" => Some(Self::Program),
            _ => None,
        }
    }
}

/// One structured observation from the simulator stack.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One cache access (emitted by `CacheSim::access_traced`).
    CacheAccess {
        /// Access sequence number (the cache's logical clock).
        seq: u64,
        /// Word address accessed.
        word: u64,
        /// Stream tag of the accessor.
        stream: u32,
        /// Set index the mapper chose.
        set: u64,
        /// `None` on a hit, the class otherwise.
        miss: Option<MissClass>,
        /// Line address displaced to make room, if any.
        evicted: Option<u64>,
    },
    /// One memory-bank access (emitted by
    /// `InterleavedMemory::access_traced` and the traced stream
    /// simulators).
    BankAccess {
        /// Bank that served the access.
        bank: u64,
        /// Word address accessed.
        addr: u64,
        /// Cycle the access was requested.
        requested: u64,
        /// Cycles spent waiting for the bank.
        wait: u64,
        /// Whether the bank was free or busy at request time.
        state: BankEventKind,
    },
    /// A machine phase opens (emitted by `execute_traced`).
    PhaseBegin {
        /// What kind of phase.
        kind: PhaseKind,
        /// Sweep index: which access group of the program.
        sweep: u64,
        /// Machine cycle count at the boundary.
        cycle: f64,
    },
    /// A machine phase closes.
    PhaseEnd {
        /// What kind of phase.
        kind: PhaseKind,
        /// Sweep index: which access group of the program.
        sweep: u64,
        /// Machine cycle count at the boundary.
        cycle: f64,
    },
}

impl TraceEvent {
    /// Serializes to one JSON line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        fn opt_u64(v: Option<u64>) -> String {
            v.map_or_else(|| "null".into(), |n| n.to_string())
        }
        fn f64_json(x: f64) -> String {
            // Cycle counts are always finite; guard anyway so the line
            // stays valid JSON.
            if x.is_finite() {
                format!("{x}")
            } else {
                "0".into()
            }
        }
        match self {
            Self::CacheAccess {
                seq,
                word,
                stream,
                set,
                miss,
                evicted,
            } => format!(
                "{{\"ev\":\"cache\",\"seq\":{seq},\"word\":{word},\"stream\":{stream},\
                 \"set\":{set},\"miss\":{},\"evicted\":{}}}",
                miss.map_or_else(|| "null".into(), |m| format!("\"{}\"", m.name())),
                opt_u64(*evicted),
            ),
            Self::BankAccess {
                bank,
                addr,
                requested,
                wait,
                state,
            } => format!(
                "{{\"ev\":\"bank\",\"bank\":{bank},\"addr\":{addr},\"requested\":{requested},\
                 \"wait\":{wait},\"state\":\"{}\"}}",
                state.name(),
            ),
            Self::PhaseBegin { kind, sweep, cycle } => format!(
                "{{\"ev\":\"phase_begin\",\"kind\":\"{}\",\"sweep\":{sweep},\"cycle\":{}}}",
                kind.name(),
                f64_json(*cycle),
            ),
            Self::PhaseEnd { kind, sweep, cycle } => format!(
                "{{\"ev\":\"phase_end\",\"kind\":\"{}\",\"sweep\":{sweep},\"cycle\":{}}}",
                kind.name(),
                f64_json(*cycle),
            ),
        }
    }

    /// Parses one JSON line produced by [`TraceEvent::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed JSON, unknown tags, or missing
    /// fields.
    pub fn from_jsonl(line: &str) -> Result<Self, ParseError> {
        let fields = parse_flat_object(line)?;
        let ev = need_str(&fields, "ev")?;
        match ev {
            "cache" => Ok(Self::CacheAccess {
                seq: need_u64(&fields, "seq")?,
                word: need_u64(&fields, "word")?,
                stream: {
                    let v = need_u64(&fields, "stream")?;
                    u32::try_from(v).map_err(|_| ParseError::BadValue("stream", v.to_string()))?
                },
                set: need_u64(&fields, "set")?,
                miss: match opt_str(&fields, "miss")? {
                    None => None,
                    Some(s) => Some(
                        MissClass::from_name(s)
                            .ok_or_else(|| ParseError::BadValue("miss", s.to_string()))?,
                    ),
                },
                evicted: opt_u64(&fields, "evicted")?,
            }),
            "bank" => Ok(Self::BankAccess {
                bank: need_u64(&fields, "bank")?,
                addr: need_u64(&fields, "addr")?,
                requested: need_u64(&fields, "requested")?,
                wait: need_u64(&fields, "wait")?,
                state: {
                    let s = need_str(&fields, "state")?;
                    BankEventKind::from_name(s)
                        .ok_or_else(|| ParseError::BadValue("state", s.to_string()))?
                },
            }),
            "phase_begin" | "phase_end" => {
                let kind = {
                    let s = need_str(&fields, "kind")?;
                    PhaseKind::from_name(s)
                        .ok_or_else(|| ParseError::BadValue("kind", s.to_string()))?
                };
                let sweep = need_u64(&fields, "sweep")?;
                let cycle = need_f64(&fields, "cycle")?;
                Ok(if ev == "phase_begin" {
                    Self::PhaseBegin { kind, sweep, cycle }
                } else {
                    Self::PhaseEnd { kind, sweep, cycle }
                })
            }
            other => Err(ParseError::BadValue("ev", other.to_string())),
        }
    }
}

/// Errors parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line is not a flat JSON object.
    Malformed(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field holds an unexpected value (field name, offending value).
    BadValue(&'static str, String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Malformed(why) => write!(f, "malformed trace line: {why}"),
            Self::MissingField(name) => write!(f, "trace line missing field {name:?}"),
            Self::BadValue(name, value) => {
                write!(f, "trace field {name:?} has unexpected value {value:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed scalar: the only value shapes trace lines contain.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Lit {
    Null,
    Str(String),
    /// Raw number text, reparsed per target type to keep u64 exactness.
    Num(String),
}

fn need_field<'a>(fields: &'a [(String, Lit)], key: &'static str) -> Result<&'a Lit, ParseError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or(ParseError::MissingField(key))
}

pub(crate) fn need_u64(fields: &[(String, Lit)], key: &'static str) -> Result<u64, ParseError> {
    match need_field(fields, key)? {
        Lit::Num(raw) => raw
            .parse()
            .map_err(|_| ParseError::BadValue(key, raw.clone())),
        other => Err(ParseError::BadValue(key, format!("{other:?}"))),
    }
}

pub(crate) fn opt_u64(
    fields: &[(String, Lit)],
    key: &'static str,
) -> Result<Option<u64>, ParseError> {
    match need_field(fields, key)? {
        Lit::Null => Ok(None),
        Lit::Num(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| ParseError::BadValue(key, raw.clone())),
        other => Err(ParseError::BadValue(key, format!("{other:?}"))),
    }
}

fn need_f64(fields: &[(String, Lit)], key: &'static str) -> Result<f64, ParseError> {
    match need_field(fields, key)? {
        Lit::Num(raw) => raw
            .parse()
            .map_err(|_| ParseError::BadValue(key, raw.clone())),
        other => Err(ParseError::BadValue(key, format!("{other:?}"))),
    }
}

pub(crate) fn need_str<'a>(
    fields: &'a [(String, Lit)],
    key: &'static str,
) -> Result<&'a str, ParseError> {
    match need_field(fields, key)? {
        Lit::Str(s) => Ok(s),
        other => Err(ParseError::BadValue(key, format!("{other:?}"))),
    }
}

pub(crate) fn opt_str<'a>(
    fields: &'a [(String, Lit)],
    key: &'static str,
) -> Result<Option<&'a str>, ParseError> {
    match need_field(fields, key)? {
        Lit::Null => Ok(None),
        Lit::Str(s) => Ok(Some(s)),
        other => Err(ParseError::BadValue(key, format!("{other:?}"))),
    }
}

/// Parses `{"key": scalar, ...}` — the only JSON shape trace lines use.
pub(crate) fn parse_flat_object(line: &str) -> Result<Vec<(String, Lit)>, ParseError> {
    let err = |why: &str| ParseError::Malformed(why.to_string());
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    let skip_ws = |pos: &mut usize| {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    };

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
        let err = |why: &str| ParseError::Malformed(why.to_string());
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err("expected string"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(err("unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        _ => return Err(err("unsupported escape")),
                    }
                    *pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    *pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let s = &bytes[*pos..];
                    let text = std::str::from_utf8(s).map_err(|_| err("invalid utf-8"))?;
                    let ch = text.chars().next().ok_or_else(|| err("empty"))?;
                    out.push(ch);
                    *pos += ch.len_utf8();
                }
            }
        }
    }

    skip_ws(&mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err(err("expected '{'"));
    }
    pos += 1;
    let mut fields = Vec::new();
    skip_ws(&mut pos);
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            skip_ws(&mut pos);
            let key = parse_string(bytes, &mut pos)?;
            skip_ws(&mut pos);
            if bytes.get(pos) != Some(&b':') {
                return Err(err("expected ':'"));
            }
            pos += 1;
            skip_ws(&mut pos);
            let value = match bytes.get(pos) {
                Some(b'"') => Lit::Str(parse_string(bytes, &mut pos)?),
                Some(b'n') => {
                    if bytes[pos..].starts_with(b"null") {
                        pos += 4;
                        Lit::Null
                    } else {
                        return Err(err("bad literal"));
                    }
                }
                Some(&b) if b == b'-' || b.is_ascii_digit() => {
                    let start = pos;
                    while pos < bytes.len()
                        && matches!(bytes[pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    {
                        pos += 1;
                    }
                    Lit::Num(line[start..pos].to_string())
                }
                _ => return Err(err("unsupported value (flat scalars only)")),
            };
            fields.push((key, value));
            skip_ws(&mut pos);
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(err("expected ',' or '}'")),
            }
        }
    }
    skip_ws(&mut pos);
    if pos != bytes.len() {
        return Err(err("trailing characters"));
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::CacheAccess {
                seq: 1,
                word: 0x1234,
                stream: 0,
                set: 5,
                miss: Some(MissClass::Compulsory),
                evicted: None,
            },
            TraceEvent::CacheAccess {
                seq: u64::MAX,
                word: u64::MAX,
                stream: 7,
                set: 8190,
                miss: None,
                evicted: Some(42),
            },
            TraceEvent::CacheAccess {
                seq: 3,
                word: 9,
                stream: 1,
                set: 0,
                miss: Some(MissClass::ConflictCross),
                evicted: Some(0),
            },
            TraceEvent::BankAccess {
                bank: 31,
                addr: 1024,
                requested: 17,
                wait: 15,
                state: BankEventKind::Busy,
            },
            TraceEvent::BankAccess {
                bank: 0,
                addr: 0,
                requested: 0,
                wait: 0,
                state: BankEventKind::Free,
            },
            TraceEvent::PhaseBegin {
                kind: PhaseKind::Chime,
                sweep: 3,
                cycle: 1234.5,
            },
            TraceEvent::PhaseEnd {
                kind: PhaseKind::Program,
                sweep: 0,
                cycle: 0.1,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        for ev in samples() {
            let line = ev.to_jsonl();
            let back = TraceEvent::from_jsonl(&line).unwrap();
            assert_eq!(ev, back, "line: {line}");
        }
    }

    #[test]
    fn lines_are_flat_single_line_json() {
        for ev in samples() {
            let line = ev.to_jsonl();
            assert!(!line.contains('\n'));
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn parser_handles_whitespace_and_rejects_junk() {
        let ok = TraceEvent::from_jsonl(
            " { \"ev\" : \"bank\", \"bank\": 1, \"addr\": 2, \"requested\": 3, \
             \"wait\": 0, \"state\": \"free\" } ",
        );
        assert!(ok.is_ok());
        for bad in [
            "",
            "{",
            "not json",
            "{\"ev\":\"cache\"}",             // missing fields
            "{\"ev\":\"nope\"}",              // unknown tag
            "{\"ev\":\"bank\",\"bank\":[1]}", // nested value
            "{\"ev\":\"cache\",\"seq\":1,\"word\":1,\"stream\":0,\"set\":0,\
             \"miss\":\"weird\",\"evicted\":null}", // unknown miss class
        ] {
            assert!(TraceEvent::from_jsonl(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn a_stream_id_past_u32_is_a_bad_value_not_a_wrapped_one() {
        let line = "{\"ev\":\"cache\",\"seq\":1,\"word\":1,\"stream\":4294967301,\
                    \"set\":0,\"miss\":null,\"evicted\":null}";
        assert_eq!(
            TraceEvent::from_jsonl(line),
            Err(ParseError::BadValue("stream", "4294967301".into()))
        );
    }

    #[test]
    fn names_roundtrip() {
        for c in MissClass::ALL {
            assert_eq!(MissClass::from_name(c.name()), Some(c));
            assert_eq!(c.to_string(), c.name());
        }
        for k in [BankEventKind::Free, BankEventKind::Busy] {
            assert_eq!(BankEventKind::from_name(k.name()), Some(k));
        }
        for p in [PhaseKind::Chime, PhaseKind::Program] {
            assert_eq!(PhaseKind::from_name(p.name()), Some(p));
        }
    }
}
