//! The structured event vocabulary and its JSONL wire form.
//!
//! Events are flat, self-describing JSON objects, one per line, tagged by
//! an `"ev"` field. Serialization is hand-rolled (this crate is
//! dependency-free by design) and round-trips exactly: `f64` cycles go
//! through Rust's shortest-representation `Display`, everything else is
//! integral.

use std::borrow::Cow;
use std::fmt;
use std::io::Write;

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

    /// Position in [`MissClass::ALL`] (taxonomy order).
    pub(crate) fn index(self) -> usize {
        match self {
            Self::Compulsory => 0,
            Self::Capacity => 1,
            Self::ConflictSelf => 2,
            Self::ConflictCross => 3,
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
    /// One memory-bank access (emitted by the stream simulators,
    /// `simulate_single_stream_traced` and `simulate_dual_stream_traced`).
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
    /// A machine phase opens (emitted by the `MmMachine` and `CcMachine`
    /// timing models, seen through `execute_traced`).
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
        let mut line = Vec::with_capacity(128);
        self.write_jsonl(&mut line);
        String::from_utf8_lossy(&line).into_owned()
    }

    /// Appends the [`TraceEvent::to_jsonl`] line (no trailing newline) to
    /// `out` without allocating beyond `out`'s own growth.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        match self {
            Self::CacheAccess {
                seq,
                word,
                stream,
                set,
                miss,
                evicted,
            } => {
                out.extend_from_slice(b"{\"ev\":\"cache\",\"seq\":");
                push_u64(out, *seq);
                out.extend_from_slice(b",\"word\":");
                push_u64(out, *word);
                out.extend_from_slice(b",\"stream\":");
                push_u64(out, u64::from(*stream));
                out.extend_from_slice(b",\"set\":");
                push_u64(out, *set);
                out.extend_from_slice(b",\"miss\":");
                match miss {
                    Some(class) => push_name(out, class.name()),
                    None => out.extend_from_slice(b"null"),
                }
                out.extend_from_slice(b",\"evicted\":");
                match evicted {
                    Some(line) => push_u64(out, *line),
                    None => out.extend_from_slice(b"null"),
                }
            }
            Self::BankAccess {
                bank,
                addr,
                requested,
                wait,
                state,
            } => {
                out.extend_from_slice(b"{\"ev\":\"bank\",\"bank\":");
                push_u64(out, *bank);
                out.extend_from_slice(b",\"addr\":");
                push_u64(out, *addr);
                out.extend_from_slice(b",\"requested\":");
                push_u64(out, *requested);
                out.extend_from_slice(b",\"wait\":");
                push_u64(out, *wait);
                out.extend_from_slice(b",\"state\":");
                push_name(out, state.name());
            }
            Self::PhaseBegin { kind, sweep, cycle } | Self::PhaseEnd { kind, sweep, cycle } => {
                out.extend_from_slice(if matches!(self, Self::PhaseBegin { .. }) {
                    b"{\"ev\":\"phase_begin\",\"kind\":"
                } else {
                    b"{\"ev\":\"phase_end\",\"kind\":"
                });
                push_name(out, kind.name());
                out.extend_from_slice(b",\"sweep\":");
                push_u64(out, *sweep);
                out.extend_from_slice(b",\"cycle\":");
                // Cycle counts are always finite; guard anyway so the line
                // stays valid JSON. `Display` is the shortest form that
                // parses back to the same value.
                if cycle.is_finite() {
                    // Writing to a `Vec` cannot fail.
                    let _ = write!(out, "{cycle}");
                } else {
                    out.push(b'0');
                }
            }
        }
        out.push(b'}');
    }

    /// Parses one JSON line produced by [`TraceEvent::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed JSON, unknown tags, or missing
    /// fields.
    pub fn from_jsonl(line: &str) -> Result<Self, ParseError> {
        #[derive(Default)]
        struct Slots<'a> {
            ev: Option<Lit<'a>>,
            seq: Option<Lit<'a>>,
            word: Option<Lit<'a>>,
            stream: Option<Lit<'a>>,
            set: Option<Lit<'a>>,
            miss: Option<Lit<'a>>,
            evicted: Option<Lit<'a>>,
            bank: Option<Lit<'a>>,
            addr: Option<Lit<'a>>,
            requested: Option<Lit<'a>>,
            wait: Option<Lit<'a>>,
            state: Option<Lit<'a>>,
            kind: Option<Lit<'a>>,
            sweep: Option<Lit<'a>>,
            cycle: Option<Lit<'a>>,
        }
        let mut f = Slots::default();
        scan_object(line, |key, value| {
            let slot = match key {
                "ev" => &mut f.ev,
                "seq" => &mut f.seq,
                "word" => &mut f.word,
                "stream" => &mut f.stream,
                "set" => &mut f.set,
                "miss" => &mut f.miss,
                "evicted" => &mut f.evicted,
                "bank" => &mut f.bank,
                "addr" => &mut f.addr,
                "requested" => &mut f.requested,
                "wait" => &mut f.wait,
                "state" => &mut f.state,
                "kind" => &mut f.kind,
                "sweep" => &mut f.sweep,
                "cycle" => &mut f.cycle,
                _ => return,
            };
            slot.get_or_insert(value);
        })?;
        let ev = need_str(&f.ev, "ev")?;
        match ev {
            "cache" => Ok(Self::CacheAccess {
                seq: need_u64(&f.seq, "seq")?,
                word: need_u64(&f.word, "word")?,
                stream: {
                    let v = need_u64(&f.stream, "stream")?;
                    u32::try_from(v).map_err(|_| ParseError::BadValue("stream", v.to_string()))?
                },
                set: need_u64(&f.set, "set")?,
                miss: match opt_str(&f.miss, "miss")? {
                    None => None,
                    Some(s) => Some(
                        MissClass::from_name(s)
                            .ok_or_else(|| ParseError::BadValue("miss", s.to_string()))?,
                    ),
                },
                evicted: opt_u64(&f.evicted, "evicted")?,
            }),
            "bank" => Ok(Self::BankAccess {
                bank: need_u64(&f.bank, "bank")?,
                addr: need_u64(&f.addr, "addr")?,
                requested: need_u64(&f.requested, "requested")?,
                wait: need_u64(&f.wait, "wait")?,
                state: {
                    let s = need_str(&f.state, "state")?;
                    BankEventKind::from_name(s)
                        .ok_or_else(|| ParseError::BadValue("state", s.to_string()))?
                },
            }),
            "phase_begin" | "phase_end" => {
                let kind = {
                    let s = need_str(&f.kind, "kind")?;
                    PhaseKind::from_name(s)
                        .ok_or_else(|| ParseError::BadValue("kind", s.to_string()))?
                };
                let sweep = need_u64(&f.sweep, "sweep")?;
                let cycle = need_f64(&f.cycle, "cycle")?;
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

/// Appends the decimal digits of `n`.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends a wire name as a JSON string (names need no escaping).
fn push_name(out: &mut Vec<u8>, name: &str) {
    out.push(b'"');
    out.extend_from_slice(name.as_bytes());
    out.push(b'"');
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

/// A scalar of a flat line, a slice of the line wherever it can be: the
/// only value shapes trace and span lines contain. Its `Debug` text is part of the
/// error contract ([`ParseError::BadValue`] carries it when a field holds
/// the wrong shape).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Lit<'a> {
    Null,
    /// A string: a slice of the line unless it holds an escape.
    Str(Cow<'a, str>),
    /// Raw number text, parsed per target type to keep `u64` exact.
    Num(&'a str),
}

fn need<'s, 'a>(slot: &'s Option<Lit<'a>>, key: &'static str) -> Result<&'s Lit<'a>, ParseError> {
    slot.as_ref().ok_or(ParseError::MissingField(key))
}

fn wrong_shape(key: &'static str, lit: &Lit<'_>) -> ParseError {
    ParseError::BadValue(key, format!("{lit:?}"))
}

fn parse_num<T: std::str::FromStr>(raw: &str, key: &'static str) -> Result<T, ParseError> {
    raw.parse()
        .map_err(|_| ParseError::BadValue(key, raw.to_string()))
}

pub(crate) fn need_u64(slot: &Option<Lit<'_>>, key: &'static str) -> Result<u64, ParseError> {
    match need(slot, key)? {
        Lit::Num(raw) => parse_num(raw, key),
        other => Err(wrong_shape(key, other)),
    }
}

pub(crate) fn opt_u64(
    slot: &Option<Lit<'_>>,
    key: &'static str,
) -> Result<Option<u64>, ParseError> {
    match need(slot, key)? {
        Lit::Null => Ok(None),
        Lit::Num(raw) => parse_num(raw, key).map(Some),
        other => Err(wrong_shape(key, other)),
    }
}

fn need_f64(slot: &Option<Lit<'_>>, key: &'static str) -> Result<f64, ParseError> {
    match need(slot, key)? {
        Lit::Num(raw) => parse_num(raw, key),
        other => Err(wrong_shape(key, other)),
    }
}

pub(crate) fn need_str<'s>(
    slot: &'s Option<Lit<'_>>,
    key: &'static str,
) -> Result<&'s str, ParseError> {
    match need(slot, key)? {
        Lit::Str(s) => Ok(s),
        other => Err(wrong_shape(key, other)),
    }
}

pub(crate) fn opt_str<'s>(
    slot: &'s Option<Lit<'_>>,
    key: &'static str,
) -> Result<Option<&'s str>, ParseError> {
    match need(slot, key)? {
        Lit::Null => Ok(None),
        Lit::Str(s) => Ok(Some(s)),
        other => Err(wrong_shape(key, other)),
    }
}

fn malformed(why: &str) -> ParseError {
    ParseError::Malformed(why.to_string())
}

/// Scans `{"key": scalar, ...}`, the only JSON shape trace and span lines
/// use, handing each key and value to `field` in line order. The whole
/// line is checked before the caller looks at any value, so a syntax
/// error wins over a missing or bad field.
///
/// Every byte is visited a bounded number of times, and nothing is
/// allocated unless a string holds an escape. Strings accept every RFC
/// 8259 escape, `\uXXXX` surrogate pairs included; a lone surrogate is
/// [`ParseError::Malformed`]. Numbers stay raw text for the caller to
/// parse.
pub(crate) fn scan_object<'a>(
    line: &'a str,
    mut field: impl FnMut(&str, Lit<'a>),
) -> Result<(), ParseError> {
    let mut s = Scanner {
        line,
        bytes: line.as_bytes(),
        pos: 0,
    };
    s.skip_ws();
    if !s.eat(b'{') {
        return Err(malformed("expected '{'"));
    }
    s.skip_ws();
    if !s.eat(b'}') {
        loop {
            s.skip_ws();
            let key = s.string()?;
            s.skip_ws();
            if !s.eat(b':') {
                return Err(malformed("expected ':'"));
            }
            s.skip_ws();
            let value = s.value()?;
            field(&key, value);
            s.skip_ws();
            if s.eat(b'}') {
                break;
            }
            if !s.eat(b',') {
                return Err(malformed("expected ',' or '}'"));
            }
        }
    }
    s.skip_ws();
    if s.pos != s.bytes.len() {
        return Err(malformed("trailing characters"));
    }
    Ok(())
}

/// A cursor over one line.
struct Scanner<'a> {
    line: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn value(&mut self) -> Result<Lit<'a>, ParseError> {
        match self.bytes.get(self.pos) {
            Some(b'"') => self.string().map(Lit::Str),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Lit::Null)
                } else {
                    Err(malformed("bad literal"))
                }
            }
            Some(&b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                Ok(Lit::Num(&self.line[start..self.pos]))
            }
            _ => Err(malformed("unsupported value (flat scalars only)")),
        }
    }

    /// Scans a string, borrowing it from the line when it holds no
    /// escape. Both delimiters are ASCII, so every slice taken here lies
    /// on character boundaries.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        if !self.eat(b'"') {
            return Err(malformed("expected string"));
        }
        let run = self.run()?;
        if self.bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::from(run);
        loop {
            // At a backslash.
            self.pos += 1;
            let unescaped = match self.bytes.get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(malformed("unsupported escape")),
            };
            self.pos += 1;
            out.push(unescaped);
            out.push_str(self.run()?);
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(Cow::Owned(out));
            }
        }
    }

    /// Advances to the next `"` or `\` and returns the text before it.
    fn run(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| malformed("unterminated string"))?;
        self.pos = start + len;
        Ok(&self.line[start..self.pos])
    }

    /// Decodes the `\uXXXX` whose `u` is at `pos`, joining a surrogate
    /// pair; leaves `pos` on the escape's last hex digit.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let lone = || malformed("lone surrogate");
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(lone());
            }
            code = 0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        // `from_u32` refuses exactly the surrogates left unpaired.
        char::from_u32(code).ok_or_else(lone)
    }

    /// Reads the four hex digits after the `u` at `pos`, leaving `pos` on
    /// the last of them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| malformed("unsupported escape"))?;
        let mut code = 0;
        for &d in digits {
            let v = char::from(d)
                .to_digit(16)
                .ok_or_else(|| malformed("unsupported escape"))?;
            code = code * 16 + v;
        }
        self.pos += 4;
        Ok(code)
    }
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
    fn every_json_escape_decodes_and_a_lone_surrogate_is_malformed() {
        // `ev` echoes its decoded value back in the error.
        let ev = |text: &str| TraceEvent::from_jsonl(&format!("{{\"ev\":\"{text}\"}}"));
        assert_eq!(
            ev(r#"\/\b\f\n\r\t\"\\\u0041\u00e9\u0000\ud83d\ude00"#),
            Err(ParseError::BadValue(
                "ev",
                "/\u{8}\u{c}\n\r\t\"\\Aé\u{0}\u{1f600}".into()
            ))
        );
        for lone in [
            r"\ud83d",
            r"\ud83dx",
            r"\ude00",
            r"\ud83d\u0041",
            r"\ud83d\",
        ] {
            assert_eq!(
                ev(lone),
                Err(ParseError::Malformed("lone surrogate".into())),
                "{lone}"
            );
        }
        for bad in [r"\u12g4", r"\u+123", r"\u12", r"\x"] {
            assert_eq!(
                ev(bad),
                Err(ParseError::Malformed("unsupported escape".into())),
                "{bad}"
            );
        }
        // Keys decode too.
        assert_eq!(
            TraceEvent::from_jsonl(r#"{"\u0065v":"cache"}"#),
            Err(ParseError::MissingField("seq"))
        );
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
