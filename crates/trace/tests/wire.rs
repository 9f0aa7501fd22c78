//! The trace wire contract, pinned: the exact bytes the writer emits for
//! every event shape, and the exact [`ParseError`] the reader returns for
//! each kind of malformed line. Both were captured from the previous
//! codec, so a rewrite of either side must reproduce them.

use vcache_trace::{BankEventKind, MissClass, ParseError, PhaseKind, TraceEvent};

/// One event of each shape, in the order of `golden/wire.jsonl`.
fn samples() -> Vec<TraceEvent> {
    let mut events = vec![TraceEvent::CacheAccess {
        seq: 0,
        word: 4096,
        stream: 0,
        set: 0,
        miss: None,
        evicted: None,
    }];
    for (i, class) in (0u64..).zip(MissClass::ALL) {
        events.push(TraceEvent::CacheAccess {
            seq: 17 + i,
            word: 123_456_789,
            stream: 1 + u32::try_from(i).unwrap(),
            set: 8190,
            miss: Some(class),
            evicted: (i % 2 == 1).then_some(40_960 + i),
        });
    }
    events.extend([
        TraceEvent::CacheAccess {
            seq: u64::MAX,
            word: u64::MAX,
            stream: u32::MAX,
            set: u64::MAX,
            miss: Some(MissClass::ConflictCross),
            evicted: Some(u64::MAX),
        },
        TraceEvent::BankAccess {
            bank: 0,
            addr: 0,
            requested: 0,
            wait: 0,
            state: BankEventKind::Free,
        },
        TraceEvent::BankAccess {
            bank: 31,
            addr: 1_048_576,
            requested: 1_000_003,
            wait: 15,
            state: BankEventKind::Busy,
        },
        TraceEvent::BankAccess {
            bank: u64::MAX,
            addr: u64::MAX,
            requested: u64::MAX,
            wait: u64::MAX,
            state: BankEventKind::Busy,
        },
    ]);
    for (kind, sweep, cycle) in [
        (PhaseKind::Program, 0, 0.0),
        (PhaseKind::Chime, 3, 1234.0),
        (PhaseKind::Chime, 4, 1234.5),
        (PhaseKind::Chime, 5, 1e-7),
        (PhaseKind::Program, u64::MAX, 1e300),
        (PhaseKind::Chime, 6, 0.1 + 0.2),
        (PhaseKind::Chime, 7, f64::NAN),
        (PhaseKind::Chime, 8, f64::INFINITY),
    ] {
        events.push(TraceEvent::PhaseBegin { kind, sweep, cycle });
        events.push(TraceEvent::PhaseEnd { kind, sweep, cycle });
    }
    events
}

#[test]
fn both_writers_emit_the_golden_bytes() {
    let golden: Vec<&str> = include_str!("golden/wire.jsonl").lines().collect();
    let events = samples();
    assert_eq!(events.len(), golden.len());
    let mut buf = b"kept".to_vec();
    for (event, line) in events.iter().zip(golden) {
        assert_eq!(event.to_jsonl(), line);
        buf.truncate(4);
        event.write_jsonl(&mut buf);
        assert_eq!(&buf[..4], b"kept", "write_jsonl appends");
        assert_eq!(std::str::from_utf8(&buf[4..]), Ok(line));
        // Every line reads back as its event; a non-finite cycle is
        // written as 0.
        let back = TraceEvent::from_jsonl(line).unwrap();
        match event {
            TraceEvent::PhaseBegin { cycle, .. } | TraceEvent::PhaseEnd { cycle, .. }
                if !cycle.is_finite() =>
            {
                assert!(line.ends_with(",\"cycle\":0}"), "{line}");
            }
            _ => assert_eq!(&back, event, "{line}"),
        }
    }
}

fn malformed(why: &str) -> Result<TraceEvent, ParseError> {
    Err(ParseError::Malformed(why.into()))
}

fn missing(field: &'static str) -> Result<TraceEvent, ParseError> {
    Err(ParseError::MissingField(field))
}

fn bad(field: &'static str, value: &str) -> Result<TraceEvent, ParseError> {
    Err(ParseError::BadValue(field, value.into()))
}

#[test]
fn malformed_lines_keep_their_exact_errors() {
    // A syntax error anywhere wins over a field error; fields are then
    // checked in a fixed order; a field of the wrong shape carries the
    // value's debug text.
    let table = [
        ("", malformed("expected '{'")),
        ("   ", malformed("expected '{'")),
        ("not json", malformed("expected '{'")),
        ("[1]", malformed("expected '{'")),
        ("{", malformed("expected string")),
        ("{ ,}", malformed("expected string")),
        ("{\"ev\":\"cache\",}", malformed("expected string")),
        ("{ev:\"cache\"}", malformed("expected string")),
        ("{\"ev", malformed("unterminated string")),
        ("{\"ev\":\"cache", malformed("unterminated string")),
        ("{\"ev\":\"ca\\xhe\"}", malformed("unsupported escape")),
        ("{\"ev\":\"ca\\", malformed("unsupported escape")),
        ("{\"ev\" \"cache\"}", malformed("expected ':'")),
        ("{\"ev\":nul}", malformed("bad literal")),
        ("{\"ev\":nope}", malformed("bad literal")),
        ("{\"ev\":[1]}", malformed("unsupported value (flat scalars only)")),
        ("{\"ev\":true}", malformed("unsupported value (flat scalars only)")),
        ("{\"ev\":}", malformed("unsupported value (flat scalars only)")),
        ("{\"ev\":{\"a\":1}}", malformed("unsupported value (flat scalars only)")),
        ("{\"ev\":\"cache\" \"seq\":1}", malformed("expected ',' or '}'")),
        ("{\"ev\":\"cache\"", malformed("expected ',' or '}'")),
        ("{\"ev\":\"cache\"} x", malformed("trailing characters")),
        ("{}{}", malformed("trailing characters")),
        ("{}", missing("ev")),
        ("{\"ev\":\"cache\"}", missing("seq")),
        ("{\"ev\":\"nope\"}", bad("ev", "nope")),
        ("{\"ev\":\"é\"}", bad("ev", "é")),
        ("{\"ev\":\"a\\\"b\\\\c\\nd\\te\"}", bad("ev", "a\"b\\c\nd\te")),
        ("{\"ev\":\"raw\ttab\"}", bad("ev", "raw\ttab")),
        ("{\"ev\":5}", bad("ev", "Num(\"5\")")),
        ("{\"ev\":null}", bad("ev", "Null")),
        ("{\"ev\":-}", bad("ev", "Num(\"-\")")),
        ("{\"ev\":\"cache\",\"seq\":1,\"word\":2,\"stream\":4294967296,\"set\":4,\"miss\":null,\"evicted\":null}", bad("stream", "4294967296")),
        ("{\"ev\":\"cache\",\"seq\":1,\"word\":2,\"stream\":\"3\",\"set\":4,\"miss\":null,\"evicted\":null}", bad("stream", "Str(\"3\")")),
        ("{\"ev\":\"cache\",\"seq\":\"1\",\"word\":2,\"stream\":3,\"set\":4,\"miss\":null,\"evicted\":null}", bad("seq", "Str(\"1\")")),
        ("{\"ev\":\"cache\",\"seq\":null,\"word\":2,\"stream\":3,\"set\":4,\"miss\":null,\"evicted\":null}", bad("seq", "Null")),
        ("{\"ev\":\"cache\",\"seq\":1.5,\"word\":2,\"stream\":3,\"set\":4,\"miss\":null,\"evicted\":null}", bad("seq", "1.5")),
        ("{\"ev\":\"cache\",\"seq\":-1,\"word\":2,\"stream\":3,\"set\":4,\"miss\":null,\"evicted\":null}", bad("seq", "-1")),
        ("{\"ev\":\"cache\",\"seq\":18446744073709551616,\"word\":2,\"stream\":3,\"set\":4,\"miss\":null,\"evicted\":null}", bad("seq", "18446744073709551616")),
        ("{\"ev\":\"cache\",\"seq\":1e3,\"word\":2,\"stream\":3,\"set\":4,\"miss\":null,\"evicted\":null}", bad("seq", "1e3")),
        ("{\"ev\":\"cache\",\"seq\":1,\"word\":2,\"stream\":3,\"set\":4,\"miss\":\"weird\",\"evicted\":null}", bad("miss", "weird")),
        ("{\"ev\":\"cache\",\"seq\":1,\"word\":2,\"stream\":3,\"set\":4,\"miss\":7,\"evicted\":null}", bad("miss", "Num(\"7\")")),
        ("{\"ev\":\"cache\",\"seq\":1,\"word\":2,\"stream\":3,\"set\":4,\"miss\":null,\"evicted\":\"x\"}", bad("evicted", "Str(\"x\")")),
        ("{\"ev\":\"cache\",\"seq\":1,\"word\":2,\"stream\":3,\"set\":4,\"miss\":null}", missing("evicted")),
        ("{\"ev\":\"bank\",\"bank\":1,\"addr\":2,\"requested\":3,\"wait\":0,\"state\":\"idle\"}", bad("state", "idle")),
        ("{\"ev\":\"bank\",\"bank\":1,\"addr\":2,\"requested\":3,\"wait\":0,\"state\":null}", bad("state", "Null")),
        ("{\"ev\":\"bank\",\"bank\":1,\"addr\":2,\"requested\":3,\"wait\":0}", missing("state")),
        ("{\"ev\":\"phase_begin\",\"kind\":\"loop\",\"sweep\":0,\"cycle\":1}", bad("kind", "loop")),
        ("{\"ev\":\"phase_end\",\"kind\":\"chime\",\"sweep\":0,\"cycle\":\"1\"}", bad("cycle", "Str(\"1\")")),
        ("{\"ev\":\"phase_end\",\"kind\":\"chime\",\"sweep\":0,\"cycle\":1e}", bad("cycle", "1e")),
        ("{\"ev\":\"phase_end\",\"kind\":\"chime\",\"sweep\":0,\"cycle\":null}", bad("cycle", "Null")),
        ("{\"ev\":\"phase_end\",\"kind\":\"chime\",\"sweep\":0}", missing("cycle")),
        ("{\"zz\":[],\"ev\":\"bank\"}", malformed("unsupported value (flat scalars only)")),
    ];
    for (line, expected) in table {
        assert_eq!(TraceEvent::from_jsonl(line), expected, "{line}");
    }
}

#[test]
fn the_first_occurrence_of_a_key_wins_and_unknown_keys_are_ignored() {
    let bank = TraceEvent::BankAccess {
        bank: 1,
        addr: 2,
        requested: 3,
        wait: 0,
        state: BankEventKind::Free,
    };
    for line in [
        r#"{"ev":"bank","ev":"cache","bank":1,"addr":2,"requested":3,"wait":0,"state":"free"}"#,
        r#"{"zz":1,"ev":"bank","bank":1,"addr":2,"requested":3,"wait":0,"state":"free","extra":"é"}"#,
        r#"{"bank":1,"addr":2,"requested":3,"wait":0,"state":"free","bank":9,"ev":"bank"}"#,
    ] {
        assert_eq!(TraceEvent::from_jsonl(line), Ok(bank.clone()), "{line}");
    }
}
