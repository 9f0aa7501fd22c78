//! Fuzzing the NDJSON request parser: arbitrary bytes, and valid request
//! lines cut short or with bytes overwritten, must each come back as a
//! request or a typed error, never a panic or a hang; over a socket, each
//! such line gets exactly one response carrying a DESIGN §7c code, and the
//! daemon keeps serving.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcache_serve::protocol::{ErrorCode, Request, Response};
use vcache_serve::{Server, ServerConfig};

/// Valid request lines covering the JSON grammar the envelope meets:
/// nesting, escapes, the largest id, negative and fractional numbers,
/// literals.
const VALID: [&str; 5] = [
    r#"{"id":1,"op":"ping"}"#,
    r#"{"id":2,"op":"status","params":{}}"#,
    r#"{"id":3,"op":"analyze_nest","params":{"nest":{"name":"n","refs":[{"stream":0,"terms":[{"coeff":3,"trip":17}]}]},"geometry":{"kind":"prime","exponent":13,"line_words":8}},"deadline_ms":250}"#,
    r#"{"id":18446744073709551615,"op":"check","params":{"layers":["nests"],"root":"café \"q\" \\ /"}}"#,
    r#"{"id":5,"op":"prescribe","params":{"x":-1.5e-3,"y":[true,false,null,[[]],{}]}}"#,
];

/// `line` cut to `cut` bytes (when shorter), then each `(at, byte)`
/// overwriting the byte at `at` modulo the length.
fn damage(line: &str, cut: usize, flips: &[(usize, u8)]) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    bytes.truncate(cut);
    if !bytes.is_empty() {
        let len = bytes.len();
        for &(at, byte) in flips {
            bytes[at % len] = byte;
        }
    }
    bytes
}

/// What the daemon does with raw line bytes before parsing them.
fn wire_text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).trim().to_string()
}

/// Parses like the daemon and checks the outcome is a request that
/// re-serializes to itself, or a non-empty error message.
fn parses_or_fails_typed(bytes: &[u8]) -> Result<(), String> {
    match Request::from_json(&wire_text(bytes)) {
        Ok(request) => {
            let again = Request::from_json(&request.to_json())?;
            if again == request {
                Ok(())
            } else {
                Err(format!("{request:?} re-parsed as {again:?}"))
            }
        }
        Err(message) if message.is_empty() => Err("empty error message".into()),
        Err(_) => Ok(()),
    }
}

#[test]
fn the_corpus_is_valid() {
    for line in VALID {
        assert!(Request::from_json(line).is_ok(), "{line}");
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_a_request_or_a_typed_error(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        prop_assert_eq!(parses_or_fails_typed(&bytes), Ok(()));
    }

    #[test]
    fn damaged_request_lines_are_a_request_or_a_typed_error(
        which in 0usize..VALID.len(),
        cut in 0usize..400,
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
    ) {
        let bytes = damage(VALID[which], cut, &flips);
        prop_assert_eq!(parses_or_fails_typed(&bytes), Ok(()), "{:?}", wire_text(&bytes));
    }
}

#[test]
fn every_fuzzed_line_gets_one_typed_response_and_the_daemon_keeps_serving() {
    let server = Server::bind(ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let runner = thread::spawn(move || server.run().unwrap());

    let stream = TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut rng = StdRng::seed_from_u64(0xF022);
    let mut answered = 0;
    for i in 0..400 {
        // Alternate raw bytes with damaged control-plane lines, which
        // cannot turn into a request that does real work.
        let mut bytes: Vec<u8> = if i % 2 == 0 {
            (0..rng.random_range(0..120usize))
                .map(|_| rng.random_range(0..=u8::MAX))
                .collect()
        } else {
            let flips: Vec<(usize, u8)> = (0..rng.random_range(0..4usize))
                .map(|_| (rng.random_range(0..64usize), rng.random_range(0..=u8::MAX)))
                .collect();
            damage(VALID[i % 4 / 2], rng.random_range(0..40usize), &flips)
        };
        for b in &mut bytes {
            if *b == b'\n' {
                *b = b' ';
            }
        }
        if wire_text(&bytes).is_empty() {
            continue; // the daemon skips blank lines without answering
        }
        bytes.push(b'\n');
        writer.write_all(&bytes).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = Response::from_json(line.trim_end())
            .unwrap_or_else(|e| panic!("untyped response {line:?} to {bytes:?}: {e}"));
        if let Err(body) = &response.outcome {
            assert!(ErrorCode::ALL.contains(&body.code), "{body:?}");
        }
        answered += 1;
    }
    assert!(answered > 300, "only {answered} lines were sent");

    let mut ping = Request::new(99, "ping").to_json();
    ping.push('\n');
    writer.write_all(ping.as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = Response::from_json(line.trim_end()).unwrap();
    assert_eq!(response.id, 99);
    assert!(response.outcome.is_ok(), "{response:?}");

    handle.trigger();
    runner.join().unwrap();
}
