//! Generative checks of the workspace JSON codec (`ssp_probe::json`).
//!
//! * Random value trees survive `to_string_compact` → `parse` unchanged,
//!   with every `f64` bit for bit.
//! * Random truncations and byte mutations of the three kinds of line the
//!   codec reads — serve requests, bench history lines and probe trace
//!   lines — never panic: each parse returns `Ok` or a typed `Err`.

use ssp_prng::{check, Rng, StdRng};
use ssp_probe::json::{self, Json};

fn draw_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..1000u64) as f64,
        1 => -0.0,
        2 => rng.gen_range(-1e6..1e6),
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn draw_string(rng: &mut StdRng) -> String {
    const POOL: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
        '€', '😀', '\u{FFFD}',
    ];
    check::vec_of(rng, 0..12, |r| POOL[r.gen_range(0..POOL.len())])
        .into_iter()
        .collect()
}

fn draw_json(rng: &mut StdRng, depth: u32) -> Json {
    let leaf_only = depth >= 4;
    match rng.gen_range(0..if leaf_only { 5u32 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(draw_f64(rng)),
        // Odd and past 2^53, so an f64 would round it: the only integers
        // the parser reads as UInt.
        3 => Json::UInt(rng.gen_range((1u64 << 53)..u64::MAX) | 1),
        4 => Json::Str(draw_string(rng)),
        5 => Json::Arr(check::vec_of(rng, 0..5, |r| draw_json(r, depth + 1))),
        _ => Json::Obj(check::vec_of(rng, 0..5, |r| {
            (draw_string(r), draw_json(r, depth + 1))
        })),
    }
}

/// Structural equality with `f64`s compared by bit pattern.
fn bit_equal(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bit_equal(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && bit_equal(x, y))
        }
        _ => a == b,
    }
}

#[test]
fn random_trees_round_trip_bit_exactly() {
    check::cases(400, 0x15_0AC0DE, |rng| {
        let value = draw_json(rng, 0);
        let text = value.to_string_compact();
        let back = json::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert!(bit_equal(&value, &back), "{value:?} -> {text} -> {back:?}");
    });
}

const SERVE_REQUEST: &str = r#"{"id":"q-7","algo":"rr","timeout_ms":250,"retries":2,"no_fallback":false,"instance":{"machines":2,"alpha":2.5,"jobs":[[0,1.5,0,4],[1,2.25,0.5,3.75]]}}"#;
const SERVE_TEXT_REQUEST: &str =
    r#"{"id":"é","algo":"bal","instance":"machines 2\nalpha 2.0\njob 0 1.0 0.0 2.0\n"}"#;
const HISTORY_LINE: &str = r#"{"type": "bench_run", "bench": "yds_kernel", "rev": "abc1234", "alpha": 2, "unit": "ms_median", "ts": 1754500000, "threads": 4, "host": "ab12cd34", "cells": [{"family": "agreeable", "n": 200, "fast_ms": 0.0324, "ref_ms": null, "speedup": 1.11, "peels": 40}]}"#;
const TRACE: &str = "{\"type\":\"meta\",\"version\":2,\"spans\":1,\"counters\":1,\"hists\":1}\n\
{\"type\":\"span\",\"id\":1,\"parent\":0,\"thread\":1,\"name\":\"solve \\\"x\\\"\",\"start_ns\":0,\"end_ns\":9007199254740993}\n\
{\"type\":\"counter\",\"name\":\"bal.flow_calls\",\"value\":18446744073709551615}\n\
{\"type\":\"hist\",\"name\":\"bal.bisect.probes\",\"count\":4,\"sum\":90,\"max\":31,\"buckets\":\"4:1;5:3\"}\n";

/// A random truncation or a handful of random byte edits of `text`,
/// brought back to a `&str` the way a lossy reader would.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if rng.gen_bool(0.3) {
        bytes.truncate(rng.gen_range(0..bytes.len() + 1));
    } else {
        for _ in 0..rng.gen_range(1..4usize) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0..bytes.len());
            const INTERESTING: &[u8] = b"{}[]\",:\\-+.eE0123456789nNtfu \n\x00\xff";
            match rng.gen_range(0..3u32) {
                0 => bytes[at] = INTERESTING[rng.gen_range(0..INTERESTING.len())],
                1 => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, INTERESTING[rng.gen_range(0..INTERESTING.len())]),
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_wire_history_and_trace_lines_never_panic() {
    // The unmutated inputs are valid.
    for line in [SERVE_REQUEST, SERVE_TEXT_REQUEST, HISTORY_LINE] {
        json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    let trace = ssp_probe::Trace::parse(TRACE).expect("trace parses");
    assert_eq!(trace.counter("bal.flow_calls"), u64::MAX);
    check::cases(600, 0xBAD_1DEA, |rng| {
        for line in [SERVE_REQUEST, SERVE_TEXT_REQUEST, HISTORY_LINE] {
            let mutated = mutate(rng, line);
            // Ok or a typed Err; the runner turns a panic into a failure.
            let _ = json::parse(&mutated);
        }
        let mutated = mutate(rng, TRACE);
        let _ = ssp_probe::Trace::parse(&mutated);
    });
}
