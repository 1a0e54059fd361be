//! The server's newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, flat objects only — the
//! same discipline as the trace JSONL codec, and for the same reason:
//! hand-rolled, dependency-free, and fuzzable. Requests:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"sssp","source":5}
//! {"op":"bfs","source":0,"combiner":"mutex","bypass":false}
//! {"op":"components","schedule":"edge","deadline_ms":250}
//! {"op":"pagerank","rounds":10,"damping":0.85,"values":true}
//! ```
//!
//! Optional fields everywhere: `"combiner"` (`"mutex"` / `"spinlock"` /
//! `"broadcast"`), `"bypass"` (bool), `"schedule"` (`"vertex"` /
//! `"edge"` / `"adaptive"`), `"deadline_ms"` (number), `"values"`
//! (bool: include per-vertex results in the response), `"lanes"`
//! (integer 1..=[`MAX_LANES`]: submit the request that many times as one
//! batch and answer with lane 0 — a quick way to exercise K-lane
//! batching over the wire). Defaults come from [`Request::new`].
//!
//! Responses are `{"ok":true,...}` or `{"ok":false,"error":"<kind>",
//! "detail":"..."}` with kind one of `protocol`, `queue_full`,
//! `shutting_down`, `invalid`, `deadline`, `reaped`, `panicked`.
//! Successful runs report `id`, `supersteps`, `messages`, and — when
//! values were requested — `values` (`[[id,value],...]`) for integer
//! programs or `values_bits` (IEEE-754 bit patterns as integers) for
//! PageRank, so results survive the wire bit-for-bit.
//!
//! Robustness contract (exercised by `tests/server_protocol.rs`):
//! [`handle_line`] never panics, returns a typed `protocol` error for
//! any malformed/truncated/oversized line, and touches no server state
//! unless the line parsed — a garbage line can never leak a queue slot.

use std::time::Duration;

use ipregel::json::{parse_flat_object, ToJson, Value};
use ipregel::{CombinerKind, Schedule, MAX_LANES};

use crate::{
    Algorithm, Rejected, Request, RequestError, RequestOutput, ResultValues, ServerHandle,
};

/// Hard cap on one protocol line. Longer lines are refused with a
/// typed `protocol` error before parsing — a bound on per-connection
/// memory, same spirit as the bounded admission queue.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Serve one protocol line against `server`: parse, admit, wait,
/// render. Infallible by construction — every failure mode renders as
/// an `{"ok":false,...}` response line.
pub fn handle_line(server: &ServerHandle, line: &str) -> String {
    if line.len() > MAX_LINE_BYTES {
        return render_protocol_error(&format!(
            "line of {} bytes exceeds the {MAX_LINE_BYTES}-byte cap",
            line.len()
        ));
    }
    let parsed = match parse_line(line) {
        Ok(p) => p,
        Err(detail) => return render_protocol_error(&detail),
    };
    match parsed {
        ParsedLine::Ping => "{\"ok\":true,\"pong\":true}".to_string(),
        ParsedLine::Run { request, want_values, lanes } => {
            // `lanes: K` (1 unless asked for) submits K copies of the
            // request as one batch and answers with lane 0 — but every
            // lane must be drained (waited on) so none of the peers
            // leaks a registry slot.
            let requests = vec![request; lanes];
            let mut tickets = Vec::with_capacity(lanes);
            for outcome in server.submit_batch(requests) {
                match outcome {
                    Ok(ticket) => tickets.push(ticket),
                    Err(rejected) => {
                        // Drain the peers already admitted before
                        // reporting the rejection.
                        for t in tickets {
                            let _ = t.wait();
                        }
                        return render_rejected(&rejected);
                    }
                }
            }
            let mut results = Vec::with_capacity(lanes);
            for ticket in tickets {
                let id = ticket.id();
                results.push((id, ticket.wait()));
            }
            for (id, result) in &results {
                if let Err(failed) = result {
                    return render_failed(*id, failed);
                }
            }
            let (lane0_id, Ok(output)) = &results[0] else { unreachable!() };
            render_ok(*lane0_id, output, want_values)
        }
    }
}

/// A parsed protocol line.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedLine {
    /// Liveness probe; answered without touching the queue.
    Ping,
    /// A run request plus whether the response should carry values.
    Run {
        /// The admission-ready request.
        request: Request,
        /// `"values":true` — echo per-vertex results.
        want_values: bool,
        /// `"lanes":K` — submit K copies as one batch (default 1).
        lanes: usize,
    },
}

/// Parse one request line. `Err` carries the human-readable detail for
/// the `protocol` error response.
pub fn parse_line(line: &str) -> Result<ParsedLine, String> {
    let fields = parse_flat_object(line)?;
    let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    for (k, _) in &fields {
        const KNOWN: &[&str] = &[
            "op", "source", "rounds", "damping", "combiner", "bypass", "schedule",
            "deadline_ms", "values", "lanes",
        ];
        if !KNOWN.contains(&k.as_str()) {
            return Err(format!("unknown field {k:?}"));
        }
    }
    let op = match field("op") {
        Some(Value::Str(s)) => s.as_str(),
        Some(_) => return Err("field \"op\" must be a string".to_string()),
        None => return Err("missing field \"op\"".to_string()),
    };
    if op == "ping" {
        return Ok(ParsedLine::Ping);
    }
    let source = || -> Result<u32, String> {
        match field("source") {
            Some(v) => as_u64(v, "source").and_then(|n| {
                u32::try_from(n).map_err(|_| format!("\"source\" {n} exceeds the vertex-id range"))
            }),
            None => Err(format!("op {op:?} requires a \"source\" field")),
        }
    };
    let algorithm = match op {
        "sssp" => Algorithm::Sssp { source: source()? },
        "bfs" => Algorithm::Bfs { source: source()? },
        "components" => Algorithm::Components,
        "pagerank" => {
            let rounds = match field("rounds") {
                Some(v) => usize::try_from(as_u64(v, "rounds")?)
                    .map_err(|_| "\"rounds\" out of range".to_string())?,
                None => 20,
            };
            let damping = match field("damping") {
                Some(v) => as_f64(v, "damping")?,
                None => 0.85,
            };
            Algorithm::PageRank { rounds, damping }
        }
        other => return Err(format!("unknown op {other:?}")),
    };
    let mut request = Request::new(algorithm);
    if let Some(v) = field("combiner") {
        let Value::Str(name) = v else {
            return Err("field \"combiner\" must be a string".to_string());
        };
        request.combiner = match name.as_str() {
            "mutex" => CombinerKind::Mutex,
            "spinlock" => CombinerKind::Spinlock,
            "broadcast" => CombinerKind::Broadcast,
            other => return Err(format!("unknown combiner {other:?}")),
        };
    }
    if let Some(v) = field("bypass") {
        let Value::Bool(b) = v else {
            return Err("field \"bypass\" must be a boolean".to_string());
        };
        request.bypass = *b;
    }
    if let Some(v) = field("schedule") {
        let Value::Str(name) = v else {
            return Err("field \"schedule\" must be a string".to_string());
        };
        request.schedule =
            name.parse::<Schedule>().map_err(|_| format!("unknown schedule {name:?}"))?;
    }
    if let Some(v) = field("deadline_ms") {
        let ms = as_f64(v, "deadline_ms")?;
        if !(ms.is_finite() && ms >= 0.0) {
            return Err(format!("\"deadline_ms\" must be a finite non-negative number, got {ms}"));
        }
        // try_from: finite-and-non-negative is not enough — a value
        // past Duration's range (ms > ~1.8e22) would panic the infal-
        // lible constructor, and handle_line must never panic.
        request.deadline = Some(
            Duration::try_from_secs_f64(ms / 1000.0)
                .map_err(|_| format!("\"deadline_ms\" is out of range: {ms}"))?,
        );
    }
    let want_values = match field("values") {
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("field \"values\" must be a boolean".to_string()),
        None => false,
    };
    let lanes = match field("lanes") {
        Some(v) => {
            let n = as_u64(v, "lanes")?;
            if !(1..=MAX_LANES as u64).contains(&n) {
                return Err(format!("\"lanes\" must be between 1 and {MAX_LANES}, got {n}"));
            }
            usize::try_from(n).expect("lanes fits usize: bounded by MAX_LANES")
        }
        None => 1,
    };
    Ok(ParsedLine::Run { request, want_values, lanes })
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

fn render_ok(id: u64, output: &RequestOutput, want_values: bool) -> String {
    let mut out = String::from("{\"ok\":true,\"id\":");
    id.write_json(&mut out);
    out.push_str(",\"supersteps\":");
    output.supersteps.write_json(&mut out);
    out.push_str(",\"messages\":");
    output.messages.write_json(&mut out);
    if want_values {
        match &output.values {
            ResultValues::U32(pairs) => {
                out.push_str(",\"values\":");
                write_pairs(&mut out, pairs.iter().map(|&(id, v)| (id, u64::from(v))));
            }
            ResultValues::F64Bits(pairs) => {
                out.push_str(",\"values_bits\":");
                write_pairs(&mut out, pairs.iter().copied());
            }
        }
    }
    out.push('}');
    out
}

fn write_pairs(out: &mut String, pairs: impl Iterator<Item = (u32, u64)>) {
    out.push('[');
    for (i, (id, v)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        id.write_json(out);
        out.push(',');
        v.write_json(out);
        out.push(']');
    }
    out.push(']');
}

fn render_error(id: Option<u64>, kind: &str, detail: &str) -> String {
    let mut out = String::from("{\"ok\":false");
    if let Some(id) = id {
        out.push_str(",\"id\":");
        id.write_json(&mut out);
    }
    out.push_str(",\"error\":");
    kind.write_json(&mut out);
    out.push_str(",\"detail\":");
    detail.write_json(&mut out);
    out.push('}');
    out
}

/// A typed `protocol` error line (malformed input; no server state was
/// touched).
pub fn render_protocol_error(detail: &str) -> String {
    render_error(None, "protocol", detail)
}

fn render_rejected(rejected: &Rejected) -> String {
    let kind = match rejected {
        Rejected::QueueFull { .. } => "queue_full",
        Rejected::ShuttingDown => "shutting_down",
        Rejected::Invalid(_) => "invalid",
    };
    render_error(None, kind, &rejected.to_string())
}

fn render_failed(id: u64, failed: &RequestError) -> String {
    let kind = match failed {
        RequestError::DeadlineExceeded { .. } => "deadline",
        RequestError::Reaped { .. } => "reaped",
        RequestError::Panicked { .. } => "panicked",
    };
    render_error(Some(id), kind, &failed.to_string())
}

// ---------------------------------------------------------------------------
// Typed field access over `ipregel::json`'s flat-object reader
// ---------------------------------------------------------------------------

fn as_u64(v: &Value, name: &str) -> Result<u64, String> {
    let n = match v {
        Value::Int(n) => return Ok(*n),
        Value::Num(n) => *n,
        _ => return Err(format!("field {name:?} must be a number")),
    };
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    if n.fract() == 0.0 && n >= 0.0 && n <= u64::MAX as f64 {
        Ok(n as u64)
    } else {
        Err(format!("field {name:?} must be a non-negative integer, got {n}"))
    }
}

fn as_f64(v: &Value, name: &str) -> Result<f64, String> {
    match v {
        #[allow(clippy::cast_precision_loss)] // a float field given as an integer literal
        Value::Int(n) => Ok(*n as f64),
        Value::Num(n) => Ok(*n),
        _ => Err(format!("field {name:?} must be a number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let parsed = parse_line(
            r#"{"op":"sssp","source":5,"combiner":"mutex","bypass":false,"schedule":"edge","deadline_ms":250,"values":true}"#,
        )
        .unwrap();
        let ParsedLine::Run { request, want_values, lanes } = parsed else { panic!("not a run") };
        assert!(want_values);
        assert_eq!(lanes, 1);
        assert_eq!(request.algorithm, Algorithm::Sssp { source: 5 });
        assert_eq!(request.combiner, CombinerKind::Mutex);
        assert!(!request.bypass);
        assert_eq!(request.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn defaults_fill_in() {
        let ParsedLine::Run { request, want_values, lanes } =
            parse_line(r#"{"op":"pagerank"}"#).unwrap()
        else {
            panic!("not a run")
        };
        assert!(!want_values);
        assert_eq!(lanes, 1);
        assert_eq!(request.algorithm, Algorithm::PageRank { rounds: 20, damping: 0.85 });
        assert_eq!(request.combiner, CombinerKind::Broadcast);
        assert!(!request.bypass);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for bad in [
            "",
            "{",
            "}",
            "nonsense",
            r#"{"op":}"#,
            r#"{"op":"sssp"}"#,                       // missing source
            r#"{"op":"sssp","source":"zero"}"#,       // wrong type
            r#"{"op":"sssp","source":-1}"#,           // negative
            r#"{"op":"sssp","source":1.5}"#,          // fractional
            r#"{"op":"sssp","source":5,"op":"bfs"}"#, // duplicate key
            r#"{"op":"sssp","source":5} extra"#,      // trailing garbage
            r#"{"op":"sssp","source":5,"surprise":1}"#, // unknown field
            r#"{"op":"warp"}"#,                       // unknown op
            r#"{"op":"sssp","source":99999999999}"#,  // beyond u32
            r#"{"op":"components","deadline_ms":-5}"#, // negative deadline
            "{\"op\":\"sssp\",\"source\":5",          // truncated
            "{\"op\":\"ss",                           // truncated in string
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn overflowing_deadline_is_a_typed_error_not_a_panic() {
        // Finite and non-negative but past Duration's range: the
        // infallible from_secs_f64 would panic here.
        for bad in [
            r#"{"op":"components","deadline_ms":1e300}"#,
            r#"{"op":"components","deadline_ms":1.9e22}"#,
            r#"{"op":"components","deadline_ms":179769313486231570000000000000000000000}"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad:?}");
        }
        // Large-but-representable budgets still parse.
        let ParsedLine::Run { request, .. } =
            parse_line(r#"{"op":"components","deadline_ms":1e15}"#).unwrap()
        else {
            panic!("not a run")
        };
        assert_eq!(request.deadline, Some(Duration::from_secs(1_000_000_000_000)));
    }

    #[test]
    fn lanes_field_parses_and_is_bounded() {
        let ParsedLine::Run { lanes, .. } =
            parse_line(r#"{"op":"sssp","source":0,"lanes":4}"#).unwrap()
        else {
            panic!("not a run")
        };
        assert_eq!(lanes, 4);
        for bad in [
            r#"{"op":"sssp","source":0,"lanes":0}"#,      // below range
            r#"{"op":"sssp","source":0,"lanes":9}"#,      // above MAX_LANES
            r#"{"op":"sssp","source":0,"lanes":-1}"#,     // negative
            r#"{"op":"sssp","source":0,"lanes":2.5}"#,    // fractional
            r#"{"op":"sssp","source":0,"lanes":"two"}"#,  // wrong type
            r#"{"op":"sssp","source":0,"lanes":1e30}"#,   // absurd
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn error_rendering_is_valid_json() {
        let line = render_protocol_error("quote \" backslash \\ newline \n");
        assert_eq!(
            line,
            r#"{"ok":false,"error":"protocol","detail":"quote \" backslash \\ newline \n"}"#
        );
    }
}
