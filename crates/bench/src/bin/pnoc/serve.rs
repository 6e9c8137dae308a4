//! `pnoc serve`: long-running sweep service, NDJSON requests on stdin,
//! streaming NDJSON results on stdout.
//!
//! ```text
//! pnoc serve [--threads N]
//! ```
//!
//! One JSON object per input line:
//!
//! * `{"id": "r1", "sweep": { …SweepSpec… }, "ckpt": "path"?}` — run (or
//!   resume, with `ckpt`) a sweep. Emits `{"id":"r1","cell":{…}}` as each
//!   (scheme, pattern, rate) cell completes, then a final
//!   `{"id":"r1","done":true,…}` line.
//! * `{"set": {"ckpt_every": 16, "verbose": true}}` — retune the
//!   operational knobs. Requests are handled one at a time, so a `set`
//!   takes effect from the next request on; the reply's `epoch` counts the
//!   `set`s applied so far. Every key must be a known knob of the right
//!   type, or the whole `set` is rejected with an error line. Only
//!   operational knobs are settable — anything affecting results is pinned
//!   inside the sweep's spec.
//! * `{"shutdown": true}` — drain and exit (EOF does the same).
//!
//! Malformed lines produce an `{"error": …}` line; the service keeps going.
//! An error in a sweep request (its spec, its `ckpt`, or the sweep itself)
//! is reported as `{"id":"r1","error": …}`, so every line a sweep request
//! produces carries its `id`.

use std::error::Error;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;

use pnoc_fleet::{run_sweep, Fleet, SweepOptions, SweepSpec};
use serde_json::Value;

use crate::args::{unexpected, Args};

pub const USAGE: &str = "usage: pnoc serve [--threads N] (NDJSON requests on stdin)";

/// `serve` takes no arguments but `--threads`.
pub fn parse(args: &mut Args) -> Result<(), String> {
    args.next()?.map_or(Ok(()), |arg| Err(unexpected(&arg)))
}

/// Operational knobs a `set` request retunes (never result-affecting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Knobs {
    /// Checkpoint cadence for sweeps that request a journal.
    ckpt_every: u64,
    /// Echo per-cell progress to stderr as well.
    verbose: bool,
}

impl Default for Knobs {
    fn default() -> Self {
        Self {
            ckpt_every: 16,
            verbose: false,
        }
    }
}

/// Write one NDJSON line and flush (stdout is block-buffered on pipes).
fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// An `{"error": …}` line; a sweep request's names its `id` (JSON) first.
fn error_line(id_json: Option<&str>, context: &str, detail: &str) -> String {
    let msg = serde_json::to_string(&format!("{context}: {detail}")).expect("string serializes");
    match id_json {
        Some(id) => format!("{{\"id\":{id},\"error\":{msg}}}"),
        None => format!("{{\"error\":{msg}}}"),
    }
}

fn emit_error(context: &str, detail: &str) {
    emit(&error_line(None, context, detail));
}

/// Look up a key in a JSON object `Value`; `None` for non-objects.
fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn run(_: ()) -> Result<(), Box<dyn Error>> {
    let fleet = Fleet::with_default_threads();
    let mut knobs = Knobs::default();
    // Number of `set` requests applied so far.
    let mut epoch = 0u64;
    eprintln!(
        "serve: ready on {} worker(s); one JSON request per line",
        fleet.threads()
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                emit_error("stdin", &e.to_string());
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request: Value = match serde_json::from_str(&line) {
            Ok(v) => v,
            Err(e) => {
                emit_error("parse", &e.to_string());
                continue;
            }
        };

        if matches!(field(&request, "shutdown"), Some(Value::Bool(true))) {
            emit("{\"bye\":true}");
            return Ok(());
        }
        if let Some(settings) = field(&request, "set") {
            match merge_set(knobs, settings) {
                Ok(next) => {
                    knobs = next;
                    epoch += 1;
                    emit(&format!(
                        "{{\"ok\":true,\"epoch\":{epoch},\"ckpt_every\":{},\"verbose\":{}}}",
                        knobs.ckpt_every, knobs.verbose
                    ));
                }
                Err(e) => emit_error("set", &e),
            }
            continue;
        }
        if field(&request, "sweep").is_some() {
            emit(&sweep_reply(&fleet, knobs, &request));
            continue;
        }
        emit_error("request", "expected one of: sweep, set, shutdown");
    }
    Ok(())
}

/// Merge a `set` request body into `knobs`. The body must be an object
/// whose keys are all known knobs holding values of the right type;
/// otherwise nothing is applied and the error names the offending key.
fn merge_set(mut knobs: Knobs, settings: &Value) -> Result<Knobs, String> {
    let Value::Map(entries) = settings else {
        return Err("expected an object of knobs (ckpt_every, verbose)".into());
    };
    // Applied last to first, so a repeated key resolves to its first
    // occurrence, as `field` lookups do.
    for (key, value) in entries.iter().rev() {
        match (key.as_str(), value) {
            ("ckpt_every", Value::U64(n)) => knobs.ckpt_every = *n,
            ("ckpt_every", _) => return Err("ckpt_every must be a non-negative integer".into()),
            ("verbose", Value::Bool(b)) => knobs.verbose = *b,
            ("verbose", _) => return Err("verbose must be a boolean".into()),
            (other, _) => {
                return Err(format!(
                    "unknown knob {other:?} (expected ckpt_every, verbose)"
                ))
            }
        }
    }
    Ok(knobs)
}

/// Run one sweep request, streaming its cell lines, and return its last
/// line: `done`, or the error that stopped it. Both carry the request's
/// `id`.
fn sweep_reply(fleet: &Fleet, knobs: Knobs, request: &Value) -> String {
    let id = match field(request, "id") {
        Some(Value::Str(s)) => s.clone(),
        _ => "anonymous".to_string(),
    };
    let id_json = serde_json::to_string(&id).expect("string serializes");
    run_sweep_request(fleet, knobs, request, &id_json)
        .unwrap_or_else(|(context, detail)| error_line(Some(&id_json), context, &detail))
}

/// The body of [`sweep_reply`]; an error is `(context, detail)`.
fn run_sweep_request(
    fleet: &Fleet,
    knobs: Knobs,
    request: &Value,
    id_json: &str,
) -> Result<String, (&'static str, String)> {
    let sweep = field(request, "sweep").expect("caller checked").clone();
    let spec: SweepSpec =
        serde_json::from_value(sweep).map_err(|e| ("sweep spec", e.to_string()))?;
    spec.validate().map_err(|e| ("sweep spec", e))?;
    let checkpoint = match field(request, "ckpt") {
        Some(Value::Str(p)) => Some(PathBuf::from(p)),
        Some(_) => return Err(("ckpt", "must be a string path".into())),
        None => None,
    };

    // The result-affecting inputs are pinned in the spec; the knobs only
    // set the checkpoint cadence and the stderr echo.
    let verbose = knobs.verbose;
    let cell_id = id_json.to_string();
    let opts = SweepOptions {
        checkpoint,
        ckpt_every: knobs.ckpt_every,
        on_cell: Some(Arc::new(move |cell| {
            let body = serde_json::to_string(cell).expect("cell serializes");
            emit(&format!("{{\"id\":{cell_id},\"cell\":{body}}}"));
            if verbose {
                eprintln!(
                    "serve[{cell_id}]: cell {} {} @ {:.3} done",
                    cell.scheme, cell.pattern, cell.rate
                );
            }
        })),
        ..SweepOptions::default()
    };

    let outcome = run_sweep(fleet, &spec, opts).map_err(|e| ("sweep", e))?;
    Ok(format!(
        "{{\"id\":{id_json},\"done\":true,\"complete\":{},\"total_jobs\":{},\"resumed\":{},\"executed\":{}}}",
        outcome.report.complete,
        outcome.report.total_jobs,
        outcome.resumed_jobs,
        outcome.executed_jobs
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(body: &str) -> Result<Knobs, String> {
        let request: Value = serde_json::from_str(body).expect("test JSON parses");
        merge_set(Knobs::default(), field(&request, "set").expect("set key"))
    }

    #[test]
    fn valid_set_merges_known_knobs() {
        let knobs = set(r#"{"set":{"ckpt_every":4}}"#).expect("valid");
        assert_eq!(
            knobs,
            Knobs {
                ckpt_every: 4,
                verbose: false
            }
        );
        let knobs = set(r#"{"set":{"verbose":true,"ckpt_every":0}}"#).expect("valid");
        assert_eq!(
            knobs,
            Knobs {
                ckpt_every: 0,
                verbose: true
            }
        );
        assert_eq!(set(r#"{"set":{}}"#), Ok(Knobs::default()));
        // A repeated key resolves to its first occurrence.
        assert_eq!(
            set(r#"{"set":{"ckpt_every":4,"ckpt_every":8}}"#).map(|k| k.ckpt_every),
            Ok(4)
        );
    }

    #[test]
    fn unknown_knob_is_rejected() {
        let err = set(r#"{"set":{"ckpt_evry":4}}"#).expect_err("typo'd key");
        assert!(err.contains("ckpt_evry"), "{err}");
        // A valid knob next to an unknown one is not applied either.
        assert!(set(r#"{"set":{"ckpt_every":4,"bogus":1}}"#).is_err());
    }

    #[test]
    fn wrongly_typed_knob_is_rejected() {
        for body in [
            r#"{"set":{"ckpt_every":-1}}"#,
            r#"{"set":{"ckpt_every":"4"}}"#,
            r#"{"set":{"ckpt_every":4.5}}"#,
            r#"{"set":{"verbose":1}}"#,
            r#"{"set":{"verbose":"true"}}"#,
        ] {
            assert!(set(body).is_err(), "{body} must be rejected");
        }
    }

    #[test]
    fn non_object_body_is_rejected() {
        for body in [r#"{"set":5}"#, r#"{"set":[1]}"#, r#"{"set":null}"#] {
            assert!(set(body).is_err(), "{body} must be rejected");
        }
    }

    #[test]
    fn every_sweep_error_line_carries_the_request_id() {
        let fleet = Fleet::new(1);
        let sweep = |extra: &str| {
            format!(
                r#"{{"id":"r7","sweep":{{"base":"Small","schemes":["TokenSlot"],"patterns":[{extra}],"rates":[0.05],"replicas":1,"master_seed":7,"warmup":50,"measure":200,"drain":50}}"#
            )
        };
        let dir = serde_json::to_string(&std::env::temp_dir().display().to_string()).unwrap();
        let requests = [
            // Not a SweepSpec.
            r#"{"id":"r7","sweep":{"base":"Huge"}}"#.to_string(),
            // A spec that fails validation.
            sweep(r#"{"Hotspot":{"target":999,"fraction":0.5}}"#) + "}",
            // A ckpt that is not a path.
            sweep(r#""UniformRandom""#) + r#","ckpt":5}"#,
            // A journal that cannot be opened (a directory), so run_sweep fails.
            sweep(r#""UniformRandom""#) + &format!(r#","ckpt":{dir}}}"#),
        ];
        for body in requests {
            let request: Value = serde_json::from_str(&body).expect("test JSON parses");
            let line = sweep_reply(&fleet, Knobs::default(), &request);
            let reply: Value = serde_json::from_str(&line).expect("reply is JSON");
            assert!(field(&reply, "error").is_some(), "{body} -> {line}");
            assert_eq!(
                field(&reply, "id"),
                Some(&Value::Str("r7".into())),
                "{body} -> {line}"
            );
        }
    }
}
