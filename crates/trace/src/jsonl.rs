//! Newline-delimited JSON export — the canonical log format.
//!
//! One record per line, fields in a fixed order, node ids as 32-digit
//! lower-case hex, causes as `"<subject-hex>#<seq>"` (`"-"` for none).
//! Fixed field order matters: the determinism tests compare logs as raw
//! bytes, so the encoder must be a pure function of the record.

use crate::json::{self, JVal};
use crate::record::{
    CauseId, DiagCode, EventClass, FaultClass, JoinPhase, MsgClass, TraceEventKind, TraceRecord,
};
use crate::ParseError;

/// A flat (string or number) field value, shared with the Chrome
/// exporter which mirrors these fields into `args`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Flat {
    /// Unsigned integer field.
    N(u64),
    /// String field.
    S(String),
}

fn hex_id(id: u128) -> String {
    format!("{id:032x}")
}

fn cause_str(c: CauseId) -> String {
    if c.is_none() {
        "-".to_string()
    } else {
        format!("{}#{}", hex_id(c.subject), c.seq)
    }
}

fn parse_id(s: &str) -> Result<u128, ParseError> {
    u128::from_str_radix(s, 16).map_err(|_| ParseError::new(format!("bad node id {s:?}")))
}

fn parse_cause(s: &str) -> Result<CauseId, ParseError> {
    if s == "-" {
        return Ok(CauseId::NONE);
    }
    let (subject, seq) = s
        .split_once('#')
        .ok_or_else(|| ParseError::new(format!("bad cause {s:?}")))?;
    Ok(CauseId::new(
        parse_id(subject)?,
        seq.parse::<u64>()
            .map_err(|_| ParseError::new(format!("bad cause seq {s:?}")))?,
    ))
}

/// The record as an ordered flat field list: the JSONL line layout, and
/// the Chrome event's `args`.
pub(crate) fn flat_fields(r: &TraceRecord) -> Vec<(&'static str, Flat)> {
    let mut f = vec![
        ("t", Flat::N(r.at_us)),
        ("node", Flat::S(hex_id(r.node))),
        ("seq", Flat::N(r.seq)),
        ("level", Flat::N(r.level as u64)),
        ("cause", Flat::S(cause_str(r.cause))),
        ("kind", Flat::S(r.kind.name().to_string())),
    ];
    match r.kind {
        TraceEventKind::JoinStep { phase } => {
            f.push(("phase", Flat::S(phase.name().to_string())));
        }
        TraceEventKind::McastRoot { class, step } => {
            f.push(("class", Flat::S(class.name().to_string())));
            f.push(("step", Flat::N(step as u64)));
        }
        TraceEventKind::McastHop { class, child, step } => {
            f.push(("class", Flat::S(class.name().to_string())));
            f.push(("child", Flat::S(hex_id(child))));
            f.push(("step", Flat::N(step as u64)));
        }
        TraceEventKind::McastRedirect {
            class,
            old,
            new,
            step,
        } => {
            f.push(("class", Flat::S(class.name().to_string())));
            f.push(("old", Flat::S(hex_id(old))));
            f.push(("new", Flat::S(hex_id(new))));
            f.push(("step", Flat::N(step as u64)));
        }
        TraceEventKind::ProbeSent { target } => {
            f.push(("target", Flat::S(hex_id(target))));
        }
        TraceEventKind::Obituary { subject } => {
            f.push(("subject", Flat::S(hex_id(subject))));
        }
        TraceEventKind::Refutation => {}
        TraceEventKind::LevelShift { from, to } => {
            f.push(("from", Flat::N(from as u64)));
            f.push(("to", Flat::N(to as u64)));
        }
        TraceEventKind::PeersExpired { count } => {
            f.push(("count", Flat::N(count as u64)));
        }
        TraceEventKind::MsgSend { to, class, bits } => {
            f.push(("to", Flat::S(hex_id(to))));
            f.push(("class", Flat::S(class.name().to_string())));
            f.push(("bits", Flat::N(bits)));
        }
        TraceEventKind::MsgRecv { from, class, bits } => {
            f.push(("from", Flat::S(hex_id(from))));
            f.push(("class", Flat::S(class.name().to_string())));
            f.push(("bits", Flat::N(bits)));
        }
        TraceEventKind::Diag { code } => {
            f.push(("code", Flat::S(code.name().to_string())));
        }
        TraceEventKind::NetFault { to, fault } => {
            f.push(("to", Flat::S(hex_id(to))));
            f.push(("fault", Flat::S(fault.name().to_string())));
        }
    }
    f
}

/// Renders one record as its JSONL line (no trailing newline).
pub fn to_line(r: &TraceRecord) -> String {
    let mut out = String::with_capacity(128);
    out.push('{');
    for (i, (k, v)) in flat_fields(r).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, k);
        out.push(':');
        match v {
            Flat::N(n) => out.push_str(&n.to_string()),
            Flat::S(s) => json::write_str(&mut out, s),
        }
    }
    out.push('}');
    out
}

/// Renders records as a complete JSONL document (one line each, trailing
/// newline included — so byte comparison of two logs is line comparison).
pub fn to_string(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&to_line(r));
        out.push('\n');
    }
    out
}

fn num_field(obj: &JVal, key: &str) -> Result<u64, ParseError> {
    obj.get(key)
        .and_then(JVal::as_num)
        .ok_or_else(|| ParseError::new(format!("missing numeric field {key:?}")))
}

fn text_field<'a>(obj: &'a JVal, key: &str) -> Result<&'a str, ParseError> {
    obj.get(key)
        .and_then(JVal::as_str)
        .ok_or_else(|| ParseError::new(format!("missing string field {key:?}")))
}

fn id_field(obj: &JVal, key: &str) -> Result<u128, ParseError> {
    parse_id(text_field(obj, key)?)
}

fn class_field(obj: &JVal) -> Result<EventClass, ParseError> {
    let s = text_field(obj, "class")?;
    EventClass::parse(s).ok_or_else(|| ParseError::new(format!("unknown event class {s:?}")))
}

fn msg_class_field(obj: &JVal) -> Result<MsgClass, ParseError> {
    let s = text_field(obj, "class")?;
    MsgClass::parse(s).ok_or_else(|| ParseError::new(format!("unknown message class {s:?}")))
}

/// Rebuilds a record from a parsed flat object (shared with the Chrome
/// importer, whose `args` mirror the JSONL fields).
pub(crate) fn record_from_obj(obj: &JVal) -> Result<TraceRecord, ParseError> {
    let kind_name = text_field(obj, "kind")?;
    let kind = match kind_name {
        "join_step" => {
            let s = text_field(obj, "phase")?;
            TraceEventKind::JoinStep {
                phase: JoinPhase::parse(s)
                    .ok_or_else(|| ParseError::new(format!("unknown join phase {s:?}")))?,
            }
        }
        "mcast_root" => TraceEventKind::McastRoot {
            class: class_field(obj)?,
            step: num_field(obj, "step")? as u8,
        },
        "mcast_hop" => TraceEventKind::McastHop {
            class: class_field(obj)?,
            child: id_field(obj, "child")?,
            step: num_field(obj, "step")? as u8,
        },
        "mcast_redirect" => TraceEventKind::McastRedirect {
            class: class_field(obj)?,
            old: id_field(obj, "old")?,
            new: id_field(obj, "new")?,
            step: num_field(obj, "step")? as u8,
        },
        "probe" => TraceEventKind::ProbeSent {
            target: id_field(obj, "target")?,
        },
        "obituary" => TraceEventKind::Obituary {
            subject: id_field(obj, "subject")?,
        },
        "refutation" => TraceEventKind::Refutation,
        "level_shift" => TraceEventKind::LevelShift {
            from: num_field(obj, "from")? as u8,
            to: num_field(obj, "to")? as u8,
        },
        "peers_expired" => TraceEventKind::PeersExpired {
            count: num_field(obj, "count")? as u32,
        },
        "msg_send" => TraceEventKind::MsgSend {
            to: id_field(obj, "to")?,
            class: msg_class_field(obj)?,
            bits: num_field(obj, "bits")?,
        },
        "msg_recv" => TraceEventKind::MsgRecv {
            from: id_field(obj, "from")?,
            class: msg_class_field(obj)?,
            bits: num_field(obj, "bits")?,
        },
        "diag" => {
            let s = text_field(obj, "code")?;
            TraceEventKind::Diag {
                code: DiagCode::parse(s)
                    .ok_or_else(|| ParseError::new(format!("unknown diag code {s:?}")))?,
            }
        }
        "net_fault" => {
            let s = text_field(obj, "fault")?;
            TraceEventKind::NetFault {
                to: id_field(obj, "to")?,
                fault: FaultClass::parse(s)
                    .ok_or_else(|| ParseError::new(format!("unknown fault class {s:?}")))?,
            }
        }
        other => return Err(ParseError::new(format!("unknown record kind {other:?}"))),
    };
    Ok(TraceRecord {
        at_us: num_field(obj, "t")?,
        node: id_field(obj, "node")?,
        seq: num_field(obj, "seq")?,
        level: num_field(obj, "level")? as u8,
        cause: parse_cause(text_field(obj, "cause")?)?,
        kind,
    })
}

/// Parses one JSONL line.
pub fn parse_line(line: &str) -> Result<TraceRecord, ParseError> {
    record_from_obj(&json::parse(line)?)
}

/// Parses a whole JSONL document (blank lines skipped).
pub fn parse_string(doc: &str) -> Result<Vec<TraceRecord>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            parse_line(line)
                .map_err(|e| ParseError::new(format!("line {}: {}", i + 1, e.message)))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::record::{CauseId, DiagCode, EventClass, FaultClass, JoinPhase, MsgClass};

    /// One record of every kind — exporters must round-trip all of them.
    pub(crate) fn one_of_each() -> Vec<TraceRecord> {
        let mk = |at_us, seq, kind| TraceRecord {
            at_us,
            node: 0xDEAD_BEEF_0000_0000_0000_0000_0000_0042,
            seq,
            level: 3,
            cause: CauseId::new(0x77, 9),
            kind,
        };
        vec![
            mk(
                1,
                0,
                TraceEventKind::JoinStep {
                    phase: JoinPhase::LevelQuery,
                },
            ),
            mk(
                2,
                1,
                TraceEventKind::McastRoot {
                    class: EventClass::Join,
                    step: 0,
                },
            ),
            mk(
                3,
                2,
                TraceEventKind::McastHop {
                    class: EventClass::Leave,
                    child: 0x1234,
                    step: 2,
                },
            ),
            mk(
                4,
                3,
                TraceEventKind::McastRedirect {
                    class: EventClass::Refresh,
                    old: 0x1,
                    new: 0x2,
                    step: 5,
                },
            ),
            mk(5, 4, TraceEventKind::ProbeSent { target: 0xABC }),
            mk(6, 5, TraceEventKind::Obituary { subject: 0xABC }),
            TraceRecord {
                cause: CauseId::NONE,
                ..mk(7, 6, TraceEventKind::Refutation)
            },
            mk(8, 7, TraceEventKind::LevelShift { from: 0, to: 2 }),
            mk(9, 8, TraceEventKind::PeersExpired { count: 4 }),
            mk(
                10,
                9,
                TraceEventKind::MsgSend {
                    to: u128::MAX,
                    class: MsgClass::DownloadReply,
                    bits: 65_000,
                },
            ),
            mk(
                11,
                10,
                TraceEventKind::MsgRecv {
                    from: 0,
                    class: MsgClass::LevelQueryReply,
                    bits: 96,
                },
            ),
            mk(
                12,
                11,
                TraceEventKind::Diag {
                    code: DiagCode::OversizedFrame,
                },
            ),
            mk(
                13,
                1 << 63, // harness records use the reserved high-bit seq space
                TraceEventKind::NetFault {
                    to: 0x5150,
                    fault: FaultClass::Dropped,
                },
            ),
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        let records = one_of_each();
        let doc = to_string(&records);
        let back = parse_string(&doc).unwrap();
        assert_eq!(back, records);
        // And the re-emission is byte-identical (pure encoder).
        assert_eq!(to_string(&back), doc);
    }

    #[test]
    fn line_format_is_stable() {
        let r = &one_of_each()[2];
        assert_eq!(
            to_line(r),
            "{\"t\":3,\"node\":\"deadbeef000000000000000000000042\",\"seq\":2,\
             \"level\":3,\"cause\":\"00000000000000000000000000000077#9\",\
             \"kind\":\"mcast_hop\",\"class\":\"leave\",\
             \"child\":\"00000000000000000000000000001234\",\"step\":2}"
        );
    }

    #[test]
    fn parse_rejects_bad_lines() {
        assert!(parse_line("{}").is_err());
        assert!(parse_line("{\"t\":1}").is_err());
        let mut good = to_line(&one_of_each()[0]);
        good.push('x');
        assert!(parse_line(&good).is_err());
    }
}
