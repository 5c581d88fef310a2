//! Minimal JSON reading/writing for checkpoint files.
//!
//! The repo's dependency policy rules out serde, and the existing
//! hand-rolled emitters ([`crate::table::Table::to_json`], the harness
//! perf report) only *write*. Crash-safe matrix checkpoints need the
//! reverse direction too: a [`crate::run::RunStats`] must survive a
//! JSON round-trip *exactly* (`from_json(to_json(s)) == s`), down to
//! time-series stamp order, so that a `--resume`d matrix is bit-identical
//! to a fresh one. Everything serialised here is a `u64`, so the parser
//! keeps integers exact instead of routing them through `f64`.

use crate::conflict::ConflictStats;
use crate::fault::FaultStats;
use crate::histogram::{LineHistogram, OffsetHistogram};
use crate::run::RunStats;
use crate::series::TimeSeries;
use asf_mem::addr::LINE_SIZE;

/// A parsed JSON value. Objects preserve key order; integers that fit a
/// `u64` stay exact.
#[derive(Clone, PartialEq, Debug)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits `u64` (kept exact).
    Int(u64),
    /// Any other number (negative, fractional, exponent).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as key/value pairs in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object member, as a descriptive error when missing.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key).ok_or_else(|| format!("missing field {key:?}"))
    }

    /// The value as an exact `u64`.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            JsonValue::Int(n) => Ok(*n),
            other => Err(format!("expected integer, got {other:?}")),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Arr(v) => Ok(v),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// An array of integers as `Vec<u64>`.
    pub fn as_u64_vec(&self) -> Result<Vec<u64>, String> {
        self.as_arr()?.iter().map(JsonValue::as_u64).collect()
    }
}

/// Parse a JSON document (the subset emitted by this repo: no `\u` escapes
/// beyond what [`escape`] produces is required, but standard `\uXXXX` is
/// accepted for BMP code points).
pub fn parse(src: &str) -> Result<JsonValue, String> {
    let mut p = Parser { b: src.as_bytes(), i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                other => return Err(format!("expected , or }} got {other:?} at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => return Err(format!("expected , or ] got {other:?} at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.i += 4;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so byte
                    // boundaries are valid).
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && (self.b[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        let int_end = self.i;
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.i += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        if !float && start < int_end && self.b[start] != b'-' {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

/// Escape a string for embedding in a JSON document (with quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Append `v` to `out` as a JSON array.
fn write_u64_list(out: &mut String, v: &[u64]) {
    out.push('[');
    for (i, n) in v.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_u64(out, *n);
    }
    out.push(']');
}

/// Append `n` in decimal.
fn write_u64(out: &mut String, n: u64) {
    use std::fmt::Write;
    write!(out, "{n}").expect("writing to a String cannot fail");
}

impl RunStats {
    /// Serialise every field to JSON. Exact: see [`RunStats::from_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write_json(&mut out);
        out
    }

    /// Append [`RunStats::to_json`]'s document to `out`, writing every
    /// number and list in place (no intermediate strings).
    pub fn write_json(&self, out: &mut String) {
        let f = &self.faults;
        for (key, n) in [
            ("{\"tx_started\":", self.tx_started),
            (",\"tx_attempts\":", self.tx_attempts),
            (",\"tx_committed\":", self.tx_committed),
            (",\"tx_aborted\":", self.tx_aborted),
        ] {
            out.push_str(key);
            write_u64(out, n);
        }
        out.push_str(",\"aborts_by_cause\":");
        write_u64_list(out, &self.aborts_by_cause);
        for (key, n) in [
            (",\"fallback_commits\":", self.fallback_commits),
            (",\"isolation_violations\":", self.isolation_violations),
            (",\"dirty_refetches\":", self.dirty_refetches),
            (",\"war_speculations\":", self.war_speculations),
            (",\"sig_alias_conflicts\":", self.sig_alias_conflicts),
            (",\"probes\":", self.probes),
            (",\"probe_targets\":", self.probe_targets),
            (",\"l1_hits\":", self.l1_hits),
            (",\"l1_misses\":", self.l1_misses),
        ] {
            out.push_str(key);
            write_u64(out, n);
        }
        out.push_str(",\"conflicts\":{\"true_by_type\":");
        write_u64_list(out, &self.conflicts.true_by_type);
        out.push_str(",\"false_by_type\":");
        write_u64_list(out, &self.conflicts.false_by_type);
        out.push_str("},\"started_series\":");
        write_u64_list(out, self.started_series.stamps());
        out.push_str(",\"false_series\":");
        write_u64_list(out, self.false_series.stamps());
        out.push_str(",\"false_by_line\":[");
        for (i, &(line, count)) in self.false_by_line.sorted().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_u64_list(out, &[line, count]);
        }
        out.push_str("],\"access_offsets\":");
        write_u64_list(out, self.access_offsets.bytes());
        for (key, n) in [
            (",\"cycles\":", self.cycles),
            (",\"backoff_cycles\":", self.backoff_cycles),
            (",\"max_retries\":", u64::from(self.max_retries)),
        ] {
            out.push_str(key);
            write_u64(out, n);
        }
        out.push_str(",\"retry_histogram\":");
        write_u64_list(out, &self.retry_histogram);
        for (key, n) in [
            (",\"faults\":{\"spurious_aborts\":", f.spurious_aborts),
            (",\"spurious_op_aborts\":", f.spurious_op_aborts),
            (",\"false_probe_conflicts\":", f.false_probe_conflicts),
            (",\"capacity_spikes\":", f.capacity_spikes),
            (",\"capacity_spike_aborts\":", f.capacity_spike_aborts),
            (",\"delayed_probes\":", f.delayed_probes),
            (",\"delay_cycles\":", f.delay_cycles),
        ] {
            out.push_str(key);
            write_u64(out, n);
        }
        out.push_str("}}");
    }

    /// Rebuild stats from [`RunStats::to_json`] output. Exact inverse:
    /// the reconstructed value compares equal to the original, including
    /// time-series stamp order and histogram contents.
    pub fn from_json(src: &str) -> Result<RunStats, String> {
        let v = parse(src)?;
        RunStats::from_value(&v)
    }

    /// [`RunStats::from_json`] over an already-parsed [`JsonValue`].
    pub fn from_value(v: &JsonValue) -> Result<RunStats, String> {
        fn fixed<const N: usize>(v: &JsonValue, key: &str) -> Result<[u64; N], String> {
            let vec = v.field(key)?.as_u64_vec()?;
            vec.try_into()
                .map_err(|bad: Vec<u64>| format!("{key}: expected {N} entries, got {}", bad.len()))
        }
        let u = |key: &str| -> Result<u64, String> { v.field(key)?.as_u64() };
        let mut pairs = Vec::new();
        for item in v.field("false_by_line")?.as_arr()? {
            let p = item.as_u64_vec()?;
            match p[..] {
                [idx, count] => pairs.push((idx, count)),
                _ => return Err("false_by_line: expected [index, count] pairs".to_string()),
            }
        }
        let conflicts = v.field("conflicts")?;
        let faults = v.field("faults")?;
        let fu = |key: &str| -> Result<u64, String> { faults.field(key)?.as_u64() };
        let offsets: [u64; LINE_SIZE] = fixed(v, "access_offsets")?;
        Ok(RunStats {
            tx_started: u("tx_started")?,
            tx_attempts: u("tx_attempts")?,
            tx_committed: u("tx_committed")?,
            tx_aborted: u("tx_aborted")?,
            aborts_by_cause: fixed(v, "aborts_by_cause")?,
            fallback_commits: u("fallback_commits")?,
            isolation_violations: u("isolation_violations")?,
            dirty_refetches: u("dirty_refetches")?,
            war_speculations: u("war_speculations")?,
            sig_alias_conflicts: u("sig_alias_conflicts")?,
            probes: u("probes")?,
            probe_targets: u("probe_targets")?,
            l1_hits: u("l1_hits")?,
            l1_misses: u("l1_misses")?,
            conflicts: ConflictStats {
                true_by_type: fixed(conflicts, "true_by_type")?,
                false_by_type: fixed(conflicts, "false_by_type")?,
            },
            started_series: TimeSeries::from_stamps(v.field("started_series")?.as_u64_vec()?),
            false_series: TimeSeries::from_stamps(v.field("false_series")?.as_u64_vec()?),
            false_by_line: LineHistogram::from_pairs(pairs),
            access_offsets: OffsetHistogram::from_bytes(offsets),
            cycles: u("cycles")?,
            backoff_cycles: u("backoff_cycles")?,
            max_retries: u("max_retries")? as u32,
            retry_histogram: fixed(v, "retry_histogram")?,
            faults: FaultStats {
                spurious_aborts: fu("spurious_aborts")?,
                spurious_op_aborts: fu("spurious_op_aborts")?,
                false_probe_conflicts: fu("false_probe_conflicts")?,
                capacity_spikes: fu("capacity_spikes")?,
                capacity_spike_aborts: fu("capacity_spike_aborts")?,
                delayed_probes: fu("delayed_probes")?,
                delay_cycles: fu("delay_cycles")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::AbortCause;
    use asf_core::detector::ConflictType;
    use asf_mem::addr::Addr;

    fn populated() -> RunStats {
        let mut r = RunStats::default();
        r.on_tx_start(100);
        r.on_attempt();
        r.on_abort(AbortCause::Conflict { kind: ConflictType::WriteAfterRead, is_true: false });
        r.on_attempt();
        r.on_commit();
        r.on_final_retries(1);
        r.on_conflict(ConflictType::WriteAfterRead, false, 150, Addr(0x4040).line());
        r.on_conflict(ConflictType::ReadAfterWrite, true, 160, Addr(0x8000).line());
        r.on_access(8, 8);
        r.cycles = 5000;
        r.backoff_cycles = 120;
        r.fallback_commits = 1;
        r.faults.spurious_aborts = 3;
        r.faults.delay_cycles = 400;
        r
    }

    #[test]
    fn round_trip_is_exact() {
        let orig = populated();
        let back = RunStats::from_json(&orig.to_json()).expect("parse back");
        assert_eq!(orig, back);
    }

    #[test]
    fn default_round_trips_too() {
        let orig = RunStats::default();
        let back = RunStats::from_json(&orig.to_json()).expect("parse back");
        assert_eq!(orig, back);
    }

    #[test]
    fn parser_handles_the_basics() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": true, "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0], JsonValue::Int(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], JsonValue::Num(2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], JsonValue::Num(-3.0));
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "x\ny");
        assert_eq!(v.get("c"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn u64_precision_is_preserved() {
        // Exceeds f64's 2^53 integer range — must not round.
        let big = u64::MAX - 1;
        let v = parse(&format!("[{big}]")).unwrap();
        assert_eq!(v.as_arr().unwrap()[0].as_u64().unwrap(), big);
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t ünïcode";
        let v = parse(&escape(nasty)).unwrap();
        assert_eq!(v.as_str().unwrap(), nasty);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").unwrap_err().contains("trailing"));
        assert!(RunStats::from_json("{}").unwrap_err().contains("missing field"));
    }

    /// [`populated`] with two false-conflict lines and two stamps per
    /// series, so every list the encoder writes has separators in it.
    fn populated_lists() -> RunStats {
        let mut r = populated();
        r.on_tx_start(220);
        r.on_conflict(ConflictType::WriteAfterWrite, false, 260, Addr(0x40).line());
        r.on_access(0, 64);
        r
    }

    /// The document's exact bytes: served result bodies are cached and
    /// compared byte for byte, so the encoding must never drift.
    #[test]
    fn encoding_is_pinned_byte_for_byte() {
        let expected = concat!(
            r#"{"tx_started":2,"tx_attempts":2,"tx_committed":1,"tx_aborted":1,"#,
            r#""aborts_by_cause":[0,1,0,0,0,0],"fallback_commits":1,"isolation_violations":0,"#,
            r#""dirty_refetches":0,"war_speculations":0,"sig_alias_conflicts":0,"probes":0,"#,
            r#""probe_targets":0,"l1_hits":0,"l1_misses":0,"#,
            r#""conflicts":{"true_by_type":[0,1,0],"false_by_type":[1,0,1]},"#,
            r#""started_series":[100,220],"false_series":[150,260],"#,
            r#""false_by_line":[[1,1],[257,1]],"access_offsets":[1,0,0,0,0,0,0,0,1,"#,
            r#"0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
            r#"0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"cycles":5000,"backoff_cycles":120,"#,
            r#""max_retries":1,"retry_histogram":[0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
            r#""faults":{"spurious_aborts":3,"spurious_op_aborts":0,"false_probe_conflicts":0,"#,
            r#""capacity_spikes":0,"capacity_spike_aborts":0,"delayed_probes":0,"delay_cycles":400}}"#,
        );
        let stats = populated_lists();
        assert_eq!(stats.to_json(), expected);
        let mut appended = String::from("x");
        stats.write_json(&mut appended);
        assert_eq!(appended, format!("x{expected}"));
        assert_eq!(RunStats::from_json(expected).expect("parse back"), stats);
    }
}
