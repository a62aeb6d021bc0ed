//! Trace events and containers.

use std::fmt;
use std::io::{self, BufRead, Write};

/// The operation a trace event performs. All requests are single 4 KB
/// blocks, matching the paper's traces ("All requests are sector-aligned and
/// 4,096 bytes", Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A block read.
    Read,
    /// A block write.
    Write,
}

/// One trace record.
///
/// Packed to 9 bytes (alignment 1) because a trace holds one per request:
/// at paper scale (100 M events) the 7 padding bytes of an aligned layout
/// would cost 0.7 GB. The price is that no reference to `lba` may be taken
/// (error E0793): copy it first (`{ e.lba }`) to format or borrow it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed)]
pub struct TraceEvent {
    /// Disk logical block address (4 KB units).
    pub lba: u64,
    /// Read or write.
    pub kind: OpKind,
}

const _: () = assert!(std::mem::size_of::<TraceEvent>() == 9);

impl TraceEvent {
    /// Constructs a read event.
    pub const fn read(lba: u64) -> Self {
        TraceEvent {
            lba,
            kind: OpKind::Read,
        }
    }

    /// Constructs a write event.
    pub const fn write(lba: u64) -> Self {
        TraceEvent {
            lba,
            kind: OpKind::Write,
        }
    }

    /// Returns `true` for writes.
    pub const fn is_write(&self) -> bool {
        matches!(self.kind, OpKind::Write)
    }
}

/// A named sequence of trace events over a bounded address range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Human-readable workload name.
    pub name: String,
    /// Exclusive upper bound of the LBA space (range of the traced volume
    /// in 4 KB blocks).
    pub range_blocks: u64,
    /// The events, in arrival order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates a trace, validating that every event falls inside the range.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses a block at or beyond `range_blocks`.
    pub fn new(name: impl Into<String>, range_blocks: u64, events: Vec<TraceEvent>) -> Self {
        let name = name.into();
        for e in &events {
            assert!(
                e.lba < range_blocks,
                "event lba {} outside range {range_blocks}",
                { e.lba }
            );
        }
        Trace {
            name,
            range_blocks,
            events,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates the events.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Returns the prefix of the trace holding `fraction` of the events —
    /// the paper warms caches by replaying "the first 15% of the trace".
    pub fn prefix(&self, fraction: f64) -> &[TraceEvent] {
        let n = (self.events.len() as f64 * fraction.clamp(0.0, 1.0)) as usize;
        &self.events[..n]
    }

    /// Returns the suffix after [`Trace::prefix`].
    pub fn suffix(&self, fraction: f64) -> &[TraceEvent] {
        let n = (self.events.len() as f64 * fraction.clamp(0.0, 1.0)) as usize;
        &self.events[n..]
    }

    /// Serializes the trace as JSON lines: a header object, then one object
    /// per event. The format exists so users can replay their own traces.
    ///
    /// # Errors
    ///
    /// I/O errors from the writer.
    pub fn to_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        write!(w, "{{\"name\":")?;
        json::write_string(&mut w, &self.name)?;
        writeln!(w, ",\"range_blocks\":{}}}", self.range_blocks)?;
        for e in &self.events {
            let kind = match e.kind {
                OpKind::Read => "Read",
                OpKind::Write => "Write",
            };
            writeln!(w, "{{\"lba\":{},\"kind\":\"{kind}\"}}", { e.lba })?;
        }
        Ok(())
    }

    /// Parses a trace from the JSON-lines format written by
    /// [`Trace::to_jsonl`].
    ///
    /// # Errors
    ///
    /// I/O errors, malformed JSON, a missing header, or an event outside the
    /// declared range.
    pub fn from_jsonl<R: BufRead>(r: R) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut lines = r.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| bad("empty trace file".into()))??;
        let header = json::parse_object(&header_line).map_err(bad)?;
        let name = match header.get("name") {
            Some(json::Value::Str(s)) => s.clone(),
            _ => return Err(bad("header missing string field `name`".into())),
        };
        let range_blocks = match header.get("range_blocks") {
            Some(json::Value::Num(n)) => *n,
            _ => return Err(bad("header missing numeric field `range_blocks`".into())),
        };
        let mut events = Vec::new();
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let obj = json::parse_object(&line).map_err(bad)?;
            let lba = match obj.get("lba") {
                Some(json::Value::Num(n)) => *n,
                _ => return Err(bad("event missing numeric field `lba`".into())),
            };
            let kind = match obj.get("kind") {
                Some(json::Value::Str(s)) if s == "Read" => OpKind::Read,
                Some(json::Value::Str(s)) if s == "Write" => OpKind::Write,
                _ => return Err(bad("event `kind` must be \"Read\" or \"Write\"".into())),
            };
            if lba >= range_blocks {
                return Err(bad(format!("event lba {lba} outside range {range_blocks}")));
            }
            events.push(TraceEvent { lba, kind });
        }
        Ok(Trace {
            name,
            range_blocks,
            events,
        })
    }
}

/// Minimal JSON-object reader/writer for the flat `{"key": value}` records
/// the trace format uses (string and unsigned-integer values only). Written
/// by hand so the crate builds without a network-fetched serializer.
mod json {
    use std::collections::HashMap;
    use std::io::{self, Write};

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Str(String),
        Num(u64),
    }

    /// Writes `s` as a JSON string literal with the escapes the format needs.
    pub(crate) fn write_string<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
        w.write_all(b"\"")?;
        for c in s.chars() {
            match c {
                '"' => w.write_all(b"\\\"")?,
                '\\' => w.write_all(b"\\\\")?,
                '\n' => w.write_all(b"\\n")?,
                '\r' => w.write_all(b"\\r")?,
                '\t' => w.write_all(b"\\t")?,
                c if (c as u32) < 0x20 => write!(w, "\\u{:04x}", c as u32)?,
                c => write!(w, "{c}")?,
            }
        }
        w.write_all(b"\"")
    }

    /// Parses one flat JSON object of string/integer fields.
    pub(crate) fn parse_object(line: &str) -> Result<HashMap<String, Value>, String> {
        let mut p = Parser {
            bytes: line.as_bytes(),
            pos: 0,
        };
        let map = p.object()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data after object: {line:?}"));
        }
        Ok(map)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", b as char, self.pos))
            }
        }

        fn object(&mut self) -> Result<HashMap<String, Value>, String> {
            self.expect(b'{')?;
            let mut map = HashMap::new();
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b'}') {
                self.pos += 1;
                return Ok(map);
            }
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                let value = self.value()?;
                map.insert(key, value);
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(map);
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b) if b.is_ascii_digit() => Ok(Value::Num(self.number()?)),
                _ => Err(format!("expected string or integer at byte {}", self.pos)),
            }
        }

        fn number(&mut self) -> Result<u64, String> {
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad integer at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self
                            .bytes
                            .get(self.pos)
                            .ok_or("unterminated escape".to_string())?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or("truncated \\u escape".to_string())?;
                                self.pos += 4;
                                let code = std::str::from_utf8(hex)
                                    .ok()
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or("bad \\u escape".to_string())?;
                                out.push(
                                    char::from_u32(code).ok_or("bad \\u code point".to_string())?,
                                );
                            }
                            other => return Err(format!("bad escape \\{}", *other as char)),
                        }
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (multi-byte safe).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "invalid utf-8".to_string())?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} events over {} blocks",
            self.name,
            self.events.len(),
            self.range_blocks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "t",
            100,
            vec![
                TraceEvent::read(1),
                TraceEvent::write(50),
                TraceEvent::write(99),
            ],
        )
    }

    #[test]
    fn constructors_and_kind() {
        let r = TraceEvent::read(5);
        let w = TraceEvent::write(5);
        assert!(!r.is_write());
        assert!(w.is_write());
        assert_eq!({ r.lba }, 5);
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn new_rejects_out_of_range_events() {
        Trace::new("bad", 10, vec![TraceEvent::read(10)]);
    }

    #[test]
    fn prefix_suffix_partition() {
        let t = sample();
        assert_eq!(t.prefix(0.34).len() + t.suffix(0.34).len(), t.len());
        assert_eq!(t.prefix(0.0).len(), 0);
        assert_eq!(t.prefix(1.0).len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn jsonl_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        t.to_jsonl(&mut buf).unwrap();
        let back = Trace::from_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn jsonl_exact_format() {
        let t = Trace::new("w \"q\"", 8, vec![TraceEvent::read(3)]);
        let mut buf = Vec::new();
        t.to_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "{\"name\":\"w \\\"q\\\"\",\"range_blocks\":8}\n{\"lba\":3,\"kind\":\"Read\"}\n"
        );
        let back = Trace::from_jsonl(text.as_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(Trace::from_jsonl("not json\n".as_bytes()).is_err());
        assert!(Trace::from_jsonl("".as_bytes()).is_err());
        // Event outside declared range.
        let bad = "{\"name\":\"x\",\"range_blocks\":4}\n{\"lba\":9,\"kind\":\"Read\"}\n";
        assert!(Trace::from_jsonl(bad.as_bytes()).is_err());
        // Malformed event object.
        let bad2 = "{\"name\":\"x\",\"range_blocks\":4}\n{\"lba\":1,\"kind\":\"Frob\"}\n";
        assert!(Trace::from_jsonl(bad2.as_bytes()).is_err());
        let bad3 = "{\"name\":\"x\",\"range_blocks\":4}\n{\"lba\":1}trailing\n";
        assert!(Trace::from_jsonl(bad3.as_bytes()).is_err());
    }

    #[test]
    fn display_summarizes() {
        let s = sample().to_string();
        assert!(s.contains("3 events"));
        assert!(s.contains("100 blocks"));
    }
}
