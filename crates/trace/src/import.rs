//! Importers for published block-trace formats.
//!
//! The paper's usr/proj workloads come from the MSR Cambridge traces
//! (Narayanan et al., FAST'08), which are publicly distributed as CSV:
//!
//! ```text
//! timestamp,hostname,disknum,type,offset,size,responsetime
//! 128166372003061629,usr,0,Read,7014609920,24576,41286
//! ```
//!
//! [`from_msr_csv`] converts that format into a [`Trace`]: byte offsets and
//! sizes become runs of 4 KB block events, exactly how the paper's replay
//! treats them ("All requests are sector-aligned and 4,096 bytes"). With a
//! downloaded MSR trace, the whole evaluation can run on the *original*
//! workloads instead of the synthetic equivalents.

use std::io::{self, BufRead};

use crate::event::{Trace, TraceEvent};

/// Block size the paper's replays use.
const BLOCK_BYTES: u64 = 4096;

/// Parses an MSR Cambridge CSV trace.
///
/// * Lines that do not parse are skipped with a count (real trace files
///   contain stray headers and truncated tails).
/// * `max_events` caps the output (the paper replays the first 100 M
///   requests of usr/proj); pass `usize::MAX` for everything.
///
/// # Errors
///
/// I/O errors from the reader; a trace with zero parsable lines is also an
/// error.
///
/// # Examples
///
/// ```
/// use trace::from_msr_csv;
///
/// let csv = "\
/// 128166372003061629,usr,0,Read,7014609920,24576,41286
/// 128166372016863437,usr,0,Write,4096,8192,584";
/// let (trace, skipped) = from_msr_csv(csv.as_bytes(), "usr", usize::MAX).unwrap();
/// assert_eq!(skipped, 0);
/// // The unaligned 24576-byte read covers 7 blocks; 8192 bytes = 2 writes.
/// assert_eq!(trace.len(), 9);
/// assert!(trace.events[0].lba > 0);
/// assert!(trace.events[8].is_write());
/// ```
pub fn from_msr_csv<R: BufRead>(
    reader: R,
    name: &str,
    max_events: usize,
) -> io::Result<(Trace, usize)> {
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut skipped = 0usize;
    let mut max_lba = 0u64;
    for line in reader.lines() {
        let line = line?;
        if events.len() >= max_events {
            break;
        }
        match parse_msr_line(&line) {
            Some((is_write, first, last)) => {
                for lba in first..=last {
                    if events.len() >= max_events {
                        break;
                    }
                    events.push(if is_write {
                        TraceEvent::write(lba)
                    } else {
                        TraceEvent::read(lba)
                    });
                    max_lba = max_lba.max(lba);
                }
            }
            None => skipped += 1,
        }
    }
    if events.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "no parsable MSR records in input",
        ));
    }
    // `max_lba <= u64::MAX / BLOCK_BYTES`, so the bound cannot overflow.
    Ok((Trace::new(name, max_lba + 1, events), skipped))
}

/// Parses one MSR CSV line into `(is_write, first block, last block)`. A
/// record whose last byte lies beyond `u64::MAX` is malformed.
fn parse_msr_line(line: &str) -> Option<(bool, u64, u64)> {
    let mut fields = line.split(',');
    let _timestamp = fields.next()?;
    let _hostname = fields.next()?;
    let _disknum = fields.next()?;
    let kind = fields.next()?.trim();
    let is_write = match kind.to_ascii_lowercase().as_str() {
        "write" => true,
        "read" => false,
        _ => return None,
    };
    let offset: u64 = fields.next()?.trim().parse().ok()?;
    let size: u64 = fields.next()?.trim().parse().ok()?;
    let end = offset.checked_add(size.max(1) - 1)?;
    Some((is_write, offset / BLOCK_BYTES, end / BLOCK_BYTES))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
128166372003061629,usr,0,Read,7014609920,24576,41286
128166372016863437,usr,0,Write,4096,8192,584
garbage line that should be skipped
128166372026951543,usr,0,Read,12288,512,100
";

    #[test]
    fn parses_reads_writes_and_skips_garbage() {
        let (trace, skipped) = from_msr_csv(SAMPLE.as_bytes(), "usr", usize::MAX).unwrap();
        assert_eq!(skipped, 1);
        // The unaligned 24576-byte read straddles 7 blocks, the write 2,
        // the small read 1.
        assert_eq!(trace.len(), 10);
        assert_eq!(trace.name, "usr");
        // The write touches blocks 1 and 2 (bytes 4096..12288).
        let writes: Vec<u64> = trace
            .iter()
            .filter(|e| e.is_write())
            .map(|e| e.lba)
            .collect();
        assert_eq!(writes, vec![1, 2]);
        // The 512-byte read maps to block 3.
        assert_eq!(*trace.events.last().unwrap(), TraceEvent::read(3));
    }

    #[test]
    fn multi_block_requests_expand_to_runs() {
        let line = "1,host,0,Write,0,16384,9";
        let (trace, _) = from_msr_csv(line.as_bytes(), "t", usize::MAX).unwrap();
        let lbas: Vec<u64> = trace.iter().map(|e| e.lba).collect();
        assert_eq!(lbas, vec![0, 1, 2, 3]);
        assert!(trace.iter().all(|e| e.is_write()));
    }

    #[test]
    fn unaligned_requests_cover_touched_blocks() {
        // Bytes 4000..4200 straddle blocks 0 and 1.
        let line = "1,host,0,Read,4000,200,9";
        let (trace, _) = from_msr_csv(line.as_bytes(), "t", usize::MAX).unwrap();
        let lbas: Vec<u64> = trace.iter().map(|e| e.lba).collect();
        assert_eq!(lbas, vec![0, 1]);
    }

    #[test]
    fn max_events_caps_output() {
        let (trace, _) = from_msr_csv(SAMPLE.as_bytes(), "usr", 3).unwrap();
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(from_msr_csv("".as_bytes(), "t", usize::MAX).is_err());
        assert!(from_msr_csv("not,a,trace\n".as_bytes(), "t", usize::MAX).is_err());
    }

    #[test]
    fn case_insensitive_op_kinds() {
        let csv = "1,h,0,READ,0,4096,1\n2,h,0,write,4096,4096,1\n";
        let (trace, skipped) = from_msr_csv(csv.as_bytes(), "t", usize::MAX).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(trace.len(), 2);
        assert!(!trace.events[0].is_write());
        assert!(trace.events[1].is_write());
    }

    #[test]
    fn zero_size_requests_touch_one_block() {
        let line = "1,h,0,Read,8192,0,1";
        let (trace, _) = from_msr_csv(line.as_bytes(), "t", usize::MAX).unwrap();
        assert_eq!(trace.events, vec![TraceEvent::read(2)]);
    }

    #[test]
    fn offset_at_u64_max_is_skipped() {
        let csv = "1,h,0,Read,18446744073709551615,4096,1\n2,h,0,Read,0,4096,1\n";
        let (trace, skipped) = from_msr_csv(csv.as_bytes(), "t", usize::MAX).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(trace.events, vec![TraceEvent::read(0)]);
    }

    #[test]
    fn request_past_the_last_addressable_block_is_skipped() {
        // The last 4 KB block of the byte space: its final byte is u64::MAX.
        let start = u64::MAX - (BLOCK_BYTES - 1);
        let last_block = u64::MAX / BLOCK_BYTES;
        let csv = format!("1,h,0,Write,{start},4096,1\n2,h,0,Write,{start},8192,1\n");
        let (trace, skipped) = from_msr_csv(csv.as_bytes(), "t", usize::MAX).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(trace.events, vec![TraceEvent::write(last_block)]);
        assert_eq!(trace.range_blocks, last_block + 1);
    }
}
