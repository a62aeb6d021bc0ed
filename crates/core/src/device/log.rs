//! Persistence glue (§4.2.2): appending operation-log records, synchronous
//! and group commit, and the checkpoint policy.

use simkit::Duration;

use super::{CrashSite, Ssc};
use crate::config::ConsistencyMode;
use crate::error::SscError;
use crate::wal::LogRecord;
use crate::Result;

impl Ssc {
    fn logging_enabled(&self) -> bool {
        self.config.consistency != ConsistencyMode::None
    }

    pub(super) fn log_append(&mut self, record: LogRecord) {
        if self.logging_enabled() {
            self.wal.append(record);
        }
    }

    /// Synchronously commits every buffered log record (an atomic append).
    /// Public so a sharded front-end can drain every shard's group-commit
    /// buffer at an explicit sync point.
    ///
    /// # Errors
    ///
    /// [`SscError::PowerLoss`] if a scripted crash is armed at the
    /// group-commit site.
    pub fn commit_log(&mut self) -> Result<Duration> {
        if self.logging_enabled() {
            if self.wal.buffered() > 0 {
                // Power fails before the buffered records reach the media.
                self.crash_point(CrashSite::GroupCommit)?;
            }
            let cost = self.wal.flush();
            if !cost.is_zero() {
                self.erases_at_last_flush = self.dev.counters().erases;
            }
            Ok(cost)
        } else {
            Ok(Duration::ZERO)
        }
    }

    /// Group commit: flush only once enough records have accumulated.
    pub(super) fn maybe_group_commit(&mut self) -> Result<Duration> {
        if self.logging_enabled() && self.wal.buffered() >= self.config.group_commit_records {
            self.commit_log()
        } else {
            Ok(Duration::ZERO)
        }
    }

    /// Checkpoint policy: log larger than the configured fraction of the
    /// checkpoint, or the write-interval reached.
    pub(super) fn maybe_checkpoint(&mut self) -> Result<Duration> {
        if !self.logging_enabled() {
            return Ok(Duration::ZERO);
        }
        let base_lsn = self.ckpt.latest().map(|c| c.lsn).unwrap_or(0);
        // The size half of the policy compares bytes appended past the base
        // checkpoint against a threshold derived from that checkpoint's
        // size. Both the base offset and the threshold only change when a
        // new checkpoint lands, so the hot path is one comparison of the
        // monotonic appended-bytes counter against a memoized trigger —
        // exactly equivalent to recomputing `bytes_since` and the scaled
        // threshold every write.
        let trigger = match self.ckpt_trigger {
            Some((lsn, trigger)) if lsn == base_lsn => trigger,
            _ => {
                let threshold = (self.ckpt.latest_bytes() as f64 * self.config.checkpoint_log_ratio)
                    .max(self.page_size() as f64) as u64;
                let base_offset = self.wal.appended_bytes() - self.wal.bytes_since(base_lsn);
                let trigger = base_offset + threshold;
                self.ckpt_trigger = Some((base_lsn, trigger));
                trigger
            }
        };
        if self.wal.appended_bytes() <= trigger
            && self.writes_since_ckpt < self.config.checkpoint_write_interval
        {
            return Ok(Duration::ZERO);
        }
        // Power fails after deciding to checkpoint but before the new
        // snapshot exists: both old slots stay intact.
        self.crash_point(CrashSite::Checkpoint)?;
        let mut cost = self.commit_log()?;
        let lsn = self.wal.durable_lsn();
        cost += self.ckpt.write(&self.maps, lsn);
        // Power fails mid-slot-write: the fresh snapshot is torn. Recovery
        // must detect the bad CRC and fall back to the older slot.
        if self.crash_fires(CrashSite::CheckpointTorn) {
            self.ckpt.corrupt_latest();
            return Err(SscError::PowerLoss);
        }
        // Keep the log long enough for the *older* checkpoint slot: if the
        // newest snapshot turns out corrupted, recovery falls back to the
        // previous one and must be able to roll forward from its LSN.
        if let Some(previous) = self.ckpt.previous() {
            let safe_lsn = previous.lsn;
            self.wal.truncate_through(safe_lsn);
        }
        self.writes_since_ckpt = 0;
        self.counters.checkpoints += 1;
        Ok(cost)
    }
}
