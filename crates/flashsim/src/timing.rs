//! Operation timing model.
//!
//! Costs follow the paper's Table 2 (Intel 300-series SSD latencies):
//!
//! | Parameter         | Value   |
//! |-------------------|---------|
//! | Page read         | 65 µs   |
//! | Page write        | 85 µs   |
//! | Block erase       | 1000 µs |
//! | Bus control delay | 2 µs    |
//! | Control delay     | 10 µs   |
//!
//! A page read or program pays the control delay (command decode, map
//! lookup), the bus control delay (transfer setup) and the raw cell
//! operation. An erase pays the control delay plus the erase time; no data
//! crosses the bus. OOB reads/writes piggyback on their page operation: the
//! paper assumes "writing to the OOB is free, as it can be overlapped with
//! regular writes", and an isolated OOB read costs a page read (the cell read
//! dominates).

use simkit::Duration;

/// Timing parameters for a simulated flash device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashTiming {
    /// Raw cell read time per page.
    pub page_read: Duration,
    /// Raw cell program time per page.
    pub page_write: Duration,
    /// Block erase time.
    pub block_erase: Duration,
    /// Bus transfer setup per data-carrying operation.
    pub bus_control: Duration,
    /// Controller command-processing delay per operation.
    pub control: Duration,
}

impl FlashTiming {
    /// Table 2 parameters.
    pub const fn paper_default() -> Self {
        FlashTiming {
            page_read: Duration::from_micros(65),
            page_write: Duration::from_micros(85),
            block_erase: Duration::from_micros(1000),
            bus_control: Duration::from_micros(2),
            control: Duration::from_micros(10),
        }
    }

    /// Total cost of one page read.
    pub fn read_cost(&self) -> Duration {
        self.control + self.bus_control + self.page_read
    }

    /// Total cost of one page program.
    pub fn write_cost(&self) -> Duration {
        self.control + self.bus_control + self.page_write
    }

    /// Total cost of one block erase.
    pub fn erase_cost(&self) -> Duration {
        self.control + self.block_erase
    }

    /// Cost of a pure in-memory metadata operation on the device controller.
    pub fn metadata_cost(&self) -> Duration {
        self.control
    }
}

impl Default for FlashTiming {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_costs() {
        let t = FlashTiming::paper_default();
        assert_eq!(t.read_cost().as_micros(), 77);
        assert_eq!(t.write_cost().as_micros(), 97);
        assert_eq!(t.erase_cost().as_micros(), 1010);
        assert_eq!(t.metadata_cost().as_micros(), 10);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(FlashTiming::default(), FlashTiming::paper_default());
    }

    #[test]
    fn write_slower_than_read_slower_than_erase() {
        let t = FlashTiming::paper_default();
        assert!(t.read_cost() < t.write_cost());
        assert!(t.write_cost() < t.erase_cost());
    }
}
