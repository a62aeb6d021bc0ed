//! The reference model: for every LBA, the set of versions a read may
//! return under the paper's guarantees.

use std::collections::BTreeMap;
use std::fmt::Display;

/// How a version of a block becomes bytes.
pub trait Codec {
    /// The `len`-byte payload of version `version` of `lba`.
    fn encode(&self, lba: u64, version: u64, len: usize) -> Vec<u8>;

    /// The `(lba, version)` a payload names, when payloads name themselves;
    /// otherwise `None`, and a read is matched against each allowed version.
    fn tag(&self, _data: &[u8]) -> Option<(u64, u64)> {
        None
    }
}

/// Self-describing payloads: the LBA in bytes 0..8 and the version in
/// 8..16 (little-endian), then a fill derived from both, so a read names
/// its block and version and a mixed payload shows. Never all zeros: the
/// fill is zero only where the two low bytes differ.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tagged;

impl Codec for Tagged {
    fn encode(&self, lba: u64, version: u64, len: usize) -> Vec<u8> {
        let mut data = vec![(lba ^ version) as u8 ^ 0xA5; len];
        data[0..8].copy_from_slice(&lba.to_le_bytes());
        data[8..16].copy_from_slice(&version.to_le_bytes());
        data
    }

    fn tag(&self, data: &[u8]) -> Option<(u64, u64)> {
        let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
        (data.len() >= 16 && !is_zero(data)).then(|| (word(0), word(8)))
    }
}

/// The trace replay's payloads ([`cachemgr::write_payload_into`]), the
/// event's index in the trace being the version.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replayed;

impl Codec for Replayed {
    fn encode(&self, lba: u64, version: u64, len: usize) -> Vec<u8> {
        let mut buf = cachemgr::PageBuf::new();
        cachemgr::write_payload_into(lba, version, len, &mut buf);
        buf.into_vec()
    }
}

fn is_zero(data: &[u8]) -> bool {
    data.iter().all(|&b| b == 0)
}

/// What the model knows of one LBA.
#[derive(Debug, Clone, Default)]
struct Block {
    /// Every version written here, oldest first.
    history: Vec<u64>,
    /// The versions a read may return now.
    may: Vec<u64>,
    /// A read must find one of `may`; otherwise not-present (zeros at a
    /// cache system's interface) is legal too.
    required: bool,
    /// Writes, evictions and cleans so far: what a tear compares with its
    /// mark.
    touched: u64,
    /// The drops reported when this block was last acked: a drop reported
    /// since may have been this block's dirty copy.
    drops_at_write: u64,
}

/// The model's state at one point, for [`Model::tear_back_to`].
#[derive(Debug, Clone, Default)]
pub struct Mark(BTreeMap<u64, Block>);

/// The paper's guarantees (§3.5, with §4.2.2's recovery behind them) as a
/// per-LBA set of allowed reads:
///
/// * never written: not present (zeros at a cache system's interface; at
///   the SSC's, [`crate::read_ssc`] demands `NotPresent`);
/// * acked ([`Model::ack`]): exactly that version;
/// * written clean at the SSC interface ([`Model::ack_clean`]), or cleaned
///   ([`Model::clean`]): that version or not present;
/// * in flight when power failed, or an un-acked PUT
///   ([`Model::in_flight`]): the last acked version or any un-acked
///   version issued since;
/// * evicted ([`Model::evict`]): not present;
/// * after a torn log tail ([`Model::tear`]): any version ever written, or
///   not present, never a fabricated one; a tear that can only lose what
///   came after a [`Mark`] ([`Model::tear_back_to`]) allows what the mark
///   allowed, what was written since, or not present;
/// * write-back under media faults: a dirty copy the system reports
///   dropped ([`Model::report_drops`]) lets one block acked before the
///   report read as an older version or zeros ([`Model::observe`]), which
///   it then keeps until rewritten.
///
/// Whatever the set, a read holds its own block's data, uncorrupted.
#[derive(Debug, Clone)]
pub struct Model<C = Tagged> {
    codec: C,
    block_size: usize,
    blocks: BTreeMap<u64, Block>,
    /// Dirty copies the system reported dropped, and how many of those
    /// drops a stale read has used up.
    drops: u64,
    excused: u64,
}

impl Model<Tagged> {
    /// A model of `block_size`-byte blocks under the [`Tagged`] codec.
    pub fn new(block_size: usize) -> Self {
        Model::with_codec(Tagged, block_size)
    }
}

impl<C: Codec> Model<C> {
    /// A model of `block_size`-byte blocks whose payloads `codec` makes.
    pub fn with_codec(codec: C, block_size: usize) -> Self {
        Model {
            codec,
            block_size,
            blocks: BTreeMap::new(),
            drops: 0,
            excused: 0,
        }
    }

    /// The payload of version `version` of `lba`. Records nothing.
    pub fn payload(&self, lba: u64, version: u64) -> Vec<u8> {
        self.codec.encode(lba, version, self.block_size)
    }

    fn touch(&mut self, lba: u64, written: Option<u64>) -> &mut Block {
        let block = self.blocks.entry(lba).or_default();
        block.history.extend(written);
        block.touched += 1;
        block
    }

    /// `version` of `lba` was acknowledged.
    pub fn ack(&mut self, lba: u64, version: u64) {
        self.settle(lba, version, true);
    }

    /// `version` of `lba` was written clean at the SSC interface.
    pub fn ack_clean(&mut self, lba: u64, version: u64) {
        self.settle(lba, version, false);
    }

    fn settle(&mut self, lba: u64, version: u64, required: bool) {
        let drops = self.drops;
        let block = self.touch(lba, Some(version));
        (block.may, block.required) = (vec![version], required);
        block.drops_at_write = drops;
    }

    /// `version` of `lba` was issued but never acknowledged.
    pub fn in_flight(&mut self, lba: u64, version: u64) {
        self.touch(lba, Some(version)).may.push(version);
    }

    /// `lba` was evicted.
    pub fn evict(&mut self, lba: u64) {
        let block = self.touch(lba, None);
        (block.may, block.required) = (Vec::new(), false);
    }

    /// `lba` was cleaned at the SSC interface: it may be silently evicted.
    pub fn clean(&mut self, lba: u64) {
        self.touch(lba, None).required = false;
    }

    /// The model as it stands, for a later [`Model::tear_back_to`].
    pub fn mark(&self) -> Mark {
        Mark(self.blocks.clone())
    }

    /// A torn log tail lost some suffix of what happened since `mark`.
    pub fn tear_back_to(&mut self, mark: &Mark) {
        for (lba, block) in &mut self.blocks {
            let then = mark.0.get(lba).cloned().unwrap_or_default();
            if block.touched != then.touched {
                block.may = then.may;
                block.may.extend(&block.history[then.history.len()..]);
                block.required = false;
            }
        }
    }

    /// A torn log tail with no durable point known.
    pub fn tear(&mut self) {
        self.tear_back_to(&Mark::default());
    }

    /// The system dropped `n` more dirty copies to media faults, serving
    /// the last destaged version of each instead.
    pub fn report_drops(&mut self, n: u64) {
        self.drops += n;
    }

    /// The LBAs ever written, evicted or cleaned, in order.
    pub fn lbas(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.keys().copied()
    }

    /// Checks one read of `lba` (`None`: not present) and returns the
    /// version it found (`None`: not present, or zeros), or the violated
    /// rule in words.
    pub fn check(&self, lba: u64, data: Option<&[u8]>) -> Result<Option<u64>, String> {
        let empty = Block::default();
        let block = self.blocks.get(&lba).unwrap_or(&empty);
        let absent_ok = !block.required;
        let lost = || Err(format!("lba {lba}: acked {:?} lost", block.may));
        let Some(data) = data.filter(|data| !(absent_ok && is_zero(data))) else {
            return if absent_ok { Ok(None) } else { lost() };
        };
        let mut allowed = block.may.iter();
        let v = match self.codec.tag(data) {
            Some((got, v)) if got != lba => {
                return Err(format!("lba {lba}: read lba {got}'s data (version {v})"))
            }
            Some((_, v)) if data != self.codec.encode(lba, v, data.len()) => {
                return Err(format!("lba {lba}: payload of version {v} corrupted"))
            }
            Some((_, v)) if allowed.any(|&a| a == v) => v,
            Some((_, v)) => return Err(self.explain(lba, block, v)),
            None => match allowed.find(|&&a| self.codec.encode(lba, a, data.len()) == data) {
                Some(&v) => v,
                None if is_zero(data) => return lost(),
                None => return Err(format!("lba {lba}: read matches none of {:?}", block.may)),
            },
        };
        Ok(Some(v))
    }

    /// Why version `v` of `lba`, a well-formed payload, is not allowed.
    fn explain(&self, lba: u64, block: &Block, v: u64) -> String {
        let (may, newest) = (&block.may, block.history.iter().max());
        let why = if newest.is_none_or(|&newest| v > newest) {
            format!("from the future (newest {newest:?})")
        } else if !block.history.contains(&v) {
            "fabricated: never written here".into()
        } else if may.is_empty() {
            "present after an eviction".into()
        } else if may.len() > 1 {
            format!("neither the last acked nor one in flight {may:?}")
        } else if block.required {
            format!("stale: acked {may:?}")
        } else {
            format!("stale: clean {may:?}")
        };
        format!("lba {lba}: version {v} {why}")
    }

    /// [`Model::check`] under media loss: a read that breaks the rules only
    /// by being stale — an uncorrupted older version of its own block, or
    /// zeros — uses up one reported drop not yet used, if the block was
    /// acked before that drop was reported. The block then reads as
    /// that version (or not present) until it is written again.
    pub fn observe(&mut self, lba: u64, data: &[u8]) -> Result<Option<u64>, String> {
        let violation = match self.check(lba, Some(data)) {
            Ok(found) => return Ok(found),
            Err(violation) => violation,
        };
        let (drops, codec) = (self.drops, &self.codec);
        let spare = self.excused < drops;
        let Some(block) = self
            .blocks
            .get_mut(&lba)
            .filter(|b| b.drops_at_write < drops && spare)
        else {
            return Err(violation);
        };
        let mut history = block.history.iter();
        let found = match history.find(|&&v| codec.encode(lba, v, data.len()) == data) {
            Some(&v) => Some(v),
            None if is_zero(data) => None,
            None => return Err(violation),
        };
        (block.may, block.required) = (found.into_iter().collect(), found.is_some());
        self.excused += 1;
        Ok(found)
    }

    /// [`Model::check`], panicking with `context` on a violation.
    pub fn assert_read(&self, lba: u64, data: Option<&[u8]>, context: impl Display) -> Option<u64> {
        self.check(lba, data)
            .unwrap_or_else(|violation| panic!("{context}: {violation}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: usize = 64;

    fn read(model: &Model, lba: u64, version: u64) -> Result<Option<u64>, String> {
        model.check(lba, Some(&Tagged.encode(lba, version, BS)))
    }

    fn fails(result: Result<Option<u64>, String>, rule: &str) {
        let err = result.expect_err(rule);
        assert!(err.contains(rule), "{err:?} should say {rule:?}");
    }

    #[test]
    fn each_rule_rejects_what_it_forbids() {
        for (lba, version) in [(0, 0), (0xA5, 0), (1, 0xA4), (u64::MAX, 1 << 40)] {
            let data = Tagged.encode(lba, version, BS);
            assert_eq!(Tagged.tag(&data), Some((lba, version)), "never all zeros");
        }
        let mut m = Model::new(BS);
        assert_eq!(m.check(3, None), Ok(None), "never written: absent");
        assert_eq!(m.check(3, Some(&[0; BS])), Ok(None));
        fails(read(&m, 3, 1), "from the future");
        m.ack(3, 1);
        m.ack(3, 2);
        assert_eq!(read(&m, 3, 2), Ok(Some(2)));
        fails(read(&m, 3, 1), "stale: acked");
        fails(read(&m, 3, 3), "from the future");
        fails(m.check(3, None), "lost");
        fails(m.check(3, Some(&[0; BS])), "lost");
        fails(
            m.check(3, Some(&Tagged.encode(4, 2, BS))),
            "read lba 4's data",
        );
        let mut torn = Tagged.encode(3, 2, BS);
        torn[BS - 1] ^= 1;
        fails(m.check(3, Some(&torn)), "corrupted");
        m.in_flight(3, 5);
        m.in_flight(3, 6);
        assert!([2, 5, 6].iter().all(|&v| read(&m, 3, v) == Ok(Some(v))));
        fails(read(&m, 3, 1), "neither the last acked nor one in flight");
        m.ack_clean(3, 7);
        assert_eq!(m.check(3, None), Ok(None));
        fails(read(&m, 3, 6), "stale: clean");
        m.evict(3);
        fails(read(&m, 3, 7), "present after an eviction");
        m.tear();
        assert!([1, 2, 5, 6, 7]
            .iter()
            .all(|&v| read(&m, 3, v) == Ok(Some(v))));
        fails(read(&m, 3, 4), "fabricated");
    }

    fn observe(model: &mut Model, lba: u64, version: u64) -> Result<Option<u64>, String> {
        model.observe(lba, &Tagged.encode(lba, version, BS))
    }

    #[test]
    fn each_reported_drop_excuses_one_stale_block_acked_before_it() {
        let mut m = Model::new(BS);
        (1..=2).for_each(|v| m.ack(1, v));
        (3..=4).for_each(|v| m.ack(2, v));
        fails(observe(&mut m, 1, 1), "stale: acked");
        m.report_drops(1);
        (5..=6).for_each(|v| m.ack(3, v));
        fails(observe(&mut m, 3, 5), "stale: acked");
        assert_eq!(observe(&mut m, 1, 1), Ok(Some(1)));
        // The block keeps what it fell back to; the drop is used up.
        assert_eq!(read(&m, 1, 1), Ok(Some(1)));
        fails(read(&m, 1, 2), "stale: acked");
        fails(observe(&mut m, 2, 3), "stale: acked");
        m.report_drops(2);
        // A write left in flight since keeps the acked version's excuse.
        m.in_flight(2, 7);
        let mut torn = Tagged.encode(2, 3, BS);
        torn[BS - 1] ^= 1;
        fails(m.observe(2, &torn), "corrupted");
        fails(observe(&mut m, 2, 9), "from the future");
        fails(m.observe(2, &Tagged.encode(1, 1, BS)), "read lba 1's data");
        // Never destaged: the disk's zeros.
        assert_eq!(m.observe(2, &[0; BS]), Ok(None));
        assert_eq!(m.check(2, None), Ok(None));
        fails(read(&m, 2, 4), "present after an eviction");
    }

    #[test]
    fn a_tear_back_to_a_mark_keeps_what_was_durable_then() {
        let mut m = Model::new(BS);
        (1..=3).for_each(|v| m.ack(v, v));
        m.evict(3);
        let mark = m.mark();
        m.ack(1, 4);
        m.ack(3, 5);
        m.tear_back_to(&mark);
        // Touched since the mark: the mark's version, or newer, or absent.
        assert_eq!((read(&m, 1, 1), read(&m, 1, 4)), (Ok(Some(1)), Ok(Some(4))));
        assert_eq!(m.check(1, None), Ok(None));
        // Untouched since: exactly as durable at the mark.
        fails(m.check(2, None), "lost");
        // Evicted before the mark: only what came after the eviction.
        fails(read(&m, 3, 3), "stale");
        assert_eq!(read(&m, 3, 5), Ok(Some(5)));
    }

    #[test]
    fn replayed_payloads_are_matched_by_version() {
        let mut m = Model::with_codec(Replayed, BS);
        m.ack(7, 3);
        let want = Replayed.encode(7, 3, BS);
        assert_eq!(m.check(7, Some(&want)), Ok(Some(3)));
        let mut other = (0..).map(|v| Replayed.encode(7, v, BS));
        let other = other.find(|d| *d != want && !is_zero(d)).unwrap();
        fails(m.check(7, Some(&other)), "matches none");
    }
}
