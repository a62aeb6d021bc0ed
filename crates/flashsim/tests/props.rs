//! Property tests: the flash device must enforce the NAND state machine
//! under arbitrary operation sequences, and agree with a reference model
//! about every page's state and contents.
//!
//! Cases are generated with the deterministic `simkit::SimRng` so the suite
//! needs no external property-testing framework and every failure is
//! reproducible from the case number.

use flashsim::{
    BlockState, DataMode, FaultCounters, FaultInjector, FaultPlan, FlashConfig, FlashCounters,
    FlashDevice, FlashError, FlashTiming, Geometry, OobData, PageBuf, PageState, Pbn, Ppn,
    ReadFault,
};
use simkit::{Duration, SimRng};

type Result<T> = std::result::Result<T, FlashError>;

/// What a read buffer holds before each read. A `Discard`-mode read must
/// leave it, cut to one page; a `Store`-mode read overwrites it.
const POISON: u8 = 0xA5;

/// `read_page_into` on a buffer two pages long of [`POISON`].
fn read_poisoned(dev: &mut FlashDevice, ppn: Ppn) -> Result<(Vec<u8>, Duration)> {
    let mut buf = PageBuf::new();
    buf.fill_with(2 * dev.geometry().page_size(), POISON);
    let cost = dev.read_page_into(ppn, &mut buf)?;
    Ok((buf.into_vec(), cost))
}

/// One page of the reference model: the per-page record the device kept
/// before validity became a bitmap per block.
#[derive(Clone, Default)]
struct RefPage {
    state: PageState,
    oob: OobData,
    data: Option<Vec<u8>>,
}

#[derive(Clone)]
struct RefBlock {
    pages: Vec<RefPage>,
    write_ptr: u32,
    erase_count: u64,
}

/// Reference model of the whole device: page objects, counts by scanning,
/// the same fault injector driven in lockstep.
struct RefDevice {
    g: Geometry,
    t: FlashTiming,
    mode: DataMode,
    blocks: Vec<RefBlock>,
    counters: FlashCounters,
    faults: Option<FaultInjector>,
}

impl RefDevice {
    fn new(config: FlashConfig, mode: DataMode, plan: Option<FaultPlan>) -> Self {
        let g = config.geometry;
        let block = RefBlock {
            pages: vec![RefPage::default(); g.pages_per_block() as usize],
            write_ptr: 0,
            erase_count: 0,
        };
        RefDevice {
            g,
            t: config.timing,
            mode,
            blocks: vec![block; g.total_blocks() as usize],
            counters: FlashCounters::default(),
            faults: plan.map(FaultInjector::new),
        }
    }

    fn page(&self, ppn: Ppn) -> Result<&RefPage> {
        if !self.g.ppn_in_range(ppn) {
            return Err(FlashError::PpnOutOfRange(ppn));
        }
        let block = &self.blocks[self.g.block_of(ppn).raw() as usize];
        Ok(&block.pages[self.g.page_in_block(ppn) as usize])
    }

    fn page_mut(&mut self, ppn: Ppn) -> &mut RefPage {
        let block = &mut self.blocks[self.g.block_of(ppn).raw() as usize];
        &mut block.pages[self.g.page_in_block(ppn) as usize]
    }

    fn programmed(&self, ppn: Ppn) -> Result<&RefPage> {
        let page = self.page(ppn)?;
        if page.state == PageState::Free {
            return Err(FlashError::ReadFree(ppn));
        }
        Ok(page)
    }

    fn next_free(&self, pbn: Pbn, count: usize) -> Result<Ppn> {
        if !self.g.pbn_in_range(pbn) {
            return Err(FlashError::PbnOutOfRange(pbn));
        }
        let first = self.g.first_page(pbn);
        let wp = self.blocks[pbn.raw() as usize].write_ptr;
        if wp as usize + count > self.g.pages_per_block() as usize {
            return Err(FlashError::ProgramNotFree(first));
        }
        Ok(Ppn(first.raw() + wp as u64))
    }

    /// What [`read_poisoned`] finds in its buffer after reading `ppn`.
    fn payload(&self, ppn: Ppn) -> Vec<u8> {
        match (&self.page(ppn).unwrap().data, self.mode) {
            (Some(d), _) => d.clone(),
            (None, DataMode::Discard) => vec![POISON; self.g.page_size()],
            (None, DataMode::Store) => vec![0; self.g.page_size()],
        }
    }

    fn read(&mut self, ppn: Ppn) -> Result<(Vec<u8>, Duration)> {
        self.programmed(ppn)?;
        let mut retries = 0;
        if let Some(inj) = &mut self.faults {
            match inj.on_read(ppn) {
                ReadFault::None => {}
                ReadFault::Transient => retries = 1,
                ReadFault::Failed => return Err(FlashError::ReadFailed(ppn)),
                ReadFault::Corrupt => return Err(FlashError::ReadCorrupt(ppn)),
            }
        }
        self.counters.page_reads += 1;
        Ok((self.payload(ppn), self.t.read_cost() * (1 + retries)))
    }

    fn read_charge(&mut self, ppn: Ppn) -> Result<Duration> {
        self.programmed(ppn)?;
        self.counters.page_reads += 1;
        Ok(self.t.read_cost())
    }

    /// Marks the block's next page programmed with `data`.
    fn fill(&mut self, ppn: Ppn, data: Option<Vec<u8>>, oob: OobData) {
        let store = self.mode == DataMode::Store;
        *self.page_mut(ppn) = RefPage {
            state: PageState::Valid,
            oob,
            data: data.filter(|_| store),
        };
        self.blocks[self.g.block_of(ppn).raw() as usize].write_ptr += 1;
    }

    fn program(&mut self, ppn: Ppn, data: &[u8], oob: OobData) -> Result<Duration> {
        let state = self.page(ppn)?.state;
        if data.len() != self.g.page_size() {
            return Err(FlashError::BadPageSize {
                got: data.len(),
                expected: self.g.page_size(),
            });
        }
        if state != PageState::Free {
            return Err(FlashError::ProgramNotFree(ppn));
        }
        let expected = self.blocks[self.g.block_of(ppn).raw() as usize].write_ptr;
        if self.g.page_in_block(ppn) != expected {
            return Err(FlashError::ProgramOutOfOrder { ppn, expected });
        }
        if self.faults.as_mut().is_some_and(FaultInjector::on_program) {
            self.fill(ppn, None, oob);
            self.page_mut(ppn).state = PageState::Invalid;
            return Err(FlashError::ProgramFailed(ppn));
        }
        self.fill(ppn, Some(data.to_vec()), oob);
        self.counters.page_writes += 1;
        Ok(self.t.write_cost())
    }

    fn program_next(&mut self, pbn: Pbn, data: &[u8], oob: OobData) -> Result<(Ppn, Duration)> {
        let ppn = self.next_free(pbn, 1)?;
        Ok((ppn, self.program(ppn, data, oob)?))
    }

    fn copy_page(&mut self, pbn: Pbn, src: Ppn, oob: OobData) -> Result<(Ppn, Duration)> {
        let data = self.programmed(src)?.data.clone();
        let ppn = self.next_free(pbn, 1)?;
        self.fill(ppn, data, oob);
        self.counters.page_writes += 1;
        Ok((ppn, self.t.write_cost()))
    }

    /// The per-page sequence `rebuild_block` stands for: one multi-plane
    /// batch read of the sources, then program + invalidate page by page.
    fn copy_pages(
        &mut self,
        dst: Pbn,
        sources: &[Option<Ppn>],
        oob: impl Fn(usize) -> OobData,
    ) -> Result<Duration> {
        self.next_free(dst, sources.len())?;
        let mut per_plane = vec![0u64; self.g.planes() as usize];
        for &src in sources.iter().flatten() {
            self.programmed(src)?;
            per_plane[self.g.plane_of(self.g.block_of(src)) as usize] += 1;
        }
        let reads: u64 = per_plane.iter().sum();
        let mut cost = Duration::ZERO;
        if reads > 0 {
            let busiest = per_plane.iter().copied().max().unwrap();
            cost += self.t.control + self.t.page_read * busiest + self.t.bus_control * reads;
            self.counters.page_reads += reads;
        }
        for (i, &src) in sources.iter().enumerate() {
            match src {
                Some(src) => {
                    cost += self.copy_page(dst, src, oob(i))?.1;
                    self.invalidate(src)?;
                }
                None => {
                    let ppn = self.next_free(dst, 1)?;
                    self.fill(ppn, Some(vec![0; self.g.page_size()]), oob(i));
                    self.counters.page_writes += 1;
                    cost += self.t.write_cost();
                }
            }
        }
        Ok(cost)
    }

    fn invalidate(&mut self, ppn: Ppn) -> Result<()> {
        if self.programmed(ppn)?.state == PageState::Valid {
            self.page_mut(ppn).state = PageState::Invalid;
            self.counters.invalidations += 1;
        }
        Ok(())
    }

    fn revalidate(&mut self, ppn: Ppn) -> Result<()> {
        self.programmed(ppn)?;
        self.page_mut(ppn).state = PageState::Valid;
        Ok(())
    }

    fn erase(&mut self, pbn: Pbn) -> Result<Duration> {
        if !self.g.pbn_in_range(pbn) {
            return Err(FlashError::PbnOutOfRange(pbn));
        }
        if self.faults.as_mut().is_some_and(|inj| inj.on_erase(pbn)) {
            return Err(FlashError::EraseFailed(pbn));
        }
        let block = &mut self.blocks[pbn.raw() as usize];
        block.pages.fill(RefPage::default());
        block.write_ptr = 0;
        block.erase_count += 1;
        self.counters.erases += 1;
        if let Some(inj) = &mut self.faults {
            inj.erased(self.g.first_page(pbn).raw(), self.g.pages_per_block());
        }
        Ok(self.t.erase_cost())
    }

    fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot {
            counters: self.counters,
            faults: self
                .faults
                .as_ref()
                .map(FaultInjector::counters)
                .unwrap_or_default(),
            ..Snapshot::default()
        };
        for (b, block) in self.blocks.iter().enumerate() {
            let first = self.g.first_page(Pbn(b as u64)).raw();
            let count = |s| block.pages.iter().filter(|p| p.state == s).count() as u32;
            let mut mask = 0u64;
            let mut valid = Vec::new();
            for (i, page) in block.pages.iter().enumerate() {
                if page.state == PageState::Valid {
                    mask |= 1 << i;
                    valid.push((Ppn(first + i as u64), page.oob));
                }
                let oob = (page.state != PageState::Free).then_some(page.oob);
                snap.pages.push((page.state, oob));
            }
            let state = BlockState {
                valid_pages: count(PageState::Valid),
                invalid_pages: count(PageState::Invalid),
                write_ptr: block.write_ptr,
                erase_count: block.erase_count,
            };
            snap.blocks.push((state, mask, valid));
        }
        snap
    }
}

/// Per block: aggregate state, validity bitmap, `valid_pages_iter`.
type BlockSnapshot = (BlockState, u64, Vec<(Ppn, OobData)>);

/// Everything the device lets a caller observe without charging for it.
#[derive(Debug, Default, PartialEq)]
struct Snapshot {
    counters: FlashCounters,
    faults: FaultCounters,
    blocks: Vec<BlockSnapshot>,
    /// Per page: state and OOB (`None` while free).
    pages: Vec<(PageState, Option<OobData>)>,
}

fn snapshot(dev: &FlashDevice) -> Snapshot {
    let g = *dev.geometry();
    let mut snap = Snapshot {
        counters: dev.counters(),
        faults: dev.fault_counters(),
        ..Snapshot::default()
    };
    for pbn in (0..g.total_blocks()).map(Pbn) {
        let valid: Vec<_> = dev.valid_pages_iter(pbn).unwrap().collect();
        assert_eq!(dev.valid_pages_of(pbn).unwrap(), valid);
        snap.blocks.push((
            dev.block_state(pbn).unwrap(),
            dev.valid_mask(pbn).unwrap(),
            valid,
        ));
    }
    for ppn in (0..g.total_pages()).map(Ppn) {
        let state = dev.page_state(ppn).unwrap();
        let oob = match dev.peek_oob(ppn) {
            Ok(oob) => Some(oob),
            Err(e) => {
                assert_eq!((e, state), (FlashError::ReadFree(ppn), PageState::Free));
                None
            }
        };
        snap.pages.push((state, oob));
    }
    snap
}

/// A page address: usually a programmed page, sometimes any page, rarely
/// one past the device.
fn pick_ppn(rng: &mut SimRng, model: &RefDevice) -> Ppn {
    let total = model.g.total_pages();
    if rng.gen_bool(0.7) {
        for _ in 0..8 {
            let ppn = Ppn(rng.gen_range(total));
            if model.programmed(ppn).is_ok() {
                return ppn;
            }
        }
    }
    Ppn(rng.gen_range(total + 2))
}

fn pick_pbn(rng: &mut SimRng, model: &RefDevice) -> Pbn {
    Pbn(rng.gen_range(model.g.total_blocks() * 16 + 1) / 16)
}

fn low_bits(count: u32) -> u64 {
    u64::MAX.checked_shr(64 - count).unwrap_or(0)
}

/// One `rebuild_block` call.
#[derive(Debug)]
struct Rebuild {
    dst: Pbn,
    len: usize,
    base: Option<(Pbn, u64)>,
    overlay: Vec<(u32, Ppn)>,
}

impl Rebuild {
    /// A run of `len` pages for `dst`. Three times in four there is a base
    /// block (sometimes `dst` itself), its mask mostly within the pages
    /// `programmed_in` says it has, sometimes one bit beyond them; one
    /// offset in five gets an overlay page from `pick_page`, now and then
    /// the page the previous overlay entry used.
    fn generate(
        rng: &mut SimRng,
        g: &Geometry,
        dst: Pbn,
        len: usize,
        programmed_in: impl Fn(Pbn) -> u32,
        mut pick_page: impl FnMut(&mut SimRng) -> Ppn,
    ) -> Self {
        let ppb = g.pages_per_block();
        let base = rng.gen_bool(0.75).then(|| {
            let pbn = if rng.gen_bool(0.15) && g.pbn_in_range(dst) {
                dst
            } else {
                Pbn(rng.gen_range(g.total_blocks()))
            };
            let wp = programmed_in(pbn);
            let mut mask = low_bits(wp);
            if rng.gen_bool(0.8) {
                mask &= rng.next_u64();
            }
            if wp < ppb && rng.gen_bool(0.1) {
                mask |= 1 << (wp + rng.gen_range(u64::from(ppb - wp)) as u32);
            }
            (pbn, mask)
        });
        let mut overlay: Vec<(u32, Ppn)> = Vec::new();
        for offset in 0..len as u32 {
            if rng.gen_bool(0.2) {
                let page = match overlay.last() {
                    Some(&(_, last)) if rng.gen_bool(0.1) => last,
                    _ => pick_page(rng),
                };
                overlay.push((offset, page));
            }
        }
        Rebuild {
            dst,
            len,
            base,
            overlay,
        }
    }

    /// The per-offset source list the references take: the overlay's page,
    /// else the base block's where its mask says so, else a hole.
    fn sources(&self, g: &Geometry) -> Vec<Option<Ppn>> {
        let mut sources: Vec<_> = (0..self.len)
            .map(|i| {
                let bit = 1u64.checked_shl(i as u32).unwrap_or(0);
                let (pbn, _) = self.base.filter(|&(_, mask)| mask & bit != 0)?;
                Some(Ppn(g.first_page(pbn).raw() + i as u64))
            })
            .collect();
        for &(offset, ppn) in &self.overlay {
            sources[offset as usize] = Some(ppn);
        }
        sources
    }

    fn run(&self, dev: &mut FlashDevice, oob: impl Fn(usize) -> OobData) -> Result<Duration> {
        dev.rebuild_block(self.dst, self.len, self.base, &self.overlay, oob)
    }
}

#[test]
fn device_matches_reference_model() {
    let config = FlashConfig::small_test(); // 16 blocks x 8 pages x 512 B
    let g = config.geometry;
    let (mut faulted_programs, mut rebuilt_pages) = (0, 0);
    for case in 0..96u64 {
        let mut rng = SimRng::seed_from(0xF1A5_0000 ^ case);
        let mode = [DataMode::Store, DataMode::Discard][(case % 2) as usize];
        let plan = (case % 4 >= 2).then(|| FaultPlan::uniform(case, 60_000));
        let mut dev = FlashDevice::new(config, mode);
        if let Some(plan) = plan {
            dev.set_fault_plan(plan);
        }
        let mut model = RefDevice::new(config, mode, plan);
        let next_oob = |rng: &mut SimRng| {
            OobData::for_lba(
                rng.gen_range(1 << 20),
                rng.gen_bool(0.3),
                rng.next_u64() >> 1,
            )
        };
        for step in 0..1 + rng.gen_range(400) {
            let at = format!("case {case} step {step}");
            match rng.gen_range(11) {
                0 | 1 => {
                    let pbn = pick_pbn(&mut rng, &model);
                    let data = vec![rng.gen_range(251) as u8; g.page_size()];
                    let oob = next_oob(&mut rng);
                    let got = dev.program_next(pbn, &data, oob);
                    assert_eq!(got, model.program_next(pbn, &data, oob), "{at}");
                    faulted_programs += matches!(got, Err(FlashError::ProgramFailed(_))) as u32;
                }
                2 => {
                    // Arbitrary target: mostly out of order or not free.
                    let ppn = Ppn(rng.gen_range(g.total_pages() + 2));
                    let len = if rng.gen_bool(0.9) { g.page_size() } else { 3 };
                    let data = vec![rng.gen_range(251) as u8; len];
                    let oob = next_oob(&mut rng);
                    assert_eq!(
                        dev.program_page(ppn, &data, oob),
                        model.program(ppn, &data, oob),
                        "{at}"
                    );
                }
                3 => {
                    let (pbn, src) = (pick_pbn(&mut rng, &model), pick_ppn(&mut rng, &model));
                    let oob = next_oob(&mut rng);
                    assert_eq!(
                        dev.copy_page_from(pbn, src, oob),
                        model.copy_page(pbn, src, oob),
                        "{at}"
                    );
                }
                4 | 5 => {
                    let dst = pick_pbn(&mut rng, &model);
                    let len = rng.gen_range(g.pages_per_block() as u64 + 1) as usize;
                    let call = Rebuild::generate(
                        &mut rng,
                        &g,
                        dst,
                        len,
                        |pbn| model.blocks[pbn.raw() as usize].write_ptr,
                        |rng| pick_ppn(rng, &model),
                    );
                    let seq0 = rng.next_u64() >> 1;
                    let oob =
                        |i: usize| OobData::for_lba(7 * i as u64, i % 3 == 1, seq0 + i as u64);
                    let got = call.run(&mut dev, oob);
                    assert_eq!(
                        got,
                        model.copy_pages(dst, &call.sources(&g), oob),
                        "{at} {call:?}"
                    );
                    rebuilt_pages += got.map_or(0, |_| len);
                }
                6 | 7 => {
                    let ppn = pick_ppn(&mut rng, &model);
                    assert_eq!(dev.invalidate_page(ppn), model.invalidate(ppn), "{at}");
                }
                8 => {
                    let ppn = pick_ppn(&mut rng, &model);
                    assert_eq!(dev.revalidate_page(ppn), model.revalidate(ppn), "{at}");
                }
                9 => {
                    let pbn = pick_pbn(&mut rng, &model);
                    assert_eq!(dev.erase_block(pbn), model.erase(pbn), "{at}");
                }
                _ => {
                    let ppn = pick_ppn(&mut rng, &model);
                    assert_eq!(read_poisoned(&mut dev, ppn), model.read(ppn), "{at}");
                    assert_eq!(dev.read_page_charge(ppn), model.read_charge(ppn), "{at}");
                }
            }
            assert_eq!(snapshot(&dev), model.snapshot(), "{at}");
        }
        // Read-back of every page, fault draws in lockstep.
        for ppn in (0..g.total_pages()).map(Ppn) {
            assert_eq!(
                read_poisoned(&mut dev, ppn),
                model.read(ppn),
                "case {case} {ppn:?}"
            );
        }
    }
    assert!(faulted_programs > 0, "fault plans never consumed a page");
    assert!(rebuilt_pages > 1000, "only {rebuilt_pages} pages rebuilt");
}

/// `rebuild_block` as the per-page calls it stands for, issued to a clone
/// of the same device: a batch read charged by the multi-plane formula,
/// then `copy_page_from`/`program_next` + `invalidate_page` for each slot.
fn composed_copy(
    dev: &mut FlashDevice,
    dst: Pbn,
    sources: &[Option<Ppn>],
    oob: impl Fn(usize) -> OobData,
) -> Result<Duration> {
    let (g, t) = (*dev.geometry(), *dev.timing());
    // Error precedence only: a run that does not fit is refused before any
    // source is looked at (the per-page programs would find out last).
    let room = dev.block_state(dst)?.free_pages(g.pages_per_block());
    if sources.len() > room as usize {
        return Err(FlashError::ProgramNotFree(g.first_page(dst)));
    }
    let mut per_plane = vec![0u64; g.planes() as usize];
    for &src in sources.iter().flatten() {
        dev.read_page_charge(src)?;
        per_plane[g.plane_of(g.block_of(src)) as usize] += 1;
    }
    let reads: u64 = per_plane.iter().sum();
    let mut cost = match per_plane.iter().copied().max() {
        Some(busiest) if reads > 0 => t.control + t.page_read * busiest + t.bus_control * reads,
        _ => Duration::ZERO,
    };
    let zeros = vec![0u8; g.page_size()];
    for (i, &src) in sources.iter().enumerate() {
        cost += match src {
            Some(src) => {
                let (_, wcost) = dev.copy_page_from(dst, src, oob(i))?;
                dev.invalidate_page(src)?;
                wcost
            }
            None => dev.program_next(dst, &zeros, oob(i))?.1,
        };
    }
    Ok(cost)
}

#[test]
fn rebuild_block_matches_the_per_page_composition() {
    // The tiny geometry and one with full-width (64-page) blocks.
    let wide = FlashConfig {
        geometry: Geometry::new(3, 4, 64, 64, 16),
        ..FlashConfig::small_test()
    };
    let (mut runs, mut errors) = (0, 0);
    // How often the generator reached each shape the primitive must handle.
    let mut reached = std::collections::BTreeMap::new();
    for case in 0..240u64 {
        let mut rng = SimRng::seed_from(0xF1A5_3000 ^ case);
        let mode = [DataMode::Store, DataMode::Discard][(case % 2) as usize];
        let config = [FlashConfig::small_test(), wide][(case / 2 % 2) as usize];
        let g = config.geometry;
        let ppb = g.pages_per_block();
        let mut dev = FlashDevice::new(config, mode);
        // Partly fill every block but the last two, over every plane, and
        // supersede some of the pages.
        let mut programmed = Vec::new();
        for pbn in (0..g.total_blocks() - 2).map(Pbn) {
            for _ in 0..rng.gen_range(u64::from(ppb) + 1) {
                let data = vec![rng.gen_range(251) as u8; g.page_size()];
                let oob = OobData::for_lba(rng.gen_range(999), rng.gen_bool(0.5), case);
                programmed.push(dev.program_next(pbn, &data, oob).unwrap().0);
            }
        }
        for &ppn in &programmed {
            if rng.gen_bool(0.3) {
                dev.invalidate_page(ppn).unwrap();
            }
        }
        // The destination: any block, so runs land in empty and non-empty
        // ones; the run: usually any length that fits, sometimes exactly
        // one page, the whole room, or one page too many. Overlay pages:
        // programmed ones (pages of the destination and of the base block
        // included), rarely a free page.
        let dst = Pbn(rng.gen_range(g.total_blocks()));
        let programmed_in = |pbn: Pbn| dev.block_state(pbn).unwrap().write_ptr;
        let room = u64::from(ppb - programmed_in(dst));
        let len = match rng.gen_range(20) {
            0 => room + 1,
            1..=3 => room,
            4..=5 => room.min(1),
            _ => rng.gen_range(room + 1),
        } as usize;
        let call = Rebuild::generate(&mut rng, &g, dst, len, programmed_in, |rng| {
            if programmed.is_empty() || rng.gen_bool(0.03) {
                Ppn(g.total_pages() - 1)
            } else {
                programmed[rng.gen_range(programmed.len() as u64) as usize]
            }
        });
        let sources = call.sources(&g);
        let oob = |i: usize| OobData::for_lba(100 + i as u64, i % 2 == 1, 1000 + i as u64);

        let before = snapshot(&dev);
        let mut composed = dev.clone();
        let got = call.run(&mut dev, oob);
        let at = format!("case {case}: {call:?}");
        let overlay_pages: Vec<_> = call.overlay.iter().map(|&(_, ppn)| ppn).collect();
        let mut reach = |what: &'static str, hit: bool| {
            *reached.entry(what).or_insert(0) += u32::from(hit);
        };
        match composed_copy(&mut composed, dst, &sources, oob) {
            Ok(cost) => {
                runs += 1;
                assert_eq!(got, Ok(cost), "{at}");
                assert_eq!(snapshot(&dev), snapshot(&composed), "{at}");
                for ppn in (0..g.total_pages()).map(Ppn) {
                    assert_eq!(dev.read_page(ppn), composed.read_page(ppn), "{at} {ppn:?}");
                }
                let based = call
                    .base
                    .is_some_and(|(_, mask)| mask & low_bits(len as u32) != 0);
                reach("base is dst", based && call.base.unwrap().0 == dst);
                reach(
                    "overlay page repeated",
                    overlay_pages.windows(2).any(|w| w[0] == w[1]),
                );
                reach("len 1", len == 1);
                reach("len 64", len == 64);
                reach(
                    "overlay only",
                    call.base.is_none() && !call.overlay.is_empty(),
                );
                reach("holes only", call.base.is_none() && call.overlay.is_empty());
            }
            Err(e) => {
                // The composition fails part-way; the primitive must refuse
                // up front with the same error and leave no trace.
                errors += 1;
                assert_eq!(got, Err(e), "{at}");
                assert_eq!(snapshot(&dev), before, "{at}");
                reach("run overflows dst", len as u64 > room);
                reach(
                    "free overlay page",
                    len as u64 <= room && overlay_pages.contains(&Ppn(g.total_pages() - 1)),
                );
                reach(
                    "base bit beyond its programmed pages",
                    matches!(e, FlashError::ReadFree(ppn)
                        if call.base.is_some_and(|(pbn, _)| g.block_of(ppn) == pbn)
                            && !overlay_pages.contains(&ppn)),
                );
            }
        }
    }
    assert!(runs > 100 && errors > 5, "{runs} runs, {errors} errors");
    assert_eq!(reached.len(), 9);
    assert!(reached.values().all(|&n| n > 0), "{reached:?}");
}

#[test]
fn wear_accounting_is_exact() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from(0xF1A5_1000 ^ case);
        let erase_seq: Vec<u8> = (0..rng.gen_range(200))
            .map(|_| rng.gen_range(16) as u8)
            .collect();
        let mut dev = FlashDevice::new(FlashConfig::small_test(), DataMode::Discard);
        let mut counts = [0u64; 16];
        for b in &erase_seq {
            dev.erase_block(Pbn(*b as u64)).unwrap();
            counts[*b as usize] += 1;
        }
        if erase_seq.is_empty() {
            continue; // min/max undefined; wear() covered by other cases
        }
        let wear = dev.wear();
        assert_eq!(wear.total_erases, erase_seq.len() as u64);
        assert_eq!(wear.max_erases, counts.iter().copied().max().unwrap());
        assert_eq!(wear.min_erases, counts.iter().copied().min().unwrap());
        assert_eq!(dev.counters().erases, erase_seq.len() as u64);
        for (pbn, c) in dev.erase_counts() {
            assert_eq!(c, counts[pbn.raw() as usize]);
        }
    }
}

#[test]
fn oob_round_trips() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from(0xF1A5_2000 ^ case);
        let lbas: Vec<(u64, bool)> = (0..1 + rng.gen_range(7))
            .map(|_| (rng.next_u64(), rng.gen_bool(0.5)))
            .collect();
        let mut dev = FlashDevice::new(FlashConfig::small_test(), DataMode::Discard);
        let g = *dev.geometry();
        let data = vec![0u8; g.page_size()];
        for (i, (lba, dirty)) in lbas.iter().enumerate() {
            let (ppn, _) = dev
                .program_next(Pbn(0), &data, OobData::for_lba(*lba, *dirty, i as u64))
                .unwrap();
            let oob = dev.peek_oob(ppn).unwrap();
            assert_eq!(oob.lba(), Some(*lba));
            assert_eq!(oob.dirty(), *dirty);
            assert_eq!(oob.seq(), i as u64);
        }
        assert_eq!(dev.valid_pages_of(Pbn(0)).unwrap().len(), lbas.len());
        assert_eq!(
            dev.page_state(Ppn(lbas.len() as u64)).unwrap(),
            PageState::Free
        );
    }
}
