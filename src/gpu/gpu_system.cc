#include "gpu/gpu_system.hh"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <stdexcept>

namespace valley {

namespace {

/** LLC read waiters store sm+1 so 0 can mean "write, nobody waits". */
constexpr std::uint64_t kNoWaiter = 0;

/** `sliceParkedOn` entry of a slice whose head is not blocked. */
constexpr unsigned kNotParked = std::numeric_limits<unsigned>::max();

} // namespace

GpuSystem::GpuSystem(const SimConfig &cfg_, const AddressMapper &mapper_)
    : cfg(cfg_), mapper(mapper_), decoder(cfg.layout)
{
    if (mapper.layout().addrBits != cfg.layout.addrBits)
        throw std::invalid_argument(
            "GpuSystem: mapper layout does not match config layout");
}

void
GpuSystem::pushEvent(const Event &ev)
{
    events.push_back(ev);
    std::push_heap(events.begin(), events.end(), std::greater<>{});
}

unsigned
GpuSystem::warpGid(unsigned sm, unsigned warp) const
{
    return sm * cfg.maxWarpsPerSm + warp;
}

void
GpuSystem::premapTrace(TbTrace &trace) const
{
    // The BIM address mapper sits right after the coalescer; applying
    // it once to the freshly generated (per-run, per-TB) trace copy
    // removes the transform from every later issue/retry of the line.
    const CompiledTransform &bim = mapper.compiled();
    if (bim.isIdentity())
        return;
    for (Addr &line : trace.lines)
        line = bim.apply(line);
}

unsigned
GpuSystem::tbSlotsFor(const Kernel &k) const
{
    const unsigned by_threads =
        cfg.maxThreadsPerSm / std::max(1u, k.threadsPerTb());
    const unsigned by_warps =
        cfg.maxWarpsPerSm / std::max(1u, k.warpsPerTb());
    return std::max(1u, std::min({cfg.maxTbsPerSm, by_threads,
                                  by_warps}));
}

void
GpuSystem::dispatchTbs(const Kernel &k)
{
    // Fill free TB slots round-robin across SMs, one TB per SM per
    // call, mirroring the GPGPU-Sim TB scheduler.
    bool assigned = true;
    while (assigned && tbNext < k.numTbs()) {
        assigned = false;
        for (unsigned s = 0; s < cfg.numSms && tbNext < k.numTbs();
             ++s) {
            Sm &sm = sms[s];
            for (unsigned slot = 0; slot < sm.tbSlots.size(); ++slot) {
                if (sm.tbSlots[slot].active)
                    continue;
                TbSlot &tbs = sm.tbSlots[slot];
                tbs.trace = k.trace(tbNext);
                premapTrace(tbs.trace);
                tbs.active = true;
                tbs.warpsLeft = 0;
                ++sm.activeTbs;
                for (unsigned w = 0; w < k.warpsPerTb(); ++w) {
                    WarpRt &warp = sm.warps[slot * k.warpsPerTb() + w];
                    warp.trace = &tbs.trace.warps[w];
                    warp.nextInstr = 0;
                    warp.outstanding = 0;
                    warp.waiting = false;
                    warp.tbSlot = slot;
                    warp.age = dispatchSeq;
                    const bool has_work = !warp.trace->instrs.empty();
                    warp.active = has_work;
                    if (has_work) {
                        warp.readyAt =
                            cycle + warp.trace->instrs.front().gap;
                        sm.issueIdleUntil =
                            std::min(sm.issueIdleUntil, warp.readyAt);
                        ++tbs.warpsLeft;
                    }
                }
                ++dispatchSeq;
                ++tbNext;
                if (tbs.warpsLeft == 0) {
                    // Degenerate TB with no memory work.
                    tbs.active = false;
                    --sm.activeTbs;
                    ++tbDone;
                }
                assigned = true;
                break;
            }
        }
    }
}

void
GpuSystem::issueStage(unsigned sm_idx)
{
    Sm &sm = sms[sm_idx];
    const unsigned warps_in_use =
        static_cast<unsigned>(sm.warps.size());
    const auto has_work = [&](const WarpRt &warp) {
        return warp.active && !warp.waiting &&
               warp.nextInstr < warp.trace->instrs.size();
    };
    bool issued = false;
    Cycle next_ready = std::numeric_limits<Cycle>::max();

    for (unsigned sched = 0; sched < cfg.schedulersPerSm; ++sched) {
        // Greedy-then-oldest: stick with the last warp while it is
        // ready; otherwise pick the oldest ready warp of this
        // scheduler (age = TB dispatch order, then warp index).
        unsigned pick = UINT32_MAX;
        const unsigned last = sm.lastIssued[sched];
        if (last != UINT32_MAX && last < warps_in_use &&
            (last % cfg.schedulersPerSm) == sched &&
            has_work(sm.warps[last]) && sm.warps[last].readyAt <= cycle) {
            pick = last;
        } else {
            std::uint64_t best_age = ~std::uint64_t{0};
            for (unsigned w = sched; w < warps_in_use;
                 w += cfg.schedulersPerSm) {
                const WarpRt &warp = sm.warps[w];
                if (!has_work(warp))
                    continue;
                if (warp.readyAt > cycle) {
                    next_ready = std::min(next_ready, warp.readyAt);
                    continue;
                }
                if (warp.age < best_age ||
                    (warp.age == best_age && w < pick)) {
                    best_age = warp.age;
                    pick = w;
                }
            }
        }
        if (pick == UINT32_MAX)
            continue;
        issued = true;

        WarpRt &warp = sm.warps[pick];
        const MemInstr &instr = warp.trace->instrs[warp.nextInstr];
        warp.outstanding = static_cast<unsigned>(instr.lines.size());
        warp.waiting = true;
        sm.lastIssued[sched] = pick;
        for (Addr line : instr.lines) {
            // Lines were remapped once at TB dispatch (premapTrace).
            sm.lsu.push_back(LineReq{line, warpGid(sm_idx, pick),
                                     instr.write});
        }
        requests += instr.lines.size();
        instructions += static_cast<double>(instr.lines.size()) *
                        instrsPerRequest;
        noteProgress();
        if (sm.lsu.size() >= cfg.lsuQueueDepth)
            return;
    }
    // Every scheduler scanned all its warps and none was ready: only
    // time, or a warp gaining work, can change that.
    if (!issued)
        sm.issueIdleUntil = next_ready;
}

bool
GpuSystem::tryIssueLine(unsigned sm_idx, const LineReq &req)
{
    SetAssocCache &l1 = l1s[sm_idx];
    const DramCoord coord = decoder.decode(req.line);
    const unsigned slice = cfg.sliceOf(coord);

    if (req.write) {
        // Write-through: needs a request-NoC slot for the data.
        if (!reqNoc->canInject(sm_idx))
            return false;
        l1.access(req.line, true, kNoWaiter);
        reqNoc->inject(sm_idx, slice, cfg.dataPacketBytes,
                       (std::uint64_t{1} << 63) |
                           (std::uint64_t{sm_idx} << 48) | req.line,
                       nocCycle);
        // The store completes for the warp once buffered.
        pushEvent(Event{cycle + 1, Event::Type::WarpLineDone,
                        req.warpGid, 0, 0});
        return true;
    }

    // Read path. Avoid allocating MSHRs we cannot back with a NoC
    // injection: probe first.
    const bool present = l1.contains(req.line);
    const bool merged = l1.mshrPending(req.line);
    if (!present && !merged) {
        if (!l1.mshrAvailable() || !reqNoc->canInject(sm_idx))
            return false;
    }

    const CacheAccessResult r =
        l1.access(req.line, false, req.warpGid + 1);
    switch (r.kind) {
      case CacheAccessResult::Kind::Hit:
        pushEvent(Event{cycle + cfg.l1HitLatency,
                        Event::Type::WarpLineDone, req.warpGid, 0, 0});
        return true;
      case CacheAccessResult::Kind::MergedMiss:
        return true; // woken by the fill
      case CacheAccessResult::Kind::Miss:
        reqNoc->inject(sm_idx, slice, cfg.readReqBytes,
                       (std::uint64_t{sm_idx} << 48) | req.line,
                       nocCycle);
        return true;
      case CacheAccessResult::Kind::Stall:
        return false;
    }
    return false;
}

bool
GpuSystem::lsuHeadCanIssue(unsigned sm_idx) const
{
    const LineReq &head = sms[sm_idx].lsu.front();
    assert(head.write || (!l1s[sm_idx].contains(head.line) &&
                          !l1s[sm_idx].mshrPending(head.line)));
    return reqNoc->canInject(sm_idx) &&
           (head.write || l1s[sm_idx].mshrAvailable());
}

void
GpuSystem::lsuStage(unsigned sm_idx)
{
    // The SM loop calls this only for a non-empty, unparked queue.
    Sm &sm = sms[sm_idx];
    for (unsigned n = 0; n < cfg.lsuWidth; ++n) {
        if (!tryIssueLine(sm_idx, sm.lsu.front())) {
            // Head-of-line blocking: wait for the NoC block to free
            // what the head lacks.
            sm.lsuParked = true;
            return;
        }
        sm.lsu.pop_front();
        noteProgress();
        if (sm.lsu.empty())
            return;
    }
}

void
GpuSystem::lineDone(unsigned gid)
{
    const unsigned sm_idx = gid / cfg.maxWarpsPerSm;
    const unsigned w = gid % cfg.maxWarpsPerSm;
    WarpRt &warp = sms[sm_idx].warps[w];
    if (!warp.active || warp.outstanding == 0)
        return; // stale wakeup (e.g. L1 fill after warp finished)
    if (--warp.outstanding == 0)
        warpInstrDone(gid);
}

void
GpuSystem::warpInstrDone(unsigned gid)
{
    const unsigned sm_idx = gid / cfg.maxWarpsPerSm;
    const unsigned w = gid % cfg.maxWarpsPerSm;
    Sm &sm = sms[sm_idx];
    WarpRt &warp = sm.warps[w];

    warp.waiting = false;
    ++warp.nextInstr;
    noteProgress();
    if (warp.nextInstr < warp.trace->instrs.size()) {
        warp.readyAt = cycle + warp.trace->instrs[warp.nextInstr].gap;
        sm.issueIdleUntil = std::min(sm.issueIdleUntil, warp.readyAt);
        return;
    }

    // Warp retired; maybe the TB too.
    warp.active = false;
    TbSlot &tbs = sm.tbSlots[warp.tbSlot];
    assert(tbs.warpsLeft > 0);
    if (--tbs.warpsLeft == 0) {
        tbs.active = false;
        --sm.activeTbs;
        ++tbDone;
        if (kernel)
            dispatchTbs(*kernel);
    }
}

void
GpuSystem::sliceTick(unsigned slice)
{
    // 1. Retry stalled replies first (they hold MSHR-free data).
    auto &stalled = stalledReplies[slice];
    while (!stalled.empty()) {
        const auto [sm, line] = stalled.front();
        if (!replyNoc->inject(slice, sm, cfg.dataPacketBytes,
                              (std::uint64_t{sm} << 48) | line,
                              nocCycle))
            break;
        stalled.pop_front();
    }

    // 2. Retry pending writebacks (dirty evictions).
    auto &wbs = pendingWritebacks[slice];
    while (!wbs.empty()) {
        if (!dram->enqueue(wbs.front(), dramCycle))
            break;
        wbs.pop_front();
    }

    // 3. Serve the input queue. A parked head's line is neither in
    // nor pending in the slice, so it issues once an MSHR and room on
    // its channel are both back.
    SetAssocCache &cache = llc[slice];
    unsigned &parked_on = sliceParkedOn[slice];
    if (parked_on != kNotParked) {
        assert(!cache.contains(sliceQueue[slice].front().line) &&
               !cache.mshrPending(sliceQueue[slice].front().line));
        if (!cache.mshrAvailable() || !dram->canAccept(parked_on))
            return;
        parked_on = kNotParked;
    }
    for (unsigned n = 0; n < cfg.llcPortsPerTick; ++n) {
        if (sliceQueue[slice].empty())
            break;
        const SliceReq req = sliceQueue[slice].front();
        const DramCoord coord = decoder.decode(req.line);

        const bool present = cache.contains(req.line);
        const bool pending = cache.mshrPending(req.line);
        if (!present && !pending) {
            // Will need a DRAM fill: require MSHR + MC queue space.
            if (!cache.mshrAvailable() ||
                !dram->canAccept(coord.channel)) {
                parked_on = coord.channel;
                break;
            }
        }

        const std::uint64_t waiter =
            req.write ? kNoWaiter : std::uint64_t{req.sm} + 1;
        const CacheAccessResult r =
            cache.access(req.line, req.write, waiter);
        switch (r.kind) {
          case CacheAccessResult::Kind::Hit:
            if (!req.write)
                pushEvent(Event{cycle + cfg.llcLatency,
                                Event::Type::ReplyReady, slice,
                                req.sm, req.line});
            break;
          case CacheAccessResult::Kind::MergedMiss:
            break;
          case CacheAccessResult::Kind::Miss: {
            DramRequest dr;
            dr.coord = coord;
            dr.write = false;
            dr.tag = (std::uint64_t{slice} << 40) | req.line;
            dram->enqueue(dr, dramCycle);
            break;
          }
          case CacheAccessResult::Kind::Stall:
            break; // handled by the resource probe above
        }
        sliceQueue[slice].pop_front();
        noteProgress();
    }
}

void
GpuSystem::deliverReply(unsigned sm, Addr line)
{
    CacheAccessResult eviction;
    const auto waiters = l1s[sm].fill(line, eviction);
    // L1 is write-through: evictions are always clean.
    for (std::uint64_t w : waiters)
        if (w != kNoWaiter)
            lineDone(static_cast<unsigned>(w - 1));
    noteProgress();
}

void
GpuSystem::handleDramCompletions()
{
    for (const DramCompletion &c : dramDone) {
        const unsigned slice = static_cast<unsigned>(c.tag >> 40);
        const Addr line = c.tag & ((std::uint64_t{1} << 40) - 1);
        CacheAccessResult eviction;
        const auto waiters = llc[slice].fill(line, eviction);
        if (eviction.dirtyEviction) {
            DramRequest wb;
            wb.coord = decoder.decode(eviction.victimLine);
            wb.write = true;
            wb.tag = 0;
            if (!dram->enqueue(wb, dramCycle))
                pendingWritebacks[slice].push_back(wb);
        }
        for (std::uint64_t w : waiters) {
            if (w == kNoWaiter)
                continue;
            const unsigned sm = static_cast<unsigned>(w - 1);
            pushEvent(Event{cycle + 4, Event::Type::ReplyReady,
                            slice, sm, line});
        }
        noteProgress();
    }
    dramDone.clear();
}

void
GpuSystem::sampleMetrics()
{
    unsigned busy_slices = 0;
    for (unsigned s = 0; s < cfg.llcSlices; ++s)
        busy_slices += !sliceQueue[s].empty() ||
                       llc[s].mshrInUse() > 0 ||
                       !stalledReplies[s].empty();
    if (busy_slices) {
        ++llcBusySamples;
        llcBusySum += busy_slices;
    }

    const unsigned busy_ch = dram->channelsWithPending();
    if (busy_ch) {
        ++chBusySamples;
        chBusySum += busy_ch;
        const unsigned busy_banks = dram->banksWithPending();
        bankPerChannelSum += static_cast<double>(busy_banks) /
                             static_cast<double>(busy_ch);
        ++bankSamples;
    }
}

RunResult
GpuSystem::run(const Workload &workload, const CancelToken *cancel)
{
    // ---- reset all run state ------------------------------------------
    // TbTrace is move-only, so the SMs and their TB slots are
    // cleared and default-constructed rather than assigned.
    sms.clear();
    sms.resize(cfg.numSms);
    for (Sm &sm : sms) {
        sm.warps.assign(cfg.maxWarpsPerSm, WarpRt{});
        sm.lastIssued.assign(cfg.schedulersPerSm, UINT32_MAX);
    }
    l1s.clear();
    for (unsigned s = 0; s < cfg.numSms; ++s)
        l1s.emplace_back(cfg.l1);
    llc.clear();
    for (unsigned s = 0; s < cfg.llcSlices; ++s)
        llc.emplace_back(cfg.llcSlice);
    sliceQueue.assign(cfg.llcSlices, {});
    sliceParkedOn.assign(cfg.llcSlices, kNotParked);
    pendingWritebacks.assign(cfg.llcSlices, {});
    stalledReplies.assign(cfg.llcSlices, {});
    reqNoc = std::make_unique<Crossbar>(cfg.numSms, cfg.llcSlices,
                                        cfg.nocChannelBytes,
                                        cfg.nocQueueDepth);
    replyNoc = std::make_unique<Crossbar>(cfg.llcSlices, cfg.numSms,
                                          cfg.nocChannelBytes,
                                          cfg.nocQueueDepth);
    dram = std::make_unique<DramSystem>(cfg.layout.numChannels(),
                                        cfg.layout.numBanksPerChannel(),
                                        cfg.dram, cfg.mcQueueDepth);
    events.clear();
    events.reserve(4096);
    dramDone.clear();
    cycle = nocCycle = dramCycle = 0;
    dramAcc = 0;
    lastProgress = 0;
    dispatchSeq = 0;
    requests = 0;
    instructions = 0.0;
    llcBusySamples = llcBusySum = 0;
    chBusySamples = chBusySum = 0;
    bankSamples = 0;
    bankPerChannelSum = 0.0;

    std::vector<NocDelivery> deliveries;

    // ---- simulate kernels back to back ------------------------------------
    for (const Kernel &k : workload.kernels()) {
        kernel = &k;
        tbNext = 0;
        tbDone = 0;
        instrsPerRequest = k.params().instrsPerRequest;

        const unsigned slots = tbSlotsFor(k);
        for (Sm &sm : sms) {
            sm.tbSlots.clear();
            sm.tbSlots.resize(slots);
            sm.activeTbs = 0;
            sm.lastIssued.assign(cfg.schedulersPerSm, UINT32_MAX);
            sm.issueIdleUntil = 0;
        }
        dispatchTbs(k);

        while (tbDone < k.numTbs()) {
            if (cycle % kCancelPollCycles == 0 && cancel &&
                cancel->cancelled())
                throw Cancelled("GpuSystem: cancelled in " + k.name());
            ++cycle;
            if (cycle >= cfg.maxCycles)
                throw std::runtime_error("GpuSystem: cycle budget "
                                         "exceeded in " + k.name());
            if (cycle - lastProgress > cfg.watchdogCycles)
                throw std::runtime_error(
                    "GpuSystem: no forward progress in " + k.name());

            // SM domain. A parked LSU head cannot issue before the
            // next NoC block; until issueIdleUntil every issue scan
            // would come up empty.
            for (unsigned s = 0; s < cfg.numSms; ++s) {
                Sm &sm = sms[s];
                assert(!sm.lsuParked || !lsuHeadCanIssue(s));
                if (!sm.lsuParked && !sm.lsu.empty())
                    lsuStage(s);
                if (cycle >= sm.issueIdleUntil &&
                    sm.lsu.size() < cfg.lsuQueueDepth)
                    issueStage(s);
            }

            // Event retirement (L1 hits, store acks, LLC replies).
            while (!events.empty() && events.front().at <= cycle) {
                const Event ev = events.front();
                std::pop_heap(events.begin(), events.end(),
                              std::greater<>{});
                events.pop_back();
                if (ev.type == Event::Type::WarpLineDone) {
                    lineDone(ev.a);
                } else {
                    // LLC reply ready: inject or park it.
                    if (!replyNoc->inject(
                            ev.a, ev.b, cfg.dataPacketBytes,
                            (std::uint64_t{ev.b} << 48) | ev.line,
                            nocCycle))
                        stalledReplies[ev.a].emplace_back(ev.b,
                                                          ev.line);
                }
            }

            // NoC + LLC domain (700 MHz).
            if (cycle % cfg.nocPeriod == 0) {
                ++nocCycle;
                deliveries.clear();
                reqNoc->tick(nocCycle, deliveries);
                for (const NocDelivery &d : deliveries) {
                    const bool is_write = d.tag >> 63;
                    const unsigned sm =
                        static_cast<unsigned>((d.tag >> 48) & 0x7FFF);
                    const Addr line =
                        d.tag & ((std::uint64_t{1} << 48) - 1);
                    sliceQueue[d.output].push_back(
                        SliceReq{line, sm, is_write});
                }
                for (unsigned s = 0; s < cfg.llcSlices; ++s)
                    sliceTick(s);
                deliveries.clear();
                replyNoc->tick(nocCycle, deliveries);
                for (const NocDelivery &d : deliveries)
                    deliverReply(d.output,
                                 d.tag &
                                     ((std::uint64_t{1} << 48) - 1));
                // Request-NoC pops and L1 fills above are the only
                // events that free what a parked LSU head waits for.
                for (unsigned s = 0; s < cfg.numSms; ++s)
                    if (sms[s].lsuParked && lsuHeadCanIssue(s))
                        sms[s].lsuParked = false;
            }

            // DRAM domain (fractional clock).
            dramAcc += cfg.dramClockNum;
            while (dramAcc >= cfg.dramClockDen) {
                dramAcc -= cfg.dramClockDen;
                ++dramCycle;
                dram->tick(dramCycle, dramDone);
                if (!dramDone.empty())
                    handleDramCompletions();
            }

            if (cycle % cfg.metricSamplePeriod == 0)
                sampleMetrics();
        }
    }
    kernel = nullptr;

    // ---- collect results ---------------------------------------------------
    RunResult r;
    r.workload = workload.info().abbrev;
    r.scheme = mapper.name();
    r.config = cfg.name;
    r.cycles = cycle;
    r.seconds = cfg.secondsFor(cycle);
    r.instructions = static_cast<std::uint64_t>(instructions);
    r.requests = requests;

    for (const SetAssocCache &c : l1s) {
        r.l1Accesses += c.stats().accesses;
        r.l1Misses += c.stats().misses + c.stats().mshrMerges;
    }
    for (const SetAssocCache &c : llc) {
        r.llcAccesses += c.stats().accesses;
        r.llcMisses += c.stats().misses + c.stats().mshrMerges;
    }
    r.llcMissRate = r.llcAccesses
                        ? static_cast<double>(r.llcMisses) /
                              static_cast<double>(r.llcAccesses)
                        : 0.0;

    const NocStats &rq = reqNoc->stats();
    const NocStats &rp = replyNoc->stats();
    const std::uint64_t packets = rq.packets + rp.packets;
    r.nocLatencySmCycles =
        packets ? static_cast<double>(rq.latencySum + rp.latencySum) /
                      static_cast<double>(packets) *
                      static_cast<double>(cfg.nocPeriod)
                : 0.0;

    r.llcParallelism =
        llcBusySamples ? static_cast<double>(llcBusySum) /
                             static_cast<double>(llcBusySamples)
                       : 0.0;
    r.channelParallelism =
        chBusySamples ? static_cast<double>(chBusySum) /
                            static_cast<double>(chBusySamples)
                      : 0.0;
    r.bankParallelism =
        bankSamples ? bankPerChannelSum /
                          static_cast<double>(bankSamples)
                    : 0.0;

    r.dram = dram->totalStats();
    r.rowBufferHitRate = r.dram.rowHitRate();
    r.dramPower = computeDramPower(r.dram, cfg.layout.numChannels(),
                                   r.seconds, cfg.dramPower);

    GpuActivityCounts activity;
    activity.instructions = r.instructions;
    activity.l1Accesses = r.l1Accesses;
    activity.llcAccesses = r.llcAccesses;
    activity.nocFlits = rq.flits + rp.flits;
    r.gpuPower =
        computeGpuPower(activity, cfg.numSms, r.seconds, cfg.gpuPower);
    r.systemPowerW = systemPowerW(r.gpuPower, r.dramPower);
    return r;
}

} // namespace valley
