#include "cache/pim_cache.h"

#include <algorithm>

#include "common/xassert.h"
#include "obs/event_sink.h"

namespace pim {

PimCache::PimCache(PeId pe, const CacheConfig& config, Bus& bus)
    : pe_(pe),
      config_(config),
      bus_(bus),
      proto_(CoherenceProtocol::make(config.protocol)),
      rngState_(config.replacementSeed ^
                (0x9e3779b97f4a7c15ull * (pe + 1))),
      locks_(pe, config.lockEntries, &bus, config.geometry.blockWords),
      blocks_(static_cast<std::size_t>(config.geometry.sets) *
              config.geometry.ways),
      data_(static_cast<std::size_t>(config.geometry.sets) *
            config.geometry.ways * config.geometry.blockWords)
{
    config_.geometry.validate();
    PIM_ASSERT(config_.geometry.blockWords == bus.timing().blockWords,
               "cache block size must match the bus timing block size");
    while ((1u << blockShift_) != config_.geometry.blockWords)
        ++blockShift_;
    setMask_ = config_.geometry.sets - 1;
    if (rngState_ == 0)
        rngState_ = 1; // xorshift64 must not start at zero
    // The Illinois-style ablation predates the protocol zoo and keeps
    // its CLI: it is exactly the PIM protocol with MESI's dirty-share
    // behavior.
    if (config_.copybackOnShare)
        proto_.dirtyShare = DirtyShare::WritebackToMemory;
    bus_.attach(pe_, this, &locks_);
}

void
PimCache::copyStateFrom(const PimCache& other)
{
    PIM_ASSERT(pe_ == other.pe_ && config_ == other.config_,
               "copying the state of a different cache");
    rngState_ = other.rngState_;
    locks_.copyStateFrom(other.locks_);
    stats_ = other.stats_;
    lruTick_ = other.lruTick_;
    blocks_ = other.blocks_;
    data_ = other.data_;
}

std::uint32_t
PimCache::setIndexOf(Addr block_base) const
{
    return static_cast<std::uint32_t>(block_base >> blockShift_) & setMask_;
}

Addr
PimCache::blockBaseOf(Addr addr) const
{
    return addr & ~static_cast<Addr>(config_.geometry.blockWords - 1);
}

PimCache::Block*
PimCache::findBlock(Addr block_base)
{
    const std::uint32_t set = setIndexOf(block_base);
    Block* begin = &blocks_[static_cast<std::size_t>(set) *
                            config_.geometry.ways];
    for (std::uint32_t way = 0; way < config_.geometry.ways; ++way) {
        Block& block = begin[way];
        if (block.state != CacheState::INV && block.base == block_base)
            return &block;
    }
    return nullptr;
}

const PimCache::Block*
PimCache::findBlock(Addr block_base) const
{
    return const_cast<PimCache*>(this)->findBlock(block_base);
}

Word*
PimCache::blockData(const Block& block)
{
    const std::size_t index = &block - blocks_.data();
    return &data_[index * config_.geometry.blockWords];
}

const Word*
PimCache::blockData(const Block& block) const
{
    const std::size_t index = &block - blocks_.data();
    return &data_[index * config_.geometry.blockWords];
}

void
PimCache::touchLru(Block& block)
{
    block.lru = ++lruTick_;
}

void
PimCache::touchOnHit(Block& block)
{
    if (config_.replacement != ReplacementKind::FIFO)
        touchLru(block);
}

PimCache::Block&
PimCache::victimIn(std::uint32_t set)
{
    Block* begin = &blocks_[static_cast<std::size_t>(set) *
                            config_.geometry.ways];
    Block* victim = begin;
    for (std::uint32_t way = 0; way < config_.geometry.ways; ++way) {
        Block& block = begin[way];
        if (block.state == CacheState::INV)
            return block;
        if (block.lru < victim->lru)
            victim = &block;
    }
    // All ways valid: LRU and FIFO both evict the oldest tick (FIFO just
    // never refreshed it on hits); random draws one xorshift step.
    if (config_.replacement == ReplacementKind::Random) {
        rngState_ = replacementRngNext(rngState_);
        return begin[rngState_ % config_.geometry.ways];
    }
    return *victim;
}

PimCache::FetchOutcome
PimCache::fetchBlock(Addr block_base, bool invalidate, bool with_lock,
                     Addr lock_word, bool install, Word* scratch, Cycles now,
                     Area area)
{
    FetchOutcome outcome;
    Block* victim = nullptr;
    bool dirty_victim = false;
    if (install) {
        victim = &victimIn(setIndexOf(block_base));
        dirty_victim = victim->state != CacheState::INV &&
                       cacheStateDirty(victim->state);
    }

    // Fetch into a bounce buffer; only commit the eviction on success.
    Word buffer[64];
    PIM_ASSERT(config_.geometry.blockWords <= 64);
    const FetchResult result =
        bus_.fetch(pe_, block_base, invalidate, with_lock, lock_word,
                   dirty_victim, buffer, now, area);
    if (result.lockHit) {
        outcome.lockWait = true;
        outcome.doneAt = result.completeAt;
        return outcome;
    }

    outcome.supplied = result.supplied;
    outcome.supplierDirty = result.supplierDirty;
    outcome.doneAt = result.completeAt;

    // Injected fault: one bit flips while the fill buffer drains into the
    // data array.
    if (injector_ != nullptr && injector_->fire(FaultSite::BitFlipFill))
        injector_->flipBit(buffer, config_.geometry.blockWords);

    if (install) {
        if (victim->state != CacheState::INV) {
            stats_.evictions += 1;
            if (cacheStateDirty(victim->state)) {
                stats_.swapOuts += 1;
                bus_.writeBackData(victim->base, blockData(*victim));
                if (sink_ != nullptr)
                    sink_->onSwapOut(pe_, victim->base, outcome.doneAt);
            }
            setState(*victim, CacheState::INV, outcome.doneAt);
        }
        victim->base = block_base;
        victim->state = CacheState::INV; // caller sets the final state
        touchLru(*victim);
        std::copy(buffer, buffer + config_.geometry.blockWords,
                  blockData(*victim));
        outcome.block = victim;
    } else if (scratch != nullptr) {
        std::copy(buffer, buffer + config_.geometry.blockWords, scratch);
    }
    if (sink_ != nullptr)
        sink_->onCacheFill(pe_, block_base, outcome.supplied,
                           outcome.supplied && outcome.supplierDirty,
                           outcome.doneAt);
    return outcome;
}

void
PimCache::purgeBlock(Block& block, Cycles when)
{
    stats_.purges += 1;
    const bool was_dirty = cacheStateDirty(block.state);
    if (was_dirty) {
        stats_.purgedDirty += 1;
        bus_.markPurgedDirty(block.base);
    }
    if (sink_ != nullptr)
        sink_->onPurge(pe_, block.base, was_dirty, when);
    setState(block, CacheState::INV, when);
    block.base = kNoAddr;
}

void
PimCache::setState(Block& block, CacheState to, Cycles when)
{
    if (sink_ != nullptr && block.state != to)
        sink_->onCacheTransition(pe_, block.base, block.state, to, when);
    // Keep the bus residency filter exact: every INV <-> valid edge of
    // any block funnels through here (the few direct state writes below
    // notify the bus themselves).
    if (block.state == CacheState::INV && to != CacheState::INV)
        bus_.noteBlockPresent(pe_, block.base);
    else if (block.state != CacheState::INV && to == CacheState::INV)
        bus_.noteBlockAbsent(pe_, block.base);
    block.state = to;
}

void
PimCache::countAccess(const MemRef& ref, bool miss)
{
    stats_.accesses += 1;
    stats_.accessesByArea[static_cast<int>(ref.area)] += 1;
    if (miss) {
        stats_.misses += 1;
        stats_.missesByArea[static_cast<int>(ref.area)] += 1;
    }
}

PimCache::AccessResult
PimCache::access(const MemRef& ref, Word wdata, Cycles now)
{
    PIM_ASSERT(ref.pe == pe_, "reference routed to the wrong PE cache");
    if (config_.writeThrough && demoteMemOp(ref.op) != ref.op) {
        // The optimized commands presuppose copy-back; the write-through
        // baseline executes their plain equivalents.
        MemRef plain = ref;
        plain.op = demoteMemOp(ref.op);
        return access(plain, wdata, now);
    }
    switch (ref.op) {
      case MemOp::R:  return doRead(ref, now);
      case MemOp::W:  return doWrite(ref, wdata, now);
      case MemOp::LR: return doLockRead(ref, now);
      case MemOp::UW: return doUnlock(ref, true, wdata, now);
      case MemOp::U:  return doUnlock(ref, false, 0, now);
      case MemOp::DW: return doDirectWrite(ref, wdata, false, now);
      case MemOp::DWD: return doDirectWrite(ref, wdata, true, now);
      case MemOp::ER: return doExclusiveRead(ref, now);
      case MemOp::RP: return doReadPurge(ref, now);
      case MemOp::RI: return doReadInvalidate(ref, now);
    }
    PIM_PANIC("unknown memory operation");
}

PimCache::AccessResult
PimCache::doRead(const MemRef& ref, Cycles now)
{
    AccessResult result;
    const Addr base = blockBaseOf(ref.addr);
    // Injected fault: the tag match is silently dropped — the copy (dirty
    // or not) vanishes without copy-back and the read refetches.
    if (injector_ != nullptr && injector_->fire(FaultSite::ForcedMiss)) {
        if (Block* block = findBlock(base)) {
            bus_.noteBlockAbsent(pe_, block->base);
            block->state = CacheState::INV;
            block->base = kNoAddr;
        }
    }
    if (Block* block = findBlock(base)) {
        touchOnHit(*block);
        result.data = blockData(*block)[ref.addr - base];
        result.doneAt = now + config_.hitCycles;
        countAccess(ref, false);
        return result;
    }
    const FetchOutcome outcome =
        fetchBlock(base, false, false, 0, true, nullptr, now, ref.area);
    if (outcome.lockWait) {
        result.lockWait = true;
        result.waitAddr = base;
        result.doneAt = outcome.doneAt;
        return result;
    }
    Block& block = *outcome.block;
    CacheState install =
        proto_.installOnReadMiss(outcome.supplied, outcome.supplierDirty);
    // Seeded bug MsiMissAsExclusive: the EC install of the EC-bearing
    // protocols leaks into MSI, enabling a later silent write.
    if (mutation_ == ProtocolMutation::MsiMissAsExclusive &&
        !outcome.supplied) {
        install = CacheState::EC;
    }
    setState(block, install, outcome.doneAt);
    result.data = blockData(block)[ref.addr - base];
    result.doneAt = outcome.doneAt;
    countAccess(ref, true);
    return result;
}

PimCache::AccessResult
PimCache::doWrite(const MemRef& ref, Word wdata, Cycles now)
{
    AccessResult result;
    const Addr base = blockBaseOf(ref.addr);
    if (config_.writeThrough) {
        // Every write goes on the bus; no allocation on a write miss;
        // our copy (if any) stays valid and is now the only one.
        if (Block* block = findBlock(base)) {
            blockData(*block)[ref.addr - base] = wdata;
            setState(*block, CacheState::EC, now);
            touchOnHit(*block);
        }
        result.doneAt =
            bus_.writeWordThrough(pe_, ref.addr, wdata, now, ref.area);
        countAccess(ref, false);
        return result;
    }
    if (Block* block = findBlock(base)) {
        touchOnHit(*block);
        const bool shared =
            block->state == CacheState::S || block->state == CacheState::SM;
        if (shared && proto_.updateOnSharedWrite) {
            // Dragon: keep the sharers, broadcast the written word. Our
            // copy becomes the dirty owner (Sm while sharers remain, M
            // once we are alone). Seeded bug DragonUpdateSkipsSharers
            // takes the block exclusive without the broadcast.
            blockData(*block)[ref.addr - base] = wdata;
            if (mutation_ == ProtocolMutation::DragonUpdateSkipsSharers) {
                setState(*block, CacheState::EM, now + config_.hitCycles);
                result.doneAt = now + config_.hitCycles;
            } else {
                const UpdateResult upd =
                    bus_.updateWord(pe_, ref.addr, wdata, now, ref.area);
                setState(*block,
                         upd.sharerPresent ? CacheState::SM : CacheState::EM,
                         upd.completeAt);
                result.doneAt = upd.completeAt;
            }
            countAccess(ref, false);
            return result;
        }
        // Seeded bug WriteSharedSkipsInv: write the shared copy in place
        // without the I broadcast, leaving remote copies to diverge.
        if (shared &&
            mutation_ != ProtocolMutation::WriteSharedSkipsInv) {
            const InvalidateResult inv =
                bus_.invalidate(pe_, base, false, 0, now, ref.area);
            result.doneAt = inv.completeAt;
        } else {
            result.doneAt = now + config_.hitCycles;
        }
        setState(*block, CacheState::EM, result.doneAt);
        blockData(*block)[ref.addr - base] = wdata;
        countAccess(ref, false);
        return result;
    }
    // Write miss: fetch-on-write with invalidation (FI). Dragon instead
    // fetches with plain F and, if another cache supplied (so sharers
    // survive), broadcasts the written word to them.
    const bool update_miss = proto_.updateOnSharedWrite;
    const FetchOutcome outcome =
        fetchBlock(base, !update_miss, false, 0, true, nullptr, now,
                   ref.area);
    if (outcome.lockWait) {
        result.lockWait = true;
        result.waitAddr = base;
        result.doneAt = outcome.doneAt;
        return result;
    }
    Block& block = *outcome.block;
    if (update_miss && outcome.supplied &&
        mutation_ != ProtocolMutation::DragonUpdateSkipsSharers) {
        blockData(block)[ref.addr - base] = wdata;
        const UpdateResult upd =
            bus_.updateWord(pe_, ref.addr, wdata, outcome.doneAt, ref.area);
        setState(block,
                 upd.sharerPresent ? CacheState::SM : CacheState::EM,
                 upd.completeAt);
        result.doneAt = upd.completeAt;
    } else {
        setState(block, CacheState::EM, outcome.doneAt);
        blockData(block)[ref.addr - base] = wdata;
        result.doneAt = outcome.doneAt;
    }
    countAccess(ref, true);
    return result;
}

PimCache::AccessResult
PimCache::doLockRead(const MemRef& ref, Cycles now)
{
    AccessResult result;
    const Addr base = blockBaseOf(ref.addr);
    Block* block = findBlock(base);

    if (block != nullptr && cacheStateExclusive(block->state)) {
        // Zero-bus-cycle lock: the paper's key lock optimization.
        locks_.acquire(ref.addr, now + config_.hitCycles);
        touchOnHit(*block);
        result.data = blockData(*block)[ref.addr - base];
        result.doneAt = now + config_.hitCycles;
        countAccess(ref, false);
        stats_.lrCount += 1;
        stats_.lrHit += 1;
        stats_.lrHitExclusive += 1;
        return result;
    }

    if (block != nullptr) {
        // Shared hit: LK rides with an I command to gain exclusiveness.
        const InvalidateResult inv =
            bus_.invalidate(pe_, base, true, ref.addr, now, ref.area);
        if (inv.lockHit) {
            stats_.lrLockWaits += 1;
            result.lockWait = true;
            result.waitAddr = base;
            result.doneAt = inv.completeAt;
            return result;
        }
        // If the invalidation dropped a dirty remote copy, its dirtiness
        // migrates here; otherwise keep our own cleanliness (MSI, with no
        // EC state, always lands in EM).
        setState(*block,
                 proto_.upgradeToExclusive(cacheStateDirty(block->state),
                                           inv.droppedDirty),
                 inv.completeAt);
        locks_.acquire(ref.addr, inv.completeAt);
        touchOnHit(*block);
        result.data = blockData(*block)[ref.addr - base];
        result.doneAt = inv.completeAt;
        countAccess(ref, false);
        stats_.lrCount += 1;
        stats_.lrHit += 1;
        return result;
    }

    // Miss: LK rides with FI.
    const FetchOutcome outcome =
        fetchBlock(base, true, true, ref.addr, true, nullptr, now, ref.area);
    if (outcome.lockWait) {
        stats_.lrLockWaits += 1;
        result.lockWait = true;
        result.waitAddr = base;
        result.doneAt = outcome.doneAt;
        return result;
    }
    Block& fetched = *outcome.block;
    setState(fetched, proto_.installOnExclusiveFetch(outcome.supplierDirty),
             outcome.doneAt);
    locks_.acquire(ref.addr, outcome.doneAt);
    result.data = blockData(fetched)[ref.addr - base];
    result.doneAt = outcome.doneAt;
    countAccess(ref, true);
    stats_.lrCount += 1;
    return result;
}

PimCache::AccessResult
PimCache::doUnlock(const MemRef& ref, bool write, Word wdata, Cycles now)
{
    PIM_ASSERT(locks_.holds(ref.addr), "pe", pe_,
               " unlocking an address it did not lock: ", ref.addr);
    AccessResult result;
    const Addr base = blockBaseOf(ref.addr);
    Block* block = findBlock(base);
    bool miss = false;
    Cycles when = now;

    if (write && config_.writeThrough) {
        if (block != nullptr) {
            blockData(*block)[ref.addr - base] = wdata;
            setState(*block, CacheState::EC, now);
            touchOnHit(*block);
        }
        when = bus_.writeWordThrough(pe_, ref.addr, wdata, now, ref.area);
    } else if (write) {
        if (block == nullptr) {
            // The locked block was swapped out while locked; refetch.
            // Remote lock directories cannot answer LH here: while we
            // hold a lock in this block, no other PE can acquire one.
            const FetchOutcome outcome = fetchBlock(
                base, true, false, 0, true, nullptr, now, ref.area);
            PIM_ASSERT(!outcome.lockWait,
                       "UW inhibited by a foreign lock in a block this PE "
                       "holds locked");
            block = outcome.block;
            setState(*block,
                     proto_.installOnExclusiveFetch(outcome.supplierDirty),
                     outcome.doneAt);
            when = outcome.doneAt;
            miss = true;
        }
        if (!cacheStateExclusive(block->state)) {
            // MSI only: with no EC state, a plain read that refetched
            // the locked block installs S even though the lock
            // inhibition guarantees we are the sole holder. Pay the
            // upgrade broadcast a real MSI controller issues before
            // the unlocking write.
            PIM_ASSERT(!proto_.hasExclusiveClean,
                       "locked block unexpectedly shared on UW");
            const InvalidateResult inv =
                bus_.invalidate(pe_, base, false, 0, when, ref.area);
            when = inv.completeAt;
        }
        setState(*block, CacheState::EM, when);
        blockData(*block)[ref.addr - base] = wdata;
        touchOnHit(*block);
    }

    bool had_waiter = locks_.release(ref.addr, when);
    // Seeded bug UnlockDropsUl: skip the UL broadcast, so parked PEs
    // busy-wait on a lock that is already free.
    if (mutation_ == ProtocolMutation::UnlockDropsUl)
        had_waiter = false;
    stats_.unlockCount += 1;
    if (had_waiter) {
        result.doneAt = bus_.unlockBroadcast(pe_, ref.addr, when, ref.area);
    } else {
        stats_.unlockNoWaiter += 1;
        result.doneAt = std::max(when, now + config_.hitCycles);
    }
    countAccess(ref, miss);
    return result;
}

PimCache::AccessResult
PimCache::doDirectWrite(const MemRef& ref, Word wdata, bool downward,
                        Cycles now)
{
    const Addr base = blockBaseOf(ref.addr);
    // DW allocates at the first word of a block (upward-growing areas);
    // DWD at the last word (downward-growing stacks) — the "two
    // commands" of paper Section 3.2.
    const bool boundary =
        downward ? ref.addr == base + config_.geometry.blockWords - 1
                 : ref.addr == base;
    if (!boundary || findBlock(base) != nullptr) {
        // Rule (ii): the controller automatically replaces DW with W.
        stats_.dwDemoted += 1;
        return doWrite(ref, wdata, now);
    }

    // Rule (i): allocate without fetching from shared memory. Software
    // guarantees no remote cache holds this block.
    AccessResult result;
    Block& victim = victimIn(setIndexOf(base));
    Cycles done = now + config_.hitCycles;
    if (victim.state != CacheState::INV) {
        stats_.evictions += 1;
        if (cacheStateDirty(victim.state)) {
            stats_.swapOuts += 1;
            stats_.dwSwapOutOnly += 1;
            done = bus_.swapOutOnly(pe_, victim.base, blockData(victim), now,
                                    ref.area);
            if (sink_ != nullptr)
                sink_->onSwapOut(pe_, victim.base, done);
        }
        setState(victim, CacheState::INV, done);
    }
    victim.base = base;
    setState(victim, CacheState::EM, done);
    touchLru(victim);
    Word* words = blockData(victim);
    std::fill(words, words + config_.geometry.blockWords, Word{0});
    words[ref.addr - base] = wdata;
    bus_.noteFreshAllocation(base);
    stats_.dwAllocNoFetch += 1;
    result.doneAt = done;
    countAccess(ref, false);
    return result;
}

PimCache::AccessResult
PimCache::doExclusiveRead(const MemRef& ref, Cycles now)
{
    const Addr base = blockBaseOf(ref.addr);
    const bool last_word =
        ref.addr - base == config_.geometry.blockWords - 1;
    Block* block = findBlock(base);

    if (block != nullptr && last_word) {
        // Case (ii): read the last word, then purge our own copy.
        AccessResult result;
        result.data = blockData(*block)[ref.addr - base];
        stats_.erAsRp += 1;
        purgeBlock(*block, now + config_.hitCycles);
        result.doneAt = now + config_.hitCycles;
        countAccess(ref, false);
        return result;
    }

    if (block == nullptr && !last_word) {
        // Case (i): read-invalidate the supplier (FI fetch). Seeded bug
        // ErKeepsSupplier fetches with plain F instead, leaving the
        // supplier's copy alive next to our exclusive one.
        AccessResult result;
        const bool invalidate =
            mutation_ != ProtocolMutation::ErKeepsSupplier;
        const FetchOutcome outcome = fetchBlock(base, invalidate, false, 0,
                                                true, nullptr, now, ref.area);
        if (outcome.lockWait) {
            result.lockWait = true;
            result.waitAddr = base;
            result.doneAt = outcome.doneAt;
            return result;
        }
        Block& fetched = *outcome.block;
        setState(fetched,
                 proto_.installOnExclusiveFetch(outcome.supplierDirty),
                 outcome.doneAt);
        result.data = blockData(fetched)[ref.addr - base];
        result.doneAt = outcome.doneAt;
        stats_.erAsRi += 1;
        countAccess(ref, true);
        return result;
    }

    // Case (iii): plain read.
    stats_.erAsR += 1;
    return doRead(ref, now);
}

PimCache::AccessResult
PimCache::doReadPurge(const MemRef& ref, Cycles now)
{
    AccessResult result;
    const Addr base = blockBaseOf(ref.addr);
    stats_.rpCount += 1;
    if (Block* block = findBlock(base)) {
        // Case (i): read, then purge our own copy.
        result.data = blockData(*block)[ref.addr - base];
        purgeBlock(*block, now + config_.hitCycles);
        result.doneAt = now + config_.hitCycles;
        countAccess(ref, false);
        return result;
    }
    // Case (ii): fetch (invalidating any supplier), read, do not keep.
    Word scratch[64];
    PIM_ASSERT(config_.geometry.blockWords <= 64);
    const FetchOutcome outcome =
        fetchBlock(base, true, false, 0, false, scratch, now, ref.area);
    if (outcome.lockWait) {
        result.lockWait = true;
        result.waitAddr = base;
        result.doneAt = outcome.doneAt;
        return result;
    }
    if (outcome.supplied && outcome.supplierDirty) {
        // The dirty contents are dead by contract; dropping them without
        // copy-back is the swap-out this command exists to avoid.
        bus_.markPurgedDirty(base);
    }
    result.data = scratch[ref.addr - base];
    result.doneAt = outcome.doneAt;
    countAccess(ref, true);
    return result;
}

PimCache::AccessResult
PimCache::doReadInvalidate(const MemRef& ref, Cycles now)
{
    const Addr base = blockBaseOf(ref.addr);
    stats_.riCount += 1;
    if (findBlock(base) != nullptr)
        return doRead(ref, now);

    // Miss: fetch with invalidation so the imminent rewrite needs no I.
    AccessResult result;
    const FetchOutcome outcome =
        fetchBlock(base, true, false, 0, true, nullptr, now, ref.area);
    if (outcome.lockWait) {
        result.lockWait = true;
        result.waitAddr = base;
        result.doneAt = outcome.doneAt;
        return result;
    }
    Block& block = *outcome.block;
    setState(block, proto_.installOnExclusiveFetch(outcome.supplierDirty),
             outcome.doneAt);
    result.data = blockData(block)[ref.addr - base];
    result.doneAt = outcome.doneAt;
    stats_.riExclusive += 1;
    countAccess(ref, true);
    return result;
}

void
PimCache::flushAll()
{
    // One flush event for the whole cache: the raw state writes below
    // bypass setState, so residency-mirroring sinks reset on this
    // instead of per-block transitions.
    if (sink_ != nullptr)
        sink_->onCacheFlush(pe_);
    for (Block& block : blocks_) {
        if (block.state == CacheState::INV)
            continue;
        if (cacheStateDirty(block.state))
            bus_.writeMemoryBlock(block.base, blockData(block));
        bus_.noteBlockAbsent(pe_, block.base);
        block.state = CacheState::INV;
        block.base = kNoAddr;
    }
}

CacheState
PimCache::stateOf(Addr addr) const
{
    const Block* block = findBlock(blockBaseOf(addr));
    return block == nullptr ? CacheState::INV : block->state;
}

bool
PimCache::present(Addr addr) const
{
    return findBlock(blockBaseOf(addr)) != nullptr;
}

Word
PimCache::loadValue(Addr addr) const
{
    const Addr base = blockBaseOf(addr);
    if (const Block* block = findBlock(base))
        return blockData(*block)[addr - base];
    return bus_.memory().read(addr);
}

void
PimCache::snapshotState(Addr lo, Addr hi,
                        std::vector<std::uint64_t>& out) const
{
    // Valid blocks in range, in address order (the set/way layout is an
    // implementation detail; two caches holding the same blocks in the
    // same states must snapshot equal).
    std::vector<const Block*> valid;
    for (const Block& block : blocks_) {
        if (block.state != CacheState::INV && block.base >= lo &&
            block.base < hi) {
            valid.push_back(&block);
        }
    }
    std::sort(valid.begin(), valid.end(),
              [](const Block* a, const Block* b) { return a->base < b->base; });
    out.push_back(valid.size());
    for (const Block* block : valid) {
        out.push_back(block->base);
        out.push_back(static_cast<std::uint64_t>(block->state));
        // Replacement order matters to future behavior, absolute LRU
        // ticks do not: record the rank of this block among the valid
        // blocks of its set.
        const std::uint32_t set = setIndexOf(block->base);
        const Block* begin =
            &blocks_[static_cast<std::size_t>(set) * config_.geometry.ways];
        std::uint64_t rank = 0;
        for (std::uint32_t way = 0; way < config_.geometry.ways; ++way) {
            const Block& other = begin[way];
            if (other.state != CacheState::INV && other.lru < block->lru)
                rank += 1;
        }
        out.push_back(rank);
        const Word* words = blockData(*block);
        for (std::uint32_t w = 0; w < config_.geometry.blockWords; ++w)
            out.push_back(words[w]);
    }
    locks_.snapshotState(out);
    // The random policy's RNG decides future victims, so states that
    // differ only in it must not merge. Appended only for that policy to
    // keep the default snapshot (and protocol hashes) byte-identical.
    if (config_.replacement == ReplacementKind::Random)
        out.push_back(rngState_);
}

BusSnooper::FetchReply
PimCache::snoopFetch(Addr block_addr, bool invalidate, Word* data_out,
                     Cycles when)
{
    Block* block = findBlock(block_addr);
    if (block == nullptr)
        return {false, false};

    std::copy(blockData(*block),
              blockData(*block) + config_.geometry.blockWords, data_out);
    const bool was_dirty = cacheStateDirty(block->state);

    if (invalidate) {
        setState(*block, CacheState::INV, when);
        block->base = kNoAddr;
        return {true, was_dirty};
    }

    if (was_dirty) {
        switch (proto_.dirtyShare) {
          case DirtyShare::WritebackToMemory:
            // MSI/MESI (and the Illinois-style copybackOnShare
            // baseline): shared memory snarfs the transfer, the block
            // becomes clean everywhere. Seeded bug
            // MesiShareSkipsWriteback drops the snarf but still reports
            // clean: everyone clean over stale memory.
            if (mutation_ != ProtocolMutation::MesiShareSkipsWriteback)
                bus_.writeBackData(block_addr, blockData(*block));
            setState(*block, CacheState::S, when);
            return {true, false};
          case DirtyShare::KeepOwnership:
            // MOESI/Dragon: stay the dirty owner (SM as O/Sm); the
            // receiver installs clean S. Seeded bug MoesiOwnerDropsDirty
            // downgrades to clean S instead, losing the only record that
            // memory is stale.
            if (mutation_ == ProtocolMutation::MoesiOwnerDropsDirty) {
                setState(*block, CacheState::S, when);
            } else {
                setState(*block, CacheState::SM, when);
            }
            return {true, false};
          case DirtyShare::MigrateToReceiver:
            break; // PIM: fall through to the SM-migration share.
        }
    }

    setState(*block, CacheState::S, when);
    // Seeded bug SmSharedAsClean: a dirty supplier reports its data as
    // clean, so the receiver installs S instead of SM and nobody
    // remembers that shared memory is stale.
    if (mutation_ == ProtocolMutation::SmSharedAsClean)
        return {true, false};
    return {true, was_dirty};
}

bool
PimCache::snoopUpdate(Addr word_addr, Word value, Cycles when)
{
    const Addr base = blockBaseOf(word_addr);
    Block* block = findBlock(base);
    if (block == nullptr)
        return false;
    blockData(*block)[word_addr - base] = value;
    // Dirty ownership migrates to the writer; every snarfing copy is
    // clean shared (Dragon Sc) afterwards.
    if (block->state != CacheState::S)
        setState(*block, CacheState::S, when);
    return true;
}

bool
PimCache::snoopInvalidate(Addr block_addr, Cycles when)
{
    Block* block = findBlock(block_addr);
    if (block == nullptr)
        return false;
    const bool was_dirty = cacheStateDirty(block->state);
    setState(*block, CacheState::INV, when);
    block->base = kNoAddr;
    return was_dirty;
}

} // namespace pim
