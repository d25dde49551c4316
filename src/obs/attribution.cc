#include "obs/attribution.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/fs_util.h"
#include "common/json.h"
#include "common/table.h"
#include "common/xassert.h"

namespace pim {

namespace {

/** Percentage string with one decimal, "0.0" when whole is zero. */
std::string
pctString(double part, double whole)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f",
                  whole == 0.0 ? 0.0 : 100.0 * part / whole);
    return buf;
}

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

} // namespace

const char*
missClassName(MissClass cls)
{
    switch (cls) {
      case MissClass::Cold:         return "cold";
      case MissClass::Capacity:     return "capacity";
      case MissClass::Conflict:     return "conflict";
      case MissClass::Invalidation: return "invalidation";
      case MissClass::LockPurge:    return "lock-purge";
      case MissClass::Flush:        return "flush";
    }
    return "?";
}

const char*
busBucketName(BusBucket bucket)
{
    switch (bucket) {
      case BusBucket::MemoryFill:   return "memory-fill";
      case BusBucket::CacheSupply:  return "cache-supply";
      case BusBucket::CopyBack:     return "copy-back";
      case BusBucket::Invalidation: return "invalidation";
      case BusBucket::LockTraffic:  return "lock-traffic";
      case BusBucket::WordWrite:    return "word-write";
      case BusBucket::InterCluster: return "inter-cluster";
      case BusBucket::UpdateTraffic: return "update";
    }
    return "?";
}

void
AttributionEngine::FaShadow::touch(Addr block, std::uint32_t capacity)
{
    const auto it = index.find(block);
    if (it != index.end()) {
        lru.erase(it->second);
    } else if (lru.size() >= capacity && !lru.empty()) {
        index.erase(lru.back());
        lru.pop_back();
    }
    lru.push_front(block);
    index[block] = lru.begin();
}

AttributionEngine::AttributionEngine(std::uint32_t num_pes,
                                     const BusTiming& timing,
                                     std::uint32_t block_words,
                                     std::uint32_t capacity_blocks)
    : numPes_(num_pes),
      timing_(timing),
      blockWords_(std::max<std::uint32_t>(1, block_words)),
      capacityBlocks_(std::max<std::uint32_t>(1, capacity_blocks)),
      shadows_(num_pes),
      peCycles_(num_pes, std::vector<Cycles>(kNumBusBuckets, 0))
{
}

void
AttributionEngine::copyStateFrom(const AttributionEngine& other)
{
    PIM_ASSERT(numPes_ == other.numPes_ && timing_ == other.timing_ &&
                   blockWords_ == other.blockWords_ &&
                   capacityBlocks_ == other.capacityBlocks_,
               "copying an attribution engine of a different shape");
    *this = other; // every member is a value; FaShadow re-indexes itself
}

void
AttributionEngine::charge(const BusTxnEvent& event, BusBucket bucket,
                          Cycles cycles)
{
    if (cycles == 0)
        return;
    cyclesByBucket_[static_cast<int>(bucket)] += cycles;
    if (event.requester < numPes_)
        peCycles_[event.requester][static_cast<int>(bucket)] += cycles;
    int op_row = kNumMemOps; // No access in flight (teardown wakes).
    if (event.requester < numPes_ && shadows_[event.requester].inFlight)
        op_row = static_cast<int>(shadows_[event.requester].op);
    opCycles_[op_row][static_cast<int>(bucket)] += cycles;
}

void
AttributionEngine::onBusTransaction(const BusTxnEvent& event)
{
    // Occupancy is exactly the cycles BusStats charged for this
    // transaction (bus.cc sets completedAt = startedAt + cost + hops).
    // The interconnect hops are peeled off first — BusStats keeps them
    // out of cyclesByPattern too — which is what makes the bucket and
    // pattern attribution exact, not approximate.
    const Cycles occupancy = event.completedAt - event.startedAt;
    const Cycles hop = std::min<Cycles>(event.interClusterCycles, occupancy);
    const Cycles local = occupancy - hop;
    const int p = static_cast<int>(event.pattern);
    patternCycles_[p] += local;
    patternTrans_[p] += 1;
    // Cycles-only bucket: the hop rides on a transaction counted in its
    // base bucket below, so transByBucket_ is untouched.
    charge(event, BusBucket::InterCluster, hop);

    // Primary bucket plus the dirty-victim split: a victim pattern costs
    // the clean-pattern base, with any excess being the visible share of
    // the copy-back transfer (zero under the paper's timing, where the
    // victim hides under the memory wait).
    BusBucket bucket = BusBucket::MemoryFill;
    Cycles base = local;
    switch (event.pattern) {
      case BusPattern::MemFetch:
        bucket = BusBucket::MemoryFill;
        break;
      case BusPattern::MemFetchVictim:
        bucket = BusBucket::MemoryFill;
        base = std::min<Cycles>(local, timing_.swapInCycles(false));
        break;
      case BusPattern::C2C:
        bucket = BusBucket::CacheSupply;
        break;
      case BusPattern::C2CVictim:
        bucket = BusBucket::CacheSupply;
        base = std::min<Cycles>(local,
                                timing_.cacheToCacheCycles(false));
        break;
      case BusPattern::SwapOutOnly:
        bucket = BusBucket::CopyBack;
        break;
      case BusPattern::Invalidate:
        bucket = BusBucket::Invalidation;
        break;
      case BusPattern::Unlock:
      case BusPattern::LockReject:
        bucket = BusBucket::LockTraffic;
        break;
      case BusPattern::WordWrite:
        bucket = BusBucket::WordWrite;
        break;
      case BusPattern::WordUpdate:
        bucket = BusBucket::UpdateTraffic;
        break;
    }
    transByBucket_[static_cast<int>(bucket)] += 1;
    charge(event, bucket, base);
    if (local > base)
        charge(event, BusBucket::CopyBack, local - base);

    BlockTally& heat = blocks_[event.blockAddr];
    heat.busCycles += occupancy;
    heat.transactions += 1;
}

MissClass
AttributionEngine::classify(PeShadow& shadow, Addr block) const
{
    if (shadow.everHeld.count(block) == 0)
        return MissClass::Cold;
    const auto it = shadow.departure.find(block);
    if (it != shadow.departure.end()) {
        switch (it->second) {
          case Departure::Invalidated: return MissClass::Invalidation;
          case Departure::Purged:      return MissClass::LockPurge;
          case Departure::Flushed:     return MissClass::Flush;
          case Departure::Evicted:     break;
        }
    }
    // Evicted by replacement: conflict if a fully associative cache of
    // the same capacity would still hold it, else a true capacity miss.
    return shadow.fa.contains(block) ? MissClass::Conflict
                                     : MissClass::Capacity;
}

void
AttributionEngine::settleNonInstallFill(PeShadow& shadow)
{
    if (!shadow.fillPending)
        return;
    // The fill never installed (RP's fetch-read-discard): the next miss
    // on this block is a read-once re-read, i.e. a purge-class miss.
    shadow.departure[shadow.fillBlock] = Departure::Purged;
    shadow.fillPending = false;
}

void
AttributionEngine::onCacheFill(PeId pe, Addr block_addr, bool from_cache,
                               bool dirty, Cycles when)
{
    (void)from_cache;
    (void)dirty;
    (void)when;
    if (pe >= numPes_)
        return;
    PeShadow& shadow = shadows_[pe];
    settleNonInstallFill(shadow);

    const MissClass cls = classify(shadow, block_addr);
    missByClass_[static_cast<int>(cls)] += 1;
    shadow.everHeld.insert(block_addr);
    shadow.departure.erase(block_addr);
    // Until the arrival transition lands, treat this as a possible
    // non-install fill (settled at access end or the next fill).
    shadow.fillPending = true;
    shadow.fillBlock = block_addr;

    BlockTally& heat = blocks_[block_addr];
    heat.fills += 1;
    if (cls == MissClass::Invalidation) {
        heat.invMisses += 1;
        heat.chain += 1;
        heat.maxChain = std::max(heat.maxChain, heat.chain);
    } else {
        heat.chain = 0;
    }
    heat.lastFillPe = pe;
}

void
AttributionEngine::onCacheTransition(PeId pe, Addr block_addr,
                                     CacheState from, CacheState to,
                                     Cycles when)
{
    (void)when;
    if (pe >= numPes_)
        return;
    PeShadow& shadow = shadows_[pe];
    if (from == CacheState::INV && to != CacheState::INV) {
        // Arrival: a fill installing, or a DW allocation with no fetch.
        shadow.everHeld.insert(block_addr);
        shadow.resident.insert(block_addr);
        if (shadow.fillPending && shadow.fillBlock == block_addr)
            shadow.fillPending = false;
        return;
    }
    if (from != CacheState::INV && to == CacheState::INV) {
        // Departure: record why, for the next miss's classification.
        shadow.resident.erase(block_addr);
        Departure reason = Departure::Evicted;
        if (shadow.purgePending && shadow.purgeBlock == block_addr) {
            reason = Departure::Purged;
            shadow.purgePending = false;
        } else if (curValid_ && curPe_ != pe) {
            // The simulator handles one access at a time, so a departure
            // on a PE other than the one executing is a remote bus
            // command (FI/I/ER/RP) — a coherence invalidation.
            reason = Departure::Invalidated;
        }
        shadow.departure[block_addr] = reason;
    }
}

void
AttributionEngine::onPurge(PeId pe, Addr block_addr, bool was_dirty,
                           Cycles when)
{
    (void)was_dirty;
    (void)when;
    if (pe >= numPes_)
        return;
    // The INV transition that follows inside purgeBlock consumes this.
    shadows_[pe].purgePending = true;
    shadows_[pe].purgeBlock = block_addr;
}

void
AttributionEngine::onCacheFlush(PeId pe)
{
    if (pe >= numPes_)
        return;
    PeShadow& shadow = shadows_[pe];
    for (const Addr block : shadow.resident)
        shadow.departure[block] = Departure::Flushed;
    shadow.resident.clear();
}

void
AttributionEngine::onLockTransition(PeId owner, Addr word_addr,
                                    LockState from, LockState to,
                                    Cycles when)
{
    (void)owner;
    (void)when;
    LockTally& lock = locks_[word_addr];
    if (from == LockState::EMP && to == LockState::LCK)
        lock.acquires += 1;
    if (to == LockState::LWAIT)
        lock.contended += 1;
}

void
AttributionEngine::onPark(PeId pe, Addr block_addr, Cycles when)
{
    if (pe >= numPes_)
        return;
    PeShadow& shadow = shadows_[pe];
    shadow.parked = true;
    shadow.parkedBlock = block_addr;
    shadow.parkedAt = when;
    waits_[block_addr].parks += 1;
}

void
AttributionEngine::onWake(PeId pe, Addr block_addr, Cycles when)
{
    if (pe >= numPes_)
        return;
    PeShadow& shadow = shadows_[pe];
    if (!shadow.parked)
        return;
    shadow.parked = false;
    WaitTally& wait = waits_[block_addr];
    wait.wakes += 1;
    const Cycles dur = when >= shadow.parkedAt ? when - shadow.parkedAt : 0;
    wait.totalWait += dur;
    wait.maxWait = std::max(wait.maxWait, dur);
}

void
AttributionEngine::onAccessBegin(PeId pe, MemOp op, Addr addr, Area area,
                                 Cycles when)
{
    (void)addr;
    (void)area;
    (void)when;
    if (pe >= numPes_)
        return;
    curPe_ = pe;
    curValid_ = true;
    shadows_[pe].inFlight = true;
    shadows_[pe].op = op;
}

void
AttributionEngine::onAccessEnd(PeId pe, MemOp op, Addr addr, Area area,
                               Cycles start, Cycles end, bool lock_wait)
{
    (void)op;
    (void)area;
    (void)start;
    (void)end;
    if (pe >= numPes_)
        return;
    PeShadow& shadow = shadows_[pe];
    settleNonInstallFill(shadow);
    shadow.inFlight = false;
    curValid_ = false;
    // The fully associative shadow sees the reuse stream of *completed*
    // accesses, hits included — the conflict/capacity oracle.
    if (!lock_wait)
        shadow.fa.touch(addr - addr % blockWords_, capacityBlocks_);
}

std::uint64_t
AttributionEngine::missCount(MissClass cls) const
{
    return missByClass_[static_cast<int>(cls)];
}

std::uint64_t
AttributionEngine::classifiedMisses() const
{
    std::uint64_t total = 0;
    for (int c = 0; c < kNumMissClasses; ++c)
        total += missByClass_[c];
    return total;
}

Cycles
AttributionEngine::bucketCycles(BusBucket bucket) const
{
    return cyclesByBucket_[static_cast<int>(bucket)];
}

std::uint64_t
AttributionEngine::bucketTransactions(BusBucket bucket) const
{
    return transByBucket_[static_cast<int>(bucket)];
}

Cycles
AttributionEngine::attributedCycles() const
{
    Cycles total = 0;
    for (int b = 0; b < kNumBusBuckets; ++b)
        total += cyclesByBucket_[b];
    return total;
}

std::uint64_t
AttributionEngine::attributedTransactions() const
{
    std::uint64_t total = 0;
    for (int b = 0; b < kNumBusBuckets; ++b)
        total += transByBucket_[b];
    return total;
}

Cycles
AttributionEngine::patternCycles(BusPattern pattern) const
{
    return patternCycles_[static_cast<int>(pattern)];
}

Cycles
AttributionEngine::opBucketCycles(MemOp op, BusBucket bucket) const
{
    return opCycles_[static_cast<int>(op)][static_cast<int>(bucket)];
}

Cycles
AttributionEngine::peBucketCycles(PeId pe, BusBucket bucket) const
{
    if (pe >= numPes_)
        return 0;
    return peCycles_[pe][static_cast<int>(bucket)];
}

std::vector<BlockHeat>
AttributionEngine::hottestBlocks(std::size_t top_n) const
{
    std::vector<BlockHeat> rows;
    rows.reserve(blocks_.size());
    for (const auto& [block, tally] : blocks_) {
        BlockHeat row;
        row.block = block;
        row.busCycles = tally.busCycles;
        row.transactions = tally.transactions;
        row.fills = tally.fills;
        row.invMisses = tally.invMisses;
        row.maxPingPong = tally.maxChain;
        rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const BlockHeat& a, const BlockHeat& b) {
                  if (a.busCycles != b.busCycles)
                      return a.busCycles > b.busCycles;
                  return a.block < b.block;
              });
    if (rows.size() > top_n)
        rows.resize(top_n);
    return rows;
}

std::vector<LockHeat>
AttributionEngine::hottestLocks(std::size_t top_n) const
{
    std::vector<LockHeat> rows;
    rows.reserve(locks_.size());
    for (const auto& [word, tally] : locks_) {
        LockHeat row;
        row.word = word;
        row.acquires = tally.acquires;
        row.contended = tally.contended;
        rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const LockHeat& a, const LockHeat& b) {
                  if (a.contended != b.contended)
                      return a.contended > b.contended;
                  if (a.acquires != b.acquires)
                      return a.acquires > b.acquires;
                  return a.word < b.word;
              });
    if (rows.size() > top_n)
        rows.resize(top_n);
    return rows;
}

std::vector<WaitHeat>
AttributionEngine::longestWaits(std::size_t top_n) const
{
    std::vector<WaitHeat> rows;
    rows.reserve(waits_.size());
    for (const auto& [block, tally] : waits_) {
        WaitHeat row;
        row.block = block;
        row.parks = tally.parks;
        row.wakes = tally.wakes;
        row.totalWait = tally.totalWait;
        row.maxWait = tally.maxWait;
        rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const WaitHeat& a, const WaitHeat& b) {
                  if (a.maxWait != b.maxWait)
                      return a.maxWait > b.maxWait;
                  if (a.totalWait != b.totalWait)
                      return a.totalWait > b.totalWait;
                  return a.block < b.block;
              });
    if (rows.size() > top_n)
        rows.resize(top_n);
    return rows;
}

std::string
AttributionEngine::crossCheck(const BusStats& stats) const
{
    std::ostringstream out;
    if (attributedCycles() != stats.totalCycles) {
        out << "attributed bucket cycles " << attributedCycles()
            << " != BusStats.totalCycles " << stats.totalCycles;
        return out.str();
    }
    if (bucketCycles(BusBucket::InterCluster) != stats.interClusterCycles) {
        out << "attributed inter-cluster cycles "
            << bucketCycles(BusBucket::InterCluster)
            << " != BusStats.interClusterCycles "
            << stats.interClusterCycles;
        return out.str();
    }
    std::uint64_t trans_by_stats = 0;
    for (int p = 0; p < kNumBusPatterns; ++p) {
        trans_by_stats += stats.transByPattern[p];
        if (patternCycles_[p] != stats.cyclesByPattern[p]) {
            out << "pattern " << busPatternName(static_cast<BusPattern>(p))
                << ": attributed " << patternCycles_[p]
                << " cycles != BusStats " << stats.cyclesByPattern[p];
            return out.str();
        }
        if (patternTrans_[p] != stats.transByPattern[p]) {
            out << "pattern " << busPatternName(static_cast<BusPattern>(p))
                << ": attributed " << patternTrans_[p]
                << " transactions != BusStats " << stats.transByPattern[p];
            return out.str();
        }
    }
    if (attributedTransactions() != trans_by_stats) {
        out << "attributed bucket transactions "
            << attributedTransactions() << " != BusStats total "
            << trans_by_stats;
        return out.str();
    }
    return "";
}

std::string
AttributionEngine::report(std::size_t top_n) const
{
    std::ostringstream out;
    const double total_cycles = static_cast<double>(attributedCycles());
    const double total_misses = static_cast<double>(classifiedMisses());

    Table misses("miss classification (shadow tags)");
    misses.setHeader({"class", "misses", "%"});
    for (int c = 0; c < kNumMissClasses; ++c) {
        const std::uint64_t count = missByClass_[c];
        misses.addRow({missClassName(static_cast<MissClass>(c)),
                       u64(count),
                       pctString(static_cast<double>(count), total_misses)});
    }
    misses.addRule();
    misses.addRow({"total", u64(classifiedMisses()), "100.0"});
    out << misses.toString() << "\n";

    Table buckets("bus cycles by cause (sums exactly to BusStats)");
    buckets.setHeader({"bucket", "cycles", "trans", "%"});
    for (int b = 0; b < kNumBusBuckets; ++b) {
        buckets.addRow(
            {busBucketName(static_cast<BusBucket>(b)),
             u64(cyclesByBucket_[b]), u64(transByBucket_[b]),
             pctString(static_cast<double>(cyclesByBucket_[b]),
                       total_cycles)});
    }
    buckets.addRule();
    buckets.addRow({"total", u64(attributedCycles()),
                    u64(attributedTransactions()), "100.0"});
    out << buckets.toString() << "\n";

    Table by_op("bus cycles by in-flight operation");
    by_op.setHeader({"op", "fill", "c2c", "copyback", "inval", "lock",
                     "word-wr", "x-clu", "update", "total"});
    for (int o = 0; o <= kNumMemOps; ++o) {
        Cycles row_total = 0;
        for (int b = 0; b < kNumBusBuckets; ++b)
            row_total += opCycles_[o][b];
        if (row_total == 0)
            continue;
        by_op.addRow({o == kNumMemOps
                          ? "(none)"
                          : memOpName(static_cast<MemOp>(o)),
                      u64(opCycles_[o][0]), u64(opCycles_[o][1]),
                      u64(opCycles_[o][2]), u64(opCycles_[o][3]),
                      u64(opCycles_[o][4]), u64(opCycles_[o][5]),
                      u64(opCycles_[o][6]), u64(opCycles_[o][7]),
                      u64(row_total)});
    }
    out << by_op.toString() << "\n";

    Table hot("hottest blocks by bus occupancy");
    hot.setHeader({"block", "cycles", "trans", "fills", "inv-miss",
                   "ping-pong"});
    for (const BlockHeat& row : hottestBlocks(top_n)) {
        hot.addRow({u64(row.block), u64(row.busCycles),
                    u64(row.transactions), u64(row.fills),
                    u64(row.invMisses), u64(row.maxPingPong)});
    }
    out << hot.toString() << "\n";

    Table lock_table("most contended lock words");
    lock_table.setHeader({"word", "acquires", "contended"});
    for (const LockHeat& row : hottestLocks(top_n))
        lock_table.addRow({u64(row.word), u64(row.acquires),
                           u64(row.contended)});
    out << lock_table.toString() << "\n";

    Table wait_table("longest busy-waits (per parked-on block)");
    wait_table.setHeader({"block", "parks", "wakes", "total wait",
                          "max wait"});
    for (const WaitHeat& row : longestWaits(top_n))
        wait_table.addRow({u64(row.block), u64(row.parks), u64(row.wakes),
                           u64(row.totalWait), u64(row.maxWait)});
    out << wait_table.toString();
    return out.str();
}

void
AttributionEngine::writeJson(JsonWriter& json, const BusStats& stats,
                             std::size_t top_n) const
{
    json.beginObject();
    json.field("name", "attribution");
    json.field("pes", static_cast<std::uint64_t>(numPes_));

    json.key("miss_classes");
    json.beginObject();
    json.field("total", classifiedMisses());
    json.field("cold", missCount(MissClass::Cold));
    json.field("capacity", missCount(MissClass::Capacity));
    json.field("conflict", missCount(MissClass::Conflict));
    json.field("invalidation", missCount(MissClass::Invalidation));
    json.field("lock_purge", missCount(MissClass::LockPurge));
    json.field("flush", missCount(MissClass::Flush));
    json.endObject();

    json.key("buckets");
    json.beginArray();
    for (int b = 0; b < kNumBusBuckets; ++b) {
        json.beginObject();
        json.field("bucket", busBucketName(static_cast<BusBucket>(b)));
        json.field("cycles", static_cast<std::uint64_t>(cyclesByBucket_[b]));
        json.field("transactions", transByBucket_[b]);
        json.endObject();
    }
    json.endArray();

    json.key("by_op");
    json.beginArray();
    for (int o = 0; o <= kNumMemOps; ++o) {
        Cycles row_total = 0;
        for (int b = 0; b < kNumBusBuckets; ++b)
            row_total += opCycles_[o][b];
        if (row_total == 0)
            continue;
        json.beginObject();
        json.field("op", o == kNumMemOps
                             ? "(none)"
                             : memOpName(static_cast<MemOp>(o)));
        for (int b = 0; b < kNumBusBuckets; ++b) {
            json.field(busBucketName(static_cast<BusBucket>(b)),
                       static_cast<std::uint64_t>(opCycles_[o][b]));
        }
        json.field("total", static_cast<std::uint64_t>(row_total));
        json.endObject();
    }
    json.endArray();

    json.key("by_pe");
    json.beginArray();
    for (PeId pe = 0; pe < numPes_; ++pe) {
        Cycles pe_total = 0;
        for (int b = 0; b < kNumBusBuckets; ++b)
            pe_total += peCycles_[pe][b];
        json.beginObject();
        json.field("pe", static_cast<std::uint64_t>(pe));
        for (int b = 0; b < kNumBusBuckets; ++b) {
            json.field(busBucketName(static_cast<BusBucket>(b)),
                       static_cast<std::uint64_t>(peCycles_[pe][b]));
        }
        json.field("total", static_cast<std::uint64_t>(pe_total));
        json.endObject();
    }
    json.endArray();

    json.key("hot_blocks");
    json.beginArray();
    for (const BlockHeat& row : hottestBlocks(top_n)) {
        json.beginObject();
        json.field("block", static_cast<std::uint64_t>(row.block));
        json.field("cycles", static_cast<std::uint64_t>(row.busCycles));
        json.field("transactions", row.transactions);
        json.field("fills", row.fills);
        json.field("inv_misses", row.invMisses);
        json.field("max_ping_pong",
                   static_cast<std::uint64_t>(row.maxPingPong));
        json.endObject();
    }
    json.endArray();

    json.key("locks");
    json.beginArray();
    for (const LockHeat& row : hottestLocks(top_n)) {
        json.beginObject();
        json.field("word", static_cast<std::uint64_t>(row.word));
        json.field("acquires", row.acquires);
        json.field("contended", row.contended);
        json.endObject();
    }
    json.endArray();

    json.key("waits");
    json.beginArray();
    for (const WaitHeat& row : longestWaits(top_n)) {
        json.beginObject();
        json.field("block", static_cast<std::uint64_t>(row.block));
        json.field("parks", row.parks);
        json.field("wakes", row.wakes);
        json.field("total_wait", static_cast<std::uint64_t>(row.totalWait));
        json.field("max_wait", static_cast<std::uint64_t>(row.maxWait));
        json.endObject();
    }
    json.endArray();

    json.key("cross_check");
    json.beginObject();
    json.field("bus_total_cycles",
               static_cast<std::uint64_t>(stats.totalCycles));
    json.field("attributed_cycles",
               static_cast<std::uint64_t>(attributedCycles()));
    json.field("match", crossCheck(stats).empty());
    json.endObject();

    json.endObject();
}

std::string
AttributionEngine::jsonDocument(const BusStats& stats,
                                std::size_t top_n) const
{
    std::ostringstream os;
    JsonWriter json(os, /*pretty=*/true);
    writeJson(json, stats, top_n);
    os << "\n";
    return os.str();
}

bool
AttributionEngine::writeFile(const std::string& path, const BusStats& stats,
                             std::size_t top_n) const
{
    std::string error;
    return writeFileAtomic(path, jsonDocument(stats, top_n), &error);
}

} // namespace pim
