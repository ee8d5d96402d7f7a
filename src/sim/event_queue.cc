#include "sim/event_queue.hh"

#include <algorithm>

namespace neon
{

std::uint32_t
EventQueue::growPool()
{
    if (nSlots >= slotCount)
        panic("event slot pool exhausted (", nSlots, " slots)");

    const auto base = static_cast<std::uint32_t>(nSlots);
    chunks.push_back(std::make_unique<Slot[]>(chunkSize));
    nSlots += chunkSize;

    // Hand out the chunk's first slot; thread the rest onto the free
    // list with the lowest index on top, so near-term reuse walks the
    // chunk sequentially (cache-warm).
    Slot *chunk = chunks.back().get();
    for (std::size_t i = chunkSize; i-- > 1;) {
        chunk[i].nextFree = freeHead;
        freeHead = base + static_cast<std::uint32_t>(i) + 1;
    }
    return base;
}

void
EventQueue::growLane()
{
    // Double the ring and unroll it so the FIFO starts at index 0.
    std::vector<std::uint64_t> grown(lane.empty() ? 64 : 2 * lane.size());
    for (std::size_t i = 0; i < laneCount; ++i)
        grown[i] = lane[(laneHead + i) & (lane.size() - 1)];
    lane.swap(grown);
    laneHead = 0;
}

void
EventQueue::compact()
{
    heap.erase(std::remove_if(heap.begin(), heap.end(),
                              [this](Entry e) { return !isLive(keyOf(e)); }),
               heap.end());

    // Squeeze the lane's live keys together in place, keeping FIFO
    // order; writes never overtake reads.
    const std::size_t mask = lane.size() - 1;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < laneCount; ++i) {
        const std::uint64_t key = lane[(laneHead + i) & mask];
        if (isLive(key))
            lane[(laneHead + kept++) & mask] = key;
    }
    laneCount = kept;

    NEON_TRACE(obs::TraceCategory::SimCore, obs::TraceKind::Instant,
               "eq.compact", obs::TraceIds{}, nStale, queued());
    nStale = 0;
    ++nCompactions;

    // Floyd heap construction: O(n), entries keep their sequence keys
    // so the (when, seq) order — and thus determinism — is unchanged.
    if (heap.size() > 1) {
        for (std::size_t i = (heap.size() - 2) / 4 + 1; i-- > 0;)
            siftDown(i);
    }
}

} // namespace neon
