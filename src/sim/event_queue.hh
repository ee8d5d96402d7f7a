/**
 * @file
 * The discrete-event engine at the heart of the simulator.
 *
 * Events are closures ordered by (tick, insertion sequence); ties on the
 * tick execute in insertion order, which makes whole simulations
 * deterministic.
 *
 * The implementation is allocation-free in steady state and O(1) on
 * the per-request path:
 *
 *  - Callbacks are stored inline (small-buffer optimized) in pooled
 *    event slots, recycled LIFO through a free list. The pool grows in
 *    fixed-size chunks so existing slots never move, and each callback
 *    runs in place in its slot: no relocation on schedule or dispatch.
 *  - Events scheduled for the current tick (a coroutine resumed after
 *    a doorbell write, a waiter woken by a completion — over 40% of all
 *    events in the serving workloads) go into a FIFO zero-delay lane
 *    instead of the heap. Heap entries due at the current tick were
 *    scheduled before the clock reached it, so they carry lower
 *    sequence numbers than every lane entry and are taken first; after
 *    them the lane runs in FIFO order. The observable order is exactly
 *    (tick, insertion sequence), as with a single priority queue.
 *  - Future events wait in a 4-ary heap over packed 16-byte entries
 *    compared as one 128-bit (tick, sequence|slot) key, with the
 *    smallest of four children picked without data-dependent branches.
 *  - Cancellation is O(1): the event's slot is recycled immediately
 *    and its queue entry goes stale, detected by a generation check
 *    (the slot remembers the unique sequence key of the event it
 *    currently backs). Stale entries are skipped when they reach the
 *    front, or swept wholesale when they pile up, so cancel-heavy
 *    workloads (polling deadlines, timeslice preemption) cannot grow
 *    the queue unboundedly.
 *
 * Hot members (schedule / cancel / step / drain) are defined inline
 * here; cold maintenance (pool and lane growth, compaction) lives in
 * event_queue.cc.
 */

#ifndef NEON_SIM_EVENT_QUEUE_HH
#define NEON_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace neon
{

/**
 * Handle used to cancel a scheduled event.
 *
 * Encodes (insertion sequence << 20 | slot index). The sequence number
 * is globally unique, so a handle to an event that already ran or was
 * cancelled never aliases a later event even when the slot is reused —
 * it acts as a per-use generation count.
 */
using EventId = std::uint64_t;

/** Invalid event handle. */
constexpr EventId invalidEventId = 0;

/**
 * Event callback type: move-only, 64 bytes of inline storage. Every
 * hot-path capture in the simulator (raw pointers + POD request state)
 * fits inline; see the static_asserts at the call sites.
 */
using EventCallback = InlineFunction<void(), 64>;

/**
 * A deterministic discrete-event queue with a monotone simulated clock.
 *
 * Callbacks run strictly in (when, insertion order). Scheduling an
 * event in the past is an internal error (panic); scheduling at the
 * current tick runs the event after the currently executing one.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /** Schedule @p fn to run at absolute time @p when. */
    template <typename F>
    EventId
    schedule(Tick when, F &&fn)
    {
        if (when < curTick)
            panic("event scheduled in the past: ", when, " < ", curTick);
        // Fail fast on empty std::functions / null function pointers
        // rather than at execution time, far from the buggy call site.
        // (Plain lambdas have no bool conversion and skip the check.)
        if constexpr (requires { static_cast<bool>(fn); }) {
            if (!fn)
                panic("null event callback");
        }

        const std::uint32_t idx = acquireSlot();
        Slot &s = slotRef(idx);
        s.fn.emplace(std::forward<F>(fn));

        // seq is bounded so the packed key cannot collide with a slot
        // index; at simulator event rates the limit is unreachable,
        // but fail loudly rather than corrupt the order if it is.
        const std::uint64_t seq = nextSeq++;
        if (seq >= (std::uint64_t(1) << (64 - slotBits)))
            panic("event sequence space exhausted");

        const std::uint64_t key = (seq << slotBits) | idx;
        s.key = key;
        if (when == curTick)
            lanePush(key);
        else
            heapPush(pack(when, key));
        ++nLive;
        if (nLive > peakLive)
            peakLive = nLive;
        return key;
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    EventId
    scheduleIn(Tick delay, F &&fn)
    {
        if (delay < 0)
            panic("negative event delay: ", delay);
        return schedule(curTick + delay, std::forward<F>(fn));
    }

    /** Cancel a previously scheduled event; ignores stale ids. */
    void
    cancel(EventId id)
    {
        if (id == invalidEventId)
            return;
        const std::uint32_t idx =
            static_cast<std::uint32_t>(id & (slotCount - 1));
        if (idx >= nSlots)
            return;
        Slot &s = slotRef(idx);
        if (s.key != id)
            return; // stale id: the event already ran or was cancelled

        releaseSlot(s, idx);
        --nLive;
        ++nStale; // its queue entry lingers until popped or compacted
        if (nStale >= compactMinStale && nStale * 2 >= queued())
            compact();
    }

    /** True if no live events remain. */
    bool empty() const { return nLive == 0; }

    /** Number of live (non-cancelled) events. */
    std::size_t pending() const { return nLive; }

    /**
     * Execute the next event, if any.
     * @return true if an event ran, false if the queue was empty.
     */
    bool
    step()
    {
        Tick when;
        std::uint64_t key;
        if (!takeNext(when, key))
            return false;

        // The callback runs in place. Clearing the slot's key first
        // makes a cancel of the running event's own id a no-op; the
        // slot is not on the free list until the callback returns, so
        // anything it schedules lands elsewhere. Chunks never move, so
        // the reference stays valid even if the callback grows the pool.
        const auto idx = static_cast<std::uint32_t>(key & (slotCount - 1));
        Slot &s = slotRef(idx);
        s.key = 0;
        --nLive;

        if (when < curTick)
            panic("event time ran backwards");
        curTick = when;
        ++nExecuted;
        NEON_TRACE(obs::TraceCategory::SimCore, obs::TraceKind::Instant,
                   "eq.step", obs::TraceIds{}, nLive, nStale);
        s.fn();
        releaseSlot(s, idx);
        return true;
    }

    /** Run all events with when <= t; afterwards now() == t. */
    void
    runUntil(Tick t)
    {
        Tick w;
        while (peekNext(w) && w <= t) {
            if (!step())
                break;
        }
        if (t > curTick)
            curTick = t;
    }

    /** Run for a duration relative to now(). */
    void runFor(Tick d) { runUntil(curTick + d); }

    /** Run until the queue is exhausted (or @p max_events executed). */
    std::uint64_t
    drain(std::uint64_t max_events = ~std::uint64_t(0))
    {
        std::uint64_t n = 0;
        while (n < max_events && step())
            ++n;
        return n;
    }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return nExecuted; }

    /** Internal-state observability, for tests and the perf reporter. */
    struct QueueStats
    {
        std::size_t live;        ///< live (non-cancelled) events
        std::size_t peakLive;    ///< high-water mark of live events
        std::size_t heapEntries; ///< heap + lane entries incl. stale ones
        std::size_t stale;       ///< cancelled entries still queued
        std::size_t poolSlots;   ///< total pooled callback slots
        std::uint64_t compactions; ///< stale sweeps performed
    };

    QueueStats
    stats() const
    {
        return {nLive, peakLive, queued(), nStale, nSlots, nCompactions};
    }

  private:
    // Pool geometry: slot indices take the low 20 bits of an EventId
    // (1M concurrent events), the insertion sequence the upper 44.
    // Chunked so growth never moves a live slot.
    static constexpr unsigned slotBits = 20;
    static constexpr std::size_t slotCount = std::size_t(1) << slotBits;
    static constexpr unsigned chunkBits = 9; // 512 slots per chunk
    static constexpr std::size_t chunkSize = std::size_t(1) << chunkBits;

    // Compaction policy: sweeping costs O(entries), so only bother once
    // stale entries dominate — this bounds the queue at ~2x the live
    // event count under arbitrarily heavy cancel traffic while keeping
    // the amortized per-cancel cost O(1).
    static constexpr std::size_t compactMinStale = 64;

    /** One pooled callback slot; key == 0 marks the slot free. */
    struct Slot
    {
        EventCallback fn;
        std::uint64_t key = 0;      ///< EventId of the live occupant
        std::uint32_t nextFree = 0; ///< free-list link (index + 1)
    };

    /**
     * One heap entry: tick in the high 64 bits, (seq << slotBits) |
     * slot in the low 64. Ticks are never negative, so unsigned order
     * on the whole entry is (tick, insertion sequence) order — the
     * sequence occupies the key's high bits and is unique per entry.
     */
    using Entry = unsigned __int128;

    static Entry
    pack(Tick when, std::uint64_t key)
    {
        return (Entry(static_cast<std::uint64_t>(when)) << 64) | key;
    }

    static Tick
    whenOf(Entry e)
    {
        return static_cast<Tick>(static_cast<std::uint64_t>(e >> 64));
    }

    static std::uint64_t
    keyOf(Entry e)
    {
        return static_cast<std::uint64_t>(e);
    }

    Slot &
    slotRef(std::uint32_t idx)
    {
        return chunks[idx >> chunkBits][idx & (chunkSize - 1)];
    }

    const Slot &
    slotRef(std::uint32_t idx) const
    {
        return chunks[idx >> chunkBits][idx & (chunkSize - 1)];
    }

    bool
    isLive(std::uint64_t key) const
    {
        return slotRef(static_cast<std::uint32_t>(key & (slotCount - 1)))
                   .key == key;
    }

    std::uint32_t
    acquireSlot()
    {
        if (freeHead != 0) {
            const std::uint32_t idx = freeHead - 1;
            freeHead = slotRef(idx).nextFree;
            return idx;
        }
        return growPool();
    }

    void
    releaseSlot(Slot &s, std::uint32_t idx)
    {
        s.fn = nullptr;
        s.key = 0;
        s.nextFree = freeHead;
        freeHead = idx + 1;
    }

    /** Queue entries, live and stale, across heap and lane. */
    std::size_t queued() const { return heap.size() + laneCount; }

    void
    lanePush(std::uint64_t key)
    {
        if (laneCount == lane.size())
            growLane();
        lane[(laneHead + laneCount) & (lane.size() - 1)] = key;
        ++laneCount;
    }

    std::uint64_t
    lanePop()
    {
        const std::uint64_t key = lane[laneHead];
        laneHead = (laneHead + 1) & (lane.size() - 1);
        --laneCount;
        return key;
    }

    void
    heapPush(Entry e)
    {
        heap.push_back(e);
        siftUp(heap.size() - 1);
    }

    void
    heapPopTop()
    {
        heap.front() = heap.back();
        heap.pop_back();
        if (!heap.empty())
            siftDown(0);
    }

    void
    siftUp(std::size_t i)
    {
        const Entry e = heap[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (!(e < heap[parent]))
                break;
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = e;
    }

    void
    siftDown(std::size_t i)
    {
        const Entry e = heap[i];
        const std::size_t n = heap.size();
        for (;;) {
            const std::size_t first = 4 * i + 1;
            std::size_t best;
            if (first + 4 <= n) [[likely]] {
                // Tournament over a full family; the selects compile
                // to conditional moves, not branches on the data.
                const Entry *c = &heap[first];
                const std::size_t a = c[1] < c[0] ? 1 : 0;
                const std::size_t b = c[3] < c[2] ? 3 : 2;
                best = first + (c[b] < c[a] ? b : a);
            } else if (first < n) {
                best = first;
                for (std::size_t c = first + 1; c < n; ++c)
                    best = heap[c] < heap[best] ? c : best;
            } else {
                break;
            }
            if (!(heap[best] < e))
                break;
            heap[i] = heap[best];
            i = best;
        }
        heap[i] = e;
    }

    /** Drop stale entries off both fronts (lane front, heap top). */
    void
    pruneFronts()
    {
        while (laneCount != 0 && !isLive(lane[laneHead])) {
            lanePop();
            --nStale;
        }
        while (!heap.empty() && !isLive(keyOf(heap[0]))) {
            heapPopTop();
            --nStale;
        }
    }

    /**
     * Select (and remove) the next event in (when, seq) order. A heap
     * entry due now predates every lane entry, so it goes first;
     * otherwise the lane front does. Returns false when no live event
     * remains.
     */
    bool
    takeNext(Tick &when, std::uint64_t &key)
    {
        if (nStale != 0) [[unlikely]]
            pruneFronts();
        if (laneCount != 0 &&
            (heap.empty() || whenOf(heap[0]) != curTick)) {
            when = curTick;
            key = lanePop();
            return true;
        }
        if (heap.empty())
            return false;
        when = whenOf(heap[0]);
        key = keyOf(heap[0]);
        heapPopTop();
        return true;
    }

    /** The tick of the next live event, without consuming it. */
    bool
    peekNext(Tick &when)
    {
        if (nStale != 0) [[unlikely]]
            pruneFronts();
        if (laneCount != 0) {
            when = curTick;
            return true;
        }
        if (heap.empty())
            return false;
        when = whenOf(heap[0]);
        return true;
    }

    std::uint32_t growPool();
    void growLane();
    void compact();

    Tick curTick = 0;
    std::uint64_t nextSeq = 1;
    std::uint64_t nExecuted = 0;
    std::uint64_t nCompactions = 0;
    std::size_t nLive = 0;
    std::size_t peakLive = 0;
    std::size_t nStale = 0;
    std::size_t nSlots = 0;     ///< slots allocated across all chunks
    std::uint32_t freeHead = 0; ///< free-list head (index + 1); 0 = empty

    std::vector<Entry> heap; ///< future events, 4-ary min-heap

    /**
     * Zero-delay lane: keys of events due at curTick, FIFO in a ring
     * whose size is a power of two. Non-empty only while the clock
     * stands at the tick they were scheduled for.
     */
    std::vector<std::uint64_t> lane;
    std::size_t laneHead = 0;
    std::size_t laneCount = 0;

    std::vector<std::unique_ptr<Slot[]>> chunks;
};

} // namespace neon

#endif // NEON_SIM_EVENT_QUEUE_HH
