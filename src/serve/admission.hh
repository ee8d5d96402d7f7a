/**
 * @file
 * Fleet admission control: a bounded pool of live-session slots and a
 * policy-ordered queue of placement requests waiting for one.
 *
 * The controller is pure bookkeeping — it never touches the fleet or
 * the event queue. The ServeEngine asks it on every arrival (admit now
 * or queue?) and on every departure (which queued request, if any,
 * takes the freed slot?), so the policies stay unit-testable with
 * hand-built sequences.
 */

#ifndef NEON_SERVE_ADMISSION_HH
#define NEON_SERVE_ADMISSION_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "serve/serve_config.hh"
#include "sim/types.hh"

namespace neon
{

/** One queued admission request. */
struct QueuedRequest
{
    std::uint64_t session = 0; ///< serve-layer session id
    std::string tenant;        ///< fair-share principal
    double demand = 1.0;       ///< expected-demand hint
    Tick enqueued = 0;         ///< arrival time (FIFO order basis)

    /**
     * Interrupted session returning through retry: it already paid its
     * queueing delay, so it may take a free slot past the queue and is
     * released ahead of ordinary requests (FIFO among priorities).
     */
    bool priority = false;

    /**
     * QoS release rank (qosPriorityOf; lower releases first). All
     * requests share rank 0 when QoS classes are off, which keeps the
     * release order bit-identical to the pre-QoS engine.
     */
    int qosPriority = 0;

    /**
     * Absolute queue deadline (arrival + class queue budget); 0 means
     * none and sorts after every real deadline. Breaks release ties
     * within a QoS rank and policy key ahead of the session id.
     */
    Tick deadline = 0;
};

/** Slot-capacity admission control with pluggable release order. */
class AdmissionController
{
  public:
    AdmissionController(AdmissionKind kind, std::size_t capacity);

    /**
     * A session arrived. Returns true if it was admitted immediately
     * (a slot was free and nothing was queued ahead of it); otherwise
     * the request is queued and false is returned.
     */
    bool arrive(const QueuedRequest &req);

    /**
     * A live session departed (retirement or kill): its slot is freed
     * and, if requests are queued, the policy picks one to admit.
     * Returns the released request, already accounted as live.
     */
    std::optional<QueuedRequest> depart(const std::string &tenant);

    /**
     * Release one queued request if a slot is free, without a
     * departure. Used when capacity grows (device repair) to drain the
     * queue onto the restored slots; call until it returns nullopt.
     */
    std::optional<QueuedRequest> releaseIfFree();

    /**
     * Retarget the slot pool (device failure/repair). 0 is legal at
     * runtime — a fully-down fleet admits nothing; live sessions above
     * the new capacity stay live and drain through departures.
     */
    void setCapacity(std::size_t n) { slots = n; }

    /** Drop a pending request (session shed while queued). */
    bool removePending(std::uint64_t session);

    std::size_t capacity() const { return slots; }
    std::size_t live() const { return liveCount; }
    std::size_t pendingCount() const { return pending.size(); }
    std::size_t peakPending() const { return peakQueue; }
    std::uint64_t arrivals() const { return nArrivals; }
    std::uint64_t admittedDirect() const { return nDirect; }
    std::uint64_t admittedFromQueue() const { return nReleased; }

    /** Live sessions of @p tenant (fair-share bookkeeping). */
    std::size_t liveOf(const std::string &tenant) const;

    /** Queued requests in arrival order (tests/metrics). */
    const std::vector<QueuedRequest> &queued() const { return pending; }

  private:
    std::size_t pickNext() const; ///< index into pending, per policy

    /**
     * Total deterministic release order: QoS rank, then the policy key
     * (demand / tenant live count; none for FIFO), then deadline, then
     * session id. Never falls back to queue position, so the pick is
     * independent of incidental container order, yet
     * reduces exactly to the old first-strict-min scan when QoS is off
     * because session ids are monotone in enqueue order.
     */
    bool releasesBefore(const QueuedRequest &a,
                        const QueuedRequest &b) const;

    std::optional<QueuedRequest> releaseOne(); ///< unconditional pick

    void
    noteLive(const std::string &tenant)
    {
        ++liveCount;
        ++liveByTenant[tenant];
    }

    AdmissionKind kind;
    std::size_t slots;
    std::size_t liveCount = 0;
    std::size_t peakQueue = 0;
    std::uint64_t nArrivals = 0;
    std::uint64_t nDirect = 0;
    std::uint64_t nReleased = 0;

    std::vector<QueuedRequest> pending; ///< arrival order
    std::map<std::string, std::size_t> liveByTenant;
};

} // namespace neon

#endif // NEON_SERVE_ADMISSION_HH
