/**
 * @file
 * The kernel polling-thread service.
 *
 * Periodically (or at the scheduler's prompt) iterates over kernel-
 * resident structures looking for reference-counter updates that
 * indicate request completion. Here the iteration itself is the
 * scheduler's onPoll hook; this class supplies the timing: a periodic
 * tick plus on-demand prompts.
 */

#ifndef NEON_OS_POLLING_SERVICE_HH
#define NEON_OS_POLLING_SERVICE_HH

#include <functional>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace neon
{

/** Periodic + prompted invocation of a completion-scan callback. */
class PollingService
{
  public:
    PollingService(EventQueue &eq, Tick period = msec(1))
        : eq(eq), pollPeriod(period)
    {
    }

    ~PollingService() { stop(); }

    PollingService(const PollingService &) = delete;
    PollingService &operator=(const PollingService &) = delete;

    Tick period() const { return pollPeriod; }

    /**
     * Change the period; re-arms the pending tick if running. A period
     * that is not positive would re-poll at the same tick forever, so
     * it is a fatal configuration error.
     */
    void
    setPeriod(Tick p)
    {
        if (p <= 0)
            fatal("pollPeriod = ", p, ": the polling period must be "
                  "positive");
        pollPeriod = p;
        if (running && pending != invalidEventId) {
            eq.cancel(pending);
            scheduleNext();
        }
    }

    /** The completion scan; wired to Scheduler::onPoll by the kernel. */
    std::function<void(Tick)> onPoll;

    /** Begin periodic operation. */
    void
    start()
    {
        if (running)
            return;
        running = true;
        scheduleNext();
    }

    void
    stop()
    {
        running = false;
        if (pending != invalidEventId) {
            eq.cancel(pending);
            pending = invalidEventId;
        }
    }

    /**
     * Prompt an immediate poll (the "at the scheduler's prompt" path);
     * resets the periodic phase so the next periodic poll is one full
     * period away.
     */
    void
    promptNow()
    {
        if (!running)
            return;
        if (pending != invalidEventId)
            eq.cancel(pending);
        pending = eq.scheduleIn(0, [this] { fire(); });
    }

  private:
    void
    scheduleNext()
    {
        // Hot path: one of these per poll period per device, for the
        // whole run; must stay inside the callback's inline storage.
        auto tick = [this] { fire(); };
        static_assert(EventCallback::fitsInline<decltype(tick)>);
        pending = eq.scheduleIn(pollPeriod, std::move(tick));
    }

    void
    fire()
    {
        pending = invalidEventId;
        if (!running)
            return;
        if (onPoll)
            onPoll(eq.now());
        if (running && pending == invalidEventId)
            scheduleNext();
    }

    EventQueue &eq;
    Tick pollPeriod;
    bool running = false;
    EventId pending = invalidEventId;
};

} // namespace neon

#endif // NEON_OS_POLLING_SERVICE_HH
