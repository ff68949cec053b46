/**
 * @file
 * Protocol fault reporting.
 *
 * Like Ruby in gem5, the protocol controllers look up every (state,
 * event) pair in an explicit transition table; a missing entry raises
 * ProtocolError ("invalid transition"). Some bugs manifest this way
 * rather than as an MCM violation (e.g. MESI+PUTX-Race, §5.3), and the
 * verification harness counts a ProtocolError as a found bug.
 *
 * A run that never settles trips the event queue's livelock watchdog
 * instead, raising WatchdogAbort; the workload abandons that iteration
 * and carries on. A run that settles with L2 requests still parked for
 * a way raises StallDeadlock, a WatchdogAbort handled the same way.
 */

#ifndef MCVERSI_SIM_FAULT_HH
#define MCVERSI_SIM_FAULT_HH

#include <stdexcept>
#include <string>

namespace mcversi::sim {

/** Invalid protocol transition or other unrecoverable protocol fault. */
class ProtocolError : public std::runtime_error
{
  public:
    ProtocolError(std::string controller, std::string state,
                  std::string event)
        : std::runtime_error("invalid transition: " + controller + " in " +
                             state + " got " + event),
          controller_(std::move(controller)), state_(std::move(state)),
          event_(std::move(event))
    {
    }

    const std::string &controller() const { return controller_; }
    const std::string &state() const { return state_; }
    const std::string &event() const { return event_; }

  private:
    std::string controller_;
    std::string state_;
    std::string event_;
};

/** The event queue's livelock watchdog fired (event cap exceeded). */
class WatchdogAbort : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * The system went quiescent while an L2 still held requests parked for
 * a way: nothing is left to wake them (System::runToQuiescence).
 */
class StallDeadlock : public WatchdogAbort
{
  public:
    using WatchdogAbort::WatchdogAbort;
};

} // namespace mcversi::sim

#endif // MCVERSI_SIM_FAULT_HH
