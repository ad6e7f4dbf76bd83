// Event: one tuple of a data stream.

#ifndef EPL_STREAM_EVENT_H_
#define EPL_STREAM_EVENT_H_

#include <string>
#include <vector>

#include "common/time_util.h"

namespace epl::stream {

/// A timestamped tuple. `values` is described by the stream's Schema.
struct Event {
  TimePoint timestamp = 0;
  std::vector<double> values;

  Event() = default;
  Event(TimePoint ts, std::vector<double> vals)
      : timestamp(ts), values(std::move(vals)) {}

  std::string ToString() const;
};

/// Copies `event` into `slots[count]` and increments `count`, appending a
/// slot when every slot is in use. A slot filled before keeps its values
/// capacity, so a window of reused slots refills without allocating.
inline void FillSlot(std::vector<Event>& slots, size_t& count,
                     const Event& event) {
  if (count < slots.size()) {
    Event& slot = slots[count];
    slot.timestamp = event.timestamp;
    slot.values.assign(event.values.begin(), event.values.end());
  } else {
    slots.push_back(event);
  }
  ++count;
}

}  // namespace epl::stream

#endif  // EPL_STREAM_EVENT_H_
