#include "stream/thread_affinity.h"

#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace epl::stream {
namespace {

#if defined(__linux__)
// CPU ids in the process affinity mask, ascending. Empty when the mask
// cannot be read.
std::vector<int> AffinityCpuIds() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return {};
  }
  std::vector<int> ids;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      ids.push_back(cpu);
    }
  }
  return ids;
}
#endif

int HardwareConcurrencyFloor() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

int NumAffinityCpus() {
#if defined(__linux__)
  const std::vector<int> ids = AffinityCpuIds();
  if (!ids.empty()) {
    return static_cast<int>(ids.size());
  }
#endif
  return HardwareConcurrencyFloor();
}

bool PinCurrentThreadToAffinitySlot(int slot) {
#if defined(__linux__)
  if (slot < 0) {
    return false;
  }
  const std::vector<int> ids = AffinityCpuIds();
  if (ids.empty()) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(ids[static_cast<size_t>(slot) % ids.size()], &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)slot;
  return false;
#endif
}

}  // namespace epl::stream
