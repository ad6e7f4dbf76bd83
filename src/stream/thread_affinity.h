// Portability shim over CPU affinity.
//
// ShardedEngine pins shard workers to distinct CPUs (one cache-hot bank +
// arena per core). That is a platform service: Linux exposes it through
// sched_getaffinity / pthread_setaffinity_np, other platforms may not.
// This header isolates that dependency -- callers get an honest `false`
// (and a hardware_concurrency fallback) where pinning is unavailable, so
// the engine runs unpinned instead of failing to build.

#ifndef EPL_STREAM_THREAD_AFFINITY_H_
#define EPL_STREAM_THREAD_AFFINITY_H_

namespace epl::stream {

/// CPUs this process may run on: the size of the process affinity mask
/// when the platform exposes one (containers and taskset shrink it), the
/// hardware concurrency otherwise. Always >= 1.
int NumAffinityCpus();

/// Pins the calling thread to the `slot % NumAffinityCpus()`-th CPU of the
/// process affinity mask -- slots are dense worker indices, the mask maps
/// them onto whatever CPUs the process actually owns. Returns false when
/// pinning is unsupported on this platform or rejected by the kernel;
/// callers should treat that as "run unpinned", not as an error.
bool PinCurrentThreadToAffinitySlot(int slot);

}  // namespace epl::stream

#endif  // EPL_STREAM_THREAD_AFFINITY_H_
