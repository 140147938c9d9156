#ifndef LHRS_COMMON_FORK_JOIN_H_
#define LHRS_COMMON_FORK_JOIN_H_

#include <cstddef>
#include <functional>

namespace lhrs {

/// The most parts one ForkJoin call runs at once: the host's hardware
/// threads, at least one.
size_t ForkJoinWidth();

/// Runs `part(0)`, ..., `part(parts - 1)` and returns once every call has
/// returned; `parts` is at most ForkJoinWidth(). Part 0 runs on the calling
/// thread, the others on process-wide worker threads that the first call
/// with more than one part creates and later calls reuse, so a process
/// whose calls all have one part never starts a thread. A call that finds
/// the workers busy (another thread's call, or a call from inside a part)
/// runs all its parts itself, in order; so does a forked child, which has
/// none of its parent's workers. Parts must not depend on one another. A
/// part that fails a check aborts the process, on whichever thread it runs.
void ForkJoin(size_t parts, const std::function<void(size_t)>& part);

}  // namespace lhrs

#endif  // LHRS_COMMON_FORK_JOIN_H_
