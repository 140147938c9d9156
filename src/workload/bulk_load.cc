#include "workload/bulk_load.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace lhrs::workload {

double BulkLoadReport::RecordsPerSimSecond() const {
  const SimTime us = elapsed_us();
  if (us == 0) return 0.0;
  return static_cast<double>(records) * 1e6 / static_cast<double>(us);
}

BulkLoadReport BulkLoad(LhStarFile& file,
                        const std::vector<WireRecord>& records,
                        const BulkLoadOptions& options) {
  LHRS_CHECK(options.batch_size > 0);
  LHRS_CHECK(options.sessions > 0);
  LHRS_CHECK(options.window > 0);

  BulkLoadReport report;
  report.records = records.size();
  report.start_us = file.network().now();
  report.end_us = report.start_us;
  if (records.empty()) return report;

  while (file.session_count() < options.sessions) file.AddSession();

  // Pre-chunk into batches; `next` advances as sessions pull work.
  std::vector<std::vector<WireRecord>> batches;
  for (size_t at = 0; at < records.size(); at += options.batch_size) {
    const size_t n = std::min(options.batch_size, records.size() - at);
    batches.emplace_back(records.begin() + static_cast<ptrdiff_t>(at),
                         records.begin() + static_cast<ptrdiff_t>(at + n));
  }
  report.batches = batches.size();

  size_t next = 0;
  size_t outstanding = 0;
  // Our batches in flight, indexed by the slot of their token.
  struct Inflight {
    sdds::OpToken token = 0;  ///< 0: the slot holds no batch of ours.
    size_t session = 0;
  };
  std::vector<Inflight> open;

  auto submit_on = [&](size_t session) {
    if (next >= batches.size()) return false;
    const sdds::OpToken token =
        file.SubmitBatch(session, std::move(batches[next++]));
    const size_t slot = sdds::OpTable::SlotOf(token);
    if (open.size() <= slot) open.resize(slot + 1);
    open[slot] = Inflight{token, session};
    ++outstanding;
    return true;
  };

  // Completion-driven refill: the listener fires inside event processing,
  // keeping each session's window full until the batch queue drains.
  file.SetCompletionListener([&](sdds::OpToken token) {
    const size_t slot = sdds::OpTable::SlotOf(token);
    if (slot >= open.size() || open[slot].token != token) return;  // Not ours.
    const size_t session = open[slot].session;
    open[slot].token = 0;
    --outstanding;
    Result<OpOutcome> outcome = file.Take(token);
    LHRS_CHECK(outcome.ok()) << "bulk-load take failed";
    report.applied += outcome->batch_applied;
    report.exists += outcome->batch_exists;
    report.failed += outcome->batch_failed;
    submit_on(session);
  });

  for (size_t w = 0; w < options.window; ++w) {
    for (size_t s = 0; s < options.sessions; ++s) {
      if (!submit_on(s)) break;
    }
  }
  file.network().RunUntilIdle();
  file.SetCompletionListener(nullptr);
  LHRS_CHECK(outstanding == 0 && next == batches.size())
      << "bulk load stalled with " << outstanding << " batches in flight";
  report.end_us = file.network().now();
  return report;
}

}  // namespace lhrs::workload
