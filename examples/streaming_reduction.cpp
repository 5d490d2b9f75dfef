// Example: online (during-collection) trace reduction via ReductionSession.
//
// The paper's motivating scenario is that full traces are too large to ever
// materialize; this example plays a simulated run's records through a
// streaming ReductionSession one at a time — the way a measurement layer
// would — and reports the memory the tool retains versus the bytes a full
// trace file would have needed, plus proof that the result equals offline
// reduction through the same facade. One PooledExecutor is shared by every
// finish/reduce call, so the workers are spawned once for the whole example.
#include <algorithm>
#include <cstdio>

#include "tracered.hpp"

#include "eval/workloads.hpp"
#include "util/table.hpp"

using namespace tracered;

int main() {
  eval::WorkloadOptions opts;
  opts.scale = 0.5;
  const Trace trace = eval::runWorkload("NtoN_32", opts);
  std::printf("simulated NtoN_32: %d ranks, %zu records\n", trace.numRanks(),
              trace.totalRecords());

  // One executor for the whole example: its thread pool starts lazily and is
  // reused by every session below (the thread count never changes any
  // result, only the wall clock).
  util::PooledExecutor pool;
  const core::ReductionConfig config =
      core::ReductionConfig{core::Method::kAvgWave, 0.2}.withExecutor(pool);

  // Stream every record through a session. Feed rank-major (a real tool
  // reduces each rank locally and in parallel; order across ranks does not
  // matter). While rank 0 streams, checkpoint the memory the session retains
  // — what an online tool would be holding as the "run" progresses.
  core::ReductionSession live(trace.names(), config);
  std::vector<std::pair<std::size_t, std::size_t>> checkpoints;  // (records, bytes)
  const std::size_t step = std::max<std::size_t>(1, trace.rank(0).records.size() / 8);
  for (Rank r = 0; r < trace.numRanks(); ++r)
    for (const RawRecord& rec : trace.rank(r).records) {
      live.feed(r, rec);
      if (r == 0 && live.recordsFed() % step == 0)
        checkpoints.emplace_back(live.recordsFed(), live.retainedBytes());
    }

  TextTable t;
  t.header({"records fed (rank 0)", "retained in memory"});
  for (const auto& [records, bytes] : checkpoints)
    t.row({std::to_string(records), fmtBytes(bytes)});
  std::printf("\n%s\n", t.str().c_str());

  // Finish the stream, watching per-rank completion through the session's
  // progress hook (the rank finishes run on the shared pool's workers).
  live.onProgress([](std::size_t done, std::size_t total) {
    if (done == total || done % 8 == 0)
      std::printf("  ... %zu/%zu ranks reduced\n", done, total);
  });
  const core::ReductionResult streamed = live.finish();
  const std::size_t fullBytes = fullTraceSize(trace);
  const std::size_t reducedBytes = reducedTraceSize(streamed.reduced);
  std::printf("full trace file:    %s\n", fmtBytes(fullBytes).c_str());
  std::printf("streamed reduction: %s (%.2f%%), degree of matching %.3f\n",
              fmtBytes(reducedBytes).c_str(), 100.0 * reducedBytes / fullBytes,
              streamed.stats.degreeOfMatching());

  // Sanity: bit-identical to the offline pipeline through the SAME facade —
  // serial, and sharded through the shared pool. Compare content, not just
  // sizes.
  const SegmentedTrace segmented = segmentTrace(trace);
  auto offPolicy = config.makePolicy();
  const core::ReductionResult offline =
      core::reduceTrace(segmented, trace.names(), *offPolicy);
  core::ReductionSession offlineSession(trace.names(), config);
  const core::ReductionResult offlinePooled = offlineSession.reduce(segmented);
  std::printf("offline equivalence: %s\n",
              offline.reduced.ranks == streamed.reduced.ranks ? "exact" : "MISMATCH");
  std::printf("offline session (pooled) equivalence: %s\n",
              offlinePooled.reduced.ranks == streamed.reduced.ranks ? "exact"
                                                                    : "MISMATCH");
  return 0;
}
