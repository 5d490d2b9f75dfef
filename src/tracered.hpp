// tracered — umbrella header for the public reduction API.
//
// One include gives the whole collection-to-result surface:
//
//   * trace/     raw traces (Trace, RankTraceWriter, RawRecord), the
//                segmenter, and the binary/text file formats
//   * Method + ReductionConfig   which similarity method, at what threshold,
//                executed how ("avgWave@0.2" via fromName/toString)
//   * PooledExecutor   execution policy: the one worker pool, reused
//                across calls (keep ONE alive for a whole sweep — that
//                amortizes thread spawn/join); no executor runs inline
//   * ReductionSession   the facade: feed() records at collection time or
//                reduce() a segmented trace after the fact; bit-identical
//                ReductionResult either way, optional progress callback
//   * reconstruct        reduced trace -> approximated full trace
//
// Typical offline use:
//
//   #include "tracered.hpp"
//   using namespace tracered;
//
//   util::PooledExecutor pool;                     // shared, lazily started
//   for (core::Method m : core::allMethods()) {
//     core::ReductionSession session(
//         trace.names(), core::ReductionConfig::defaults(m).withExecutor(pool));
//     core::ReductionResult r = session.reduce(segmented);
//   }
//
// Lower layers (analysis/, eval/, sim/) are intentionally not pulled in;
// include them directly where needed.
#pragma once

#include "core/methods.hpp"
#include "core/reconstruct.hpp"
#include "core/reducer.hpp"
#include "core/reduction_config.hpp"
#include "core/reduction_session.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "util/executor.hpp"
