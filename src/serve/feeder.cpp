#include "serve/feeder.hpp"

#include <stdexcept>
#include <string>

namespace tracered::serve {

void TraceStreamFeeder::SessionSink::header(TraceFileFormat, const StringTable& names,
                                            std::size_t) {
  session.emplace(names, config);
}

std::vector<RawRecord>& TraceStreamFeeder::SessionSink::section(Rank rank, std::uint64_t) {
  session.value().ensureRank(rank);
  return buf;
}

void TraceStreamFeeder::SessionSink::records(Rank rank) {
  core::ReductionSession& s = session.value();
  for (const RawRecord& rec : buf) s.feed(rank, rec);
  buf.clear();
}

TraceStreamFeeder::TraceStreamFeeder(const core::ReductionConfig& config,
                                     std::size_t maxPendingBytes)
    : decoder_(maxPendingBytes), sink_(config) {
  decoder_.attach(sink_);
}

core::ReductionResult TraceStreamFeeder::finishStream() {
  try {
    decoder_.finish();
  } catch (const std::out_of_range& e) {
    throw std::runtime_error(std::string("serve: truncated trace stream (") + e.what() +
                             ", " + std::to_string(pendingBytes()) +
                             " undecodable trailing bytes)");
  }
  return sink_.session.value().finish();
}

}  // namespace tracered::serve
