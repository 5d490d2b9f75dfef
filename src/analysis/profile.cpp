#include "analysis/profile.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/table.hpp"

namespace tracered::analysis {

const FunctionStats Profile::kEmpty;

void FunctionStats::add(double durationUs) {
  if (count == 0) {
    minUs = maxUs = durationUs;
  } else {
    minUs = std::min(minUs, durationUs);
    maxUs = std::max(maxUs, durationUs);
  }
  totalUs += durationUs;
  ++count;
}

Profile Profile::fromTrace(const SegmentedTrace& trace) {
  Profile p;
  for (const RankSegments& rank : trace.ranks) {
    for (const SegmentView seg : rank) {
      for (const EventInterval& e : seg.events) {
        p.cells_[{e.name, rank.rank}].add(static_cast<double>(e.duration()));
      }
    }
  }
  return p;
}

const FunctionStats& Profile::stats(NameId fn, Rank rank) const {
  const auto it = cells_.find({fn, rank});
  return it == cells_.end() ? kEmpty : it->second;
}

std::vector<std::pair<NameId, Rank>> Profile::keys() const {
  std::vector<std::pair<NameId, Rank>> out;
  out.reserve(cells_.size());
  for (const auto& [key, _] : cells_) out.push_back(key);
  return out;
}

double Profile::grandTotalUs() const {
  double s = 0.0;
  for (const auto& [_, st] : cells_) s += st.totalUs;
  return s;
}

ProfileDistortion compareProfiles(const Profile& original, const Profile& reconstructed,
                                  double floorUs) {
  ProfileDistortion out;
  double errSum = 0.0;
  std::size_t errCount = 0;
  for (const auto& key : original.keys()) {
    const FunctionStats& a = original.stats(key.first, key.second);
    const FunctionStats& b = reconstructed.stats(key.first, key.second);
    if (a.count != b.count) out.countsPreserved = false;
    if (a.totalUs < floorUs) continue;
    const double rel = std::fabs(b.totalUs - a.totalUs) / a.totalUs;
    out.maxTotalRelError = std::max(out.maxTotalRelError, rel);
    errSum += rel;
    ++errCount;
  }
  if (errCount > 0) out.meanTotalRelError = errSum / static_cast<double>(errCount);
  const double ga = original.grandTotalUs();
  if (ga > 0.0)
    out.grandTotalRelError = std::fabs(reconstructed.grandTotalUs() - ga) / ga;
  return out;
}

std::string renderProfile(const Profile& profile, const StringTable& names,
                          std::size_t topN) {
  struct Row {
    std::pair<NameId, Rank> key;
    FunctionStats st;
  };
  std::vector<Row> rows;
  for (const auto& key : profile.keys())
    rows.push_back({key, profile.stats(key.first, key.second)});
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.st.totalUs > b.st.totalUs; });

  TextTable t;
  t.header({"function", "rank", "count", "total (ms)", "mean (µs)", "min", "max"});
  std::size_t shown = 0;
  for (const Row& r : rows) {
    if (shown++ >= topN) break;
    t.row({names.name(r.key.first), std::to_string(r.key.second),
           std::to_string(r.st.count), fmtF(r.st.totalUs / 1000.0, 2),
           fmtF(r.st.meanUs(), 1), fmtF(r.st.minUs, 1), fmtF(r.st.maxUs, 1)});
  }
  return t.str();
}

}  // namespace tracered::analysis
