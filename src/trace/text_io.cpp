#include "trace/text_io.hpp"

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace tracered {

namespace {

constexpr int kMaxOp = static_cast<int>(OpKind::kOther);

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("text trace, line " + std::to_string(line) + ": " + what);
}

bool msgIsEmpty(const MsgInfo& m) { return m == MsgInfo{}; }

}  // namespace

void writeTextHeader(std::ostream& os, const StringTable& names, int numRanks) {
  // Enforced at write time too: emitting a header no reader accepts would
  // just defer the failure to the consumer.
  if (numRanks > kMaxTextDeclaredRanks)
    throw std::runtime_error("text trace: " + std::to_string(numRanks) +
                             " ranks exceeds the text format's maximum of " +
                             std::to_string(kMaxTextDeclaredRanks) +
                             "; use the binary format (TRF1) for traces this wide");
  os << "# tracered text trace v1\n";
  os << "ranks " << numRanks << '\n';
  for (NameId id = 0; id < names.size(); ++id)
    os << "string " << id << ' ' << names.name(id) << '\n';
}

void writeTextRank(std::ostream& os, const RankTrace& rankTrace) {
  os << "rank " << rankTrace.rank << '\n';
  for (const RawRecord& rec : rankTrace.records) {
    switch (rec.kind) {
      case RecordKind::kSegBegin:
        os << "B " << rec.time << ' ' << rec.name << '\n';
        break;
      case RecordKind::kSegEnd:
        os << "E " << rec.time << ' ' << rec.name << '\n';
        break;
      case RecordKind::kEnter:
        os << "> " << rec.time << ' ' << rec.name << ' ' << static_cast<int>(rec.op);
        if (!msgIsEmpty(rec.msg)) {
          os << ' ' << rec.msg.peer << ' ' << rec.msg.tag << ' ' << rec.msg.root
             << ' ' << rec.msg.comm << ' ' << rec.msg.bytes;
        }
        os << '\n';
        break;
      case RecordKind::kExit:
        os << "< " << rec.time << ' ' << rec.name << '\n';
        break;
    }
  }
}

std::string traceToText(const Trace& trace) {
  std::ostringstream os;
  writeTextHeader(os, trace.names(), trace.numRanks());
  for (Rank r = 0; r < trace.numRanks(); ++r) {
    // One section per rank, ids dense and in order: anything else (sparse
    // ids, which are legal in TRF1, or duplicate ids, which the parser would
    // silently merge) cannot round-trip — fail loudly rather than emit text
    // that parses into a different trace.
    const Rank id = trace.rank(r).rank;
    if (id != r)
      throw std::runtime_error("text trace: rank id " + std::to_string(id) + " at index " +
                               std::to_string(r) +
                               " (text requires dense rank ids 0..N-1, in order)");
    writeTextRank(os, trace.rank(r));
  }
  return os.str();
}

bool TextTraceParser::feedLine(const std::string& line) {
  ++lineNo_;
  if (line.empty() || line[0] == '#') return false;
  std::istringstream ls(line);
  std::string tok;
  ls >> tok;

  if (tok == "ranks") {
    // Exactly one declaration: chunked readers snapshot the count at open,
    // so a mid-file re-declaration would make them diverge from whole-file
    // parsing. The reference writer emits exactly one (FORMATS.md §2).
    if (declaredRanks_ >= 0) fail(lineNo_, "duplicate ranks directive");
    if (!(ls >> declaredRanks_) || declaredRanks_ < 0) fail(lineNo_, "bad rank count");
    if (declaredRanks_ > kMaxTextDeclaredRanks)
      fail(lineNo_, "declared rank count " + std::to_string(declaredRanks_) +
                        " exceeds the text format's maximum of " +
                        std::to_string(kMaxTextDeclaredRanks) +
                        " (readers allocate per declared rank)");
    return false;
  }
  if (tok == "string") {
    NameId id;
    std::string name;
    if (!(ls >> id)) fail(lineNo_, "bad string id");
    if (!(ls >> name)) fail(lineNo_, "missing string value");
    std::string rest;
    std::getline(ls, rest);
    if (!rest.empty()) name += rest;  // names may contain spaces
    const NameId got = names_.intern(name);
    if (got != id) fail(lineNo_, "string ids must be dense and in order");
    return false;
  }
  if (tok == "rank") {
    int r;
    if (!(ls >> r) || r < 0 || r >= declaredRanks_) fail(lineNo_, "bad rank id");
    currentRank_ = r;
    return false;
  }
  if (tok == "B" || tok == "E" || tok == "<") {
    record_ = RawRecord{};
    record_.kind = tok == "B"   ? RecordKind::kSegBegin
                   : tok == "E" ? RecordKind::kSegEnd
                                : RecordKind::kExit;
    if (!(ls >> record_.time >> record_.name)) fail(lineNo_, "bad record fields");
    if (record_.name >= names_.size()) fail(lineNo_, "unknown name id");
    if (currentRank_ < 0) fail(lineNo_, "record before any 'rank' line");
    return true;
  }
  if (tok == ">") {
    record_ = RawRecord{};
    record_.kind = RecordKind::kEnter;
    int op;
    if (!(ls >> record_.time >> record_.name >> op)) fail(lineNo_, "bad enter fields");
    if (record_.name >= names_.size()) fail(lineNo_, "unknown name id");
    if (op < 0 || op > kMaxOp) fail(lineNo_, "unknown op code");
    record_.op = static_cast<OpKind>(op);
    // Message fields are all absent or all five, each in its field's range
    // (a failed `>>` must not read as "no message"). `bytes` goes through a
    // signed read: `>>` into an unsigned type would wrap "-1" to 2^32 - 1.
    if (!(ls >> std::ws).eof()) {
      std::int64_t bytes = -1;
      if (!(ls >> record_.msg.peer >> record_.msg.tag >> record_.msg.root >>
            record_.msg.comm >> bytes) ||
          !std::in_range<std::uint32_t>(bytes))
        fail(lineNo_, "bad message info");
      record_.msg.bytes = static_cast<std::uint32_t>(bytes);
    }
    if (currentRank_ < 0) fail(lineNo_, "record before any 'rank' line");
    return true;
  }
  fail(lineNo_, "unknown directive '" + tok + "'");
}

void TextTraceParser::finish() const {
  if (declaredRanks_ < 0) fail(lineNo_, "missing 'ranks' header");
}

Trace traceFromText(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  TextTraceParser parser;

  Trace trace;
  while (std::getline(is, line)) {
    if (!parser.feedLine(line)) {
      while (trace.numRanks() < parser.declaredRanks()) trace.addRank();
      continue;
    }
    trace.rank(parser.currentRank()).records.push_back(parser.record());
  }
  parser.finish();
  for (const auto& s : parser.names().all()) trace.names().intern(s);
  return trace;
}

}  // namespace tracered
