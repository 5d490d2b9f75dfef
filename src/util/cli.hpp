// Minimal command-line parsing shared by the tracered tool, benches and
// examples.
//
// CliArgs supports `--key=value`, `--key value`, and boolean `--flag` forms.
// Callers that declare their flag set via unknownFlagErrors() get typo
// reports with a "did you mean --x?" suggestion (nearest known flag by edit
// distance) instead of silent ignoring. CliApp adds named-subcommand
// dispatch (`tracered reduce ...`) with generated top-level and
// per-subcommand --help — the front end of tools/tracered_main.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tracered {

/// Parsed command line: flag map plus positional arguments.
class CliArgs {
 public:
  /// Flags named in `booleanFlags` never consume the next token as a value
  /// (`--streaming app.trf` keeps `app.trf` positional) unless it is an
  /// explicit boolean word (true/false/1/0/yes/no — so `--csv false` means
  /// false); any other flag is value-greedy in the two-token form.
  /// `--flag=value` works either way.
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& booleanFlags = {});

  bool has(const std::string& key) const { return flags_.count(key) != 0; }

  std::string get(const std::string& key, const std::string& dflt = "") const;

  /// Every value the flag was given, in argv order — the accessor for
  /// repeatable flags (`generate --param a=1 --param b=2`). get() keeps its
  /// last-occurrence-wins semantics for everything else.
  std::vector<std::string> getAll(const std::string& key) const;

  /// Numeric getters return `dflt` when the flag is absent and throw
  /// UsageError when it is present but not fully parseable — a typo'd
  /// `--threads abc` must be a usage error, never silently 0.
  std::int64_t getInt(const std::string& key, std::int64_t dflt) const;
  double getDouble(const std::string& key, double dflt) const;

  bool getBool(const std::string& key, bool dflt = false) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& programName() const { return program_; }

  /// Flags that were given without a value token (trailing, or followed by
  /// another --flag) and fell back to the boolean sentinel "true", in argv
  /// order. Dispatchers with per-flag metadata reject value-taking flags
  /// that appear here.
  const std::vector<std::string>& flagsWithoutValues() const { return valueless_; }

  /// One error line per flag not in `known`, each with a did-you-mean
  /// suggestion when a known flag is within edit distance ("unknown flag
  /// --sclae (did you mean --scale?)"). Empty means every flag is known.
  std::vector<std::string> unknownFlagErrors(const std::vector<std::string>& known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  /// Every (flag, value) occurrence in argv order, feeding getAll().
  std::vector<std::pair<std::string, std::string>> occurrences_;
  std::vector<std::string> positional_;
  std::vector<std::string> valueless_;
};

/// Thrown by command handlers for bad invocations (missing positionals,
/// unparseable flag values). CliApp::main turns it into the message plus the
/// per-command help on stderr and exit code 2, distinguishing usage errors
/// from runtime failures (exit code 1).
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// The --threads flag's value (`fallback` when absent; 0 = hardware
/// concurrency), or UsageError when it is negative or does not fit an int.
/// The one --threads parser of the tool and the bench harnesses.
inline int threadsFlag(const CliArgs& args, int fallback) {
  const std::int64_t threads = args.getInt("threads", fallback);
  if (threads < 0 || threads > std::numeric_limits<int>::max())
    throw UsageError("--threads must be between 0 (hardware concurrency) and " +
                     std::to_string(std::numeric_limits<int>::max()) + ", got " +
                     std::to_string(threads));
  return static_cast<int>(threads);
}

/// Prints "prog: message" to stderr and exits 2 — the usage-failure path
/// for binaries without CliApp's dispatch (benches, examples).
[[noreturn]] void usageExit(const CliArgs& args, const std::string& message);

/// Exits 2 after printing every unknownFlagErrors() line when any flag is
/// not in `known`; returns normally otherwise.
void rejectUnknownFlags(const CliArgs& args, const std::vector<std::string>& known);

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
std::size_t editDistance(std::string_view a, std::string_view b);

/// The candidate closest to `word` by edit distance, provided it is close
/// enough to plausibly be a typo (distance <= max(2, |word|/3)); empty
/// string when nothing qualifies.
std::string nearestCandidate(const std::string& word,
                             const std::vector<std::string>& candidates);

/// " (did you mean '<best>'?)" for the nearest plausible candidate, or ""
/// when nothing qualifies — the one suggestion clause every unknown-name
/// error appends, so the wording (which tests grep for) lives in one place.
std::string didYouMean(const std::string& word,
                       const std::vector<std::string>& candidates);

/// One subcommand of a CliApp: metadata for help generation plus the
/// handler. `flags` doubles as the known-flag set for typo detection.
struct CliCommand {
  /// One declared flag, for --help and validation.
  struct Flag {
    std::string name;   ///< without the leading "--"
    std::string value;  ///< metavar ("<file>"); empty for boolean flags
    std::string help;   ///< one-line description (include the default)
  };

  std::string name;                     ///< "reduce"
  std::string usage;                    ///< "reduce <input> [flags]"
  std::string summary;                  ///< one-liner for the top-level help
  std::vector<Flag> flags;
  std::function<int(const CliArgs&)> run;
};

/// Subcommand front end: `app.main(argc, argv)` dispatches argv[1] to the
/// matching CliCommand, handles --help at both levels, reports unknown
/// subcommands and flags with did-you-mean suggestions, and turns uncaught
/// std::exception from handlers into an error line on stderr.
///
/// Exit codes: 0 success; 1 runtime failure (bad file, mismatched traces —
/// whatever the handler threw or returned); 2 usage error (unknown
/// subcommand or flag, missing required argument).
class CliApp {
 public:
  CliApp(std::string name, std::string summary);

  void add(CliCommand command);

  /// Version line printed (stdout, exit 0) when --version appears anywhere
  /// on the command line — top level or after any subcommand, so every
  /// entry point reports the same single string (src/util/version.hpp, the
  /// same constant the serve handshake speaks).
  void setVersion(std::string versionLine);

  /// Full dispatch; designed to be `return app.main(argc, argv);`.
  int main(int argc, const char* const* argv) const;

  /// Top-level help text (also shown for `help` / --help / no arguments).
  std::string help() const;

  /// Per-subcommand help text (shown for `<cmd> --help`).
  std::string help(const CliCommand& command) const;

 private:
  const CliCommand* find(const std::string& name) const;

  std::string name_;
  std::string summary_;
  std::string versionLine_;
  std::vector<CliCommand> commands_;
};

}  // namespace tracered
