#ifndef EMDBG_CORE_EDIT_LOG_H_
#define EMDBG_CORE_EDIT_LOG_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/incremental.h"

namespace emdbg {

/// Append-only durable journal of session edits — the redo log behind
/// DebugSession's crash recovery. One text file:
///
///   EMDBGJ1 <epoch>\n                  header: format tag + checkpoint
///                                      epoch this journal extends
///   <crc32c-hex8> <payload>\n          one record per committed edit
///
/// Each record's CRC-32C covers its payload, so corruption is detected
/// line by line. Appends are flushed and fsync'd before returning — once
/// Append succeeds the edit survives a crash. A torn final line (crash
/// mid-append) is tolerated on read; a bad CRC anywhere earlier is
/// reported as ParseError.
///
/// Payloads are the concrete position-based edit commands DebugSession
/// replays (add_rule / remove_rule / add_pred / remove_pred /
/// set_threshold); the journal itself treats them as opaque single-line
/// strings.
class EditJournal {
 public:
  /// Creates (truncating) a journal for checkpoint `epoch` and syncs the
  /// header to disk.
  static Result<std::unique_ptr<EditJournal>> Create(
      const std::string& path, uint64_t epoch);

  /// Reopens an existing journal to append further records (after
  /// recovery has replayed it).
  static Result<std::unique_ptr<EditJournal>> OpenForAppend(
      const std::string& path);

  ~EditJournal();
  EditJournal(const EditJournal&) = delete;
  EditJournal& operator=(const EditJournal&) = delete;

  /// Appends one record (payload must be a single line without '\n') and
  /// fsyncs. The edit is durable once this returns Ok. When the fsync
  /// fails, the file is truncated back to its size before the append (and
  /// synced), so an IoError means the edit did not commit; only if that
  /// rollback fails too does the error text say the edit is in doubt.
  Status Append(std::string_view payload);

  struct Contents {
    uint64_t epoch = 0;
    std::vector<std::string> records;
    /// True if the final line was incomplete or failed its CRC — the
    /// signature of a crash mid-append; the line is ignored.
    bool torn_tail = false;
  };

  /// Reads and verifies a journal. IoError if the file cannot be read,
  /// ParseError on a bad header or on corruption before the final line.
  static Result<Contents> Read(const std::string& path);

 private:
  explicit EditJournal(std::FILE* f) : file_(f) {}

  std::FILE* file_ = nullptr;
};

/// Recorded, undoable edit history over an IncrementalMatcher — the
/// session journal of the paper's debugging loop. Route edits through the
/// log instead of calling the matcher directly:
///
///   EditLog log;
///   log.SetThreshold(inc, rid, pid, 0.8);   // applied incrementally
///   log.Undo(inc);                          // restored incrementally
///
/// Undo re-applies the inverse edit through the same incremental
/// machinery, so it costs milliseconds, not a full re-run. Rules and
/// predicates re-created by an undo receive fresh stable ids; the log
/// transparently remaps older history entries to them.
class EditLog {
 public:
  EditLog() = default;

  /// Journal sink: receives one single-line payload per committed edit
  /// (see EditJournal) and persists it. A non-Ok return is propagated to
  /// the edit's caller — the in-memory edit stays applied, but the
  /// durable copy is behind, which the caller must surface.
  using JournalSink = std::function<Status(std::string_view payload)>;

  /// Enables journaling. `catalog` is used to serialize rules/predicates
  /// into replayable DSL and must outlive the log. Undo is journaled as
  /// its concrete inverse edit (e.g. undoing a threshold change journals
  /// a set_threshold back to the old value), so replaying a journal never
  /// depends on undo history that predates it. Pass nullptr/empty to
  /// disable.
  void SetJournal(const FeatureCatalog* catalog, JournalSink sink) {
    journal_catalog_ = catalog;
    journal_sink_ = std::move(sink);
  }

  // ---- Edits (forwarded to the matcher, recorded on success). ----
  Result<MatchStats> AddRule(IncrementalMatcher& inc, const Rule& rule);
  Result<MatchStats> RemoveRule(IncrementalMatcher& inc, RuleId rid);
  Result<MatchStats> AddPredicate(IncrementalMatcher& inc, RuleId rid,
                                  Predicate p);
  Result<MatchStats> RemovePredicate(IncrementalMatcher& inc, RuleId rid,
                                     PredicateId pid);
  Result<MatchStats> SetThreshold(IncrementalMatcher& inc, RuleId rid,
                                  PredicateId pid, double threshold);

  /// Reverts the most recent not-yet-undone edit. FailedPrecondition when
  /// the history is empty.
  Result<MatchStats> Undo(IncrementalMatcher& inc);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Approximate heap bytes of the recorded history: its entries with
  /// their rule snapshots, and the id remap tables. Every post-run edit
  /// adds an entry (Undo removes one), and nothing bounds or bills them,
  /// so a long-lived session grows with its edit count.
  size_t MemoryBytes() const;

  /// Human-readable history, most recent last.
  std::string Describe(const FeatureCatalog& catalog) const;

 private:
  enum class Kind {
    kAddRule,
    kRemoveRule,
    kAddPredicate,
    kRemovePredicate,
    kSetThreshold,
  };

  struct Entry {
    Kind kind;
    RuleId rule_id = kInvalidRule;
    PredicateId predicate_id = kInvalidPredicate;
    /// Snapshot for undo: removed rule (kRemoveRule), removed predicate
    /// (kRemovePredicate).
    Rule rule_snapshot;
    Predicate predicate_snapshot;
    double old_threshold = 0.0;
    double new_threshold = 0.0;
  };

  /// Resolve an id recorded earlier through the remap chains (ids change
  /// when an undo re-creates a rule/predicate).
  RuleId ResolveRule(RuleId rid) const;
  PredicateId ResolvePredicate(PredicateId pid) const;

  /// Sends `payload` to the journal sink, if one is attached.
  Status Journal(std::string_view payload);

  std::vector<Entry> entries_;
  std::unordered_map<RuleId, RuleId> rule_remap_;
  std::unordered_map<PredicateId, PredicateId> predicate_remap_;
  const FeatureCatalog* journal_catalog_ = nullptr;
  JournalSink journal_sink_;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_EDIT_LOG_H_
