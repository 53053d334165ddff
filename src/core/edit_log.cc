#include "src/core/edit_log.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/core/rule_parser.h"
#include "src/util/crc32c.h"
#include "src/util/csv.h"
#include "src/util/fault_injection.h"
#include "src/util/string_util.h"

namespace emdbg {

namespace {

constexpr std::string_view kJournalTag = "EMDBGJ1 ";

/// Position of rule `rid` in the function's current order; num_rules()
/// if absent.
size_t RulePosition(const MatchingFunction& fn, RuleId rid) {
  const std::vector<Rule>& rules = fn.rules();
  for (size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].id() == rid) return i;
  }
  return rules.size();
}

/// Journal payload re-creating `rule` at the end of the function. Empty
/// rules cannot be expressed in the DSL and get their own verb.
std::string AddRulePayload(const Rule& rule, const FeatureCatalog& catalog) {
  if (rule.empty()) {
    std::string payload = "add_rule_empty";
    if (!rule.name().empty()) {
      payload += " ";
      payload += rule.name();
    }
    return payload;
  }
  return "add_rule " + RuleToDsl(rule, catalog);
}

}  // namespace

Result<std::unique_ptr<EditJournal>> EditJournal::Create(
    const std::string& path, uint64_t epoch) {
  // Atomic header write: the journal either does not exist yet or has a
  // complete, valid header — a crash here never leaves a torn header.
  EMDBG_RETURN_IF_ERROR(WriteFileAtomic(
      path, StrFormat("EMDBGJ1 %llu\n",
                      static_cast<unsigned long long>(epoch))));
  return OpenForAppend(path);
}

Result<std::unique_ptr<EditJournal>> EditJournal::OpenForAppend(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IoError(
        StrFormat("cannot open journal %s for append", path.c_str()));
  }
  return std::unique_ptr<EditJournal>(new EditJournal(f));
}

EditJournal::~EditJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

Status EditJournal::Append(std::string_view payload) {
  if (payload.find('\n') != std::string_view::npos) {
    return Status::InvalidArgument(
        "journal payload must be a single line");
  }
  std::string line = StrFormat("%08x ", Crc32c(payload));
  line.append(payload);
  line.push_back('\n');
  // Injected before anything reaches the file: the record is guaranteed
  // absent on disk, the clean "write failed, nothing committed" case.
  if (FaultFire("journal.write")) {
    return Status::IoError("journal append failed (injected)");
  }
  // Every earlier append was flushed, so the file's size is where this
  // record starts.
  const int fd = ::fileno(file_);
  struct stat before;
  if (::fstat(fd, &before) != 0) {
    return Status::IoError(
        StrFormat("journal stat failed: %s", std::strerror(errno)));
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    return Status::IoError("journal append failed");
  }
  // The edit must be on disk before we report it committed. When the
  // fsync fails (an injected journal.fsync fault fires after the record
  // reached the file), the record is cut off again, so the unacknowledged
  // edit is not replayed by recovery and a client that retries it applies
  // it once. Only when that rollback fails too is the edit in doubt.
  if (FaultFire("journal.fsync") || ::fsync(fd) != 0) {
    const std::string cause = std::strerror(errno);
    if (::ftruncate(fd, before.st_size) != 0 || ::fsync(fd) != 0) {
      return Status::IoError(StrFormat(
          "journal fsync failed: %s; rolling the record back failed too "
          "(%s), so recovery may replay this unacknowledged edit",
          cause.c_str(), std::strerror(errno)));
    }
    return Status::IoError(StrFormat(
        "journal fsync failed: %s; the record was rolled back",
        cause.c_str()));
  }
  return Status::Ok();
}

Result<EditJournal::Contents> EditJournal::Read(const std::string& path) {
  Result<std::string> data = ReadFileToString(path);
  if (!data.ok()) return data.status();

  Contents contents;
  // Split into lines; a file not ending in '\n' has a torn final line
  // unless its checksum happens to verify (the newline was the only
  // missing byte).
  std::vector<std::string_view> lines;
  std::string_view rest(*data);
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    if (nl == std::string_view::npos) {
      lines.push_back(rest);
      break;
    }
    lines.push_back(rest.substr(0, nl));
    rest.remove_prefix(nl + 1);
  }
  if (lines.empty() || lines[0].size() <= kJournalTag.size() ||
      lines[0].substr(0, kJournalTag.size()) != kJournalTag) {
    return Status::ParseError(
        StrFormat("%s is not an emdbg journal", path.c_str()));
  }
  int64_t epoch = 0;
  if (!ParseInt64(lines[0].substr(kJournalTag.size()), &epoch) ||
      epoch < 0) {
    return Status::ParseError(
        StrFormat("journal %s has a bad epoch", path.c_str()));
  }
  contents.epoch = static_cast<uint64_t>(epoch);

  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    bool valid = line.size() >= 10 && line[8] == ' ';
    uint32_t stored = 0;
    if (valid) {
      for (size_t k = 0; k < 8; ++k) {
        if (!std::isxdigit(static_cast<unsigned char>(line[k]))) {
          valid = false;
          break;
        }
      }
      if (valid) {
        stored = static_cast<uint32_t>(
            std::strtoul(std::string(line.substr(0, 8)).c_str(), nullptr,
                         16));
      }
    }
    const std::string_view payload = valid ? line.substr(9) : line;
    if (!valid || Crc32c(payload) != stored) {
      if (i + 1 == lines.size()) {
        // Crash mid-append tore the final record; everything before it
        // committed.
        contents.torn_tail = true;
        break;
      }
      return Status::ParseError(StrFormat(
          "journal %s corrupt at line %zu (checksum mismatch)",
          path.c_str(), i + 1));
    }
    contents.records.emplace_back(payload);
  }
  return contents;
}

RuleId EditLog::ResolveRule(RuleId rid) const {
  // Chase the remap chain (bounded by the number of undone removals).
  auto it = rule_remap_.find(rid);
  while (it != rule_remap_.end()) {
    rid = it->second;
    it = rule_remap_.find(rid);
  }
  return rid;
}

PredicateId EditLog::ResolvePredicate(PredicateId pid) const {
  auto it = predicate_remap_.find(pid);
  while (it != predicate_remap_.end()) {
    pid = it->second;
    it = predicate_remap_.find(pid);
  }
  return pid;
}

Status EditLog::Journal(std::string_view payload) {
  if (!journal_sink_) return Status::Ok();
  return journal_sink_(payload);
}

Result<MatchStats> EditLog::AddRule(IncrementalMatcher& inc,
                                    const Rule& rule) {
  Result<MatchStats> stats = inc.AddRule(rule);
  if (!stats.ok()) return stats;
  Entry e;
  e.kind = Kind::kAddRule;
  e.rule_id = inc.last_added_rule_id();
  entries_.push_back(std::move(e));
  if (journal_sink_) {
    EMDBG_RETURN_IF_ERROR(Journal(AddRulePayload(rule, *journal_catalog_)));
  }
  return stats;
}

Result<MatchStats> EditLog::RemoveRule(IncrementalMatcher& inc,
                                       RuleId rid) {
  rid = ResolveRule(rid);
  const Rule* rule = inc.function().RuleById(rid);
  if (rule == nullptr) {
    return Status::NotFound(StrFormat("rule %u not found", rid));
  }
  const size_t pos = RulePosition(inc.function(), rid);
  Entry e;
  e.kind = Kind::kRemoveRule;
  e.rule_id = rid;
  e.rule_snapshot = *rule;
  Result<MatchStats> stats = inc.RemoveRule(rid);
  if (!stats.ok()) return stats;
  entries_.push_back(std::move(e));
  EMDBG_RETURN_IF_ERROR(Journal(StrFormat("remove_rule %zu", pos)));
  return stats;
}

Result<MatchStats> EditLog::AddPredicate(IncrementalMatcher& inc,
                                         RuleId rid, Predicate p) {
  rid = ResolveRule(rid);
  Result<MatchStats> stats = inc.AddPredicate(rid, p);
  if (!stats.ok()) return stats;
  Entry e;
  e.kind = Kind::kAddPredicate;
  e.rule_id = rid;
  e.predicate_id = inc.last_added_predicate_id();
  entries_.push_back(std::move(e));
  if (journal_sink_) {
    EMDBG_RETURN_IF_ERROR(Journal(StrFormat(
        "add_pred %zu %s", RulePosition(inc.function(), rid),
        PredicateToDsl(p, *journal_catalog_).c_str())));
  }
  return stats;
}

Result<MatchStats> EditLog::RemovePredicate(IncrementalMatcher& inc,
                                            RuleId rid, PredicateId pid) {
  rid = ResolveRule(rid);
  pid = ResolvePredicate(pid);
  const Rule* rule = inc.function().RuleById(rid);
  if (rule == nullptr) {
    return Status::NotFound(StrFormat("rule %u not found", rid));
  }
  const size_t pos = rule->FindPredicate(pid);
  if (pos == rule->size()) {
    return Status::NotFound(
        StrFormat("predicate %u not found in rule %u", pid, rid));
  }
  const size_t rule_pos = RulePosition(inc.function(), rid);
  Entry e;
  e.kind = Kind::kRemovePredicate;
  e.rule_id = rid;
  e.predicate_id = pid;
  e.predicate_snapshot = rule->predicate(pos);
  Result<MatchStats> stats = inc.RemovePredicate(rid, pid);
  if (!stats.ok()) return stats;
  entries_.push_back(std::move(e));
  EMDBG_RETURN_IF_ERROR(
      Journal(StrFormat("remove_pred %zu %zu", rule_pos, pos)));
  return stats;
}

Result<MatchStats> EditLog::SetThreshold(IncrementalMatcher& inc,
                                         RuleId rid, PredicateId pid,
                                         double threshold) {
  rid = ResolveRule(rid);
  pid = ResolvePredicate(pid);
  const Rule* rule = inc.function().RuleById(rid);
  if (rule == nullptr) {
    return Status::NotFound(StrFormat("rule %u not found", rid));
  }
  const size_t pos = rule->FindPredicate(pid);
  if (pos == rule->size()) {
    return Status::NotFound(
        StrFormat("predicate %u not found in rule %u", pid, rid));
  }
  const size_t rule_pos = RulePosition(inc.function(), rid);
  Entry e;
  e.kind = Kind::kSetThreshold;
  e.rule_id = rid;
  e.predicate_id = pid;
  e.old_threshold = rule->predicate(pos).threshold;
  e.new_threshold = threshold;
  Result<MatchStats> stats = inc.SetThreshold(rid, pid, threshold);
  if (!stats.ok()) return stats;
  entries_.push_back(std::move(e));
  EMDBG_RETURN_IF_ERROR(Journal(
      StrFormat("set_threshold %zu %zu %.17g", rule_pos, pos, threshold)));
  return stats;
}

size_t EditLog::MemoryBytes() const {
  // A string's heap buffer exists only past the small-string capacity.
  const size_t inline_chars = std::string().capacity();
  size_t bytes = entries_.size() * sizeof(Entry);
  for (const Entry& e : entries_) {
    const Rule& r = e.rule_snapshot;
    bytes += r.predicates().capacity() * sizeof(Predicate);
    if (r.name().capacity() > inline_chars) bytes += r.name().capacity() + 1;
  }
  // Hash nodes hold the pair and a next pointer; buckets are pointers.
  const auto map_bytes = [](const auto& map) {
    using Node = typename std::decay_t<decltype(map)>::value_type;
    return map.size() * (sizeof(Node) + sizeof(void*)) +
           map.bucket_count() * sizeof(void*);
  };
  return bytes + map_bytes(rule_remap_) + map_bytes(predicate_remap_);
}

Result<MatchStats> EditLog::Undo(IncrementalMatcher& inc) {
  if (entries_.empty()) {
    return Status::FailedPrecondition("edit history is empty");
  }
  const Entry e = entries_.back();
  entries_.pop_back();
  // Each undo is journaled as the concrete inverse edit it performs, so
  // journal replay is a pure forward pass and never needs undo history
  // from before the journal's checkpoint.
  switch (e.kind) {
    case Kind::kAddRule: {
      const RuleId rid = ResolveRule(e.rule_id);
      const size_t pos = RulePosition(inc.function(), rid);
      Result<MatchStats> stats = inc.RemoveRule(rid);
      if (!stats.ok()) return stats;
      EMDBG_RETURN_IF_ERROR(Journal(StrFormat("remove_rule %zu", pos)));
      return stats;
    }
    case Kind::kRemoveRule: {
      // Re-adding assigns fresh ids; remap the old rule id and the old
      // predicate ids (positionally — AddRule preserves predicate order).
      Result<MatchStats> stats = inc.AddRule(e.rule_snapshot);
      if (!stats.ok()) return stats;
      const RuleId new_rid = inc.last_added_rule_id();
      rule_remap_[e.rule_id] = new_rid;
      const Rule* restored = inc.function().RuleById(new_rid);
      for (size_t k = 0; k < e.rule_snapshot.size(); ++k) {
        predicate_remap_[e.rule_snapshot.predicate(k).id] =
            restored->predicate(k).id;
      }
      if (journal_sink_) {
        EMDBG_RETURN_IF_ERROR(
            Journal(AddRulePayload(e.rule_snapshot, *journal_catalog_)));
      }
      return stats;
    }
    case Kind::kAddPredicate: {
      const RuleId rid = ResolveRule(e.rule_id);
      const PredicateId pid = ResolvePredicate(e.predicate_id);
      const Rule* rule = inc.function().RuleById(rid);
      const size_t rule_pos = RulePosition(inc.function(), rid);
      const size_t pred_pos =
          rule == nullptr ? 0 : rule->FindPredicate(pid);
      Result<MatchStats> stats = inc.RemovePredicate(rid, pid);
      if (!stats.ok()) return stats;
      EMDBG_RETURN_IF_ERROR(Journal(
          StrFormat("remove_pred %zu %zu", rule_pos, pred_pos)));
      return stats;
    }
    case Kind::kRemovePredicate: {
      const RuleId rid = ResolveRule(e.rule_id);
      Result<MatchStats> stats =
          inc.AddPredicate(rid, e.predicate_snapshot);
      if (!stats.ok()) return stats;
      predicate_remap_[e.predicate_id] = inc.last_added_predicate_id();
      if (journal_sink_) {
        EMDBG_RETURN_IF_ERROR(Journal(StrFormat(
            "add_pred %zu %s", RulePosition(inc.function(), rid),
            PredicateToDsl(e.predicate_snapshot, *journal_catalog_)
                .c_str())));
      }
      return stats;
    }
    case Kind::kSetThreshold: {
      const RuleId rid = ResolveRule(e.rule_id);
      const PredicateId pid = ResolvePredicate(e.predicate_id);
      const Rule* rule = inc.function().RuleById(rid);
      const size_t rule_pos = RulePosition(inc.function(), rid);
      const size_t pred_pos =
          rule == nullptr ? 0 : rule->FindPredicate(pid);
      Result<MatchStats> stats =
          inc.SetThreshold(rid, pid, e.old_threshold);
      if (!stats.ok()) return stats;
      EMDBG_RETURN_IF_ERROR(Journal(StrFormat(
          "set_threshold %zu %zu %.17g", rule_pos, pred_pos,
          e.old_threshold)));
      return stats;
    }
  }
  return Status::Internal("unreachable");
}

std::string EditLog::Describe(const FeatureCatalog& catalog) const {
  std::string out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += StrFormat("%3zu. ", i + 1);
    switch (e.kind) {
      case Kind::kAddRule:
        out += StrFormat("add rule #%u", e.rule_id);
        break;
      case Kind::kRemoveRule:
        out += StrFormat("remove rule %s", e.rule_snapshot.name().c_str());
        break;
      case Kind::kAddPredicate:
        out += StrFormat("add predicate #%u to rule #%u", e.predicate_id,
                         e.rule_id);
        break;
      case Kind::kRemovePredicate:
        out += StrFormat(
            "remove predicate %s from rule #%u",
            PredicateToString(e.predicate_snapshot, catalog).c_str(),
            e.rule_id);
        break;
      case Kind::kSetThreshold:
        out += StrFormat("set threshold of predicate #%u: %.4g -> %.4g",
                         e.predicate_id, e.old_threshold, e.new_threshold);
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace emdbg
