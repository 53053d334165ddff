#include "src/core/debug_session.h"

#include <filesystem>
#include <unordered_map>

#include "src/core/block_matcher.h"
#include "src/core/sampler.h"
#include "src/util/csv.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace emdbg {

namespace {

// ---- Durability file layout inside the session directory:
//   checkpoint.meta             "EMDBGCK1 <epoch>" — names the live epoch
//   checkpoint.<epoch>.features catalog feature names, one per id-order line
//   checkpoint.<epoch>.rules    precise DSL, one rule per line
//   checkpoint.<epoch>.state    binary memo + bitmaps (state_io v2)
//   journal.log                 edits committed since the checkpoint
// The meta file is the commit point: it is rewritten (atomically) only
// after the new epoch's files are fully on disk, so a crash anywhere in
// checkpointing leaves a complete old or new checkpoint. ----

constexpr std::string_view kMetaTag = "EMDBGCK1 ";

std::string MetaPath(const std::string& dir) {
  return dir + "/checkpoint.meta";
}
std::string JournalPath(const std::string& dir) {
  return dir + "/journal.log";
}
std::string FeaturesPath(const std::string& dir, uint64_t epoch) {
  return StrFormat("%s/checkpoint.%llu.features", dir.c_str(),
                   static_cast<unsigned long long>(epoch));
}
std::string RulesPath(const std::string& dir, uint64_t epoch) {
  return StrFormat("%s/checkpoint.%llu.rules", dir.c_str(),
                   static_cast<unsigned long long>(epoch));
}
std::string StatePath(const std::string& dir, uint64_t epoch) {
  return StrFormat("%s/checkpoint.%llu.state", dir.c_str(),
                   static_cast<unsigned long long>(epoch));
}

Result<uint64_t> ReadMeta(const std::string& dir) {
  Result<std::string> text = ReadFileToString(MetaPath(dir));
  if (!text.ok()) return text.status();
  const std::string_view trimmed = TrimAscii(*text);
  if (trimmed.size() <= kMetaTag.size() ||
      trimmed.substr(0, kMetaTag.size()) != kMetaTag) {
    return Status::ParseError(
        StrFormat("%s is not an emdbg checkpoint meta file",
                  MetaPath(dir).c_str()));
  }
  int64_t epoch = 0;
  if (!ParseInt64(trimmed.substr(kMetaTag.size()), &epoch) || epoch <= 0) {
    return Status::ParseError("checkpoint meta has a bad epoch");
  }
  return static_cast<uint64_t>(epoch);
}

/// The catalog's features, one "simfn(attrA, attrB)" name per line in id
/// order. Recovery re-interns them in the same order, so the feature ids
/// baked into the saved memo columns stay valid.
std::string CheckpointFeaturesText(const FeatureCatalog& catalog) {
  std::string text;
  for (FeatureId f = 0; f < catalog.size(); ++f) {
    text += catalog.Name(f);
    text += "\n";
  }
  return text;
}

Status LoadCheckpointFeatures(const std::string& path,
                              FeatureCatalog& catalog) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  std::string_view rest(*text);
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    const std::string_view line =
        TrimAscii(nl == std::string_view::npos ? rest : rest.substr(0, nl));
    rest = nl == std::string_view::npos ? std::string_view()
                                        : rest.substr(nl + 1);
    if (line.empty()) continue;
    // "simfn(attrA, attrB)"
    const size_t lparen = line.find('(');
    const size_t comma = line.find(',', lparen);
    const size_t rparen = line.find(')', comma);
    if (lparen == std::string_view::npos ||
        comma == std::string_view::npos ||
        rparen == std::string_view::npos) {
      return Status::ParseError(StrFormat(
          "bad feature name '%.*s' in %s", static_cast<int>(line.size()),
          line.data(), path.c_str()));
    }
    Result<SimFunction> fn =
        SimFunctionFromName(std::string(TrimAscii(line.substr(0, lparen))));
    if (!fn.ok()) return fn.status();
    Result<FeatureId> id = catalog.InternByName(
        *fn, TrimAscii(line.substr(lparen + 1, comma - lparen - 1)),
        TrimAscii(line.substr(comma + 1, rparen - comma - 1)));
    if (!id.ok()) return id.status();
  }
  return Status::Ok();
}

/// Checkpoint rules: precise DSL, plus a "!empty [name]" escape for rules
/// with no predicates (the DSL cannot express them, but a live function
/// can contain them and journal positions must line up).
std::string CheckpointRulesText(const MatchingFunction& fn,
                                const FeatureCatalog& catalog) {
  std::string text;
  for (const Rule& rule : fn.rules()) {
    if (rule.empty()) {
      text += "!empty";
      if (!rule.name().empty()) {
        text += " ";
        text += rule.name();
      }
    } else {
      text += RuleToDsl(rule, catalog);
    }
    text += "\n";
  }
  return text;
}

Result<MatchingFunction> LoadCheckpointRules(const std::string& path,
                                             FeatureCatalog& catalog) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  MatchingFunction fn;
  std::string_view rest(*text);
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    const std::string_view line =
        TrimAscii(nl == std::string_view::npos ? rest : rest.substr(0, nl));
    rest = nl == std::string_view::npos ? std::string_view()
                                        : rest.substr(nl + 1);
    if (line.empty() || line[0] == '#') continue;
    if (line.substr(0, 6) == "!empty") {
      fn.AddRule(Rule(std::string(TrimAscii(line.substr(6)))));
      continue;
    }
    Result<Rule> rule = ParseRule(line, catalog);
    if (!rule.ok()) return rule.status();
    fn.AddRule(std::move(*rule));
  }
  return fn;
}

/// Consumes a leading non-negative integer token from `rest`.
bool TakeIndex(std::string_view& rest, size_t* out) {
  const size_t sp = rest.find(' ');
  const std::string_view tok =
      sp == std::string_view::npos ? rest : rest.substr(0, sp);
  rest = sp == std::string_view::npos ? std::string_view()
                                      : rest.substr(sp + 1);
  int64_t v = 0;
  if (!ParseInt64(tok, &v) || v < 0) return false;
  *out = static_cast<size_t>(v);
  return true;
}

}  // namespace

DebugSession::DebugSession(Table a, Table b, CandidateSet pairs,
                           Options options)
    : DebugSession(std::make_shared<const Table>(std::move(a)),
                   std::make_shared<const Table>(std::move(b)),
                   std::make_shared<const CandidateSet>(std::move(pairs)),
                   options) {}

DebugSession::DebugSession(std::shared_ptr<const Table> a,
                           std::shared_ptr<const Table> b,
                           std::shared_ptr<const CandidateSet> pairs,
                           Options options)
    : a_(std::move(a)),
      b_(std::move(b)),
      pairs_(std::move(pairs)),
      options_(options),
      catalog_(a_->schema(), b_->schema()),
      rng_(options.seed) {
  ctx_ = std::make_unique<PairContext>(
      *a_, *b_, catalog_, PairContext::Options{.budget = options_.budget});
  // batch_state_ is still empty, so attaching cannot bill anything yet.
  (void)batch_state_.AttachBudget(options_.budget);
  if (options_.num_threads != 1) {
    // One persistent pool for the session's lifetime: threads spawn here
    // once and are reused by every full run, prewarm, and edit.
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

IncrementalMatcher::Options DebugSession::IncOptions() {
  return IncrementalMatcher::Options{.pool = pool_.get(),
                                     .budget = options_.budget};
}

MatchResult DebugSession::BatchRun(const RunControl& control) {
  BlockMatcher matcher(BlockMatcher::Options{.cost_model = model_.get(),
                                             .budget = options_.budget,
                                             .pool = pool_.get()});
  return matcher.RunWithState(fn_, *pairs_, *ctx_, batch_state_, control);
}

const MatchingFunction& DebugSession::function() const {
  if (started_ && options_.incremental) return inc_->function();
  return fn_;
}

void DebugSession::PrepareRule(Rule& rule) {
  if (model_ == nullptr) return;
  for (const FeatureId f : rule.Features()) {
    model_->EnsureFeature(f, *ctx_);
  }
  if (options_.ordering != OrderingStrategy::kAsWritten &&
      options_.ordering != OrderingStrategy::kRandom) {
    OrderRulePredicates(rule, *model_);
  }
}

Result<RuleId> DebugSession::AddRuleText(std::string_view dsl) {
  Result<Rule> rule = ParseRule(dsl, catalog_);
  if (!rule.ok()) return rule.status();
  return AddRule(std::move(*rule));
}

Result<RuleId> DebugSession::AddRule(Rule rule) {
  PrepareRule(rule);
  if (started_ && options_.incremental) {
    Result<MatchStats> stats = log_.AddRule(*inc_, rule);
    if (!stats.ok()) return stats.status();
    last_stats_ = *stats;
    total_stats_ += *stats;
    return inc_->last_added_rule_id();
  }
  batch_dirty_ = true;
  return fn_.AddRule(std::move(rule));
}

Status DebugSession::RemoveRule(RuleId rid) {
  if (started_ && options_.incremental) {
    Result<MatchStats> stats = log_.RemoveRule(*inc_, rid);
    if (!stats.ok()) return stats.status();
    last_stats_ = *stats;
    total_stats_ += *stats;
    return Status::Ok();
  }
  batch_dirty_ = true;
  return fn_.RemoveRule(rid);
}

Result<PredicateId> DebugSession::AddPredicate(RuleId rid, Predicate p) {
  if (model_ != nullptr) model_->EnsureFeature(p.feature, *ctx_);
  if (started_ && options_.incremental) {
    Result<MatchStats> stats = log_.AddPredicate(*inc_, rid, p);
    if (!stats.ok()) return stats.status();
    last_stats_ = *stats;
    total_stats_ += *stats;
    return inc_->last_added_predicate_id();
  }
  batch_dirty_ = true;
  return fn_.AddPredicate(rid, p);
}

Status DebugSession::RemovePredicate(RuleId rid, PredicateId pid) {
  if (started_ && options_.incremental) {
    Result<MatchStats> stats = log_.RemovePredicate(*inc_, rid, pid);
    if (!stats.ok()) return stats.status();
    last_stats_ = *stats;
    total_stats_ += *stats;
    return Status::Ok();
  }
  batch_dirty_ = true;
  return fn_.RemovePredicate(rid, pid);
}

Status DebugSession::SetThreshold(RuleId rid, PredicateId pid,
                                  double threshold) {
  if (started_ && options_.incremental) {
    Result<MatchStats> stats =
        log_.SetThreshold(*inc_, rid, pid, threshold);
    if (!stats.ok()) return stats.status();
    last_stats_ = *stats;
    total_stats_ += *stats;
    return Status::Ok();
  }
  batch_dirty_ = true;
  return fn_.SetThreshold(rid, pid, threshold);
}

Status DebugSession::Undo() {
  if (!started_ || !options_.incremental) {
    return Status::FailedPrecondition(
        "undo requires a running incremental session");
  }
  Result<MatchStats> stats = log_.Undo(*inc_);
  if (!stats.ok()) return stats.status();
  last_stats_ = *stats;
  total_stats_ += *stats;
  return Status::Ok();
}

std::string DebugSession::History() const { return log_.Describe(catalog_); }

MatchResult DebugSession::FirstRun(const RunControl& control) {
  // Estimate the cost model on a small random sample (paper: 1%), order
  // the rules with the configured strategy, then run fully.
  const CandidateSet sample =
      SamplePairs(*pairs_, options_.sample_fraction, rng_);
  model_ = std::make_unique<CostModel>(
      CostModel::EstimateForFunction(fn_, *ctx_, sample));
  ApplyOrdering(fn_, options_.ordering, *model_, &rng_);

  MatchResult result;
  if (options_.incremental) {
    if (inc_ == nullptr) {
      inc_ = std::make_unique<IncrementalMatcher>(*ctx_, *pairs_,
                                                   IncOptions());
    }
    result = inc_->FullRun(fn_, control);
  } else {
    result = BatchRun(control);
    batch_dirty_ = result.partial;
  }
  last_stats_ = result.stats;
  total_stats_ += last_stats_;
  // A partial first run leaves the session in the pre-run regime: the
  // memo keeps everything computed so far, a retry resumes cheaply.
  started_ = !result.partial;
  return result;
}

const Bitmap& DebugSession::Run() {
  if (!started_) {
    FirstRun(RunControl());
  } else if (!options_.incremental && batch_dirty_) {
    // Non-incremental mode: rerun everything, but keep the memo — the
    // "precomputation variation" of Sec. 7.6.
    last_stats_ = BatchRun(RunControl()).stats;
    total_stats_ += last_stats_;
    batch_dirty_ = false;
  }
  return options_.incremental ? inc_->matches() : batch_state_.matches();
}

MatchResult DebugSession::Run(const RunControl& control) {
  if (!started_) return FirstRun(control);
  if (!options_.incremental && batch_dirty_) {
    MatchResult result = BatchRun(control);
    last_stats_ = result.stats;
    total_stats_ += last_stats_;
    batch_dirty_ = result.partial;
    return result;
  }
  // The maintained result is already up to date (incremental mode keeps
  // it current through edits); return it as a complete result.
  MatchResult result;
  result.matches =
      options_.incremental ? inc_->matches() : batch_state_.matches();
  result.MarkComplete(pairs_->size());
  return result;
}

QualityMetrics DebugSession::Score(const PairLabels& labels) {
  return Evaluate(Run(), labels);
}

std::string DebugSession::MemoryReport() const {
  const MatchState& state =
      started_ && options_.incremental ? inc_->state() : batch_state_;
  return state.MemoryReport();
}

DebugSession::MemoryFootprint DebugSession::Footprint() const {
  MemoryFootprint fp;
  const MatchState& state =
      started_ && options_.incremental && inc_ != nullptr ? inc_->state()
                                                          : batch_state_;
  fp.memo_bytes = state.MemoryBytes();
  fp.id_cache_bytes = ctx_->IdCacheBytes();
  fp.interner_bytes =
      ctx_->interner().ArenaBytes() + ctx_->interner().DictionaryBytes();
  fp.edit_log_bytes = log_.MemoryBytes();
  return fp;
}

MatchExplanation DebugSession::Explain(PairId pair) {
  return ExplainPair(function(), pair, *ctx_);
}

std::vector<NearMiss> DebugSession::WhyNot(PairId pair, size_t top_k) {
  return FindNearMisses(function(), pair, *ctx_, top_k);
}

Status DebugSession::SaveSession(const std::string& prefix) const {
  if (!started_ || !options_.incremental) {
    return Status::FailedPrecondition(
        "saving requires a completed run in incremental mode");
  }
  EMDBG_RETURN_IF_ERROR(
      SaveRulesFile(inc_->function(), catalog_, prefix + ".rules"));
  return SaveMatchState(inc_->state(), prefix + ".state");
}

Status DebugSession::ResumeSession(const std::string& prefix) {
  if (started_) {
    return Status::FailedPrecondition(
        "resume must happen before the first run");
  }
  if (!options_.incremental) {
    return Status::FailedPrecondition("resume requires incremental mode");
  }
  Result<MatchingFunction> rules =
      LoadRulesFile(prefix + ".rules", catalog_);
  if (!rules.ok()) return rules.status();
  Result<MatchState> state = LoadMatchState(prefix + ".state");
  if (!state.ok()) return state.status();
  inc_ = std::make_unique<IncrementalMatcher>(*ctx_, *pairs_, IncOptions());
  EMDBG_RETURN_IF_ERROR(inc_->Resume(*rules, std::move(*state)));
  fn_ = *rules;
  started_ = true;
  return Status::Ok();
}

std::string DebugSession::RuleActivityReport() const {
  if (!started_) return "(no run yet)\n";
  const MatchState& state =
      options_.incremental ? inc_->state() : batch_state_;
  const MatchingFunction& fn = function();
  std::string out;
  for (const Rule& rule : fn.rules()) {
    const Bitmap* fired = state.FindRuleTrue(rule.id());
    out += StrFormat("%-10s matches %6zu pairs | rejects:",
                     rule.name().c_str(),
                     fired == nullptr ? 0 : fired->Count());
    for (const Predicate& p : rule.predicates()) {
      const Bitmap* rejected = state.FindPredFalse(p.id);
      out += StrFormat(" %s=%zu", catalog_.Name(p.feature).c_str(),
                       rejected == nullptr ? 0 : rejected->Count());
    }
    out += "\n";
  }
  return out;
}

MatchStats DebugSession::Reoptimize() {
  MatchingFunction current = function();
  const CandidateSet sample =
      SamplePairs(*pairs_, options_.sample_fraction, rng_);
  model_ = std::make_unique<CostModel>(
      CostModel::EstimateForFunction(current, *ctx_, sample));
  ApplyOrdering(current, options_.ordering, *model_, &rng_);
  fn_ = current;
  if (options_.incremental) {
    if (inc_ == nullptr) {
      inc_ = std::make_unique<IncrementalMatcher>(*ctx_, *pairs_,
                                                   IncOptions());
    }
    last_stats_ = inc_->FullRun(fn_);
  } else {
    last_stats_ = BatchRun(RunControl()).stats;
    batch_dirty_ = false;
  }
  total_stats_ += last_stats_;
  started_ = true;
  return last_stats_;
}

Status DebugSession::EnableDurability(const std::string& dir,
                                      size_t checkpoint_every) {
  if (!options_.incremental) {
    return Status::FailedPrecondition(
        "durability requires incremental mode");
  }
  if (!started_) {
    return Status::FailedPrecondition(
        "durability requires a completed run; call Run() first");
  }
  if (journal_ != nullptr) {
    return Status::FailedPrecondition("durability is already enabled");
  }
  if (checkpoint_every == 0) {
    return Status::InvalidArgument("checkpoint_every must be positive");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError(StrFormat("cannot create %s: %s", dir.c_str(),
                                     ec.message().c_str()));
  }
  durability_dir_ = dir;
  checkpoint_every_ = checkpoint_every;
  Status s = WriteCheckpoint();
  if (!s.ok()) {
    journal_.reset();
    durability_dir_.clear();
    return s;
  }
  AttachJournalSink();
  return Status::Ok();
}

Status DebugSession::Checkpoint() {
  if (!durable()) {
    return Status::FailedPrecondition("durability is not enabled");
  }
  return WriteCheckpoint();
}

Status DebugSession::WriteCheckpoint() {
  const uint64_t next_epoch = epoch_ + 1;
  const MatchingFunction& fn = inc_->function();
  EMDBG_RETURN_IF_ERROR(
      WriteFileAtomic(FeaturesPath(durability_dir_, next_epoch),
                      CheckpointFeaturesText(catalog_)));
  EMDBG_RETURN_IF_ERROR(
      WriteFileAtomic(RulesPath(durability_dir_, next_epoch),
                      CheckpointRulesText(fn, catalog_)));
  // Recovery re-parses the rules file, which assigns dense ids in file
  // order; save the bitmaps under those ids so the two files line up.
  std::unordered_map<RuleId, RuleId> rule_ids;
  std::unordered_map<PredicateId, PredicateId> predicate_ids;
  RuleId next_rid = 0;
  PredicateId next_pid = 0;
  for (const Rule& rule : fn.rules()) {
    rule_ids[rule.id()] = next_rid++;
    for (const Predicate& p : rule.predicates()) {
      predicate_ids[p.id] = next_pid++;
    }
  }
  EMDBG_RETURN_IF_ERROR(SaveMatchStateRemapped(
      inc_->state(), rule_ids, predicate_ids,
      StatePath(durability_dir_, next_epoch)));
  // Commit point: repoint the meta file at the fully-written epoch.
  EMDBG_RETURN_IF_ERROR(WriteFileAtomic(
      MetaPath(durability_dir_),
      StrFormat("EMDBGCK1 %llu\n",
                static_cast<unsigned long long>(next_epoch))));
  // Fresh journal for the new epoch. If a crash lands between the meta
  // write and this, recovery sees an epoch-mismatched (stale) journal and
  // correctly ignores it — its edits are inside the checkpoint.
  journal_.reset();
  Result<std::unique_ptr<EditJournal>> journal =
      EditJournal::Create(JournalPath(durability_dir_), next_epoch);
  if (!journal.ok()) return journal.status();
  journal_ = std::move(*journal);
  if (epoch_ != 0) {
    std::error_code ec;
    std::filesystem::remove(FeaturesPath(durability_dir_, epoch_), ec);
    std::filesystem::remove(RulesPath(durability_dir_, epoch_), ec);
    std::filesystem::remove(StatePath(durability_dir_, epoch_), ec);
  }
  epoch_ = next_epoch;
  edits_since_checkpoint_ = 0;
  return Status::Ok();
}

void DebugSession::AttachJournalSink() {
  log_.SetJournal(&catalog_, [this](std::string_view payload) {
    EMDBG_RETURN_IF_ERROR(journal_->Append(payload));
    if (++edits_since_checkpoint_ >= checkpoint_every_) {
      return WriteCheckpoint();
    }
    return Status::Ok();
  });
}

Status DebugSession::ApplyJournalRecord(std::string_view payload) {
  const size_t sp = payload.find(' ');
  const std::string_view verb =
      sp == std::string_view::npos ? payload : payload.substr(0, sp);
  std::string_view rest = sp == std::string_view::npos
                              ? std::string_view()
                              : payload.substr(sp + 1);
  auto bad = [&payload](const char* why) {
    return Status::ParseError(
        StrFormat("bad journal record '%.*s': %s",
                  static_cast<int>(payload.size()), payload.data(), why));
  };

  if (verb == "add_rule") {
    Result<Rule> rule = ParseRule(rest, catalog_);
    if (!rule.ok()) return rule.status();
    return AddRule(std::move(*rule)).status();
  }
  if (verb == "add_rule_empty") {
    return AddRule(Rule(std::string(TrimAscii(rest)))).status();
  }
  if (verb == "remove_rule") {
    size_t pos = 0;
    if (!TakeIndex(rest, &pos)) return bad("expected rule index");
    const std::vector<Rule>& rules = function().rules();
    if (pos >= rules.size()) return bad("rule index out of range");
    return RemoveRule(rules[pos].id());
  }
  if (verb == "add_pred") {
    size_t pos = 0;
    if (!TakeIndex(rest, &pos)) return bad("expected rule index");
    const std::vector<Rule>& rules = function().rules();
    if (pos >= rules.size()) return bad("rule index out of range");
    const RuleId rid = rules[pos].id();
    // A single predicate parses as a one-predicate anonymous rule.
    Result<Rule> parsed = ParseRule(rest, catalog_);
    if (!parsed.ok()) return parsed.status();
    if (parsed->size() != 1) return bad("expected one predicate");
    return AddPredicate(rid, parsed->predicate(0)).status();
  }
  if (verb == "remove_pred") {
    size_t rpos = 0, ppos = 0;
    if (!TakeIndex(rest, &rpos) || !TakeIndex(rest, &ppos)) {
      return bad("expected rule and predicate indices");
    }
    const std::vector<Rule>& rules = function().rules();
    if (rpos >= rules.size()) return bad("rule index out of range");
    if (ppos >= rules[rpos].size()) {
      return bad("predicate index out of range");
    }
    return RemovePredicate(rules[rpos].id(), rules[rpos].predicate(ppos).id);
  }
  if (verb == "set_threshold") {
    size_t rpos = 0, ppos = 0;
    if (!TakeIndex(rest, &rpos) || !TakeIndex(rest, &ppos)) {
      return bad("expected rule and predicate indices");
    }
    double threshold = 0.0;
    if (!ParseDouble(TrimAscii(rest), &threshold)) {
      return bad("expected threshold");
    }
    const std::vector<Rule>& rules = function().rules();
    if (rpos >= rules.size()) return bad("rule index out of range");
    if (ppos >= rules[rpos].size()) {
      return bad("predicate index out of range");
    }
    return SetThreshold(rules[rpos].id(), rules[rpos].predicate(ppos).id,
                        threshold);
  }
  return bad("unknown verb");
}

Status DebugSession::Recover(const std::string& dir,
                             size_t checkpoint_every) {
  if (started_) {
    return Status::FailedPrecondition(
        "recover must happen before the first run");
  }
  if (!options_.incremental) {
    return Status::FailedPrecondition("recovery requires incremental mode");
  }
  Result<uint64_t> epoch = ReadMeta(dir);
  if (!epoch.ok()) return epoch.status();

  // Re-intern the catalog's features in saved id order, so the feature
  // ids baked into the memo columns stay valid.
  EMDBG_RETURN_IF_ERROR(
      LoadCheckpointFeatures(FeaturesPath(dir, *epoch), catalog_));
  Result<MatchingFunction> rules =
      LoadCheckpointRules(RulesPath(dir, *epoch), catalog_);
  if (!rules.ok()) return rules.status();
  Result<MatchState> state = LoadMatchState(StatePath(dir, *epoch));
  if (!state.ok()) return state.status();

  inc_ = std::make_unique<IncrementalMatcher>(*ctx_, *pairs_, IncOptions());
  EMDBG_RETURN_IF_ERROR(inc_->Resume(*rules, std::move(*state)));
  fn_ = *rules;
  started_ = true;

  // Replay edits committed after the checkpoint. A missing journal means
  // nothing to replay; a journal from an older epoch was superseded by
  // the checkpoint (crash between the meta write and the journal reset)
  // and is ignored. Corruption before the final record is an error — the
  // torn-final-record case (crash mid-append) is tolerated because that
  // edit never committed.
  Result<EditJournal::Contents> journal =
      EditJournal::Read(JournalPath(dir));
  if (journal.ok()) {
    if (journal->epoch == *epoch) {
      for (const std::string& record : journal->records) {
        EMDBG_RETURN_IF_ERROR(ApplyJournalRecord(record));
      }
    }
  } else if (journal.status().code() != StatusCode::kIoError) {
    return journal.status();
  }

  // Re-enable durability here: fold the replayed edits into a fresh
  // checkpoint and start a clean journal.
  epoch_ = *epoch;
  durability_dir_ = dir;
  checkpoint_every_ = checkpoint_every;
  Status s = WriteCheckpoint();
  if (!s.ok()) {
    journal_.reset();
    durability_dir_.clear();
    return s;
  }
  AttachJournalSink();
  return Status::Ok();
}

}  // namespace emdbg
