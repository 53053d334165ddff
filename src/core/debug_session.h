#ifndef EMDBG_CORE_DEBUG_SESSION_H_
#define EMDBG_CORE_DEBUG_SESSION_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/block/candidate_pairs.h"
#include "src/core/cost_model.h"
#include "src/core/edit_log.h"
#include "src/core/explain.h"
#include "src/core/incremental.h"
#include "src/core/match_result.h"
#include "src/core/ordering.h"
#include "src/core/rule_parser.h"
#include "src/core/state_io.h"
#include "src/util/random.h"

namespace emdbg {

/// The analyst-facing entry point: owns the two tables, the candidate
/// pairs, the feature catalog, and the evolving matching function, and
/// drives the paper's debugging loop (Fig. 1):
///
///   DebugSession session(a, b, candidates);
///   session.AddRuleText("jaccard(title, title) >= 0.7 AND ...");
///   session.Run();                         // full optimized run
///   session.Score(labels);                 // inspect quality
///   session.SetThreshold(rid, pid, 0.8);   // refine (incremental)
///   session.Score(labels);                 // inspect again
///
/// The first Run() estimates the cost model on a random sample, orders
/// rules/predicates with the configured strategy, and performs a full
/// DM+EE run. Subsequent edits are applied incrementally (Sec. 6) unless
/// Options::incremental is false, in which case every Run() re-evaluates
/// all rules (still reusing the memo — the "precomputation variation" of
/// Sec. 7.6).
class DebugSession {
 public:
  struct Options {
    OrderingStrategy ordering = OrderingStrategy::kGreedyReduction;
    bool incremental = true;
    /// Sample fraction for cost/selectivity estimation (paper: 1%).
    double sample_fraction = 0.01;
    uint64_t seed = 42;
    /// Worker threads for full runs and incremental re-matching: 1 =
    /// serial (default), 0 = hardware_concurrency(), N = exactly N. The
    /// session owns one persistent work-stealing ThreadPool for its
    /// whole lifetime (threads spawn once, not per run); results are
    /// identical to serial for every value (see DESIGN.md, Threading
    /// model).
    size_t num_threads = 1;
    /// Memory accountant for everything large the session allocates —
    /// the memo matrix, token/id caches, interner arenas, per-worker
    /// scratch (null = unbudgeted). Typically a per-session child quota
    /// of a process-wide budget (see util/memory_budget.h). A denied
    /// reservation surfaces as ResourceExhausted from Run()/edits or
    /// degrades a cache layer with bit-identical results; it never
    /// aborts. Must outlive the session.
    MemoryBudget* budget = nullptr;
  };

  /// Large allocations the session currently holds, by consumer (for
  /// the serve layer's stats and eviction decisions).
  struct MemoryFootprint {
    size_t memo_bytes = 0;         ///< memo matrix + decision bitmaps
    /// Always 0; kept only because perfbench reports it (the next
    /// benchmark change removes it).
    size_t token_cache_bytes = 0;
    size_t id_cache_bytes = 0;     ///< interned-id columns + weight rows
    size_t interner_bytes = 0;     ///< dictionary + arena
    size_t edit_log_bytes = 0;     ///< undo history (EditLog::MemoryBytes)
    size_t total() const {
      return memo_bytes + id_cache_bytes + interner_bytes + edit_log_bytes;
    }
  };

  /// Takes ownership of the data. The candidate pairs index into the
  /// tables' rows.
  DebugSession(Table a, Table b, CandidateSet pairs)
      : DebugSession(std::move(a), std::move(b), std::move(pairs),
                     Options{}) {}
  DebugSession(Table a, Table b, CandidateSet pairs, Options options);

  /// Shared-corpus constructor: many sessions (the multi-tenant debug
  /// service) reference one immutable copy of the tables and candidate
  /// set instead of each owning a private copy. The corpus must stay
  /// alive for the session's lifetime (the shared_ptrs enforce it) and is
  /// never mutated by the session — all mutable state (rules, memo,
  /// bitmaps, feature caches) is per-session.
  DebugSession(std::shared_ptr<const Table> a,
               std::shared_ptr<const Table> b,
               std::shared_ptr<const CandidateSet> pairs, Options options);

  DebugSession(const DebugSession&) = delete;
  DebugSession& operator=(const DebugSession&) = delete;

  FeatureCatalog& catalog() { return catalog_; }
  PairContext& context() { return *ctx_; }
  const CandidateSet& candidates() const { return *pairs_; }
  const Options& options() const { return options_; }

  /// The current matching function (authoritative copy).
  const MatchingFunction& function() const;

  // ---- Rule editing. Before the first Run() edits are free; afterwards
  // they are applied to the maintained result (incrementally when
  // enabled). ----

  /// Parses one DSL rule ("[name:] pred AND pred ...") and adds it.
  Result<RuleId> AddRuleText(std::string_view dsl);
  Result<RuleId> AddRule(Rule rule);
  Status RemoveRule(RuleId rid);
  Result<PredicateId> AddPredicate(RuleId rid, Predicate p);
  Status RemovePredicate(RuleId rid, PredicateId pid);
  Status SetThreshold(RuleId rid, PredicateId pid, double threshold);

  /// Reverts the most recent post-run edit (incremental mode only;
  /// edits before the first Run() and batch-mode edits are not journaled).
  Status Undo();

  /// Human-readable journal of post-run edits, oldest first.
  std::string History() const;

  // ---- Running and inspecting. ----

  /// Ensures the maintained result reflects the current rules. Returns
  /// the match bitmap (aligned with candidates()).
  const Bitmap& Run();

  /// Controlled variant: honours `control`'s cancellation token and
  /// deadline (checked once per block of pairs). When the run is stopped
  /// early the returned result is partial — `result.partial` is true,
  /// `result.status` says why (kCancelled / kDeadlineExceeded), and only
  /// the bits flagged in `result.evaluated` are meaningful. A partial
  /// first run does NOT mark the session as started: the memo keeps all
  /// values computed so far (a retry resumes cheaply), but edits stay in
  /// the pre-run regime until a run completes. When the maintained result
  /// is already up to date this returns it immediately as complete.
  MatchResult Run(const RunControl& control);

  /// True if Run() has been called at least once.
  bool has_run() const { return started_; }

  /// Work performed by the most recent Run()/edit.
  const MatchStats& last_stats() const { return last_stats_; }

  /// Cumulative work since construction.
  const MatchStats& total_stats() const { return total_stats_; }

  /// Quality against ground-truth labels (size must equal candidates()).
  QualityMetrics Score(const PairLabels& labels);

  /// Sec. 7.4-style memory accounting of the materialized state.
  std::string MemoryReport() const;

  /// Current per-consumer byte counts (memo, id caches, interner).
  MemoryFootprint Footprint() const;

  /// Per-rule activity from the materialized state: how many pairs each
  /// rule currently matches and how many pairs each of its predicates has
  /// rejected — the at-a-glance "which rules pull their weight" view.
  std::string RuleActivityReport() const;

  /// Full decision trace of one candidate pair under the current rules
  /// (see explain.h).
  MatchExplanation Explain(PairId pair);

  /// The rules that came closest to matching `pair`, with the smallest
  /// threshold gaps (see explain.h).
  std::vector<NearMiss> WhyNot(PairId pair, size_t top_k = 3);

  /// The cost model built at first Run() (null before).
  const CostModel* cost_model() const { return model_.get(); }

  /// The session's persistent worker pool, or null when running serially
  /// (Options::num_threads == 1).
  ThreadPool* pool() { return pool_.get(); }

  /// Re-estimates the cost model, re-orders all rules with the configured
  /// strategy, and performs a fresh full run. Useful after many edits
  /// have drifted away from the original ordering.
  MatchStats Reoptimize();

  /// Suspends the session to disk: `<prefix>.rules` (DSL) and
  /// `<prefix>.state` (binary memo + bitmaps). Requires a completed run
  /// in incremental mode.
  Status SaveSession(const std::string& prefix) const;

  /// Restores a suspended session into this (not-yet-run) session. The
  /// tables and candidate pairs must be the same ones the saved session
  /// used (e.g. regenerated from the same profile seed or reloaded from
  /// CSV). No similarity values are recomputed.
  Status ResumeSession(const std::string& prefix);

  // ---- Crash-safe durability. Once enabled, every committed edit is
  // appended to an fsync'd journal before the edit call returns, and the
  // full state (rules + memo + bitmaps) is checkpointed every N edits.
  // After a crash (kill -9 included), Recover() on a fresh session
  // rebuilds exactly the state of the last committed edit: it loads the
  // newest checkpoint and replays the journal records on top. ----

  /// Turns on durability in `dir` (created if missing). Requires a
  /// completed run in incremental mode — durability covers the
  /// interactive post-run editing loop. Writes an initial checkpoint
  /// immediately. `checkpoint_every` is the number of journaled edits
  /// after which the session checkpoints and truncates the journal.
  Status EnableDurability(const std::string& dir,
                          size_t checkpoint_every = 25);

  /// Forces a checkpoint now (normally automatic). Writes
  /// checkpoint.<epoch>.rules / .state, atomically repoints
  /// checkpoint.meta at the new epoch, starts a fresh journal, and
  /// removes the previous epoch's files. A crash at any point leaves
  /// either the old or the new checkpoint fully intact.
  Status Checkpoint();

  /// Restores a crashed durable session into this (not-yet-run) session:
  /// loads the checkpoint named by `dir`/checkpoint.meta, replays the
  /// journal, re-enables durability in `dir`, and writes a fresh
  /// checkpoint. The tables/candidates must match the crashed session's.
  /// ParseError on corrupt files (a torn final journal record — a crash
  /// mid-append — is tolerated and dropped; that edit never committed).
  Status Recover(const std::string& dir, size_t checkpoint_every = 25);

  bool durable() const { return journal_ != nullptr; }

  /// Journaled edits since the last checkpoint.
  size_t edits_since_checkpoint() const { return edits_since_checkpoint_; }

 private:
  /// First-run path: estimate, order, full run. Returns the full result;
  /// a partial one (stopped by `control`) leaves the session not-started.
  MatchResult FirstRun(const RunControl& control);

  /// Brings the cost model up to date with `fn`'s features and orders a
  /// freshly added rule's predicates (Lemma 3).
  void PrepareRule(Rule& rule);

  /// Options for constructing the incremental engine (the session's pool
  /// and budget).
  IncrementalMatcher::Options IncOptions();

  /// Non-incremental full run of `fn_` into batch_state_: one
  /// BlockMatcher (over the session's pool when it has one; identical
  /// results either way).
  MatchResult BatchRun(const RunControl& control);

  /// Immutable corpus, possibly shared with other sessions (see the
  /// shared-corpus constructor). Only read after construction.
  std::shared_ptr<const Table> a_;
  std::shared_ptr<const Table> b_;
  std::shared_ptr<const CandidateSet> pairs_;
  Options options_;
  FeatureCatalog catalog_;
  std::unique_ptr<PairContext> ctx_;
  /// Persistent worker pool (null when num_threads == 1). Declared
  /// before the matchers that borrow it so it outlives them.
  std::unique_ptr<ThreadPool> pool_;
  Rng rng_;

  /// Authoritative function before the first run / in non-incremental
  /// mode.
  MatchingFunction fn_;
  /// Non-incremental mode: persistent state so the memo survives reruns.
  MatchState batch_state_;
  bool batch_dirty_ = true;

  std::unique_ptr<IncrementalMatcher> inc_;
  EditLog log_;
  std::unique_ptr<CostModel> model_;
  bool started_ = false;
  MatchStats last_stats_;
  MatchStats total_stats_;

  // ---- Durability (see EnableDurability). ----

  /// Writes checkpoint epoch_+1 and swaps the journal; shared by
  /// EnableDurability / Checkpoint / Recover.
  Status WriteCheckpoint();

  /// Routes committed edits into the journal and triggers the periodic
  /// checkpoint.
  void AttachJournalSink();

  /// Applies one journal payload during Recover (journaling is not yet
  /// attached, so replay does not re-journal).
  Status ApplyJournalRecord(std::string_view payload);

  std::string durability_dir_;
  uint64_t epoch_ = 0;
  size_t checkpoint_every_ = 0;
  size_t edits_since_checkpoint_ = 0;
  std::unique_ptr<EditJournal> journal_;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_DEBUG_SESSION_H_
