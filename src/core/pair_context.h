#ifndef EMDBG_CORE_PAIR_CONTEXT_H_
#define EMDBG_CORE_PAIR_CONTEXT_H_

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "src/block/candidate_pairs.h"
#include "src/core/feature.h"
#include "src/data/table.h"
#include "src/text/id_kernels.h"
#include "src/text/tfidf.h"
#include "src/text/token_interner.h"
#include "src/util/memory_budget.h"
#include "src/util/thread_pool.h"

namespace emdbg {

/// Evaluation environment shared by all matchers for one (A, B) task:
/// resolves a FeatureId against a candidate pair and computes the
/// similarity value.
///
/// The context owns two kinds of cross-pair state that are *not* the
/// paper's memo:
///   * per-record token structures (a record's title is tokenized once,
///     not once per pair it appears in) — disable via Options::cache_tokens
///     to get the paper's "every predicate is a black box computed from
///     scratch" rudimentary setting;
///   * TF-IDF corpus models per attribute pair (document-frequency tables
///     are corpus-level state of the similarity function itself and are
///     always cached).
///
/// By default (Options::intern_tokens) the token structures are integer id
/// columns, read straight from the attribute bytes: word tokens interned
/// to dense uint32 ids by a TokenInterner (document order and
/// sorted-unique sets), 3-grams packed into sorted-unique 24-bit codes
/// (no strings, no interning), lex-ordered term-frequency vectors and
/// id-indexed TF-IDF weight vectors. The set-family kernels (Jaccard,
/// Dice, overlap, trigram, cosine, TF-IDF, soft TF-IDF, Monge-Elkan) run
/// over them — same doubles bit-for-bit (see src/text/id_kernels.h),
/// several times faster. Id columns are built a whole column at a time on
/// first touch or during Prewarm. Per-record token *lists* (strings) are
/// cached only for the string kernels: with interning off, or for
/// features whose id structures budget pressure dropped.
class PairContext {
 public:
  struct Options {
    /// Cache per-record token structures per (table, row, attribute): the
    /// id columns below, or token lists for the string kernels.
    bool cache_tokens = true;
    /// Intern tokens to dense uint32 ids and evaluate the set-family
    /// kernels on integer arrays (requires cache_tokens; bit-identical
    /// results). Disable to force the string kernels.
    bool intern_tokens = true;
    /// Memory accountant for the token caches, interned-id columns, and
    /// interner arenas (null = unbudgeted). Cache growth is billed as it
    /// happens; a denied reservation *degrades* instead of failing:
    /// id-cache columns are dropped first (the string kernels from the
    /// vectorization work compute identical values, just slower), then
    /// token caching stops (similarity functions re-tokenize per call).
    /// Results are bit-identical on every rung of that ladder. The
    /// budget must outlive the context.
    MemoryBudget* budget = nullptr;
  };

  /// The tables and catalog must outlive the context.
  PairContext(const Table& a, const Table& b, const FeatureCatalog& catalog)
      : PairContext(a, b, catalog, Options{}) {}
  PairContext(const Table& a, const Table& b, const FeatureCatalog& catalog,
              Options options);
  ~PairContext();

  PairContext(const PairContext&) = delete;
  PairContext& operator=(const PairContext&) = delete;

  const Table& table_a() const { return a_; }
  const Table& table_b() const { return b_; }
  const FeatureCatalog& catalog() const { return catalog_; }

  /// Computes the similarity value of feature `f` on candidate pair
  /// `pair`. This is the expensive operation the whole paper is about
  /// minimizing; callers memoize the result.
  double ComputeFeature(FeatureId f, PairId pair);

  /// Columnar batch evaluation (the block matcher's compute stage, see
  /// src/core/block_matcher.h): computes feature `f` for every pair whose
  /// bit is set in `mask` (ceil(n/64) words over pairs[0..n)), writing the
  /// float-quantized value to out[i]. Unmasked lanes of `out` are left
  /// untouched. Values are bit-identical to per-pair ComputeFeature — the
  /// same kernels run over the same cached structures — but the
  /// per-feature resolution (catalog lookup, kernel selection, id-column
  /// availability checks, TF-IDF model fetch) is hoisted out of the pair
  /// loop, which is where the per-pair orchestration time went.
  /// compute_count() advances by popcount(mask). Thread-safety matches
  /// ComputeFeature: read-only on shared state once the features involved
  /// are prewarmed.
  void ComputeFeatureBlock(FeatureId f, const PairId* pairs, size_t n,
                           const uint64_t* mask, float* out);

  /// TF-IDF model over the union corpus of column `attr_a` of A and
  /// column `attr_b` of B (built lazily, then cached).
  const TfIdfModel& ModelFor(AttrIndex attr_a, AttrIndex attr_b);

  /// Total feature computations performed through this context (across all
  /// matchers sharing it). Cleared with ResetComputeCount().
  size_t compute_count() const {
    return compute_count_.load(std::memory_order_relaxed);
  }
  void ResetComputeCount() {
    compute_count_.store(0, std::memory_order_relaxed);
  }

  /// Fills the token caches, interned-id columns and TF-IDF models every
  /// feature in `features` will touch. After prewarming, ComputeFeature
  /// for those features is read-only on shared state and therefore safe to
  /// call from multiple threads concurrently (used by
  /// ParallelMemoMatcher). No-op slots when token caching is disabled.
  ///
  /// With a pool, the q-gram code rows, the per-record id-array sorting
  /// and any token-list fill fan out across workers (distinct rows, no
  /// synchronization needed); TF-IDF model construction and word interning
  /// stay serial (corpus-level shared state). Re-warming an already-warm
  /// context is cheap either way — built columns are skipped.
  void Prewarm(const std::vector<FeatureId>& features,
               ThreadPool* pool = nullptr);

  /// Approximate heap bytes held by the token-list caches (string path
  /// only; 0 while every token feature runs on id columns).
  size_t TokenCacheBytes() const;

  /// Approximate heap bytes held by the id caches (word-id and q-gram
  /// code columns, tf vectors, TF-IDF weight vectors; excludes the
  /// interner itself and its rank snapshot, which
  /// TokenInterner::DictionaryBytes reports).
  size_t IdCacheBytes() const;

  /// The token dictionary, or nullptr when interning is disabled (exposed
  /// for memory accounting: ArenaBytes/DictionaryBytes).
  const TokenInterner* interner() const { return interner_.get(); }

  /// Drops token and id caches (models and the token dictionary are
  /// kept), releases their billed bytes, and resets any budget-pressure
  /// degradation — later builds re-attempt reservation, so a context can
  /// recover once pressure passes. Serial-only (like the builds).
  void ClearTokenCaches();

  /// Drops only the id structures (id columns, tf vectors, model weight
  /// vectors) and releases their billing; the string kernels keep the
  /// same results. The cross-session reclaimer hook for idle sessions.
  /// Serial-only. Returns the bytes released.
  size_t DropIdCaches();

  /// True once budget pressure disabled the respective cache layer (see
  /// Options::budget). Reset by ClearTokenCaches.
  bool id_path_degraded() const {
    return id_degraded_.load(std::memory_order_relaxed);
  }
  bool token_cache_degraded() const {
    return token_degraded_.load(std::memory_order_relaxed);
  }

  /// Reservations the budget denied to this context (degradation events).
  uint64_t budget_denials() const {
    return budget_denials_.load(std::memory_order_relaxed);
  }

 private:
  // Cached token lists of one table for the string kernels; slot index =
  // attr * num_rows + row. Empty until the string path first needs one
  // (sized serially: by CachedTokens or before Prewarm's parallel fill).
  struct TokenCache {
    std::vector<std::unique_ptr<TokenList>> words;
    std::vector<std::unique_ptr<TokenList>> qgrams;
  };

  // Id columns of one table, per attribute, each built whole so the
  // interner mutates in one predictable (serial) place.
  struct IdCache {
    std::vector<IdColumn> word_docs;  // word ids in document order
    std::vector<IdColumn> words;      // sorted-unique word ids
    std::vector<IdColumn> qgrams;     // sorted-unique 3-gram codes
    // Slot index = attr * num_rows + row; sized by the first BuildTfColumn.
    std::vector<std::unique_ptr<IdTfVector>> word_tf;
    std::vector<bool> tf_built;  // per attr
  };

  // Per TF-IDF model (attr_a, attr_b): idf-by-id table plus one
  // L2-normalized weight vector per row of each side.
  struct ModelIdCache {
    std::vector<double> idf_by_id;
    std::vector<std::unique_ptr<IdWeightVector>> rows_a;
    std::vector<std::unique_ptr<IdWeightVector>> rows_b;
    bool built = false;
  };

  const TokenList* CachedTokens(bool table_b, AttrIndex attr, uint32_t row,
                                bool qgrams);
  /// One table's token-list slots of one kind, sized on first use.
  /// Serial-only while still empty.
  std::vector<std::unique_ptr<TokenList>>& TokenSlots(bool table_b,
                                                      bool qgrams);

  /// One pair's value with the feature already resolved (no
  /// compute_count bump): the id fast path when available, else the
  /// string kernels. The shared tail of ComputeFeature and
  /// ComputeFeatureBlock's generic lane loop.
  double ComputeFeatureValue(const Feature& feature,
                             const SimFunctionInfo& info, PairId pair);

  /// Id-path evaluation for functions with SimFunctionInfo::id_path.
  /// False when a needed id structure is unavailable (budget pressure
  /// dropped or blocked it) — the caller falls through to the string
  /// kernels, which compute the identical value.
  bool TryComputeFeatureIds(const Feature& feature,
                            const SimFunctionInfo& info, PairId pair,
                            double* value);

  /// The sorted-unique column (word ids, or q-gram codes) of one
  /// attribute, built on first touch (for words, with their
  /// document-order column); nullptr when unavailable under budget
  /// pressure.
  const IdColumn* SetColumn(bool table_b, AttrIndex attr, bool qgrams);

  /// Builds one attribute's id columns from the attribute bytes. Words:
  /// interned serially in document order, then sorted-unique rows over
  /// `pool`. Q-grams: code rows over `pool`, no interning. False when the
  /// column is unavailable (billing denied → column dropped, id path
  /// degraded).
  bool BuildIdColumn(bool table_b, AttrIndex attr, bool qgrams,
                     ThreadPool* pool);
  /// Builds lex-ordered term-frequency vectors for one words column.
  bool BuildTfColumn(bool table_b, AttrIndex attr, ThreadPool* pool);
  /// Builds the idf table and per-row weight vectors for one model.
  /// Callers must check `.built` (false under budget pressure).
  ModelIdCache& EnsureModelIds(AttrIndex attr_a, AttrIndex attr_b,
                               ThreadPool* pool);

  /// Drops every id structure (columns, tf vectors, model weights)
  /// without touching billing. Serial-only.
  void ClearIdStructures();

  /// Bills `added` approximate cache bytes against the budget in chunks.
  /// False on denial (counted in budget_denials_); callers degrade.
  bool BillBytes(size_t added);
  /// Recomputes actual cache bytes and trues billing up or down. Serial
  /// contexts only (walks every cache slot).
  void ResyncBillingSerial();
  /// Interner arena+dictionary growth since the last call (serial
  /// contexts only — the interner only grows in serial build phases).
  size_t TakeInternerGrowth();

  const Table& a_;
  const Table& b_;
  const FeatureCatalog& catalog_;
  Options options_;
  TokenCache cache_a_;
  TokenCache cache_b_;
  std::map<std::pair<AttrIndex, AttrIndex>, std::unique_ptr<TfIdfModel>>
      models_;
  std::unique_ptr<TokenInterner> interner_;
  IdCache idc_a_;
  IdCache idc_b_;
  std::map<std::pair<AttrIndex, AttrIndex>, ModelIdCache> model_ids_;
  /// Lexicographic-rank snapshot, read by the kernels that merge by rank
  /// (cosine, TF-IDF, soft TF-IDF). Refreshed only by BuildTfColumn, just
  /// before it sorts a column by rank (EnsureModelIds builds on those
  /// columns); BuildIdColumn interns without one, as the set kernels and
  /// Monge-Elkan read no rank. So the snapshot always covers every id in a
  /// rank-ordered vector, and as interning never reorders existing ids, a
  /// vector sorted under an older snapshot stays sorted under it. Serial
  /// phases only; concurrent readers see a settled value. Its bytes are
  /// the interner's (DictionaryBytes), not IdCacheBytes.
  std::shared_ptr<const std::vector<uint32_t>> ranks_;
  std::atomic<size_t> compute_count_{0};

  // ---- Memory-budget accounting (see Options::budget). approx/billed
  // are atomics because token-cache fills run in parallel during
  // Prewarm; the degradation flags are flipped at most once per pressure
  // episode and read relaxed. ----
  MemoryBudget* budget_ = nullptr;
  std::atomic<size_t> approx_bytes_{0};
  std::atomic<size_t> billed_bytes_{0};
  std::atomic<bool> token_degraded_{false};
  std::atomic<bool> id_degraded_{false};
  std::atomic<uint64_t> budget_denials_{0};
  /// Interner bytes already folded into approx_bytes_ (serial phases).
  size_t interner_bytes_seen_ = 0;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_PAIR_CONTEXT_H_
