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
/// The context owns cross-pair state that is *not* the paper's memo: one
/// representation of each record's tokens, as integer id columns read
/// straight from the attribute bytes. Word tokens are interned to dense
/// uint32 ids by a TokenInterner (document order and sorted-unique sets),
/// 3-grams are packed into sorted-unique 24-bit codes (no strings, no
/// interning), each whitespace token's Soundex code is packed into 32
/// bits, and lex-ordered term-frequency vectors and id-indexed TF-IDF
/// weight vectors are built over the word ids, with document frequencies
/// counted per id. The set-family kernels (Jaccard, Dice, overlap,
/// trigram, soundex, cosine, TF-IDF, soft TF-IDF, Monge-Elkan) run over
/// them — same doubles bit-for-bit (see src/text/id_kernels.h). Id
/// columns are built a whole column at a time on first touch or during
/// Prewarm. When budget pressure refuses them, nothing stays resident:
/// the string kernels re-tokenize per call (the paper's "every predicate
/// is a black box computed from scratch" setting) and compute the
/// identical values.
class PairContext {
 public:
  struct Options {
    /// Memory accountant for the id columns and the interner (null =
    /// unbudgeted). Cache growth is billed as it happens; a denied
    /// reservation *degrades* instead of failing: the id structure being
    /// built is dropped and its features re-tokenize per call through the
    /// string kernels, with bit-identical results. The budget must
    /// outlive the context.
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

  /// String TF-IDF model over the union corpus of column `attr_a` of A
  /// and column `attr_b` of B (built lazily, then cached). Only the
  /// re-tokenizing rung reads it; the id path weighs terms by document
  /// frequencies counted per word id.
  const TfIdfModel& ModelFor(AttrIndex attr_a, AttrIndex attr_b);

  /// The id path's idf table for the same model, indexed by word id and
  /// covering every id interned when it was built (built on first touch;
  /// nullptr when budget pressure refused it). Each entry equals, bit for
  /// bit, ModelFor(attr_a, attr_b).Idf of the id's text. Serial-only.
  const std::vector<double>* IdfById(AttrIndex attr_a, AttrIndex attr_b);

  /// Total feature computations performed through this context (across all
  /// matchers sharing it). Cleared with ResetComputeCount().
  size_t compute_count() const {
    return compute_count_.load(std::memory_order_relaxed);
  }
  void ResetComputeCount() {
    compute_count_.store(0, std::memory_order_relaxed);
  }

  /// Builds the id columns and TF-IDF weights every feature in `features`
  /// will touch, and, for TF-IDF features whose weights budget pressure
  /// refused, the string model. After prewarming, ComputeFeature for those
  /// features is read-only on shared state and therefore safe to call
  /// from multiple threads concurrently (a pooled BlockMatcher or
  /// incremental edit does): no call builds, bills or inserts.
  ///
  /// With a pool, the q-gram code rows, the per-record id-array sorting
  /// and the weight vectors fan out across workers (distinct rows, no
  /// synchronization needed); word interning and model construction stay
  /// serial (corpus-level shared state). Re-warming an already-warm
  /// context is cheap either way — built columns are skipped.
  void Prewarm(const std::vector<FeatureId>& features,
               ThreadPool* pool = nullptr);

  /// Always 0: the context keeps no token lists. Kept only because
  /// perfbench reports it; the next benchmark change removes it.
  size_t TokenCacheBytes() const { return 0; }

  /// Approximate heap bytes held by the id caches (word-id, q-gram and
  /// Soundex code columns, tf vectors, TF-IDF weight vectors; excludes the
  /// interner itself and its rank snapshot, which
  /// TokenInterner::DictionaryBytes reports).
  size_t IdCacheBytes() const;

  /// The token dictionary (exposed for memory accounting:
  /// ArenaBytes/DictionaryBytes).
  const TokenInterner& interner() const { return interner_; }

  /// Drops the id structures (id columns, tf vectors, model weight
  /// vectors; string models and the token dictionary are kept), releases
  /// their billing and resets any budget-pressure degradation, so later
  /// builds re-attempt reservation and a context recovers once pressure
  /// passes. Values do not change. The cross-session reclaimer hook for
  /// idle sessions. Serial-only (like the builds). Returns the bytes
  /// released.
  size_t DropIdCaches();

  /// True once budget pressure refused an id structure (see
  /// Options::budget): from then on, features without a built structure
  /// re-tokenize per call. Reset by DropIdCaches.
  bool id_path_degraded() const {
    return id_degraded_.load(std::memory_order_relaxed);
  }

  /// Reservations the budget denied to this context (degradation events).
  uint64_t budget_denials() const {
    return budget_denials_.load(std::memory_order_relaxed);
  }

 private:
  // Id columns of one table, per attribute, each built whole so the
  // interner mutates in one predictable (serial) place.
  struct IdCache {
    std::vector<IdColumn> word_docs;  // word ids in document order
    std::vector<IdColumn> words;      // sorted-unique word ids
    std::vector<IdColumn> qgrams;     // sorted-unique 3-gram codes
    std::vector<IdColumn> soundex;    // sorted-unique packed Soundex codes
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
  };

  /// One pair's value with the feature already resolved (no
  /// compute_count bump): the id fast path when available, else the
  /// string kernels over freshly tokenized text. The shared tail of
  /// ComputeFeature and ComputeFeatureBlock's generic lane loop.
  double ComputeFeatureValue(const Feature& feature,
                             const SimFunctionInfo& info, PairId pair);

  /// Id-path evaluation for functions with SimFunctionInfo::id_path.
  /// False when a needed id structure is unavailable (budget pressure
  /// dropped or refused it) — the caller falls through to the string
  /// kernels, which compute the identical value.
  bool TryComputeFeatureIds(const Feature& feature, PairId pair,
                            double* value);

  /// What a sorted-unique id column holds.
  enum class SetKind {
    kWords,    ///< interned word ids
    kQGrams,   ///< packed 24-bit 3-gram codes
    kSoundex,  ///< packed 32-bit Soundex codes
  };
  /// The column kind feature `fn`'s id path reads (words for the
  /// word-based families).
  static SetKind SetKindOf(SimFunction fn);
  static IdColumn* SetSlot(IdCache& idc, AttrIndex attr, SetKind kind);

  /// The sorted-unique column of one attribute, built on first touch (for
  /// words, with their document-order column); nullptr when unavailable
  /// under budget pressure.
  const IdColumn* SetColumn(bool table_b, AttrIndex attr, SetKind kind);

  /// Builds one attribute's id columns from the attribute bytes. Words:
  /// interned serially in document order, then sorted-unique rows over
  /// `pool`. Q-gram and Soundex codes: code rows over `pool`, no
  /// interning. False when the column is unavailable (billing denied →
  /// column dropped, id path degraded; once degraded, nothing new is
  /// built).
  bool BuildIdColumn(bool table_b, AttrIndex attr, SetKind kind,
                     ThreadPool* pool);
  /// Builds lex-ordered term-frequency vectors for one words column.
  /// Same contract as BuildIdColumn.
  bool BuildTfColumn(bool table_b, AttrIndex attr, ThreadPool* pool);
  /// The idf table and per-row weight vectors of one model, built on
  /// first touch from document frequencies counted per word id; nullptr
  /// when unavailable under budget pressure.
  const ModelIdCache* EnsureModelIds(AttrIndex attr_a, AttrIndex attr_b,
                                     ThreadPool* pool);

  /// Marks the id path degraded after a refused build and trues billing
  /// down to what is still held. Returns false for the caller to pass on.
  bool Degrade();

  /// Bills `added` approximate cache bytes against the budget in chunks.
  /// False on denial (counted in budget_denials_); callers degrade.
  bool BillBytes(size_t added);
  /// Recomputes actual cache bytes and trues billing up or down (walks
  /// every cache slot).
  void ResyncBilling();
  /// Interner arena+dictionary growth since the last call.
  size_t TakeInternerGrowth();

  const Table& a_;
  const Table& b_;
  const FeatureCatalog& catalog_;
  std::map<std::pair<AttrIndex, AttrIndex>, std::unique_ptr<TfIdfModel>>
      models_;
  TokenInterner interner_;
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

  // ---- Memory-budget accounting (see Options::budget). Every build,
  // and so every bill, runs in a serial phase; the degradation flag is
  // read relaxed by concurrent readers after Prewarm. ----
  MemoryBudget* budget_ = nullptr;
  size_t approx_bytes_ = 0;
  size_t billed_bytes_ = 0;
  std::atomic<bool> id_degraded_{false};
  std::atomic<uint64_t> budget_denials_{0};
  /// Interner bytes already folded into approx_bytes_.
  size_t interner_bytes_seen_ = 0;
};

}  // namespace emdbg

#endif  // EMDBG_CORE_PAIR_CONTEXT_H_
