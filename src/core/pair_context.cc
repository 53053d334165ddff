#include "src/core/pair_context.h"

#include <algorithm>
#include <bit>
#include <string>

#include "src/text/similarity_registry.h"
#include "src/util/bitmap.h"

namespace emdbg {

namespace {

/// Runs `fn(row)` for every row, fanning out over the pool when one is
/// available. Callers guarantee distinct rows touch distinct slots.
template <typename Fn>
void ForEachRow(ThreadPool* pool, uint32_t rows, Fn&& fn) {
  if (pool != nullptr && pool->num_workers() > 1) {
    pool->ParallelFor(rows, [&](size_t, size_t row) {
      fn(static_cast<uint32_t>(row));
    });
  } else {
    for (uint32_t row = 0; row < rows; ++row) fn(row);
  }
}

/// Cache-billing chunk (see PairContext::BillBytes): one budget
/// round-trip per ~256 KB of cache growth, not per token list.
constexpr size_t kCacheBillChunk = 256 * 1024;

size_t OneTokenIdsBytes(const TokenIds& ids) {
  return sizeof(TokenIds) +
         (ids.doc.capacity() + ids.sorted.capacity()) * sizeof(TokenId);
}

}  // namespace

PairContext::PairContext(const Table& a, const Table& b,
                         const FeatureCatalog& catalog, Options options)
    : a_(a), b_(b), catalog_(catalog), options_(options),
      budget_(options.budget) {
  if (options_.cache_tokens) {
    cache_a_.words.resize(a_.num_attributes() * a_.num_rows());
    cache_a_.qgrams.resize(a_.num_attributes() * a_.num_rows());
    cache_b_.words.resize(b_.num_attributes() * b_.num_rows());
    cache_b_.qgrams.resize(b_.num_attributes() * b_.num_rows());
    if (options_.intern_tokens) {
      interner_ = std::make_unique<TokenInterner>();
      idc_a_.words.resize(cache_a_.words.size());
      idc_a_.qgrams.resize(cache_a_.qgrams.size());
      idc_a_.word_tf.resize(cache_a_.words.size());
      idc_a_.words_built.assign(a_.num_attributes(), false);
      idc_a_.qgrams_built.assign(a_.num_attributes(), false);
      idc_a_.tf_built.assign(a_.num_attributes(), false);
      idc_b_.words.resize(cache_b_.words.size());
      idc_b_.qgrams.resize(cache_b_.qgrams.size());
      idc_b_.word_tf.resize(cache_b_.words.size());
      idc_b_.words_built.assign(b_.num_attributes(), false);
      idc_b_.qgrams_built.assign(b_.num_attributes(), false);
      idc_b_.tf_built.assign(b_.num_attributes(), false);
    }
  }
}

PairContext::~PairContext() {
  if (budget_ != nullptr) {
    budget_->Release(billed_bytes_.load(std::memory_order_relaxed));
  }
}

bool PairContext::BillBytes(size_t added) {
  if (budget_ == nullptr) return true;
  const size_t total =
      approx_bytes_.fetch_add(added, std::memory_order_relaxed) + added;
  size_t billed = billed_bytes_.load(std::memory_order_relaxed);
  while (total > billed) {
    // Claim the chunk optimistically so concurrent billers don't all
    // reserve for the same growth; roll back on denial.
    const size_t want = std::max(total - billed, kCacheBillChunk);
    if (!billed_bytes_.compare_exchange_weak(billed, billed + want,
                                             std::memory_order_relaxed)) {
      continue;
    }
    if (!budget_->Reserve(want, "ctx.cache").ok()) {
      billed_bytes_.fetch_sub(want, std::memory_order_relaxed);
      budget_denials_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    billed = billed_bytes_.load(std::memory_order_relaxed);
  }
  return true;
}

size_t PairContext::TakeInternerGrowth() {
  if (interner_ == nullptr) return 0;
  const size_t now = interner_->ArenaBytes() + interner_->DictionaryBytes();
  const size_t grown = now > interner_bytes_seen_
                           ? now - interner_bytes_seen_
                           : 0;
  interner_bytes_seen_ = now;
  return grown;
}

void PairContext::ResyncBillingSerial() {
  if (budget_ == nullptr) return;
  size_t actual = TokenCacheBytes() + IdCacheBytes();
  if (interner_ != nullptr) {
    actual += interner_->ArenaBytes() + interner_->DictionaryBytes();
  }
  approx_bytes_.store(actual, std::memory_order_relaxed);
  const size_t billed = billed_bytes_.load(std::memory_order_relaxed);
  if (billed > actual) {
    budget_->Release(billed - actual);
    billed_bytes_.store(actual, std::memory_order_relaxed);
  } else if (billed < actual) {
    // Under-billed (an earlier denial left a deficit). Best-effort: the
    // budget may have room now; if not, the deficit shrinks at the next
    // clear. TryReserve, not Reserve — Resync runs from reclaim
    // callbacks (DropIdCaches), where a reclaiming Reserve would
    // self-deadlock on the registry mutex.
    if (budget_->TryReserve(actual - billed, "ctx.cache").ok()) {
      billed_bytes_.store(actual, std::memory_order_relaxed);
    }
  }
}

const TokenList* PairContext::CachedTokens(bool table_b, AttrIndex attr,
                                           uint32_t row, bool qgrams) {
  if (!options_.cache_tokens ||
      token_degraded_.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  const Table& table = table_b ? b_ : a_;
  TokenCache& cache = table_b ? cache_b_ : cache_a_;
  auto& slots = qgrams ? cache.qgrams : cache.words;
  const size_t slot = attr * table.num_rows() + row;
  if (slots[slot] == nullptr) {
    const std::string& text = table.Value(row, attr);
    slots[slot] = std::make_unique<TokenList>(
        qgrams ? QGramTokenize(text, 3) : AlnumTokenize(text));
    size_t bytes =
        sizeof(TokenList) + slots[slot]->capacity() * sizeof(std::string);
    for (const std::string& t : *slots[slot]) bytes += t.capacity();
    if (!BillBytes(bytes)) {
      // Stop caching new slots; this one stays valid for the current
      // call. Safe mid-parallel-fill: the flag is atomic and every
      // similarity function accepts null token lists (it re-tokenizes).
      token_degraded_.store(true, std::memory_order_relaxed);
    }
  }
  return slots[slot].get();
}

bool PairContext::BuildIdColumn(bool table_b, AttrIndex attr, bool qgrams,
                                ThreadPool* pool) {
  IdCache& idc = table_b ? idc_b_ : idc_a_;
  auto& built = qgrams ? idc.qgrams_built : idc.words_built;
  if (built[attr]) return true;
  if (id_degraded_.load(std::memory_order_relaxed)) return false;
  const Table& table = table_b ? b_ : a_;
  auto& slots = qgrams ? idc.qgrams : idc.words;
  const uint32_t rows = table.num_rows();
  // Abandons a half-built column so billing and slots stay consistent.
  auto abandon = [&]() {
    for (uint32_t row = 0; row < rows; ++row) {
      slots[attr * rows + row].reset();
    }
    id_degraded_.store(true, std::memory_order_relaxed);
    ResyncBillingSerial();
    return false;
  };
  // Serial phase: interning mutates the shared dictionary. Tokenization is
  // usually already done (Prewarm fills token slots in parallel first).
  for (uint32_t row = 0; row < rows; ++row) {
    const TokenList* tokens = CachedTokens(table_b, attr, row, qgrams);
    // Token caching degraded mid-column: the id path needs the raw token
    // lists, so this column cannot finish.
    if (tokens == nullptr) return abandon();
    auto ids = std::make_unique<TokenIds>();
    ids->doc = InternDocIds(*tokens, *interner_);
    slots[attr * rows + row] = std::move(ids);
  }
  // Parallel phase: per-row sorting touches distinct slots, reads nothing
  // shared.
  ForEachRow(pool, rows, [&](uint32_t row) {
    TokenIds& ids = *slots[attr * rows + row];
    ids.sorted = SortedUniqueIds(ids.doc);
  });
  // Bill the column (id arrays + whatever the dictionary grew by). On
  // denial, drop the column and degrade: the string kernels take over
  // with identical values.
  size_t bytes = TakeInternerGrowth();
  for (uint32_t row = 0; row < rows; ++row) {
    bytes += OneTokenIdsBytes(*slots[attr * rows + row]);
  }
  if (!BillBytes(bytes)) return abandon();
  built[attr] = true;
  return true;
}

bool PairContext::BuildTfColumn(bool table_b, AttrIndex attr,
                                ThreadPool* pool) {
  IdCache& idc = table_b ? idc_b_ : idc_a_;
  if (idc.tf_built[attr]) return true;
  if (!BuildIdColumn(table_b, attr, /*qgrams=*/false, pool)) return false;
  const Table& table = table_b ? b_ : a_;
  const uint32_t rows = table.num_rows();
  // Rank-ordered vectors are built only here (and the TF-IDF weights from
  // them), so this is the one place the snapshot is refreshed: after the
  // column's ids are interned, before the sort. The interner reports its
  // bytes (DictionaryBytes), so they are billed with its growth.
  ranks_ = interner_->LexRanks();
  const auto ranks = ranks_;
  ForEachRow(pool, rows, [&](uint32_t row) {
    const size_t slot = attr * rows + row;
    idc.word_tf[slot] = std::make_unique<IdTfVector>(
        MakeIdTfVector(idc.words[slot]->doc, *ranks));
  });
  size_t bytes = TakeInternerGrowth();
  for (uint32_t row = 0; row < rows; ++row) {
    const auto& tf = *idc.word_tf[attr * rows + row];
    bytes += sizeof(IdTfVector) +
             tf.entries.capacity() * sizeof(tf.entries[0]);
  }
  if (!BillBytes(bytes)) {
    for (uint32_t row = 0; row < rows; ++row) {
      idc.word_tf[attr * rows + row].reset();
    }
    id_degraded_.store(true, std::memory_order_relaxed);
    ResyncBillingSerial();
    return false;
  }
  idc.tf_built[attr] = true;
  return true;
}

PairContext::ModelIdCache& PairContext::EnsureModelIds(AttrIndex attr_a,
                                                       AttrIndex attr_b,
                                                       ThreadPool* pool) {
  ModelIdCache& mc = model_ids_[std::make_pair(attr_a, attr_b)];
  if (mc.built) return mc;
  const TfIdfModel& model = ModelFor(attr_a, attr_b);
  if (!BuildTfColumn(false, attr_a, pool) ||
      !BuildTfColumn(true, attr_b, pool)) {
    return mc;  // built stays false; caller falls back to string path
  }
  // idf-by-id over the whole current vocabulary: Idf(text) is a pure
  // function of the model, so values match the string path exactly.
  const uint32_t vocab = interner_->size();
  mc.idf_by_id.reserve(vocab);
  for (uint32_t id = static_cast<uint32_t>(mc.idf_by_id.size()); id < vocab;
       ++id) {
    mc.idf_by_id.push_back(model.Idf(std::string(interner_->Text(id))));
  }
  mc.rows_a.resize(a_.num_rows());
  mc.rows_b.resize(b_.num_rows());
  ForEachRow(pool, a_.num_rows(), [&](uint32_t row) {
    mc.rows_a[row] = std::make_unique<IdWeightVector>(MakeIdWeightVector(
        *idc_a_.word_tf[attr_a * a_.num_rows() + row], mc.idf_by_id));
  });
  ForEachRow(pool, b_.num_rows(), [&](uint32_t row) {
    mc.rows_b[row] = std::make_unique<IdWeightVector>(MakeIdWeightVector(
        *idc_b_.word_tf[attr_b * b_.num_rows() + row], mc.idf_by_id));
  });
  size_t bytes = mc.idf_by_id.capacity() * sizeof(double);
  for (const auto* rows : {&mc.rows_a, &mc.rows_b}) {
    for (const auto& row : *rows) {
      bytes += sizeof(IdWeightVector) +
               row->entries.capacity() * sizeof(row->entries[0]);
    }
  }
  if (!BillBytes(bytes)) {
    mc.idf_by_id.clear();
    mc.idf_by_id.shrink_to_fit();
    mc.rows_a.clear();
    mc.rows_b.clear();
    id_degraded_.store(true, std::memory_order_relaxed);
    ResyncBillingSerial();
    return mc;
  }
  mc.built = true;
  return mc;
}

const TokenIds* PairContext::CachedIds(bool table_b, AttrIndex attr,
                                       uint32_t row, bool qgrams) {
  IdCache& idc = table_b ? idc_b_ : idc_a_;
  const auto& built = qgrams ? idc.qgrams_built : idc.words_built;
  if (!built[attr] && !BuildIdColumn(table_b, attr, qgrams, nullptr)) {
    return nullptr;
  }
  const Table& table = table_b ? b_ : a_;
  const auto& slots = qgrams ? idc.qgrams : idc.words;
  return slots[attr * table.num_rows() + row].get();
}

void PairContext::Prewarm(const std::vector<FeatureId>& features,
                          ThreadPool* pool) {
  // Serial phase: TF-IDF corpus models mutate a shared map.
  for (const FeatureId f : features) {
    const Feature& feature = catalog_.feature(f);
    if (GetSimFunctionInfo(feature.fn).needs_tfidf) {
      (void)ModelFor(feature.attr_a, feature.attr_b);
    }
  }
  if (!options_.cache_tokens) return;

  // Deduplicated (table, attribute, token kind) tokenization tasks —
  // several features usually share attributes.
  struct Task {
    bool table_b;
    AttrIndex attr;
    bool qgrams;
    bool operator==(const Task&) const = default;
  };
  std::vector<Task> tasks;
  for (const FeatureId f : features) {
    const Feature& feature = catalog_.feature(f);
    const SimFunctionInfo& info = GetSimFunctionInfo(feature.fn);
    if (info.tokens == TokenNeed::kNone) continue;
    const bool qgrams = info.tokens == TokenNeed::kQGram3;
    for (const Task t : {Task{false, feature.attr_a, qgrams},
                         Task{true, feature.attr_b, qgrams}}) {
      if (std::find(tasks.begin(), tasks.end(), t) == tasks.end()) {
        tasks.push_back(t);
      }
    }
  }

  for (const Task& t : tasks) {
    const uint32_t rows =
        t.table_b ? b_.num_rows() : a_.num_rows();
    if (pool != nullptr && pool->num_workers() > 1) {
      // Each row fills a distinct cache slot: safe without locking.
      pool->ParallelFor(rows, [&](size_t, size_t row) {
        (void)CachedTokens(t.table_b, t.attr, static_cast<uint32_t>(row),
                           t.qgrams);
      });
    } else {
      for (uint32_t row = 0; row < rows; ++row) {
        (void)CachedTokens(t.table_b, t.attr, row, t.qgrams);
      }
    }
  }

  // Id phase: build every interned-id structure the features' fast paths
  // will read, so concurrent ComputeFeature calls stay read-only.
  if (interner_ == nullptr) return;
  for (const FeatureId f : features) {
    const Feature& feature = catalog_.feature(f);
    const SimFunctionInfo& info = GetSimFunctionInfo(feature.fn);
    if (!info.id_path) continue;
    const bool qgrams = info.tokens == TokenNeed::kQGram3;
    BuildIdColumn(false, feature.attr_a, qgrams, pool);
    BuildIdColumn(true, feature.attr_b, qgrams, pool);
    if (feature.fn == SimFunction::kCosine) {
      BuildTfColumn(false, feature.attr_a, pool);
      BuildTfColumn(true, feature.attr_b, pool);
    }
    if (info.needs_tfidf) {
      (void)EnsureModelIds(feature.attr_a, feature.attr_b, pool);
    }
  }
}

bool PairContext::TryComputeFeatureIds(const Feature& feature,
                                       const SimFunctionInfo& info,
                                       PairId pair, double* value) {
  switch (feature.fn) {
    case SimFunction::kJaccard:
    case SimFunction::kDice:
    case SimFunction::kOverlap:
    case SimFunction::kTrigram: {
      const bool qgrams = info.tokens == TokenNeed::kQGram3;
      const TokenIds* ia = CachedIds(false, feature.attr_a, pair.a, qgrams);
      const TokenIds* ib = CachedIds(true, feature.attr_b, pair.b, qgrams);
      if (ia == nullptr || ib == nullptr) return false;
      switch (feature.fn) {
        case SimFunction::kDice:
          *value = IdDice(ia->sorted, ib->sorted);
          return true;
        case SimFunction::kOverlap:
          *value = IdOverlap(ia->sorted, ib->sorted);
          return true;
        default:  // Jaccard and Trigram (= Jaccard over 3-grams)
          *value = IdJaccard(ia->sorted, ib->sorted);
          return true;
      }
    }
    case SimFunction::kCosine: {
      if (!BuildTfColumn(false, feature.attr_a, nullptr) ||
          !BuildTfColumn(true, feature.attr_b, nullptr)) {
        return false;
      }
      const IdTfVector& ta =
          *idc_a_.word_tf[feature.attr_a * a_.num_rows() + pair.a];
      const IdTfVector& tb =
          *idc_b_.word_tf[feature.attr_b * b_.num_rows() + pair.b];
      *value = IdCosineTf(ta, tb, *ranks_);
      return true;
    }
    case SimFunction::kMongeElkan: {
      const TokenIds* ia = CachedIds(false, feature.attr_a, pair.a, false);
      const TokenIds* ib = CachedIds(true, feature.attr_b, pair.b, false);
      const TokenList* ta = CachedTokens(false, feature.attr_a, pair.a, false);
      const TokenList* tb = CachedTokens(true, feature.attr_b, pair.b, false);
      if (ia == nullptr || ib == nullptr || ta == nullptr || tb == nullptr) {
        return false;
      }
      *value = IdMongeElkan(*ta, *tb, *ia, *ib);
      return true;
    }
    case SimFunction::kTfIdf: {
      const ModelIdCache& mc =
          EnsureModelIds(feature.attr_a, feature.attr_b, nullptr);
      if (!mc.built) return false;
      *value = IdTfIdfCosine(*mc.rows_a[pair.a], *mc.rows_b[pair.b], *ranks_);
      return true;
    }
    case SimFunction::kSoftTfIdf: {
      const ModelIdCache& mc =
          EnsureModelIds(feature.attr_a, feature.attr_b, nullptr);
      if (!mc.built) return false;
      *value = IdSoftTfIdf(*mc.rows_a[pair.a], *mc.rows_b[pair.b], *ranks_,
                           *interner_);
      return true;
    }
    default:
      return false;  // unreachable: gated on info.id_path
  }
}

double PairContext::ComputeFeatureValue(const Feature& feature,
                                        const SimFunctionInfo& info,
                                        PairId pair) {
  // Quantize to float: the memo stores float, and matching decisions must
  // not depend on whether a value came from computation or from the memo
  // (otherwise rule/predicate *order* could change results at threshold
  // boundaries).
  if (info.id_path && interner_ != nullptr) {
    double value = 0.0;
    if (TryComputeFeatureIds(feature, info, pair, &value)) {
      return static_cast<float>(value);
    }
    // Budget pressure dropped or blocked an id structure — fall through
    // to the string kernels, which compute the identical value.
  }

  SimArg arg_a;
  arg_a.text = a_.Value(pair.a, feature.attr_a);
  SimArg arg_b;
  arg_b.text = b_.Value(pair.b, feature.attr_b);

  if (info.tokens == TokenNeed::kWords) {
    arg_a.words = CachedTokens(false, feature.attr_a, pair.a, false);
    arg_b.words = CachedTokens(true, feature.attr_b, pair.b, false);
  } else if (info.tokens == TokenNeed::kQGram3) {
    arg_a.qgrams = CachedTokens(false, feature.attr_a, pair.a, true);
    arg_b.qgrams = CachedTokens(true, feature.attr_b, pair.b, true);
  }

  const TfIdfModel* model = nullptr;
  if (info.needs_tfidf) {
    model = &ModelFor(feature.attr_a, feature.attr_b);
  }
  return static_cast<float>(
      ComputeSimilarity(feature.fn, arg_a, arg_b, model));
}

double PairContext::ComputeFeature(FeatureId f, PairId pair) {
  compute_count_.fetch_add(1, std::memory_order_relaxed);
  const Feature& feature = catalog_.feature(f);
  return ComputeFeatureValue(feature, GetSimFunctionInfo(feature.fn), pair);
}

void PairContext::ComputeFeatureBlock(FeatureId f, const PairId* pairs,
                                      size_t n, const uint64_t* mask,
                                      float* out) {
  const size_t lanes = bitspan::Count(mask, n);
  if (lanes == 0) return;
  compute_count_.fetch_add(lanes, std::memory_order_relaxed);
  const Feature& feature = catalog_.feature(f);
  const SimFunctionInfo& info = GetSimFunctionInfo(feature.fn);

  // Runs `cell(i)` for every set bit of the mask, tail-masked.
  const auto for_each_lane = [&](auto&& cell) {
    const size_t words = bitspan::Words(n);
    for (size_t wi = 0; wi < words; ++wi) {
      uint64_t m = wi + 1 == words ? mask[wi] & bitspan::TailMask(n)
                                   : mask[wi];
      while (m != 0) {
        const size_t i = wi * 64 + static_cast<size_t>(std::countr_zero(m));
        m &= m - 1;
        cell(i);
      }
    }
  };

  // Hoisted id-kernel loops: the feature's structures are resolved once,
  // then the kernel runs tight over the lanes. Each branch secures
  // exactly the structures TryComputeFeatureIds needs per pair; when a
  // build fails under budget pressure, the generic per-pair path below
  // computes the identical value through the string kernels.
  if (info.id_path && interner_ != nullptr) {
    const bool qgrams = info.tokens == TokenNeed::kQGram3;
    switch (feature.fn) {
      case SimFunction::kJaccard:
      case SimFunction::kDice:
      case SimFunction::kOverlap:
      case SimFunction::kTrigram: {
        if (!BuildIdColumn(false, feature.attr_a, qgrams, nullptr) ||
            !BuildIdColumn(true, feature.attr_b, qgrams, nullptr)) {
          break;
        }
        const auto& slots_a = qgrams ? idc_a_.qgrams : idc_a_.words;
        const auto& slots_b = qgrams ? idc_b_.qgrams : idc_b_.words;
        const size_t base_a = feature.attr_a * a_.num_rows();
        const size_t base_b = feature.attr_b * b_.num_rows();
        if (feature.fn == SimFunction::kDice) {
          for_each_lane([&](size_t i) {
            out[i] = static_cast<float>(
                IdDice(slots_a[base_a + pairs[i].a]->sorted,
                       slots_b[base_b + pairs[i].b]->sorted));
          });
        } else if (feature.fn == SimFunction::kOverlap) {
          for_each_lane([&](size_t i) {
            out[i] = static_cast<float>(
                IdOverlap(slots_a[base_a + pairs[i].a]->sorted,
                          slots_b[base_b + pairs[i].b]->sorted));
          });
        } else {  // Jaccard and Trigram (= Jaccard over 3-grams)
          for_each_lane([&](size_t i) {
            out[i] = static_cast<float>(
                IdJaccard(slots_a[base_a + pairs[i].a]->sorted,
                          slots_b[base_b + pairs[i].b]->sorted));
          });
        }
        return;
      }
      case SimFunction::kCosine: {
        if (!BuildTfColumn(false, feature.attr_a, nullptr) ||
            !BuildTfColumn(true, feature.attr_b, nullptr)) {
          break;
        }
        const size_t base_a = feature.attr_a * a_.num_rows();
        const size_t base_b = feature.attr_b * b_.num_rows();
        const auto ranks = ranks_;
        for_each_lane([&](size_t i) {
          out[i] = static_cast<float>(
              IdCosineTf(*idc_a_.word_tf[base_a + pairs[i].a],
                         *idc_b_.word_tf[base_b + pairs[i].b], *ranks));
        });
        return;
      }
      case SimFunction::kTfIdf:
      case SimFunction::kSoftTfIdf: {
        const ModelIdCache& mc =
            EnsureModelIds(feature.attr_a, feature.attr_b, nullptr);
        if (!mc.built) break;
        const auto ranks = ranks_;
        if (feature.fn == SimFunction::kTfIdf) {
          for_each_lane([&](size_t i) {
            out[i] = static_cast<float>(IdTfIdfCosine(
                *mc.rows_a[pairs[i].a], *mc.rows_b[pairs[i].b], *ranks));
          });
        } else {
          for_each_lane([&](size_t i) {
            out[i] = static_cast<float>(
                IdSoftTfIdf(*mc.rows_a[pairs[i].a], *mc.rows_b[pairs[i].b],
                            *ranks, *interner_));
          });
        }
        return;
      }
      default:
        break;  // kMongeElkan and friends: per-pair resolution below
    }
  }

  // Generic path: per-pair resolution (string kernels, or id structures
  // the fast loops could not secure). Same values, just slower.
  for_each_lane([&](size_t i) {
    out[i] = static_cast<float>(ComputeFeatureValue(feature, info, pairs[i]));
  });
}

const TfIdfModel& PairContext::ModelFor(AttrIndex attr_a, AttrIndex attr_b) {
  const auto key = std::make_pair(attr_a, attr_b);
  auto it = models_.find(key);
  if (it == models_.end()) {
    auto model = std::make_unique<TfIdfModel>();
    for (uint32_t row = 0; row < a_.num_rows(); ++row) {
      model->AddDocument(AlnumTokenize(a_.Value(row, attr_a)));
    }
    for (uint32_t row = 0; row < b_.num_rows(); ++row) {
      model->AddDocument(AlnumTokenize(b_.Value(row, attr_b)));
    }
    it = models_.emplace(key, std::move(model)).first;
  }
  return *it->second;
}

namespace {

size_t TokenListBytes(const TokenList& tokens) {
  size_t bytes = sizeof(TokenList) + tokens.capacity() * sizeof(std::string);
  for (const std::string& t : tokens) bytes += t.capacity();
  return bytes;
}

size_t CacheBytes(const std::vector<std::unique_ptr<TokenList>>& slots) {
  size_t bytes = slots.capacity() * sizeof(std::unique_ptr<TokenList>);
  for (const auto& slot : slots) {
    if (slot != nullptr) bytes += TokenListBytes(*slot);
  }
  return bytes;
}

size_t IdSlotBytes(const std::vector<std::unique_ptr<TokenIds>>& slots) {
  size_t bytes = slots.capacity() * sizeof(std::unique_ptr<TokenIds>);
  for (const auto& slot : slots) {
    if (slot != nullptr) {
      bytes += sizeof(TokenIds) +
               (slot->doc.capacity() + slot->sorted.capacity()) *
                   sizeof(TokenId);
    }
  }
  return bytes;
}

size_t TfSlotBytes(const std::vector<std::unique_ptr<IdTfVector>>& slots) {
  size_t bytes = slots.capacity() * sizeof(std::unique_ptr<IdTfVector>);
  for (const auto& slot : slots) {
    if (slot != nullptr) {
      bytes += sizeof(IdTfVector) +
               slot->entries.capacity() * sizeof(slot->entries[0]);
    }
  }
  return bytes;
}

size_t WeightRowBytes(
    const std::vector<std::unique_ptr<IdWeightVector>>& rows) {
  size_t bytes = rows.capacity() * sizeof(std::unique_ptr<IdWeightVector>);
  for (const auto& row : rows) {
    if (row != nullptr) {
      bytes += sizeof(IdWeightVector) +
               row->entries.capacity() * sizeof(row->entries[0]);
    }
  }
  return bytes;
}

}  // namespace

size_t PairContext::TokenCacheBytes() const {
  return CacheBytes(cache_a_.words) + CacheBytes(cache_a_.qgrams) +
         CacheBytes(cache_b_.words) + CacheBytes(cache_b_.qgrams);
}

size_t PairContext::IdCacheBytes() const {
  size_t bytes = 0;
  for (const IdCache* idc : {&idc_a_, &idc_b_}) {
    bytes += IdSlotBytes(idc->words) + IdSlotBytes(idc->qgrams) +
             TfSlotBytes(idc->word_tf);
  }
  for (const auto& [key, mc] : model_ids_) {
    bytes += mc.idf_by_id.capacity() * sizeof(double);
    bytes += WeightRowBytes(mc.rows_a) + WeightRowBytes(mc.rows_b);
  }
  return bytes;
}

void PairContext::ClearTokenCaches() {
  for (auto& slot : cache_a_.words) slot.reset();
  for (auto& slot : cache_a_.qgrams) slot.reset();
  for (auto& slot : cache_b_.words) slot.reset();
  for (auto& slot : cache_b_.qgrams) slot.reset();
  for (IdCache* idc : {&idc_a_, &idc_b_}) {
    for (auto& slot : idc->words) slot.reset();
    for (auto& slot : idc->qgrams) slot.reset();
    for (auto& slot : idc->word_tf) slot.reset();
    std::fill(idc->words_built.begin(), idc->words_built.end(), false);
    std::fill(idc->qgrams_built.begin(), idc->qgrams_built.end(), false);
    std::fill(idc->tf_built.begin(), idc->tf_built.end(), false);
  }
  model_ids_.clear();
  token_degraded_.store(false, std::memory_order_relaxed);
  id_degraded_.store(false, std::memory_order_relaxed);
  ResyncBillingSerial();
}

size_t PairContext::DropIdCaches() {
  const size_t before = IdCacheBytes();
  for (IdCache* idc : {&idc_a_, &idc_b_}) {
    for (auto& slot : idc->words) slot.reset();
    for (auto& slot : idc->qgrams) slot.reset();
    for (auto& slot : idc->word_tf) slot.reset();
    std::fill(idc->words_built.begin(), idc->words_built.end(), false);
    std::fill(idc->qgrams_built.begin(), idc->qgrams_built.end(), false);
    std::fill(idc->tf_built.begin(), idc->tf_built.end(), false);
  }
  model_ids_.clear();
  const size_t freed = before - IdCacheBytes();
  ResyncBillingSerial();
  return freed;
}

}  // namespace emdbg
