#include "src/core/pair_context.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <string>

#include "src/text/similarity_registry.h"
#include "src/text/soundex.h"
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
/// round-trip per ~256 KB of cache growth, not per column.
constexpr size_t kCacheBillChunk = 256 * 1024;

/// Fills `col` with one sorted-unique row per table row: row r gets room
/// for capacity(r) ids, fill(r, out) writes its row there and returns how
/// many ids it kept, and the gaps are then closed in row order. Rows fan
/// out over `pool`; no allocation per row. False when the column would
/// outgrow its 32-bit offsets.
template <typename Capacity, typename Fill>
bool BuildSortedRows(uint32_t rows, ThreadPool* pool, Capacity&& capacity,
                     Fill&& fill, IdColumn& col) {
  col.offsets.resize(size_t{rows} + 1);
  size_t total = 0;
  for (uint32_t row = 0; row < rows; ++row) {
    col.offsets[row] = static_cast<uint32_t>(total);
    total += capacity(row);
    if (total > UINT32_MAX) return false;
  }
  col.ids.resize(total);
  std::vector<uint32_t> kept(rows);
  ForEachRow(pool, rows, [&](uint32_t row) {
    kept[row] = static_cast<uint32_t>(
        fill(row, col.ids.data() + col.offsets[row]));
  });
  uint32_t end = 0;
  for (uint32_t row = 0; row < rows; ++row) {
    const uint32_t begin = col.offsets[row];
    col.offsets[row] = end;
    if (kept[row] != 0) {
      std::memmove(col.ids.data() + end, col.ids.data() + begin,
                   kept[row] * sizeof(TokenId));
    }
    end += kept[row];
  }
  col.offsets[rows] = end;
  // Capacity (what Bytes() bills) keeps the duplicates' slack: shrinking
  // would copy the column once more to save a few percent.
  col.ids.resize(end);
  return true;
}

}  // namespace

PairContext::PairContext(const Table& a, const Table& b,
                         const FeatureCatalog& catalog, Options options)
    : a_(a), b_(b), catalog_(catalog), budget_(options.budget) {
  for (const bool table_b : {false, true}) {
    IdCache& idc = table_b ? idc_b_ : idc_a_;
    const size_t attrs = (table_b ? b_ : a_).num_attributes();
    idc.word_docs.resize(attrs);
    idc.words.resize(attrs);
    idc.qgrams.resize(attrs);
    idc.soundex.resize(attrs);
    idc.tf_built.assign(attrs, false);
  }
}

PairContext::~PairContext() {
  if (budget_ != nullptr) budget_->Release(billed_bytes_);
}

bool PairContext::BillBytes(size_t added) {
  if (budget_ == nullptr) return true;
  approx_bytes_ += added;
  if (approx_bytes_ <= billed_bytes_) return true;
  const size_t want = std::max(approx_bytes_ - billed_bytes_, kCacheBillChunk);
  if (!budget_->Reserve(want, "ctx.cache").ok()) {
    budget_denials_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  billed_bytes_ += want;
  return true;
}

size_t PairContext::TakeInternerGrowth() {
  const size_t now = interner_.ArenaBytes() + interner_.DictionaryBytes();
  const size_t grown = now > interner_bytes_seen_
                           ? now - interner_bytes_seen_
                           : 0;
  interner_bytes_seen_ = now;
  return grown;
}

void PairContext::ResyncBilling() {
  if (budget_ == nullptr) return;
  const size_t actual =
      IdCacheBytes() + interner_.ArenaBytes() + interner_.DictionaryBytes();
  approx_bytes_ = actual;
  if (billed_bytes_ > actual) {
    budget_->Release(billed_bytes_ - actual);
    billed_bytes_ = actual;
  } else if (billed_bytes_ < actual) {
    // Under-billed (an earlier denial left a deficit). Best-effort: the
    // budget may have room now; if not, the deficit shrinks at the next
    // clear. TryReserve, not Reserve — Resync runs from reclaim
    // callbacks (DropIdCaches), where a reclaiming Reserve would
    // self-deadlock on the registry mutex.
    if (budget_->TryReserve(actual - billed_bytes_, "ctx.cache").ok()) {
      billed_bytes_ = actual;
    }
  }
}

bool PairContext::Degrade() {
  id_degraded_.store(true, std::memory_order_relaxed);
  ResyncBilling();
  return false;
}

PairContext::SetKind PairContext::SetKindOf(SimFunction fn) {
  if (fn == SimFunction::kSoundex) return SetKind::kSoundex;
  return GetSimFunctionInfo(fn).tokens == TokenNeed::kQGram3 ? SetKind::kQGrams
                                                             : SetKind::kWords;
}

IdColumn* PairContext::SetSlot(IdCache& idc, AttrIndex attr, SetKind kind) {
  switch (kind) {
    case SetKind::kQGrams:
      return &idc.qgrams[attr];
    case SetKind::kSoundex:
      return &idc.soundex[attr];
    case SetKind::kWords:
      break;
  }
  return &idc.words[attr];
}

bool PairContext::BuildIdColumn(bool table_b, AttrIndex attr, SetKind kind,
                                ThreadPool* pool) {
  IdCache& idc = table_b ? idc_b_ : idc_a_;
  IdColumn& set = *SetSlot(idc, attr, kind);
  if (set.built()) return true;
  if (id_degraded_.load(std::memory_order_relaxed)) return false;
  const Table& table = table_b ? b_ : a_;
  const uint32_t rows = table.num_rows();
  const bool words = kind == SetKind::kWords;
  IdColumn& docs = idc.word_docs[attr];
  // Abandons a half-built column so billing and columns stay consistent.
  auto abandon = [&]() {
    set = IdColumn{};
    if (words) docs = IdColumn{};
    return Degrade();
  };
  bool ok = false;
  if (kind == SetKind::kQGrams) {
    // Rows share no state: codes come straight from each row's bytes.
    ok = BuildSortedRows(
        rows, pool,
        [&](uint32_t row) {
          return QGramCodeCapacity(table.Value(row, attr).size());
        },
        [&](uint32_t row, TokenId* out) {
          return SortedQGramCodes(table.Value(row, attr), out);
        },
        set);
  } else if (kind == SetKind::kSoundex) {
    ok = BuildSortedRows(
        rows, pool,
        [&](uint32_t row) {
          return SoundexCodeCapacity(table.Value(row, attr));
        },
        [&](uint32_t row, TokenId* out) {
          return SortedSoundexCodes(table.Value(row, attr), out);
        },
        set);
  } else {
    // Serial phase: interning mutates the shared dictionary.
    docs.offsets.resize(size_t{rows} + 1);
    std::string buf;
    for (uint32_t row = 0; row < rows; ++row) {
      docs.offsets[row] = static_cast<uint32_t>(docs.ids.size());
      InternWordIds(table.Value(row, attr), interner_, buf, docs.ids);
    }
    docs.offsets[rows] = static_cast<uint32_t>(docs.ids.size());
    // Parallel phase: per-row sorting reads only the row's own ids.
    ok = docs.ids.size() <= UINT32_MAX &&
         BuildSortedRows(
             rows, pool,
             [&](uint32_t row) {
               return docs.offsets[row + 1] - docs.offsets[row];
             },
             [&](uint32_t row, TokenId* out) {
               const std::span<const TokenId> doc = docs.Row(row);
               TokenId* const out_end = std::copy(doc.begin(), doc.end(), out);
               std::sort(out, out_end);
               return static_cast<size_t>(std::unique(out, out_end) - out);
             },
             set);
  }
  if (!ok) return abandon();
  // Bill the column (ids + whatever the dictionary grew by). On denial,
  // drop the column and degrade: the string kernels take over with
  // identical values.
  size_t bytes = TakeInternerGrowth() + set.Bytes();
  if (words) bytes += docs.Bytes();
  if (!BillBytes(bytes)) return abandon();
  return true;
}

bool PairContext::BuildTfColumn(bool table_b, AttrIndex attr,
                                ThreadPool* pool) {
  IdCache& idc = table_b ? idc_b_ : idc_a_;
  if (idc.tf_built[attr]) return true;
  if (id_degraded_.load(std::memory_order_relaxed)) return false;
  if (!BuildIdColumn(table_b, attr, SetKind::kWords, pool)) return false;
  const Table& table = table_b ? b_ : a_;
  const uint32_t rows = table.num_rows();
  if (idc.word_tf.empty()) {
    idc.word_tf.resize(table.num_attributes() * rows);
  }
  // Rank-ordered vectors are built only here (and the TF-IDF weights from
  // them), so this is the one place the snapshot is refreshed: after the
  // column's ids are interned, before the sort. The interner reports its
  // bytes (DictionaryBytes), so they are billed with its growth.
  ranks_ = interner_.LexRanks();
  const auto ranks = ranks_;
  const IdColumn& docs = idc.word_docs[attr];
  ForEachRow(pool, rows, [&](uint32_t row) {
    idc.word_tf[attr * rows + row] =
        std::make_unique<IdTfVector>(MakeIdTfVector(docs.Row(row), *ranks));
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
    return Degrade();
  }
  idc.tf_built[attr] = true;
  return true;
}

const PairContext::ModelIdCache* PairContext::EnsureModelIds(
    AttrIndex attr_a, AttrIndex attr_b, ThreadPool* pool) {
  const auto key = std::make_pair(attr_a, attr_b);
  if (const auto it = model_ids_.find(key); it != model_ids_.end()) {
    return &it->second;
  }
  if (id_degraded_.load(std::memory_order_relaxed) ||
      !BuildTfColumn(false, attr_a, pool) ||
      !BuildTfColumn(true, attr_b, pool)) {
    return nullptr;  // the caller falls back to the string path
  }
  // Document frequencies over the sorted-unique word columns: each id once
  // per row, on both sides. Ids interned only by other attributes keep
  // df = 0, as unseen terms do in TfIdfModel, so idf matches its Idf.
  const uint32_t vocab = interner_.size();
  std::vector<uint32_t> df(vocab, 0);
  for (const IdColumn* col : {&idc_a_.words[attr_a], &idc_b_.words[attr_b]}) {
    for (const TokenId id : col->ids) ++df[id];
  }
  const size_t docs = size_t{a_.num_rows()} + b_.num_rows();
  ModelIdCache mc;
  mc.idf_by_id.resize(vocab);
  for (uint32_t id = 0; id < vocab; ++id) {
    mc.idf_by_id[id] = TfIdfModel::SmoothedIdf(docs, df[id]);
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
    Degrade();  // `mc` is not inserted, so the resync drops its bytes
    return nullptr;
  }
  return &model_ids_.emplace(key, std::move(mc)).first->second;
}

const std::vector<double>* PairContext::IdfById(AttrIndex attr_a,
                                                AttrIndex attr_b) {
  const ModelIdCache* mc = EnsureModelIds(attr_a, attr_b, nullptr);
  return mc == nullptr ? nullptr : &mc->idf_by_id;
}

const IdColumn* PairContext::SetColumn(bool table_b, AttrIndex attr,
                                       SetKind kind) {
  if (!BuildIdColumn(table_b, attr, kind, nullptr)) return nullptr;
  return SetSlot(table_b ? idc_b_ : idc_a_, attr, kind);
}

void PairContext::Prewarm(const std::vector<FeatureId>& features,
                          ThreadPool* pool) {
  // Build every id structure the features' fast paths will read, so
  // concurrent ComputeFeature calls stay read-only. Where budget pressure
  // refuses one, its features re-tokenize per call, which shares nothing
  // but the TF-IDF family's string model: that is built here, serially.
  for (const FeatureId f : features) {
    const Feature& feature = catalog_.feature(f);
    const SimFunctionInfo& info = GetSimFunctionInfo(feature.fn);
    if (!info.id_path) continue;
    const SetKind kind = SetKindOf(feature.fn);
    BuildIdColumn(false, feature.attr_a, kind, pool);
    BuildIdColumn(true, feature.attr_b, kind, pool);
    if (feature.fn == SimFunction::kCosine) {
      BuildTfColumn(false, feature.attr_a, pool);
      BuildTfColumn(true, feature.attr_b, pool);
    }
    if (info.needs_tfidf &&
        EnsureModelIds(feature.attr_a, feature.attr_b, pool) == nullptr) {
      (void)ModelFor(feature.attr_a, feature.attr_b);
    }
  }
}

bool PairContext::TryComputeFeatureIds(const Feature& feature, PairId pair,
                                       double* value) {
  switch (feature.fn) {
    case SimFunction::kJaccard:
    case SimFunction::kDice:
    case SimFunction::kOverlap:
    case SimFunction::kTrigram:
    case SimFunction::kSoundex: {
      const SetKind kind = SetKindOf(feature.fn);
      const IdColumn* ca = SetColumn(false, feature.attr_a, kind);
      const IdColumn* cb = SetColumn(true, feature.attr_b, kind);
      if (ca == nullptr || cb == nullptr) return false;
      const std::span<const TokenId> ia = ca->Row(pair.a);
      const std::span<const TokenId> ib = cb->Row(pair.b);
      switch (feature.fn) {
        case SimFunction::kDice:
          *value = IdDice(ia, ib);
          return true;
        case SimFunction::kOverlap:
          *value = IdOverlap(ia, ib);
          return true;
        default:  // Jaccard, and Trigram and Soundex (Jaccard over codes)
          *value = IdJaccard(ia, ib);
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
      const IdColumn* ca = SetColumn(false, feature.attr_a, SetKind::kWords);
      const IdColumn* cb = SetColumn(true, feature.attr_b, SetKind::kWords);
      if (ca == nullptr || cb == nullptr) return false;
      *value = IdMongeElkan(idc_a_.word_docs[feature.attr_a].Row(pair.a),
                            ca->Row(pair.a),
                            idc_b_.word_docs[feature.attr_b].Row(pair.b),
                            cb->Row(pair.b), interner_);
      return true;
    }
    case SimFunction::kTfIdf: {
      const ModelIdCache* mc =
          EnsureModelIds(feature.attr_a, feature.attr_b, nullptr);
      if (mc == nullptr) return false;
      *value =
          IdTfIdfCosine(*mc->rows_a[pair.a], *mc->rows_b[pair.b], *ranks_);
      return true;
    }
    case SimFunction::kSoftTfIdf: {
      const ModelIdCache* mc =
          EnsureModelIds(feature.attr_a, feature.attr_b, nullptr);
      if (mc == nullptr) return false;
      *value = IdSoftTfIdf(*mc->rows_a[pair.a], *mc->rows_b[pair.b], *ranks_,
                           interner_);
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
  double value = 0.0;
  if (!info.id_path || !TryComputeFeatureIds(feature, pair, &value)) {
    // No id path, or budget pressure dropped or refused an id structure:
    // the string kernels re-tokenize and compute the identical value.
    value = ComputeSimilarity(
        feature.fn, a_.Value(pair.a, feature.attr_a),
        b_.Value(pair.b, feature.attr_b),
        info.needs_tfidf ? &ModelFor(feature.attr_a, feature.attr_b)
                         : nullptr);
  }
  return static_cast<float>(value);
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
    bitspan::ForEachSet(mask, n, cell);
  };

  // Hoisted id-kernel loops: the feature's structures are resolved once,
  // then the kernel runs tight over the lanes. Each branch secures
  // exactly the structures TryComputeFeatureIds needs per pair; when a
  // build fails under budget pressure, the generic per-pair path below
  // computes the identical value through the string kernels.
  if (info.id_path) {
    switch (feature.fn) {
      case SimFunction::kJaccard:
      case SimFunction::kDice:
      case SimFunction::kOverlap:
      case SimFunction::kTrigram:
      case SimFunction::kSoundex: {
        const SetKind kind = SetKindOf(feature.fn);
        const IdColumn* ca = SetColumn(false, feature.attr_a, kind);
        const IdColumn* cb = SetColumn(true, feature.attr_b, kind);
        if (ca == nullptr || cb == nullptr) break;
        if (feature.fn == SimFunction::kDice) {
          for_each_lane([&](size_t i) {
            out[i] = static_cast<float>(
                IdDice(ca->Row(pairs[i].a), cb->Row(pairs[i].b)));
          });
        } else if (feature.fn == SimFunction::kOverlap) {
          for_each_lane([&](size_t i) {
            out[i] = static_cast<float>(
                IdOverlap(ca->Row(pairs[i].a), cb->Row(pairs[i].b)));
          });
        } else {  // Jaccard, and Trigram and Soundex (Jaccard over codes)
          for_each_lane([&](size_t i) {
            out[i] = static_cast<float>(
                IdJaccard(ca->Row(pairs[i].a), cb->Row(pairs[i].b)));
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
        const ModelIdCache* mc =
            EnsureModelIds(feature.attr_a, feature.attr_b, nullptr);
        if (mc == nullptr) break;
        const auto ranks = ranks_;
        if (feature.fn == SimFunction::kTfIdf) {
          for_each_lane([&](size_t i) {
            out[i] = static_cast<float>(IdTfIdfCosine(
                *mc->rows_a[pairs[i].a], *mc->rows_b[pairs[i].b], *ranks));
          });
        } else {
          for_each_lane([&](size_t i) {
            out[i] = static_cast<float>(
                IdSoftTfIdf(*mc->rows_a[pairs[i].a], *mc->rows_b[pairs[i].b],
                            *ranks, interner_));
          });
        }
        return;
      }
      default:
        break;  // kMongeElkan and friends: per-pair resolution below
    }
  }

  // Generic path: per-pair resolution (Monge-Elkan's id columns, or the
  // string kernels). Same values, just slower.
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

size_t ColumnBytes(const std::vector<IdColumn>& columns) {
  size_t bytes = 0;
  for (const IdColumn& col : columns) bytes += col.Bytes();
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

size_t PairContext::IdCacheBytes() const {
  size_t bytes = 0;
  for (const IdCache* idc : {&idc_a_, &idc_b_}) {
    bytes += ColumnBytes(idc->word_docs) + ColumnBytes(idc->words) +
             ColumnBytes(idc->qgrams) + ColumnBytes(idc->soundex) +
             TfSlotBytes(idc->word_tf);
  }
  for (const auto& [key, mc] : model_ids_) {
    bytes += mc.idf_by_id.capacity() * sizeof(double);
    bytes += WeightRowBytes(mc.rows_a) + WeightRowBytes(mc.rows_b);
  }
  return bytes;
}

size_t PairContext::DropIdCaches() {
  const size_t before = IdCacheBytes();
  for (IdCache* idc : {&idc_a_, &idc_b_}) {
    for (auto* columns :
         {&idc->word_docs, &idc->words, &idc->qgrams, &idc->soundex}) {
      for (IdColumn& col : *columns) col = IdColumn{};
    }
    idc->word_tf.clear();
    idc->word_tf.shrink_to_fit();
    std::fill(idc->tf_built.begin(), idc->tf_built.end(), false);
  }
  model_ids_.clear();
  id_degraded_.store(false, std::memory_order_relaxed);
  const size_t freed = before - IdCacheBytes();
  ResyncBilling();
  return freed;
}

}  // namespace emdbg
