#include "src/core/state_io.h"

#include <cstdint>
#include <cstring>
#include <limits>

#include "src/util/crc32c.h"
#include "src/util/csv.h"
#include "src/util/string_util.h"

namespace emdbg {

namespace {

constexpr char kMagicV1[8] = {'E', 'M', 'D', 'B', 'G', 'S', 'T', '1'};
constexpr char kMagicV2[8] = {'E', 'M', 'D', 'B', 'G', 'S', 'T', '2'};

void AppendU64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendBitmap(std::string& out, const Bitmap& bm) {
  for (const uint64_t w : bm.words()) AppendU64(out, w);
}

/// Appends the CRC-32C of out[section_start..] — call at the end of each
/// section while saving.
void AppendSectionCrc(std::string& out, size_t section_start) {
  AppendU32(out, Crc32c(out.data() + section_start,
                        out.size() - section_start));
}

/// a * b, or nullopt-style failure via the bool, guarding size overflow.
bool CheckedMul(uint64_t a, uint64_t b, uint64_t* result) {
  if (b != 0 && a > std::numeric_limits<uint64_t>::max() / b) return false;
  *result = a * b;
  return true;
}

/// Sequential reader over the loaded buffer. Tracks a running CRC-32C of
/// every byte consumed since the last StartSection(), so each section's
/// stored checksum can be verified right after reading it.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }

  /// Consumes `bytes` bytes and points `out` at them (valid while the
  /// loaded buffer lives).
  bool ReadBytes(std::string_view* out, uint64_t bytes) {
    if (remaining() < bytes) return false;
    *out = data_.substr(pos_, bytes);
    Consume(bytes);
    return true;
  }

  bool ReadBitmap(Bitmap* bm, size_t bits) {
    const size_t words = (bits + 63) / 64;
    if (remaining() < words * sizeof(uint64_t)) return false;
    std::vector<uint64_t> buf(words);
    std::memcpy(buf.data(), data_.data() + pos_,
                words * sizeof(uint64_t));
    Consume(words * sizeof(uint64_t));
    *bm = Bitmap::FromWords(bits, std::move(buf));
    return true;
  }

  void StartSection() { section_crc_ = 0; }

  /// Reads the stored u32 checksum (excluded from the running CRC) and
  /// compares it against the section bytes read since StartSection().
  Status VerifySectionCrc(const char* section_name) {
    const uint32_t computed = section_crc_;
    uint32_t stored = 0;
    if (remaining() < sizeof(stored)) {
      return Status::ParseError(
          StrFormat("truncated state file: missing %s checksum",
                    section_name));
    }
    std::memcpy(&stored, data_.data() + pos_, sizeof(stored));
    pos_ += sizeof(stored);
    if (stored != computed) {
      return Status::ParseError(StrFormat(
          "state file corrupt: %s checksum mismatch "
          "(stored %08x, computed %08x)",
          section_name, stored, computed));
    }
    return Status::Ok();
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool ReadRaw(void* out, size_t bytes) {
    if (remaining() < bytes) return false;
    std::memcpy(out, data_.data() + pos_, bytes);
    Consume(bytes);
    return true;
  }

  void Consume(size_t bytes) {
    section_crc_ = Crc32cExtend(section_crc_, data_.data() + pos_, bytes);
    pos_ += bytes;
  }

  std::string_view data_;
  size_t pos_ = 0;
  uint32_t section_crc_ = 0;
};

/// Validates the header dimensions against the number of bytes actually
/// present, *before* any allocation sized from them. `overhead` is the
/// fixed per-file byte cost beyond the memo floats (bitmap words,
/// counts). All arithmetic is overflow-checked.
Status ValidateDimensions(uint64_t num_pairs, uint64_t num_features,
                          size_t bytes_remaining) {
  uint64_t memo_count = 0;
  uint64_t memo_bytes = 0;
  if (!CheckedMul(num_pairs, num_features, &memo_count) ||
      !CheckedMul(memo_count, sizeof(float), &memo_bytes)) {
    return Status::ParseError(StrFormat(
        "state header dimensions overflow (num_pairs=%llu "
        "num_features=%llu)",
        static_cast<unsigned long long>(num_pairs),
        static_cast<unsigned long long>(num_features)));
  }
  // The memo floats plus at least the matches bitmap must fit in the
  // bytes that are actually on disk; a corrupt header claiming billions
  // of pairs fails here without allocating anything.
  const uint64_t match_words = (num_pairs + 63) / 64;
  uint64_t total = 0;
  if (!CheckedMul(match_words, sizeof(uint64_t), &total) ||
      total > std::numeric_limits<uint64_t>::max() - memo_bytes) {
    return Status::ParseError("state header dimensions overflow");
  }
  total += memo_bytes;
  if (total > bytes_remaining) {
    return Status::ParseError(StrFormat(
        "state header claims %llu bytes of payload but only %zu bytes "
        "remain in the file (num_pairs=%llu num_features=%llu)",
        static_cast<unsigned long long>(total), bytes_remaining,
        static_cast<unsigned long long>(num_pairs),
        static_cast<unsigned long long>(num_features)));
  }
  return Status::Ok();
}

/// Shared body loader for both versions; `checked` selects whether
/// per-section CRCs are present (v2) or not (v1).
Result<MatchState> LoadBody(Reader& body, bool checked) {
  body.StartSection();
  uint64_t num_pairs = 0;
  uint64_t num_features = 0;
  if (!body.ReadU64(&num_pairs) || !body.ReadU64(&num_features)) {
    return Status::ParseError("truncated state header");
  }
  if (checked) {
    EMDBG_RETURN_IF_ERROR(body.VerifySectionCrc("header"));
  }
  EMDBG_RETURN_IF_ERROR(
      ValidateDimensions(num_pairs, num_features, body.remaining()));

  MatchState state;
  state.Initialize(num_pairs, num_features);

  body.StartSection();
  // ValidateDimensions proved the product fits and is present.
  std::string_view values;
  if (!body.ReadBytes(&values, num_pairs * num_features * sizeof(float))) {
    return Status::ParseError("truncated memo payload");
  }
  if (checked) {
    EMDBG_RETURN_IF_ERROR(body.VerifySectionCrc("memo"));
  }
  EMDBG_RETURN_IF_ERROR(state.memo().LoadRawValues(values));

  body.StartSection();
  Bitmap matches;
  if (!body.ReadBitmap(&matches, num_pairs)) {
    return Status::ParseError("truncated match bitmap");
  }
  if (checked) {
    EMDBG_RETURN_IF_ERROR(body.VerifySectionCrc("matches"));
  }
  state.matches() = std::move(matches);

  body.StartSection();
  uint64_t rule_count = 0;
  if (!body.ReadU64(&rule_count)) {
    return Status::ParseError("truncated rule-bitmap count");
  }
  // Every per-rule entry costs at least an id + one bitmap word; a
  // corrupt count larger than the file can hold is rejected up front.
  const uint64_t min_entry_bytes =
      sizeof(uint32_t) + ((num_pairs + 63) / 64) * sizeof(uint64_t);
  uint64_t rule_bytes = 0;
  if (!CheckedMul(rule_count, min_entry_bytes, &rule_bytes) ||
      rule_bytes > body.remaining()) {
    return Status::ParseError(
        StrFormat("state file corrupt: rule-bitmap count %llu exceeds "
                  "remaining file size",
                  static_cast<unsigned long long>(rule_count)));
  }
  for (uint64_t i = 0; i < rule_count; ++i) {
    uint32_t rid = 0;
    Bitmap bm;
    if (!body.ReadU32(&rid) || !body.ReadBitmap(&bm, num_pairs)) {
      return Status::ParseError("truncated rule bitmap");
    }
    state.RuleTrue(rid) = std::move(bm);
  }
  if (checked) {
    EMDBG_RETURN_IF_ERROR(body.VerifySectionCrc("rule bitmaps"));
  }

  body.StartSection();
  uint64_t pred_count = 0;
  if (!body.ReadU64(&pred_count)) {
    return Status::ParseError("truncated predicate-bitmap count");
  }
  uint64_t pred_bytes = 0;
  if (!CheckedMul(pred_count, min_entry_bytes, &pred_bytes) ||
      pred_bytes > body.remaining()) {
    return Status::ParseError(
        StrFormat("state file corrupt: predicate-bitmap count %llu "
                  "exceeds remaining file size",
                  static_cast<unsigned long long>(pred_count)));
  }
  for (uint64_t i = 0; i < pred_count; ++i) {
    uint32_t pid = 0;
    Bitmap bm;
    if (!body.ReadU32(&pid) || !body.ReadBitmap(&bm, num_pairs)) {
      return Status::ParseError("truncated predicate bitmap");
    }
    state.PredFalse(pid) = std::move(bm);
  }
  if (checked) {
    EMDBG_RETURN_IF_ERROR(body.VerifySectionCrc("predicate bitmaps"));
  }
  return state;
}

}  // namespace

namespace {

/// Shared writer: optional id maps rewrite bitmap keys (nullptr = keep).
Status SaveMatchStateImpl(
    const MatchState& state,
    const std::unordered_map<RuleId, RuleId>* rule_ids,
    const std::unordered_map<PredicateId, PredicateId>* predicate_ids,
    const std::string& path) {
  if (!state.initialized()) {
    return Status::FailedPrecondition("state is not initialized");
  }
  std::string out;
  const DenseMemo& memo = state.memo();
  const size_t memo_bytes =
      memo.num_pairs() * memo.num_features() * sizeof(float);
  out.reserve(64 + memo_bytes);
  out.append(kMagicV2, sizeof(kMagicV2));

  size_t section = out.size();
  AppendU64(out, memo.num_pairs());
  AppendU64(out, memo.num_features());
  AppendSectionCrc(out, section);

  // The memo section is pair-major: transposed from the feature columns
  // straight into the output buffer.
  section = out.size();
  out.resize(section + memo_bytes);
  memo.WriteRawValues(out.data() + section);
  AppendSectionCrc(out, section);

  section = out.size();
  AppendBitmap(out, state.matches());
  AppendSectionCrc(out, section);

  section = out.size();
  std::vector<std::pair<RuleId, RuleId>> rules;  // (written id, source id)
  for (const RuleId rid : state.RuleIdsWithState()) {
    if (rule_ids == nullptr) {
      rules.emplace_back(rid, rid);
    } else if (auto it = rule_ids->find(rid); it != rule_ids->end()) {
      rules.emplace_back(it->second, rid);
    }
  }
  AppendU64(out, rules.size());
  for (const auto& [written, source] : rules) {
    AppendU32(out, written);
    AppendBitmap(out, *state.FindRuleTrue(source));
  }
  AppendSectionCrc(out, section);

  section = out.size();
  std::vector<std::pair<PredicateId, PredicateId>> preds;
  for (const PredicateId pid : state.PredicateIdsWithState()) {
    if (predicate_ids == nullptr) {
      preds.emplace_back(pid, pid);
    } else if (auto it = predicate_ids->find(pid);
               it != predicate_ids->end()) {
      preds.emplace_back(it->second, pid);
    }
  }
  AppendU64(out, preds.size());
  for (const auto& [written, source] : preds) {
    AppendU32(out, written);
    AppendBitmap(out, *state.FindPredFalse(source));
  }
  AppendSectionCrc(out, section);

  return WriteFileAtomic(path, out);
}

}  // namespace

Status SaveMatchState(const MatchState& state, const std::string& path) {
  return SaveMatchStateImpl(state, nullptr, nullptr, path);
}

Status SaveMatchStateRemapped(
    const MatchState& state,
    const std::unordered_map<RuleId, RuleId>& rule_ids,
    const std::unordered_map<PredicateId, PredicateId>& predicate_ids,
    const std::string& path) {
  return SaveMatchStateImpl(state, &rule_ids, &predicate_ids, path);
}

Result<MatchState> LoadMatchState(const std::string& path) {
  Result<std::string> data = ReadFileToString(path);
  if (!data.ok()) return data.status();

  if (data->size() < sizeof(kMagicV2)) {
    return Status::ParseError("not an emdbg state file");
  }
  const bool v2 = std::memcmp(data->data(), kMagicV2,
                              sizeof(kMagicV2)) == 0;
  const bool v1 = std::memcmp(data->data(), kMagicV1,
                              sizeof(kMagicV1)) == 0;
  if (!v2 && !v1) {
    return Status::ParseError("not an emdbg state file");
  }
  Reader body(std::string_view(*data).substr(sizeof(kMagicV2)));
  return LoadBody(body, /*checked=*/v2);
}

}  // namespace emdbg
