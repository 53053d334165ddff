#include "src/text/tfidf.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace emdbg {

void TfIdfModel::AddDocument(const TokenList& tokens) {
  ++doc_count_;
  // Each distinct term counts once per document.
  std::vector<std::string> uniq = ToSortedUnique(tokens);
  for (const std::string& t : uniq) ++df_[t];
}

TfIdfModel TfIdfModel::Build(const std::vector<TokenList>& corpus) {
  TfIdfModel model;
  for (const TokenList& doc : corpus) model.AddDocument(doc);
  return model;
}

double TfIdfModel::Idf(const std::string& term) const {
  const auto it = df_.find(term);
  return SmoothedIdf(doc_count_, it == df_.end() ? 0 : it->second);
}

double TfIdfModel::SmoothedIdf(size_t doc_count, size_t df) {
  return std::log((1.0 + static_cast<double>(doc_count)) /
                  (1.0 + static_cast<double>(df))) +
         1.0;
}

TfIdfVector TfIdfModel::Vectorize(const TokenList& tokens) const {
  std::map<std::string, int> tf;
  for (const std::string& t : tokens) ++tf[t];
  TfIdfVector vec;
  vec.entries.reserve(tf.size());
  double norm_sq = 0.0;
  for (const auto& [term, count] : tf) {
    const double w = static_cast<double>(count) * Idf(term);
    vec.entries.emplace_back(term, w);
    norm_sq += w * w;
  }
  if (norm_sq > 0.0) {
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (auto& [_, w] : vec.entries) w *= inv;
  }
  return vec;
}

double TfIdfModel::Cosine(const TfIdfVector& a, const TfIdfVector& b) {
  double dot = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.entries.size() && j < b.entries.size()) {
    const int cmp = a.entries[i].first.compare(b.entries[j].first);
    if (cmp == 0) {
      dot += a.entries[i].second * b.entries[j].second;
      ++i;
      ++j;
    } else if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return dot;
}

double TfIdfModel::Similarity(const TokenList& a, const TokenList& b) const {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // Clamp floating-point drift on identical vectors.
  return std::min(1.0, Cosine(Vectorize(a), Vectorize(b)));
}

}  // namespace emdbg
