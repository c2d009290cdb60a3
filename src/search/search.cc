#include "search/search.h"

#include <stdexcept>

namespace kairos::search {

CountingEvaluator::CountingEvaluator(EvalFn fn) : fn_(std::move(fn)) {
  if (!fn_) throw std::invalid_argument("CountingEvaluator: null EvalFn");
}

double CountingEvaluator::operator()(const cloud::Config& config) {
  if (const auto hit = memo_.find(config); hit != memo_.end()) {
    return hit->second;
  }
  const double qps = fn_(config);
  memo_.emplace(config, qps);
  history_.push_back(EvalRecord{config, qps});
  if (qps > best_qps_ || history_.size() == 1) {
    best_qps_ = qps;
    best_config_ = config;
  }
  return qps;
}

SearchResult CountingEvaluator::ToResult() const {
  SearchResult result;
  result.best_config = best_config_;
  result.best_qps = best_qps_;
  result.evals = history_.size();
  result.history = history_;
  return result;
}

CandidatePool::CandidatePool(std::vector<cloud::Config> configs)
    : configs_(std::move(configs)),
      alive_(configs_.size(), true),
      alive_count_(configs_.size()) {
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    index_.emplace(configs_[i], i);
  }
}

bool CandidatePool::Contains(const cloud::Config& c) const {
  const auto it = index_.find(c);
  return it != index_.end() && alive_[it->second];
}

void CandidatePool::Remove(const cloud::Config& c) {
  const auto it = index_.find(c);
  if (it == index_.end() || !alive_[it->second]) return;
  alive_[it->second] = false;
  --alive_count_;
}

void CandidatePool::RemoveSubConfigsOf(const cloud::Config& c) {
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    if (alive_[i] && configs_[i].IsSubConfigOf(c)) {
      alive_[i] = false;
      --alive_count_;
    }
  }
}

std::vector<cloud::Config> CandidatePool::Remaining() const {
  std::vector<cloud::Config> out;
  out.reserve(alive_count_);
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    if (alive_[i]) out.push_back(configs_[i]);
  }
  return out;
}

}  // namespace kairos::search
