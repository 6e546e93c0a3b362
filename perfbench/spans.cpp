#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

std::int64_t SpanLog::add(std::string name, double start_s, double end_s,
                          std::int64_t parent, std::uint64_t query,
                          int lane) {
  spans_.push_back({std::move(name), start_s, end_s, parent, query, lane});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

SpanLog::Scope::Scope(SpanLog* log, std::string name, std::uint64_t query,
                      int lane)
    : log_(log) {
  if (log_ == nullptr) return;
  const std::int64_t parent = log_->open_.empty() ? -1 : log_->open_.back();
  const double t = log_->now();
  index_ = log_->add(std::move(name), t, t, parent, query, lane);
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(index_)].end_s = log_->now();
  log_->open_.pop_back();
}

double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double run_a = 0.0, run_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= run_b) {
      run_b = std::max(run_b, b);
      continue;
    }
    if (open) total += run_b - run_a;
    run_a = a;
    run_b = b;
    open = true;
  }
  if (open) total += run_b - run_a;
  return total;
}

std::vector<LayerRow> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children.at(static_cast<std::size_t>(s.parent))
          .emplace_back(s.start_s, s.end_s);

  std::vector<LayerRow> rows;
  std::unordered_map<std::string, std::size_t> row_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto [it, fresh] = row_of.try_emplace(s.name, rows.size());
    if (fresh) rows.push_back({s.name, 0, 0.0, 0.0});
    LayerRow& row = rows[it->second];
    const double dur = std::max(0.0, s.end_s - s.start_s);
    row.count += 1;
    row.total_s += dur;
    row.self_s += dur - covered(children[i], s.start_s, s.end_s);
  }
  return rows;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%llu}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.lane,
                 s.start_s * 1e6, std::max(0.0, s.end_s - s.start_s) * 1e6,
                 static_cast<unsigned long long>(s.query));
  }
  std::fputs("\n]}\n", out);
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
