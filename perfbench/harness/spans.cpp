#include "spans.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/json.h"

namespace perfbench {

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t k = 0; k < spans.size(); ++k)
    if (spans[k].parent >= 0)
      children[static_cast<std::size_t>(spans[k].parent)].push_back(
          static_cast<int>(k));

  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t p = 0; p < spans.size(); ++p) {
    const Span& span = spans[p];
    std::vector<std::pair<double, double>> cover;
    for (int c : children[p]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      const double lo = std::max(child.t0_ms, span.t0_ms);
      const double hi = std::min(child.t1_ms, span.t1_ms);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[p] = std::clamp(span.duration_ms() - covered, 0.0,
                         std::max(0.0, span.duration_ms()));
  }
  return self;
}

void nest_by_thread(std::vector<Span>& spans) {
  std::vector<int> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  // Per thread, by start; an enclosing span sorts before the spans it
  // contains (longer first on equal starts).
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Span& x = spans[static_cast<std::size_t>(a)];
    const Span& y = spans[static_cast<std::size_t>(b)];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.t0_ms != y.t0_ms) return x.t0_ms < y.t0_ms;
    return x.t1_ms > y.t1_ms;
  });
  std::vector<int> stack;
  std::uint64_t tid = 0;
  for (int k : order) {
    Span& span = spans[static_cast<std::size_t>(k)];
    if (stack.empty() || span.tid != tid) {
      stack.clear();
      tid = span.tid;
    }
    while (!stack.empty()) {
      const Span& top = spans[static_cast<std::size_t>(stack.back())];
      if (span.t0_ms >= top.t0_ms && span.t1_ms <= top.t1_ms) break;
      stack.pop_back();
    }
    span.parent = stack.empty() ? -1 : stack.back();
    stack.push_back(k);
  }
}

std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans, const std::vector<double>& self) {
  std::map<std::string, NameTotals> out;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    NameTotals& t = out[spans[k].name];
    ++t.count;
    t.total_ms += spans[k].duration_ms();
    t.self_ms += self[k];
  }
  return out;
}

std::optional<std::vector<Span>> load_profiler_dump(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<cloudalloc::Json> doc =
      cloudalloc::Json::parse(text.str());
  if (!doc || !doc->is_object()) return std::nullopt;
  const cloudalloc::Json* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) return std::nullopt;

  std::vector<Span> spans;
  for (const cloudalloc::Json& e : events->as_array()) {
    Span span;
    span.name = e.at("name").as_string();
    span.tid = static_cast<std::uint64_t>(e.at("tid").as_number());
    // The dump is in microseconds.
    span.t0_ms = e.at("ts").as_number() * 1e-3;
    span.t1_ms = span.t0_ms + e.at("dur").as_number() * 1e-3;
    spans.push_back(std::move(span));
  }
  nest_by_thread(spans);
  return spans;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer.enabled_ ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.t0_ms = tracer_->now_ms();
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.run = tracer_->run_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].t1_ms = tracer_->now_ms();
  tracer_->open_.pop_back();
}

}  // namespace perfbench
