#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "src/model/gbm.h"
#include "src/model/logistic_regression.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Summary Summarize(const std::vector<double>& v) {
  return {Quantile(v, 0.5), Quantile(v, 0.25), Quantile(v, 0.75), v.size()};
}

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit, false, {}});
}

void RunResult::AddTiming(const std::string& name,
                          const std::vector<double>& samples,
                          const std::string& unit, double scale) {
  Summary s = Summarize(samples);
  s.median *= scale;
  s.q1 *= scale;
  s.q3 *= scale;
  metrics.push_back({name, s.median, unit, true, s});
}

void RunResult::Count(uint64_t attempted_ops, uint64_t failed_ops,
                      const std::vector<std::string>& messages) {
  attempted += attempted_ops;
  failed += failed_ops;
  for (const std::string& m : messages) {
    if (errors.size() < 16) errors.push_back(m);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int SpanLog::Open(const std::string& name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  records_.push_back({name, now, now, parent});
  open_.push_back(static_cast<int>(records_.size() - 1));
  return open_.back();
}

double SpanLog::Close(int id) {
  Record& r = records_[static_cast<size_t>(id)];
  r.end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  // Spans nest strictly: closing one also closes anything left open in it.
  while (!open_.empty() && open_.back() >= id) open_.pop_back();
  return (r.end_us - r.start_us) / 1000.0;
}

bool SpanLog::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 i, r.name.c_str(), r.parent, r.start_us, r.end_us,
                 i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

std::unique_ptr<xfair::Model> FitModel(ModelKind kind,
                                       const xfair::Dataset& data,
                                       std::string* error) {
  xfair::Status st;
  std::unique_ptr<xfair::Model> model;
  if (kind == ModelKind::kLogistic) {
    auto lr = std::make_unique<xfair::LogisticRegression>();
    st = lr->Fit(data);
    model = std::move(lr);
  } else {
    auto gbm = std::make_unique<xfair::GradientBoostedTrees>();
    st = gbm->Fit(data);
    model = std::move(gbm);
  }
  if (!st.ok()) {
    *error = "fit failed: " + st.ToString();
    return nullptr;
  }
  return model;
}

std::vector<Batch> MakeBatches(const xfair::Dataset& data, size_t begin,
                               size_t count) {
  std::vector<Batch> batches(count);
  const size_t d = data.num_features();
  for (size_t b = 0; b < count; ++b) {
    Batch& batch = batches[b];
    batch.x = xfair::Matrix(kBatchRows, d);
    for (size_t r = 0; r < kBatchRows; ++r) {
      const size_t i = begin + b * kBatchRows + r;
      std::copy(data.x().RowPtr(i), data.x().RowPtr(i) + d,
                batch.x.RowPtr(r));
      batch.groups.push_back(data.group(i));
      batch.labels.push_back(data.label(i));
    }
  }
  return batches;
}

}  // namespace perfbench
