#include "src/model/presort.h"

#include <algorithm>
#include <limits>

namespace xfair {

Result<Presort> Presort::Make(const Matrix& x, std::vector<uint32_t> rows) {
  const size_t n = x.rows();
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("too many rows for 32-bit row ids");
  }
  Presort p;
  p.m_ = rows.size();
  p.d_ = x.cols();
  if (n > 0) p.x_ = x.RowPtr(0);
  p.lists_.resize((p.d_ + 1) * p.m_);
  std::copy(rows.begin(), rows.end(), p.lists_.begin());
  for (size_t f = 0; f < p.d_; ++f) {
    uint32_t* out = p.lists_.data() + (f + 1) * p.m_;
    std::copy(rows.begin(), rows.end(), out);
    std::sort(out, out + p.m_, [&p, f](uint32_t a, uint32_t b) {
      const double va = p.value(a, f), vb = p.value(b, f);
      return va < vb || (va == vb && a < b);
    });
  }
  p.spill_.resize(p.m_);
  p.goes_left_.resize(n);
  return p;
}

size_t Presort::Partition(size_t begin, size_t end, size_t feature,
                          double threshold) {
  const uint32_t* ids = rows();
  size_t left = 0;
  for (size_t k = begin; k < end; ++k) {
    const bool l = value(ids[k], feature) <= threshold;
    goes_left_[ids[k]] = l;
    left += l;
  }
  if (left == 0 || left == end - begin) return begin + left;
  for (size_t list = 0; list <= d_; ++list) {
    uint32_t* out = lists_.data() + list * m_ + begin;
    size_t kept = 0, spilled = 0;
    // Branchless: both stores always happen and one cursor advances. A
    // store to out[kept] never overtakes the read, since kept <= k.
    for (size_t k = 0; k < end - begin; ++k) {
      const uint32_t r = out[k];
      const size_t l = goes_left_[r];
      out[kept] = r;
      spill_[spilled] = r;
      kept += l;
      spilled += 1 - l;
    }
    std::copy(spill_.begin(), spill_.begin() + spilled, out + kept);
  }
  return begin + left;
}

void Presort::Reset() {
  if (root_.empty()) {
    root_ = lists_;
  } else {
    lists_ = root_;
  }
}

}  // namespace xfair
