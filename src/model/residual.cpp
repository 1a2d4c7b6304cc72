#include "model/residual.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/simd.h"

namespace cloudalloc::model {

namespace {

// --- free-disk screen kernel (see ResidualView::screen_free_disk) --------
//
// free[i] = cap_m[i] - (used_disk[i] + bg_disk[i]) — the exact expression
// chain of the scalar free_disk() accessor, elementwise over a contiguous
// server range. Subtraction/addition only (no multiply), so there is no
// FMA-contraction hazard at any lane width; bit-identity needs no special
// flags here, only identical operation order, which the template body
// guarantees for the vector main loop and the scalar tail alike.

template <int W>
[[gnu::always_inline]] inline void free_disk_w(const double* cap,
                                               const double* used,
                                               const double* bg,
                                               std::size_t n, double* out) {
  std::size_t i = 0;
  if constexpr (W > 1) {
    for (; i + W <= n; i += W) {
      const auto c = simd::load<W>(cap + i);
      const auto u = simd::load<W>(used + i);
      const auto b = simd::load<W>(bg + i);
      simd::store<W>(out + i, c - (u + b));
    }
  }
  for (; i < n; ++i) out[i] = cap[i] - (used[i] + bg[i]);
}

void free_disk_scalar(const double* cap, const double* used, const double* bg,
                      std::size_t n, double* out) {
  free_disk_w<1>(cap, used, bg, n, out);
}

#if CLOUDALLOC_SIMD_X86
__attribute__((target("avx2"))) void free_disk_avx2(const double* cap,
                                                    const double* used,
                                                    const double* bg,
                                                    std::size_t n,
                                                    double* out) {
  free_disk_w<4>(cap, used, bg, n, out);
}
__attribute__((target("avx512f"))) void free_disk_avx512(const double* cap,
                                                         const double* used,
                                                         const double* bg,
                                                         std::size_t n,
                                                         double* out) {
  free_disk_w<8>(cap, used, bg, n, out);
}
#endif

void free_disk_batch(const double* cap, const double* used, const double* bg,
                     std::size_t n, double* out) {
#if CLOUDALLOC_SIMD_X86
  switch (simd::active_width()) {
    case 8:
      free_disk_avx512(cap, used, bg, n, out);
      return;
    case 4:
      free_disk_avx2(cap, used, bg, n, out);
      return;
    default:
      break;
  }
#endif
  free_disk_scalar(cap, used, bg, n, out);
}

}  // namespace

ResidualView::ResidualView(const Allocation& alloc) : cloud_(alloc.cloud_) {
  const auto num_servers = static_cast<std::size_t>(cloud_->num_servers());
  used_p_.resize(num_servers);
  used_n_.resize(num_servers);
  used_disk_.resize(num_servers);
  load_p_.resize(num_servers);
  hosted_.resize(num_servers);
  bg_p_.resize(num_servers);
  bg_n_.resize(num_servers);
  bg_disk_.resize(num_servers);
  cap_m_.resize(num_servers);
  keeps_on_.resize(num_servers);
  cap_p_.resize(num_servers);
  marg_.resize(num_servers);
  for (ServerId j : cloud_->server_ids()) {
    const Allocation::ServerAgg& agg = alloc.server_[j];
    used_p_[j] = agg.phi_p;
    used_n_[j] = agg.phi_n;
    used_disk_[j] = agg.disk;
    load_p_[j] = agg.load_p;
    hosted_[j] = static_cast<int>(agg.clients.size());
    const BackgroundLoad& bg = cloud_->server(j).background;
    bg_p_[j] = bg.phi_p;
    bg_n_[j] = bg.phi_n;
    bg_disk_[j] = bg.disk;
    cap_m_[j] = cloud_->server_class_of(j).cap_m;
    keeps_on_[j] = bg.keeps_on ? 1 : 0;
    const ServerClass& sc = cloud_->server_class_of(j);
    cap_p_[j] = sc.cap_p;
    marg_[j] = sc.marginal_cost();
  }
  const auto num_clusters = static_cast<std::size_t>(cloud_->num_clusters());
  contig_base_.resize(num_clusters);
  for (ClusterId k : cloud_->cluster_ids()) {
    const auto& servers = cloud_->cluster(k).servers;
    int base = servers.empty() ? -1 : static_cast<int>(servers.front().value());
    for (std::size_t idx = 0; idx < servers.size() && base >= 0; ++idx) {
      if (servers[idx].value() !=
          static_cast<ServerId::value_type>(base) +
              static_cast<ServerId::value_type>(idx)) {
        base = -1;
      }
    }
    contig_base_[k] = base;
  }
  index_.resize(num_clusters);
  bucket_of_.assign(num_servers, 0);
  dirty_flag_.assign(num_servers, 0);
}

ResidualView::ResidualView(const ResidualView& other)
    : cloud_(other.cloud_),
      used_p_(other.used_p_),
      used_n_(other.used_n_),
      used_disk_(other.used_disk_),
      load_p_(other.load_p_),
      hosted_(other.hosted_),
      bg_p_(other.bg_p_),
      bg_n_(other.bg_n_),
      bg_disk_(other.bg_disk_),
      cap_m_(other.cap_m_),
      keeps_on_(other.keeps_on_),
      cap_p_(other.cap_p_),
      marg_(other.marg_),
      contig_base_(other.contig_base_),
      index_(other.index_.size()),
      bucket_of_(other.bucket_of_.size(), 0),
      dirty_flag_(other.dirty_flag_.size(), 0) {}

ResidualView& ResidualView::operator=(const ResidualView& other) {
  if (this == &other) return *this;
  cloud_ = other.cloud_;
  used_p_ = other.used_p_;
  used_n_ = other.used_n_;
  used_disk_ = other.used_disk_;
  load_p_ = other.load_p_;
  hosted_ = other.hosted_;
  bg_p_ = other.bg_p_;
  bg_n_ = other.bg_n_;
  bg_disk_ = other.bg_disk_;
  cap_m_ = other.cap_m_;
  keeps_on_ = other.keeps_on_;
  cap_p_ = other.cap_p_;
  marg_ = other.marg_;
  contig_base_ = other.contig_base_;
  // Drop, don't copy, the index: rebuilt lazily (see the header). Reset in
  // place rather than assign() so a reused scratch view keeps its bucket
  // vector capacity across refreshes — build_index then allocates nothing.
  index_.resize(other.index_.size());
  for (ClusterIndex& ix : index_) {
    ix.built = false;
    ix.unsorted = 0;
    for (auto& bucket : ix.buckets) bucket.clear();
    ix.prefix.clear();
    ix.prefix_buckets = 0;
    ix.dirty.clear();
    ix.inv_scale = 0.0;
  }
  bucket_of_.assign(other.bucket_of_.size(), 0);
  dirty_flag_.assign(other.dirty_flag_.size(), 0);
  return *this;
}

int ResidualView::bucket_for(ServerId j, const ClusterIndex& ix) const {
  const double t = (free_phi_p(j) * cap_p_[j]) * ix.inv_scale;
  // Truncate-and-clamp quantization. Monotone in the rate (a larger rate
  // never quantizes lower), so bucket order respects rate order and equal
  // rates always share a bucket — the exactness precondition.
  int q = 0;
  if (t >= static_cast<double>(kNumBuckets - 1)) {
    q = kNumBuckets - 1;
  } else if (t > 0.0) {
    q = static_cast<int>(t);
  }
  return kNumBuckets - 1 - q;  // bucket 0 holds the largest rates
}

void ResidualView::build_index(ClusterId k) const {
  ClusterIndex& ix = index_[k];
  const auto& servers = cloud_->cluster(k).servers;
  double max_rate = 0.0;
  for (ServerId j : servers) max_rate = std::max(max_rate, cap_p_[j]);
  // free_phi_p <= 1, so cap_p bounds every possible rate: the scale is a
  // per-cluster constant and never needs recomputing as shares move.
  ix.inv_scale =
      max_rate > 0.0 ? static_cast<double>(kNumBuckets) / max_rate : 0.0;
  for (auto& bucket : ix.buckets) bucket.clear();
  for (ServerId j : servers) {
    const int b = bucket_for(j, ix);
    bucket_of_[j] = static_cast<std::int8_t>(b);
    dirty_flag_[j] = 0;
    ix.buckets[static_cast<std::size_t>(b)].push_back(j);
  }
  ix.unsorted = (1u << kNumBuckets) - 1u;
  ix.prefix.clear();
  ix.prefix_buckets = 0;
  ix.dirty.clear();
  ix.built = true;
}

void ResidualView::flush_dirty(ClusterId k) const {
  ClusterIndex& ix = index_[k];
  if (ix.dirty.empty()) return;
  int lowest = kNumBuckets;
  for (ServerId j : ix.dirty) {
    dirty_flag_[j] = 0;
    const int ob = bucket_of_[j];
    const int nb = bucket_for(j, ix);
    if (nb != ob) {
      auto& old_bucket = ix.buckets[static_cast<std::size_t>(ob)];
      // Swap-pop: pre-sort bucket contents are order-free, and the bucket
      // is marked unsorted below.
      auto it = std::find(old_bucket.begin(), old_bucket.end(), j);
      CHECK(it != old_bucket.end());
      *it = old_bucket.back();
      old_bucket.pop_back();
      ix.buckets[static_cast<std::size_t>(nb)].push_back(j);
      bucket_of_[j] = static_cast<std::int8_t>(nb);
      ix.unsorted |= (1u << ob) | (1u << nb);
      lowest = std::min(lowest, std::min(ob, nb));
    } else {
      ix.unsorted |= 1u << ob;
      lowest = std::min(lowest, ob);
    }
  }
  ix.dirty.clear();
  if (lowest < ix.prefix_buckets) {
    ix.prefix.clear();
    ix.prefix_buckets = 0;
  }
}

const std::vector<ServerId>& ResidualView::ordered_prefix(ClusterId k,
                                                          std::size_t n) const {
  CHECK(k.valid() && k.value() < cloud_->num_clusters());
  ClusterIndex& ix = index_[k];
  if (!ix.built) {
    build_index(k);
  } else {
    flush_dirty(k);
  }
  const auto& servers = cloud_->cluster(k).servers;
  const std::size_t target = std::min(n, servers.size());
  while (ix.prefix.size() < target && ix.prefix_buckets < kNumBuckets) {
    const int b = ix.prefix_buckets;
    auto& bucket = ix.buckets[static_cast<std::size_t>(b)];
    if ((ix.unsorted >> b) & 1u) {
      if (bucket.size() > 1) {
        // The exact comparator (see the header); concatenating buckets
        // sorted this way reproduces the exact full order (see
        // ClusterIndex). Decorate-sort-undecorate: the keys are computed
        // once per server, not once per comparison.
        struct CandKey {
          double rate;
          double marg;
          ServerId id;
        };
        thread_local std::vector<CandKey> keys;
        keys.clear();
        keys.reserve(bucket.size());
        for (ServerId j : bucket) {
          keys.push_back(CandKey{free_phi_p(j) * cap_p_[j], marg_[j], j});
        }
        std::sort(keys.begin(), keys.end(),
                  [](const CandKey& a, const CandKey& b2) {
                    if (a.rate != b2.rate) return a.rate > b2.rate;
                    if (a.marg != b2.marg) return a.marg < b2.marg;
                    return a.id > b2.id;  // id DESC — see the header
                  });
        for (std::size_t idx = 0; idx < bucket.size(); ++idx) {
          bucket[idx] = keys[idx].id;
        }
      }
      ix.unsorted &= ~(1u << b);
    }
    ix.prefix.insert(ix.prefix.end(), bucket.begin(), bucket.end());
    ++ix.prefix_buckets;
  }
  return ix.prefix;
}

const std::vector<ServerId>& ResidualView::insertion_candidates(
    ClusterId k) const {
  return ordered_prefix(k, cloud_->cluster(k).servers.size());
}

bool ResidualView::screen_free_disk(ClusterId k, double need, double eps,
                                    std::vector<std::uint8_t>& ok) const {
  const int base = contig_base_[k];
  if (base < 0) return false;
  const std::size_t n = cloud_->cluster(k).servers.size();
  ok.resize(n);
  const auto b = static_cast<std::size_t>(base);
  thread_local std::vector<double> free_buf;
  if (free_buf.size() < n) free_buf.resize(n);
  free_disk_batch(cap_m_.data() + b, used_disk_.data() + b,
                  bg_disk_.data() + b, n, free_buf.data());
  // Negated form of the scalar reject test (free + eps < need), the exact
  // comparison candidate_ok performs.
  for (std::size_t idx = 0; idx < n; ++idx) {
    ok[idx] = (free_buf[idx] + eps < need) ? 0 : 1;
  }
  return true;
}

void ResidualView::mark_server_dirty(ServerId j) {
  const ClusterId k = cloud_->server(j).cluster;
  ClusterIndex& ix = index_[k];
  if (!ix.built) return;  // nothing cached; the lazy build sees fresh state
  if (!dirty_flag_[j]) {
    dirty_flag_[j] = 1;
    ix.dirty.push_back(j);
  }
}

void ResidualView::record(const std::vector<Placement>& ps,
                          Undo* undo) const {
  if (undo == nullptr) return;
  undo->entries.clear();
  undo->entries.reserve(ps.size());
  for (const Placement& p : ps) {
    undo->entries.push_back(Undo::Entry{p.server, used_p_[p.server],
                                        used_n_[p.server],
                                        used_disk_[p.server],
                                        load_p_[p.server], hosted_[p.server]});
  }
}

void ResidualView::remove_client(ClientId i, const std::vector<Placement>& ps,
                                 Undo* undo) {
  const Client& c = cloud_->client(i);
  record(ps, undo);
  for (const Placement& p : ps) {
    CHECK(hosted_[p.server] > 0);
    used_p_[p.server] -= p.phi_p;
    used_n_[p.server] -= p.phi_n;
    used_disk_[p.server] -= c.disk;
    load_p_[p.server] -= p.psi * c.lambda_pred * c.alpha_p;
    --hosted_[p.server];
    // Mirror Allocation::remove_footprint's drift guard exactly.
    if (hosted_[p.server] == 0) {
      used_p_[p.server] = used_n_[p.server] = used_disk_[p.server] =
          load_p_[p.server] = 0.0;
    }
    mark_server_dirty(p.server);
  }
}

void ResidualView::add_client(ClientId i, const std::vector<Placement>& ps,
                              Undo* undo) {
  const Client& c = cloud_->client(i);
  record(ps, undo);
  for (const Placement& p : ps) {
    used_p_[p.server] += p.phi_p;
    used_n_[p.server] += p.phi_n;
    used_disk_[p.server] += c.disk;
    load_p_[p.server] += p.psi * c.lambda_pred * c.alpha_p;
    ++hosted_[p.server];
    mark_server_dirty(p.server);
  }
}

void ResidualView::resync_server(const Allocation& alloc, ServerId j) {
  const Allocation::ServerAgg& agg = alloc.server_[j];
  used_p_[j] = agg.phi_p;
  used_n_[j] = agg.phi_n;
  used_disk_[j] = agg.disk;
  load_p_[j] = agg.load_p;
  hosted_[j] = static_cast<int>(agg.clients.size());
  mark_server_dirty(j);
}

void ResidualView::restore(const Undo& undo) {
  for (const Undo::Entry& e : undo.entries) {
    used_p_[e.server] = e.used_p;
    used_n_[e.server] = e.used_n;
    used_disk_[e.server] = e.used_disk;
    load_p_[e.server] = e.load_p;
    hosted_[e.server] = e.hosted;
    mark_server_dirty(e.server);
  }
}

}  // namespace cloudalloc::model
