#include "fft/plan1d.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fft/codelets.hpp"
#include "fft/wisdom.hpp"

namespace hs::fft {

namespace {

// ---------------------------------------------------------------------------
// Thread-local scratch, one lease at a time. Leases must not nest: a lease
// taken while another is held could grow `storage` and leave the outer
// lease's pointer dangling, so a nested lease aborts. Nothing nests today —
// Bluestein's inner plans run out of place and take none, and
// execute_columns gathers Bluestein columns outside the arena.
// ---------------------------------------------------------------------------
struct ScratchArena {
  std::vector<Complex> storage;
  bool leased = false;
};

ScratchArena& tls_arena() {
  thread_local ScratchArena arena;
  return arena;
}

class ScratchLease {
 public:
  explicit ScratchLease(std::size_t count) : arena_(tls_arena()) {
    HS_ASSERT(!arena_.leased);
    arena_.leased = true;
    if (arena_.storage.size() < count) arena_.storage.resize(count);
    ptr_ = arena_.storage.data();
  }
  ~ScratchLease() { arena_.leased = false; }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Complex* get() { return ptr_; }

 private:
  ScratchArena& arena_;
  Complex* ptr_;
};

std::vector<int> prime_factors(std::size_t n) {
  std::vector<int> factors;
  for (int p = 2; static_cast<std::size_t>(p) * p <= n; ++p) {
    while (n % p == 0) {
      factors.push_back(p);
      n /= p;
    }
  }
  if (n > 1) factors.push_back(static_cast<int>(n));
  return factors;
}

double direction_sign(Direction dir) {
  return dir == Direction::kForward ? -1.0 : 1.0;
}

// ---------------------------------------------------------------------------
// Mixed-radix recursive DIT kernel over a fixed factor ordering.
// All nodes at recursion depth d share sub-size, radix, and twiddle tables,
// so the tables are precomputed per depth at plan time.
//
// L sequences run interleaved: element i of lane b sits at i * L + b, each
// level twiddle is stored L times over, and every butterfly runs over m * L
// columns. Each lane therefore executes exactly the L = 1 operation
// sequence, in every codelet tier and for every factor ordering.
// ---------------------------------------------------------------------------
template <std::size_t L>
struct SmoothPlan {
  std::size_t n = 0;
  Direction dir = Direction::kForward;
  const codelets::Set* cod = nullptr;  // butterfly codelets for the tier
  std::vector<int> factors;            // radix applied at each depth
  std::vector<std::size_t> subsize;    // transform size at each depth
  std::vector<std::vector<Complex>> level_tw;  // [depth][(j*m + k)*L + b]
                                               //   = W^(j*k*s)
  std::vector<std::vector<Complex>> radix_tw;  // [depth][j*r + q] = W_r^(j*q)

  void build(std::size_t size, Direction direction, std::vector<int> order,
             common::SimdTier tier) {
    n = size;
    dir = direction;
    cod = &codelets::set_for(tier);
    factors = std::move(order);
    const double sign = direction_sign(dir);
    const double theta = sign * 2.0 * std::numbers::pi / static_cast<double>(n);

    subsize.resize(factors.size() + 1);
    level_tw.resize(factors.size());
    radix_tw.resize(factors.size());
    std::size_t sub = n;
    for (std::size_t d = 0; d < factors.size(); ++d) {
      subsize[d] = sub;
      const int r = factors[d];
      const std::size_t m = sub / static_cast<std::size_t>(r);
      const std::size_t stride = n / sub;  // twiddle stride for this depth
      auto& tw = level_tw[d];
      tw.resize(static_cast<std::size_t>(r) * m * L);
      for (int j = 0; j < r; ++j) {
        for (std::size_t k = 0; k < m; ++k) {
          const auto t = static_cast<double>(
              (static_cast<std::uint64_t>(j) * k * stride) % n);
          std::fill_n(tw.begin() + (static_cast<std::size_t>(j) * m + k) * L,
                      L, Complex(std::cos(theta * t), std::sin(theta * t)));
        }
      }
      auto& wr = radix_tw[d];
      wr.resize(static_cast<std::size_t>(r) * static_cast<std::size_t>(r));
      const double theta_r = sign * 2.0 * std::numbers::pi / r;
      for (int j = 0; j < r; ++j) {
        for (int q = 0; q < r; ++q) {
          const int t = (j * q) % r;
          wr[static_cast<std::size_t>(j) * r + q] =
              Complex(std::cos(theta_r * t), std::sin(theta_r * t));
        }
      }
      sub = m;
    }
    subsize[factors.size()] = 1;
    HS_ASSERT(sub == 1);
  }

  // Input element i's L lanes are adjacent at in + i * stride; the output
  // is the interleaved size x L block at `out`.
  void run(const Complex* in, std::size_t stride, Complex* out,
           std::size_t depth) const {
    const std::size_t sub = subsize[depth];
    if (sub == 1) {
      std::copy_n(in, L, out);
      return;
    }
    const int r = factors[depth];
    const std::size_t m = sub / static_cast<std::size_t>(r);
    for (int j = 0; j < r; ++j) {
      run(in + static_cast<std::size_t>(j) * stride,
          stride * static_cast<std::size_t>(r),
          out + static_cast<std::size_t>(j) * m * L, depth + 1);
    }
    // Butterfly bodies live in fft/codelets.cpp (and its SIMD siblings);
    // every tier's codelet is bit-identical to the scalar reference, so the
    // tier choice affects speed only.
    const Complex* tw = level_tw[depth].data();
    const std::size_t cols = m * L;
    if (r == 2) {
      cod->bf2(out, tw, cols);
    } else if (r == 4) {
      cod->bf4(out, tw, cols, dir == Direction::kForward);
    } else {
      cod->bfr(out, tw, radix_tw[depth].data(), r, cols);
    }
  }
};

// Candidate factor orderings explored by the planner.
std::vector<std::vector<int>> candidate_orders(const std::vector<int>& primes,
                                               Rigor rigor) {
  // Merge pairs of 2s into 4s (radix-4 butterflies beat two radix-2 passes).
  std::vector<int> merged;
  int twos = 0;
  for (int p : primes) {
    if (p == 2) {
      ++twos;
    } else {
      merged.push_back(p);
    }
  }
  std::vector<int> with_fours;
  for (int i = 0; i + 1 < twos; i += 2) with_fours.push_back(4);
  if (twos % 2 == 1) with_fours.push_back(2);
  with_fours.insert(with_fours.end(), merged.begin(), merged.end());

  // Heuristic default: largest radix outermost — odd radices descending,
  // then the leftover 2, then the 4s. Depth d's butterflies run over
  // n / (r_0 * ... * r_d) columns, so the odd (costliest) radices get the
  // widest column runs and the vector codelet bodies instead of the scalar
  // tail that m = 1 falls to.
  std::vector<int> outermost(merged.rbegin(), merged.rend());
  if (twos % 2 == 1) outermost.push_back(2);
  for (int i = 0; i + 1 < twos; i += 2) outermost.push_back(4);

  std::vector<std::vector<int>> candidates;
  candidates.push_back(outermost);
  if (rigor == Rigor::kEstimate) return candidates;

  // Measured rigors also time the 4s-first, odd-ascending ordering, so a
  // measured plan is never slower than that ordering either.
  candidates.push_back(with_fours);

  // Pure radix-2 ordering (no merged fours).
  std::vector<int> pure;
  for (int i = 0; i < twos; ++i) pure.push_back(2);
  pure.insert(pure.end(), merged.begin(), merged.end());
  candidates.push_back(pure);

  if (rigor == Rigor::kPatient) {
    std::vector<int> desc = with_fours;
    std::sort(desc.begin(), desc.end(), std::greater<int>());
    candidates.push_back(desc);
    std::vector<int> asc = with_fours;
    std::sort(asc.begin(), asc.end());
    candidates.push_back(asc);
  }
  // Drop duplicates while preserving order.
  std::vector<std::vector<int>> unique;
  for (auto& c : candidates) {
    if (std::find(unique.begin(), unique.end(), c) == unique.end()) {
      unique.push_back(std::move(c));
    }
  }
  return unique;
}

}  // namespace

bool is_smooth(std::size_t n) {
  for (int p : prime_factors(n)) {
    if (p > kMaxDirectRadix) return false;
  }
  return true;
}

std::size_t next_smooth(std::size_t n) {
  auto is_7_smooth = [](std::size_t v) {
    for (int p : {2, 3, 5, 7}) {
      while (v % static_cast<std::size_t>(p) == 0) {
        v /= static_cast<std::size_t>(p);
      }
    }
    return v == 1;
  };
  while (!is_7_smooth(n)) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Bluestein chirp-z fallback for sizes with large prime factors.
// ---------------------------------------------------------------------------
struct BluesteinState {
  std::size_t n = 0;
  std::size_t m = 0;  // power-of-two convolution length >= 2n-1
  std::vector<Complex> chirp;      // c[k] = exp(sign*i*pi*k^2/n)
  std::vector<Complex> kernel_fft; // FFT_m of the wrapped conjugate chirp
  std::unique_ptr<Plan1d> fwd;
  std::unique_ptr<Plan1d> inv;

  void build(std::size_t size, Direction dir) {
    n = size;
    m = 1;
    while (m < 2 * n - 1) m <<= 1;
    const double sign = direction_sign(dir);
    chirp.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      // k^2 mod 2n keeps the phase argument small and exact.
      const auto k2 = static_cast<double>((static_cast<std::uint64_t>(k) * k) %
                                          (2 * n));
      const double phase = sign * std::numbers::pi * k2 / static_cast<double>(n);
      chirp[k] = Complex(std::cos(phase), std::sin(phase));
    }
    fwd = std::make_unique<Plan1d>(m, Direction::kForward, Rigor::kEstimate);
    inv = std::make_unique<Plan1d>(m, Direction::kInverse, Rigor::kEstimate);

    std::vector<Complex> b(m, Complex(0.0, 0.0));
    b[0] = std::conj(chirp[0]);
    for (std::size_t k = 1; k < n; ++k) {
      b[k] = std::conj(chirp[k]);
      b[m - k] = std::conj(chirp[k]);
    }
    kernel_fft.resize(m);
    fwd->execute(b.data(), kernel_fft.data());
  }

  // `out` may be `in`: every input element is read before any is written.
  void run(const Complex* in, Complex* out) const {
    ScratchLease lease(2 * m);
    Complex* a = lease.get();
    Complex* work = a + m;
    for (std::size_t k = 0; k < n; ++k) a[k] = in[k] * chirp[k];
    std::fill(a + n, a + m, Complex(0.0, 0.0));
    fwd->execute(a, work);
    for (std::size_t t = 0; t < m; ++t) work[t] *= kernel_fft[t];
    inv->execute(work, a);
    const double scale = 1.0 / static_cast<double>(m);
    for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * chirp[k] * scale;
  }
};

struct Plan1d::Impl {
  std::size_t n = 0;
  Direction dir = Direction::kForward;
  common::SimdTier tier = common::SimdTier::kScalar;
  bool bluestein = false;
  SmoothPlan<1> smooth;
  SmoothPlan<kLanes> lane;  // execute_columns' kernel, same ordering and tier
  std::unique_ptr<BluesteinState> blue;

  // Builds the smooth kernel and its lane kernel for one factor ordering
  // and tier.
  void build(std::vector<int> order, common::SimdTier t) {
    tier = t;
    lane.build(n, dir, order, t);
    smooth.build(n, dir, std::move(order), t);
  }
};

Plan1d::Plan1d(std::size_t n, Direction dir, Rigor rigor)
    : impl_(std::make_unique<Impl>()) {
  HS_REQUIRE(n >= 1, "FFT size must be positive");
  impl_->n = n;
  impl_->dir = dir;
  // Resolved once at plan time: a plan keeps its codelet tier for life, so
  // changing the forced dispatch affects future plans, not existing ones.
  const common::SimdTier active = common::active_tier();
  impl_->tier = active;
  if (n == 1) {
    impl_->build({}, active);
    return;
  }
  const std::vector<int> primes = prime_factors(n);
  if (primes.back() > kMaxDirectRadix) {
    // Bluestein's chirp loops stay scalar; its inner power-of-two plans are
    // ordinary Plan1d's and pick up the active tier themselves.
    impl_->bluestein = true;
    impl_->blue = std::make_unique<BluesteinState>();
    impl_->blue->build(n, dir);
    return;
  }
  // Wisdom short-circuits planning: a previously measured (or imported)
  // ordering is trusted without re-measuring, FFTW-style. A remembered tier
  // is clamped to the active one — wisdom measured on a wider machine (or
  // before a narrower forcing) must not override the user's dispatch cap.
  if (auto remembered = wisdom_lookup_entry(n, dir)) {
    common::SimdTier tier = active;
    if (remembered->tier != kTierUnspecified) {
      tier = std::min(static_cast<common::SimdTier>(remembered->tier), active);
    }
    impl_->build(std::move(remembered->factors), tier);
    return;
  }
  // kEstimate trusts the widest supported tier; measured rigors time every
  // (ordering, tier) combination the dispatch cap allows, FFTW-codelet
  // style, because the fastest tier is size-dependent (small depths are
  // tail-bound, large smooth sizes vectorize well).
  auto candidates = candidate_orders(primes, rigor);
  std::vector<common::SimdTier> tiers{active};
  if (rigor != Rigor::kEstimate) {
    tiers.clear();
    for (int t = 0; t <= static_cast<int>(active); ++t) {
      tiers.push_back(static_cast<common::SimdTier>(t));
    }
  }
  if (candidates.size() == 1 && tiers.size() == 1) {
    impl_->build(std::move(candidates[0]), tiers[0]);
    return;
  }
  // Measure each candidate on scratch data and keep the fastest.
  const int reps = rigor == Rigor::kPatient ? 7 : 3;
  std::vector<Complex> input(n), output(n);
  Rng rng(n * 1315423911ull);
  for (auto& v : input) v = Complex(rng.next_double(), rng.next_double());

  double best_time = 0.0;
  std::size_t best_index = 0;
  common::SimdTier best_tier = tiers.front();
  bool first = true;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    for (const common::SimdTier tier : tiers) {
      SmoothPlan<1> trial;
      trial.build(n, dir, candidates[c], tier);
      trial.run(input.data(), 1, output.data(), 0);  // warm-up
      const auto start = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        trial.run(input.data(), 1, output.data(), 0);
      }
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      if (first || elapsed < best_time) {
        best_time = elapsed;
        best_index = c;
        best_tier = tier;
        first = false;
      }
    }
  }
  // Remember the winner so future plans (and, via wisdom_save, future
  // processes) skip the measurement.
  wisdom_remember(n, dir, candidates[best_index], best_tier);
  impl_->build(std::move(candidates[best_index]), best_tier);
}

Plan1d::~Plan1d() = default;
Plan1d::Plan1d(Plan1d&&) noexcept = default;
Plan1d& Plan1d::operator=(Plan1d&&) noexcept = default;

void Plan1d::execute(const Complex* in, Complex* out) const {
  HS_ASSERT(in != out);
  if (impl_->bluestein) {
    impl_->blue->run(in, out);
  } else {
    impl_->smooth.run(in, 1, out, 0);
  }
}

void Plan1d::execute_inplace(Complex* data) const {
  if (impl_->bluestein) {
    impl_->blue->run(data, data);
    return;
  }
  ScratchLease lease(impl_->n);
  Complex* scratch = lease.get();
  std::copy(data, data + impl_->n, scratch);
  impl_->smooth.run(scratch, 1, data, 0);
}

void Plan1d::execute_columns(Complex* data, std::size_t cols) const {
  const std::size_t n = impl_->n;
  if (impl_->bluestein) {
    // Column by column, gathered outside the scratch arena: Bluestein's run
    // takes a lease of its own.
    std::vector<Complex> column(n);
    for (std::size_t c = 0; c < cols; ++c) {
      for (std::size_t i = 0; i < n; ++i) column[i] = data[i * cols + c];
      execute_inplace(column.data());
      for (std::size_t i = 0; i < n; ++i) data[i * cols + c] = column[i];
    }
    return;
  }
  // kLanes columns per run: the leaves read each row's kLanes adjacent
  // elements in place (stride `cols`) into the n x kLanes block, which is
  // copied back. The last partial block is gathered next to it with zero
  // lanes.
  const SmoothPlan<kLanes>& lane = impl_->lane;
  const std::size_t full = cols - cols % kLanes;
  const std::size_t tail = cols - full;
  ScratchLease lease(n * kLanes * (tail == 0 ? 1 : 2));
  Complex* block = lease.get();
  for (std::size_t c = 0; c < full; c += kLanes) {
    lane.run(data + c, cols, block, 0);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy_n(block + i * kLanes, kLanes, data + i * cols + c);
    }
  }
  if (tail == 0) return;
  Complex* gathered = block + n * kLanes;
  for (std::size_t i = 0; i < n; ++i) {
    Complex* dst = std::copy_n(data + i * cols + full, tail,
                               gathered + i * kLanes);
    std::fill_n(dst, kLanes - tail, Complex(0.0, 0.0));
  }
  lane.run(gathered, kLanes, block, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(block + i * kLanes, tail, data + i * cols + full);
  }
}

std::size_t Plan1d::size() const { return impl_->n; }
Direction Plan1d::direction() const { return impl_->dir; }
common::SimdTier Plan1d::simd_tier() const { return impl_->tier; }
bool Plan1d::uses_bluestein() const { return impl_->bluestein; }
const std::vector<int>& Plan1d::factors() const {
  return impl_->smooth.factors;
}

void normalize(Complex* data, std::size_t n) {
  const double scale = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) data[i] *= scale;
}

}  // namespace hs::fft
