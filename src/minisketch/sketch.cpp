#include "minisketch/sketch.hpp"

#include <stdexcept>

#include "gf/poly.hpp"
#include "obs/profile.hpp"

namespace lo::sketch {

Sketch::Sketch(unsigned bits, std::size_t capacity)
    : Sketch(gf::Field::get(bits), capacity) {}

Sketch::Sketch(const gf::Field& field, std::size_t capacity)
    : field_(&field), syndromes_(capacity, 0) {
  if (capacity == 0) throw std::invalid_argument("sketch capacity must be > 0");
}

std::uint64_t Sketch::add(std::uint64_t raw_item) {
  const std::uint64_t element = field_->map_nonzero(raw_item);
  add_element(element);
  return element;
}

void Sketch::add_element(std::uint64_t element) {
  // Incremental update: s_k += element^(2k+1). Uses p *= element^2 stepping.
  const gf::Field& f = *field_;
  const std::uint64_t e2 = f.sqr(element);
  std::uint64_t p = element;
  for (auto& s : syndromes_) {
    s ^= p;
    p = f.mul(p, e2);
  }
}

void Sketch::add_all(std::span<const std::uint64_t> raw_items) {
  obs::ScopedProfile prof(obs::ProfileSite::kSketchAddAll, raw_items.size());
  // Process items in blocks: the outer loop walks the syndromes once per
  // block while the inner loop advances kBlock independent power chains, so
  // the multiplies of different items overlap instead of each item waiting
  // out its own serial p *= e^2 chain.
  constexpr std::size_t kBlock = 8;
  const gf::Field& f = *field_;
  std::size_t i = 0;
  for (; i + kBlock <= raw_items.size(); i += kBlock) {
    std::uint64_t p[kBlock];
    std::uint64_t e2[kBlock];
    for (std::size_t j = 0; j < kBlock; ++j) {
      p[j] = f.map_nonzero(raw_items[i + j]);
      e2[j] = f.sqr(p[j]);
    }
    for (auto& s : syndromes_) {
      std::uint64_t acc = 0;
      for (std::size_t j = 0; j < kBlock; ++j) acc ^= p[j];
      s ^= acc;
      f.mul_many(p, e2, kBlock);
    }
  }
  for (; i < raw_items.size(); ++i) add(raw_items[i]);
}

void Sketch::merge(const Sketch& other) {
  if (other.bits() != bits() || other.capacity() != capacity()) {
    throw std::invalid_argument("sketch parameter mismatch");
  }
  for (std::size_t i = 0; i < syndromes_.size(); ++i) {
    syndromes_[i] ^= other.syndromes_[i];
  }
}

Sketch Sketch::truncated(std::size_t new_capacity) const {
  if (new_capacity == 0) {
    throw std::invalid_argument("sketch capacity must be > 0");
  }
  if (new_capacity >= syndromes_.size()) return *this;
  Sketch out(*field_, new_capacity);
  for (std::size_t i = 0; i < new_capacity; ++i) {
    out.syndromes_[i] = syndromes_[i];
  }
  return out;
}

bool Sketch::is_zero() const noexcept {
  for (auto s : syndromes_) {
    if (s != 0) return false;
  }
  return true;
}

void Sketch::clear() noexcept {
  for (auto& s : syndromes_) s = 0;
}

std::optional<std::vector<std::uint64_t>> Sketch::decode() const {
  // The sketch layer owns one Decoder per process: every decode entry point
  // (node reconciliation, consistency checks, the partitioned reconciler)
  // shares its warmed-up buffers, so steady-state decoding is allocation-free
  // apart from the returned vector.
  // lolint:allow(mutable-static) reason=scratch buffers only: each decode overwrites what it reads and seeds its root finder from the sketch, so no output depends on their contents; Decoder::clamp_workspace bounds their capacity
  static Decoder decoder;
  return decoder.decode(*this);
}

void Decoder::clamp_workspace(std::size_t capacity) {
  if (capacity > window_high_water_) window_high_water_ = capacity;
  if (++decodes_in_window_ < kClampWindow) return;
  // syn_ holds the expanded sequence S_1 .. S_2c, so a capacity-c request
  // needs 2c elements; the other buffers scale with c or smaller.
  const std::size_t needed = 2 * window_high_water_;
  if (syn_.capacity() > kClampSlack * needed) {
    std::vector<std::uint64_t>().swap(syn_);
    syn_.reserve(needed);
    gf::Poly().swap(recip_);
    std::vector<std::uint64_t>().swap(found_);
    std::vector<std::uint64_t>().swap(check_);
    bm_ = gf::BmWorkspace{};
    roots_ = gf::RootWorkspace{};
  }
  window_high_water_ = 0;
  decodes_in_window_ = 0;
}

std::optional<std::vector<std::uint64_t>> Decoder::decode(const Sketch& sk) {
  obs::ScopedProfile prof(obs::ProfileSite::kSketchDecode, sk.capacity());
  clamp_workspace(sk.capacity());
  if (sk.is_zero()) return std::vector<std::uint64_t>{};

  const gf::Field& field = sk.field();
  const auto& syndromes = sk.syndromes();
  const std::size_t c = syndromes.size();
  // Full syndrome sequence S_1 .. S_2c: odd entries are stored, even entries
  // derived via Frobenius (S_2j = S_j^2).
  syn_.assign(2 * c, 0);
  for (std::size_t k = 0; k < c; ++k) syn_[2 * k] = syndromes[k];  // S_{2k+1}
  for (std::size_t j = 1; 2 * j <= 2 * c; ++j) {
    syn_[2 * j - 1] = field.sqr(syn_[j - 1]);  // S_{2j} = S_j^2
  }

  const gf::Poly& locator = gf::berlekamp_massey(field, syn_, bm_);
  const int t = gf::poly_deg(locator);
  if (t <= 0 || static_cast<std::size_t>(t) > c) return std::nullopt;

  // The locator is Lambda(x) = prod (1 - X_i x); its reciprocal
  // x^t Lambda(1/x) = prod (x - X_i) has the difference elements as roots.
  recip_.assign(locator.rbegin(), locator.rend());
  gf::poly_trim(recip_);
  if (gf::poly_deg(recip_) != t) {
    // Lambda had a zero constant term — impossible for a valid locator.
    return std::nullopt;
  }

  // Deterministic root finding seeded from the syndromes for reproducibility.
  std::uint64_t seed = 0x5eed;
  for (auto v : syndromes) seed = seed * 0x100000001b3ULL ^ v;
  if (!gf::find_roots_ws(field, recip_, seed, roots_, found_)) {
    return std::nullopt;
  }

  // Overflow detection: verify that the recovered set reproduces all stored
  // syndromes. (When |diff| > capacity BM can still emit a degree-<=c
  // polynomial; this check rejects such spurious decodes.)
  for (auto r : found_) {
    if (r == 0) return std::nullopt;
  }
  check_.assign(c, 0);
  constexpr std::size_t kBlock = 8;
  std::size_t r = 0;
  for (; r + kBlock <= found_.size(); r += kBlock) {
    std::uint64_t p[kBlock];
    std::uint64_t e2[kBlock];
    for (std::size_t j = 0; j < kBlock; ++j) {
      p[j] = found_[r + j];
      e2[j] = field.sqr(p[j]);
    }
    for (auto& s : check_) {
      std::uint64_t acc = 0;
      for (std::size_t j = 0; j < kBlock; ++j) acc ^= p[j];
      s ^= acc;
      field.mul_many(p, e2, kBlock);
    }
  }
  for (; r < found_.size(); ++r) {
    const std::uint64_t e2 = field.sqr(found_[r]);
    std::uint64_t p = found_[r];
    for (auto& s : check_) {
      s ^= p;
      p = field.mul(p, e2);
    }
  }
  for (std::size_t i = 0; i < c; ++i) {
    if (check_[i] != syndromes[i]) return std::nullopt;
  }
  return std::vector<std::uint64_t>(found_.begin(), found_.end());
}

std::size_t Sketch::serialized_size() const noexcept {
  const std::size_t bytes_per = (field_->bits() + 7) / 8;
  return syndromes_.size() * bytes_per;
}

std::vector<std::uint8_t> Sketch::serialize() const {
  const std::size_t bytes_per = (field_->bits() + 7) / 8;
  std::vector<std::uint8_t> out;
  out.reserve(serialized_size());
  for (auto s : syndromes_) {
    for (std::size_t b = 0; b < bytes_per; ++b) {
      out.push_back(static_cast<std::uint8_t>(s >> (8 * b)));
    }
  }
  return out;
}

Sketch Sketch::deserialize(unsigned bits, std::size_t capacity,
                           std::span<const std::uint8_t> data) {
  Sketch sk(bits, capacity);
  const std::size_t bytes_per = (bits + 7) / 8;
  if (data.size() != capacity * bytes_per) {
    throw std::invalid_argument("sketch byte length mismatch");
  }
  for (std::size_t i = 0; i < capacity; ++i) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < bytes_per; ++b) {
      v |= static_cast<std::uint64_t>(data[i * bytes_per + b]) << (8 * b);
    }
    sk.syndromes_[i] = v;
  }
  return sk;
}

}  // namespace lo::sketch
