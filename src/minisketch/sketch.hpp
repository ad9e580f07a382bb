// PinSketch set sketches (Dodis et al. [15], Naumenko et al. "Erlay" /
// Minisketch [29]) — the commitment and reconciliation codec of LØ (Sec. 4.2).
//
// A sketch of capacity c over GF(2^m) is the vector of odd power sums
//   s_k = sum_{x in S} x^(2k+1),   k = 0 .. c-1.
// XOR of two sketches is the sketch of the symmetric difference, which can be
// decoded as long as |A △ B| <= c. Decoding reconstructs the even syndromes
// via the Frobenius identity s_2j = s_j^2, runs Berlekamp–Massey to find the
// locator polynomial, and recovers the difference as the locator's roots.
//
// Sketches reference shared immutable Field instances (Field::get), so a
// sketch is just its syndrome vector: copies are cheap and the ~17 KB of
// field tables are built once per process. Decoding goes through a reusable
// Decoder workspace; Sketch::decode() uses one sketch-layer instance per
// process, so steady-state decodes are allocation-free apart from the result
// vector.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gf/berlekamp_massey.hpp"
#include "gf/gf2m.hpp"
#include "gf/root_find.hpp"

namespace lo::sketch {

class Sketch {
 public:
  // capacity = maximum recoverable symmetric-difference size; bits = field
  // size m (elements are nonzero m-bit values). The field comes from the
  // shared Field::get(bits) registry.
  Sketch(unsigned bits, std::size_t capacity);

  // Same, over an explicit field (e.g. Field::get_reference(m) for
  // differential tests and before/after benches). `field` must outlive the
  // sketch and every copy of it; registry instances always do.
  Sketch(const gf::Field& field, std::size_t capacity);

  unsigned bits() const noexcept { return field_->bits(); }
  std::size_t capacity() const noexcept { return syndromes_.size(); }

  // Adds (or, by the XOR structure, removes) a raw 64-bit item; the item is
  // hashed into a nonzero field element via Field::map_nonzero. Returns the
  // mapped element so callers indexing by element (preimage maps, resolve
  // tables) don't recompute the map — a 64-bit division — per item.
  std::uint64_t add(std::uint64_t raw_item);

  // Adds an element that is already a nonzero field element.
  void add_element(std::uint64_t element);

  // Batched add: one pass over the syndromes per block of items, with the
  // per-item power chains interleaved so the field multiplies pipeline
  // instead of serializing on one chain's latency.
  void add_all(std::span<const std::uint64_t> raw_items);

  // Combines with another sketch of identical parameters: the result encodes
  // the symmetric difference of the two underlying sets.
  void merge(const Sketch& other);

  // PinSketch sketches are prefix-truncatable: the first k syndromes of a
  // capacity-c sketch ARE the capacity-k sketch of the same set. This lets a
  // node maintain one large sketch and transmit only as many syndromes as
  // the estimated set difference requires — the key to LØ's bandwidth
  // efficiency (Sec. 6.4). new_capacity > capacity() keeps the original;
  // new_capacity == 0 throws, matching the constructor.
  Sketch truncated(std::size_t new_capacity) const;

  // Decodes the set difference. Returns the elements if at most `capacity`
  // differences exist (with overwhelming probability detects overflow and
  // returns nullopt instead of garbage).
  std::optional<std::vector<std::uint64_t>> decode() const;

  bool is_zero() const noexcept;
  void clear() noexcept;

  // Wire format: capacity * ceil(bits/8) bytes, little-endian per syndrome.
  std::size_t serialized_size() const noexcept;
  std::vector<std::uint8_t> serialize() const;
  static Sketch deserialize(unsigned bits, std::size_t capacity,
                            std::span<const std::uint8_t> data);

  const std::vector<std::uint64_t>& syndromes() const noexcept { return syndromes_; }
  const gf::Field& field() const noexcept { return *field_; }

 private:
  const gf::Field* field_;  // shared immutable instance, never null
  std::vector<std::uint64_t> syndromes_;
};

// Reusable decode workspace: full-syndrome expansion, Berlekamp–Massey
// buffers, root-finder workspace and the overflow-check syndromes all keep
// their capacity between calls. decode() results are identical to
// Sketch::decode() — which delegates to the sketch layer's Decoder — byte for
// byte; owning one explicitly just pins the buffer reuse to a call site.
class Decoder {
 public:
  std::optional<std::vector<std::uint64_t>> decode(const Sketch& s);

  // Retained capacity of the syndrome-expansion buffer (elements). The
  // high-water clamp keys on it and releases every buffer with it,
  // including the root finder's square-mod table (about c^2/2 elements for
  // a capacity-c locator); exposed so the clamp behavior is testable.
  std::size_t workspace_capacity() const noexcept { return syn_.capacity(); }

 private:
  // One oversized decode (e.g. a full-capacity partitioned escalation) must
  // not pin its peak allocation for the life of the sketch layer's decoder:
  // every kClampWindow decodes, if the retained buffers exceed kClampSlack
  // times what the window's largest request needed, the workspace is
  // released back down to that high-water mark.
  static constexpr std::size_t kClampWindow = 64;
  static constexpr std::size_t kClampSlack = 4;
  void clamp_workspace(std::size_t capacity);

  std::vector<std::uint64_t> syn_;    // S_1 .. S_2c (odd stored, even derived)
  gf::BmWorkspace bm_;
  gf::Poly recip_;                    // reciprocal locator
  gf::RootWorkspace roots_;
  std::vector<std::uint64_t> found_;  // roots scratch
  std::vector<std::uint64_t> check_;  // recomputed syndromes (overflow check)
  std::size_t window_high_water_ = 0;  // largest capacity seen this window
  std::size_t decodes_in_window_ = 0;
};

}  // namespace lo::sketch
