// Verification fast path caches (see DESIGN.md "verify fast path").
//
// Ed25519 verification is memoized in two tiers, both caching a pure
// function of the exact bytes involved, so neither can change any
// observable accept/reject decision:
//
//  * VerifyTier — one per simulation (harness::LoNetwork owns it and hands
//    it to every node), holding the work itself:
//      - verdicts: SHA-256("lo-vmemo" || pub || sig || msg) -> bool, so each
//        distinct (key, signature, message) triple costs one curve check
//        per simulation, however many nodes receive it;
//      - keys: encoded public key -> decompressed curve point
//        (PreparedPublicKey), so each key costs one field square root.
//
//  * VerifyCache — one per node, holding that node's view: a memo of the
//    same digests and an LRU of the keys it has seen. A real node would pay
//    one curve check per memo miss and one decompression per key miss, so
//    the node's verify_cache.* counters and kCacheProbe events keep
//    reporting that per-node cost; the work behind a miss is the tier's.
//
// Both accepts and rejects are memoized: a *mutated* duplicate (any flipped
// bit in key, signature or message) hashes to a different digest and takes
// the cold path, so a forgery can never ride a cached accept. Malformed keys
// are never stored in either tier; they re-reject cold every time.
//
// Every map is LRU-bounded. Iteration order of the backing unordered
// indices is never observed (lookups and a recency list only), so the
// caches are deterministic: same call sequence, same hits, same evictions.
//
// kSimFast signatures are a single keyed hash — as cheap as the memo lookup
// itself — so that mode bypasses both tiers entirely.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "crypto/ed25519.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lo::crypto {

namespace detail {

// A map of 32-byte keys holding at most `capacity` entries, evicting the
// least recently used one. Each key is stored once, in the index; the
// recency list holds pointers to the index's keys (element references of an
// unordered_map survive rehashing). Not copyable: a copy's list would point
// into the original's index.
template <class V>
class LruMap {
 public:
  using Key = std::array<std::uint8_t, 32>;

  explicit LruMap(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}
  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;

  // The value stored under `key`, now the most recently used; nullptr when
  // absent.
  V* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second.pos);
    return &it->second.value;
  }

  // Stores `value` under `key`, which must be absent, as the most recently
  // used entry; evicts the least recently used one when full.
  V& insert(const Key& key, V value) {
    if (index_.size() >= capacity_) {
      index_.erase(*order_.back());
      order_.pop_back();
    }
    const auto it = index_.emplace(key, Slot{std::move(value), {}}).first;
    order_.push_front(&it->first);
    it->second.pos = order_.begin();
    return it->second.value;
  }

  std::size_t size() const noexcept { return index_.size(); }

  void clear() noexcept {
    index_.clear();
    order_.clear();
  }

 private:
  // Keys are point encodings / SHA-256 outputs, already uniformly
  // distributed; the first 8 bytes make a fine hash.
  struct KeyHash {
    std::size_t operator()(const Key& a) const noexcept {
      std::uint64_t h = 0;
      for (int i = 7; i >= 0; --i) {
        h = (h << 8) | a[static_cast<std::size_t>(i)];
      }
      return static_cast<std::size_t>(h);
    }
  };
  using Order = std::list<const Key*>;  // front() = most recently used
  struct Slot {
    V value;
    typename Order::iterator pos;
  };

  std::size_t capacity_;
  Order order_;
  std::unordered_map<Key, Slot, KeyHash> index_;
};

}  // namespace detail

// The verdicts and decompressed keys of one simulation, shared by every
// node's VerifyCache. Single-threaded, like the simulator that owns it.
class VerifyTier {
 public:
  explicit VerifyTier(std::size_t key_capacity = kDefaultKeyCapacity,
                      std::size_t verdict_capacity = kDefaultVerdictCapacity)
      : keys_(key_capacity), verdicts_(verdict_capacity) {}

  // The verdict on (pub, msg, sig), whose VerifyCache memo key is
  // `memo_key`: stored, or computed by one ed25519_verify_prepared and
  // stored.
  bool verify(const Digest256& memo_key, const PublicKey& pub,
              std::span<const std::uint8_t> msg, const Signature& sig);

  // The decompressed point for `pub`, decompressing and storing it on a
  // miss; nullptr for a malformed key, which is never stored. Valid until
  // the tier's next verify() or prepared_key().
  const PreparedPublicKey* prepared_key(const PublicKey& pub);

  std::size_t key_count() const noexcept { return keys_.size(); }
  std::size_t verdict_count() const noexcept { return verdicts_.size(); }

  // At least 4x the working sets of the 100-node e2ebench runs (14,350
  // verdicts and 163 keys on honest_ed25519 seed 1); DESIGN.md §3c gives
  // the worst-case bytes.
  static constexpr std::size_t kDefaultKeyCapacity = 1024;
  static constexpr std::size_t kDefaultVerdictCapacity = 65536;

 private:
  detail::LruMap<PreparedPublicKey> keys_;
  detail::LruMap<bool> verdicts_;
};

struct VerifyCacheStats {
  std::uint64_t key_hits = 0;
  std::uint64_t key_misses = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;

  VerifyCacheStats& operator+=(const VerifyCacheStats& o) noexcept {
    key_hits += o.key_hits;
    key_misses += o.key_misses;
    memo_hits += o.memo_hits;
    memo_misses += o.memo_misses;
    return *this;
  }
};

class VerifyCache {
 public:
  // A standalone cache with a tier of its own; set_tier() shares one.
  explicit VerifyCache(std::size_t key_capacity = kDefaultKeyCapacity,
                       std::size_t memo_capacity = kDefaultMemoCapacity)
      : keys_(key_capacity),
        memo_(memo_capacity),
        tier_(std::make_shared<VerifyTier>()) {}

  // Drop-in replacement for Signer::verify: returns the same boolean on
  // every input, amortizing decompression and duplicate verifications.
  bool verify(SignatureMode mode, const PublicKey& pub,
              std::span<const std::uint8_t> msg, const Signature& sig);

  // Routes memo and key misses to `tier` (non-null), e.g. the one tier
  // every node of a simulation shares. Counters and entries are unchanged.
  void set_tier(std::shared_ptr<VerifyTier> tier) noexcept {
    tier_ = std::move(tier);
  }

  // The hit/miss counters live either in local storage (default) or, after
  // bind(), in a metrics registry (per-node labeled cells); this is a thin
  // read shim over the active cells so pre-registry callers keep compiling
  // unchanged.
  VerifyCacheStats stats() const noexcept {
    return VerifyCacheStats{key_hits(), key_misses(), memo_hits(),
                            memo_misses()};
  }
  std::size_t key_cache_size() const noexcept { return keys_.size(); }
  std::size_t memo_size() const noexcept { return memo_.size(); }

  // Repoints the stat counters at registry cells created through `scope`
  // (e.g. labeled {node=i}); current values carry over, so binding mid-run
  // loses nothing. The scope is stored so detached-scope storage stays
  // alive as long as the cache.
  void bind(obs::Scope scope);

  // Optional tracer: on each verify the cache emits a kCacheProbe event
  // (a = hit, b = tier: 0 key, 1 memo) attributed to `node`.
  void set_tracer(obs::Tracer* tracer, std::uint32_t node) noexcept {
    tracer_ = tracer;
    trace_node_ = node;
  }

  // Drops this cache's entries; counters and the tier are kept. Correctness
  // never requires calling this (entries are pure-function results), it
  // only frees memory.
  void clear();

  static constexpr std::size_t kDefaultKeyCapacity = 256;
  static constexpr std::size_t kDefaultMemoCapacity = 4096;

 private:
  struct Seen {};  // a key-LRU entry: the key alone, its point is the tier's

  // Counts and traces one probe (tier: 0 key, 1 memo).
  void probe(bool hit, std::uint64_t tier) noexcept;

  // Active counter cells: registry-bound when the pointer is set, local
  // otherwise.
  std::uint64_t& key_hits() const noexcept {
    return c_key_hits_ != nullptr ? *c_key_hits_ : local_stats_.key_hits;
  }
  std::uint64_t& key_misses() const noexcept {
    return c_key_misses_ != nullptr ? *c_key_misses_ : local_stats_.key_misses;
  }
  std::uint64_t& memo_hits() const noexcept {
    return c_memo_hits_ != nullptr ? *c_memo_hits_ : local_stats_.memo_hits;
  }
  std::uint64_t& memo_misses() const noexcept {
    return c_memo_misses_ != nullptr ? *c_memo_misses_
                                     : local_stats_.memo_misses;
  }

  detail::LruMap<Seen> keys_;
  detail::LruMap<bool> memo_;
  std::shared_ptr<VerifyTier> tier_;
  mutable VerifyCacheStats local_stats_;
  obs::Scope scope_;
  std::uint64_t* c_key_hits_ = nullptr;
  std::uint64_t* c_key_misses_ = nullptr;
  std::uint64_t* c_memo_hits_ = nullptr;
  std::uint64_t* c_memo_misses_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_node_ = 0;
};

}  // namespace lo::crypto
