// Transactions (Sec. 2.3, Stage I).
//
// A transaction is created and signed by a client; miners prevalidate it
// (signature, fee threshold) before admitting it to the mempool. The paper
// fixes the wire size at 250 bytes; the body is padded accordingly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "crypto/keys.hpp"
#include "util/serde.hpp"

namespace lo::crypto {
class VerifyCache;
}

namespace lo::core {

// Serialized size target from the paper's evaluation setup (Sec. 6.1).
inline constexpr std::size_t kTxWireSize = 250;

struct Transaction {
  TxId id{};                      // SHA-256 over the signed fields
  crypto::PublicKey creator{};    // client public key
  std::uint64_t nonce = 0;
  std::uint64_t fee = 0;          // smallest fee unit; drives Highest-Fee baseline
  std::int64_t created_at = 0;    // client-side creation time (simulated us)
  std::vector<std::uint8_t> body; // opaque payload, padded to kTxWireSize
  crypto::Signature sig{};        // client signature over the signed fields

  std::size_t wire_size() const noexcept;
  std::vector<std::uint8_t> serialize() const;
  static Transaction deserialize(std::span<const std::uint8_t> data);
  // Stream variants for embedding in larger messages (self-describing body).
  void write(util::Writer& w) const;
  static Transaction read(util::Reader& r);

  // Bytes covered by the client signature (everything except id and sig).
  std::vector<std::uint8_t> signing_bytes() const;
  // Recomputes the id from the current field values.
  TxId compute_id() const;
};

// Creates a signed transaction whose wire size is exactly kTxWireSize.
Transaction make_transaction(const crypto::Signer& client, std::uint64_t nonce,
                             std::uint64_t fee, std::int64_t created_at);

// Stage I / II prevalidation: id integrity, client signature, fee threshold.
struct PrevalidationPolicy {
  std::uint64_t min_fee = 1;
  crypto::SignatureMode sig_mode = crypto::SignatureMode::kEd25519;
};

// `cache` (optional) memoizes signature checks so duplicate deliveries of the
// same transaction skip the curve arithmetic; results are identical.
bool prevalidate(const Transaction& tx, const PrevalidationPolicy& policy,
                 crypto::VerifyCache* cache = nullptr);

}  // namespace lo::core
