// Per-node, per-message-class bandwidth accounting.
//
// Fig. 9 of the paper compares the *overhead* bandwidth of LØ, Flood,
// PeerReview and Narwhal, excluding transaction bodies (identical across
// protocols). Protocols therefore tag each payload with a message class; the
// experiment harness sums selected classes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lo::sim {

struct ClassStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class BandwidthAccountant {
 public:
  void reset(std::size_t node_count);

  // Grows the per-node table without clearing recorded data.
  void ensure_nodes(std::size_t node_count);

  void record(std::uint32_t from, const char* msg_class, std::size_t bytes);

  // Total bytes sent by one node (all classes).
  std::uint64_t sent_by(std::uint32_t node) const;
  // Totals across all nodes.
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  std::uint64_t total_messages() const noexcept { return total_messages_; }

  const std::map<std::string, ClassStats>& by_class() const noexcept {
    return by_class_;
  }

  // Sum of bytes over all classes except those listed (e.g. tx bodies).
  std::uint64_t bytes_excluding(const std::vector<std::string>& excluded) const;

 private:
  std::vector<std::uint64_t> per_node_bytes_;
  std::map<std::string, ClassStats> by_class_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_messages_ = 0;
};

}  // namespace lo::sim
