// SWIM failure-detector unit tests: probe/ack cycles, suspicion, refutation
// and confirmation precedence, the indirect ping-req relay path, piggybacked
// dissemination — plus the SREP-style adaptive reconciler (estimate-sized
// sketches with splitter fallback) and the LoConfig fail-fast validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/config.hpp"
#include "core/node.hpp"
#include "crypto/keys.hpp"
#include "membership/messages.hpp"
#include "membership/swim.hpp"
#include "minisketch/partitioned.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace lo::membership {
namespace {

// Deterministic single-detector host: captures sends, runs injected timers in
// (due, insertion) order against a manual clock — the same contract the
// simulator's schedule_for provides, minus the network.
struct TestHost {
  struct Outgoing {
    sim::NodeId to;
    sim::PayloadPtr msg;
  };
  struct Timer {
    std::uint64_t due;
    std::uint64_t seq;
    std::function<void()> fn;
  };

  std::vector<Outgoing> outbox;
  std::vector<Timer> timers;
  std::uint64_t now = 0;
  std::uint64_t next_timer = 0;
  util::Rng rng{0x5eed};
  std::vector<std::pair<sim::NodeId, MemberState>> transitions;
  std::uint64_t incarnation_seen = 0;

  SwimDetector::Callbacks callbacks() {
    SwimDetector::Callbacks cb;
    cb.send = [this](sim::NodeId to, sim::PayloadPtr msg) {
      outbox.push_back({to, std::move(msg)});
    };
    cb.timer = [this](sim::Duration delay, std::function<void()> fn) {
      timers.push_back(
          {now + static_cast<std::uint64_t>(delay), next_timer++, std::move(fn)});
    };
    cb.rand_below = [this](std::uint64_t bound) { return rng.next_below(bound); };
    cb.on_state = [this](sim::NodeId node, MemberState state, std::uint64_t) {
      transitions.emplace_back(node, state);
    };
    cb.on_incarnation = [this](std::uint64_t inc) { incarnation_seen = inc; };
    return cb;
  }

  // Advances the clock, firing every due timer in deterministic order.
  void advance_to(std::uint64_t t) {
    while (true) {
      std::size_t best = timers.size();
      for (std::size_t i = 0; i < timers.size(); ++i) {
        if (timers[i].due > t) continue;
        if (best == timers.size() || timers[i].due < timers[best].due ||
            (timers[i].due == timers[best].due &&
             timers[i].seq < timers[best].seq)) {
          best = i;
        }
      }
      if (best == timers.size()) break;
      Timer fired = std::move(timers[best]);
      timers.erase(timers.begin() + static_cast<std::ptrdiff_t>(best));
      now = fired.due;
      fired.fn();
    }
    now = t;
  }

  template <typename T>
  std::vector<const T*> sent() const {
    std::vector<const T*> out;
    for (const auto& o : outbox) {
      if (const auto* m = dynamic_cast<const T*>(o.msg.get())) out.push_back(m);
    }
    return out;
  }
};

MembershipConfig fast_cfg() {
  MembershipConfig cfg;
  cfg.enabled = true;
  cfg.protocol_period = 1000;  // 1 ms in sim units — irrelevant, just spacing
  cfg.ping_timeout = 300;
  cfg.indirect_fanout = 2;
  cfg.suspicion_periods = 3;
  return cfg;
}

TEST(Swim, UnansweredProbeSuspectsThenConfirms) {
  TestHost host;
  SwimDetector det(1, fast_cfg(), host.callbacks());
  det.set_members({1, 2});  // self is filtered; one probe target
  det.start(0);

  // One full period: the ping goes out, nothing answers, period-end
  // evaluation suspects node 2 at its current incarnation.
  host.advance_to(2100);
  ASSERT_FALSE(host.sent<PingMsg>().empty());
  EXPECT_EQ(det.state_of(2), MemberState::kSuspect);
  EXPECT_FALSE(det.presumed_live(2));
  EXPECT_FALSE(det.confirmed_faulty(2));

  // Unrefuted suspicion crosses the deadline into confirmed.
  host.advance_to(2100 + 3 * 1000 + 1);
  EXPECT_EQ(det.state_of(2), MemberState::kConfirmed);
  EXPECT_TRUE(det.confirmed_faulty(2));
}

TEST(Swim, AckedProbeStaysAlive) {
  TestHost host;
  SwimDetector det(1, fast_cfg(), host.callbacks());
  det.set_members({2});
  det.start(0);
  host.advance_to(1050);  // phase < period, so the first tick has run
  auto pings = host.sent<PingMsg>();
  ASSERT_FALSE(pings.empty());

  auto ack = PingAckMsg{};
  ack.seq = pings.back()->seq;
  ack.target = 2;
  det.on_ping_ack(2, ack);

  host.advance_to(10'000);  // several more periods; each round is re-acked
  // Without further acks later probes suspect again, so only assert the
  // state right after the acked round:
  TestHost host2;
  SwimDetector det2(1, fast_cfg(), host2.callbacks());
  det2.set_members({2});
  det2.start(0);
  host2.advance_to(1050);
  auto p2 = host2.sent<PingMsg>();
  ASSERT_FALSE(p2.empty());
  PingAckMsg a2;
  a2.seq = p2.back()->seq;
  a2.target = 2;
  det2.on_ping_ack(2, a2);
  host2.advance_to(2100);  // period-end evaluation of the acked probe
  EXPECT_EQ(det2.state_of(2), MemberState::kAlive);
  EXPECT_TRUE(det2.presumed_live(2));
}

TEST(Swim, DirectTimeoutFansOutPingReqs) {
  TestHost host;
  SwimDetector det(1, fast_cfg(), host.callbacks());
  det.set_members({2, 3, 4, 5});
  det.start(0);
  // Run until the first direct timeout has certainly fired (phase < period,
  // timeout 300 after the ping) but stop before period end.
  host.advance_to(1350);
  const auto reqs = host.sent<PingReqMsg>();
  ASSERT_EQ(reqs.size(), 2u);  // indirect_fanout = 2
  const auto pings = host.sent<PingMsg>();
  ASSERT_FALSE(pings.empty());
  for (const auto* r : reqs) {
    EXPECT_EQ(r->seq, pings.front()->seq);
    EXPECT_NE(r->target, 1u);  // never asks to probe ourselves
  }
}

TEST(Swim, ProxyRelayMasksLossyDirectLink) {
  // A probes T; the direct path is dead but proxy P can reach T. The ack must
  // travel T -> P -> A and clear the probe before period-end evaluation.
  TestHost ha, hp, ht;
  SwimDetector a(1, fast_cfg(), ha.callbacks());
  SwimDetector p(2, fast_cfg(), hp.callbacks());
  SwimDetector t(3, fast_cfg(), ht.callbacks());
  a.set_members({2, 3});
  p.set_members({1, 3});
  t.set_members({1, 2});
  a.start(0);

  // Drive A to its direct timeout; drop the direct ping entirely.
  ha.advance_to(1350);
  auto reqs = ha.sent<PingReqMsg>();
  // A's rotation might probe P (which we would have to ignore); find the
  // round that probed T by matching ping targets.
  std::uint64_t seq = 0;
  sim::NodeId proxy = 0;
  bool found = false;
  for (const auto& o : ha.outbox) {
    if (const auto* r = dynamic_cast<const PingReqMsg*>(o.msg.get())) {
      if (r->target == 3) {
        seq = r->seq;
        proxy = o.to;
        found = true;
        break;
      }
    }
  }
  if (!found) {
    // First rotation slot went to P instead; advance one more period so T is
    // probed (round-robin guarantees it within two periods here).
    ha.advance_to(2350);
    for (const auto& o : ha.outbox) {
      if (const auto* r = dynamic_cast<const PingReqMsg*>(o.msg.get())) {
        if (r->target == 3) {
          seq = r->seq;
          proxy = o.to;
          found = true;
          break;
        }
      }
    }
  }
  ASSERT_TRUE(found);
  ASSERT_EQ(proxy, 2u);

  // Deliver the ping-req to P; P pings T.
  PingReqMsg req;
  req.seq = seq;
  req.target = 3;
  p.on_ping_req(1, req);
  auto ppings = hp.sent<PingMsg>();
  ASSERT_EQ(ppings.size(), 1u);

  // T answers P; P relays the ack to A.
  PingMsg tp;
  tp.seq = ppings.back()->seq;
  t.on_ping(2, tp);
  auto tacks = ht.sent<PingAckMsg>();
  ASSERT_EQ(tacks.size(), 1u);
  EXPECT_EQ(tacks.back()->target, 3u);
  p.on_ping_ack(3, *tacks.back());
  ASSERT_FALSE(hp.sent<PingAckMsg>().empty());
  const auto* relayed = hp.sent<PingAckMsg>().back();
  EXPECT_EQ(relayed->seq, seq);
  EXPECT_EQ(relayed->target, 3u);
  a.on_ping_ack(2, *relayed);

  // Period-end evaluation: the indirect ack saved T from suspicion.
  ha.advance_to(ha.now + 2000);
  EXPECT_EQ(a.state_of(3), MemberState::kAlive);
}

TEST(Swim, RefutationCancelsSuspicionDeadline) {
  TestHost host;
  SwimDetector det(1, fast_cfg(), host.callbacks());
  det.set_members({2});
  // Deliberately no start(): the probe loop would keep re-suspecting the
  // ack-less peer; here we only exercise the deadline/token machinery.
  det.apply_update({2, MemberState::kSuspect, 0});
  ASSERT_EQ(det.state_of(2), MemberState::kSuspect);
  // The member refutes with a bumped incarnation before the deadline.
  det.apply_update({2, MemberState::kAlive, 1});
  EXPECT_EQ(det.state_of(2), MemberState::kAlive);
  // The stale deadline timer must not confirm (token guard).
  host.advance_to(100'000);
  EXPECT_NE(det.state_of(2), MemberState::kConfirmed);
  EXPECT_EQ(det.incarnation_of(2), 1u);
}

TEST(Swim, PrecedenceRules) {
  TestHost host;
  SwimDetector det(1, fast_cfg(), host.callbacks());
  det.set_members({2});
  det.start(0);

  // Equal-incarnation alive does not downgrade an existing suspicion.
  det.apply_update({2, MemberState::kSuspect, 0});
  det.apply_update({2, MemberState::kAlive, 0});
  EXPECT_EQ(det.state_of(2), MemberState::kSuspect);

  // Confirm at the same incarnation beats suspect; nothing at the same
  // incarnation beats confirm.
  det.apply_update({2, MemberState::kConfirmed, 0});
  EXPECT_EQ(det.state_of(2), MemberState::kConfirmed);
  det.apply_update({2, MemberState::kSuspect, 0});
  det.apply_update({2, MemberState::kAlive, 0});
  EXPECT_EQ(det.state_of(2), MemberState::kConfirmed);

  // The rejoin path: alive with a strictly higher incarnation overrides even
  // confirmed (the restarted node's durable counter only grows).
  det.apply_update({2, MemberState::kAlive, 1});
  EXPECT_EQ(det.state_of(2), MemberState::kAlive);
  EXPECT_EQ(det.incarnation_of(2), 1u);
}

TEST(Swim, SelfSuspicionRefutesByIncarnationBump) {
  TestHost host;
  SwimDetector det(7, fast_cfg(), host.callbacks());
  det.set_members({1, 2});
  det.start(4);  // durable incarnation from an earlier life
  EXPECT_EQ(det.own_incarnation(), 4u);
  det.apply_update({7, MemberState::kSuspect, 4});
  EXPECT_EQ(det.own_incarnation(), 5u);
  EXPECT_EQ(host.incarnation_seen, 5u);  // host persists the bump
  // A stale rumor about an older incarnation does not bump again.
  det.apply_update({7, MemberState::kSuspect, 3});
  EXPECT_EQ(det.own_incarnation(), 5u);
}

TEST(Swim, GossipRidesOnProbesFreshestFirst) {
  TestHost host;
  auto cfg = fast_cfg();
  cfg.gossip_updates = 2;
  SwimDetector det(1, cfg, host.callbacks());
  det.set_members({2, 3, 4});
  det.start(0);
  det.apply_update({3, MemberState::kSuspect, 0});
  host.advance_to(1050);
  const auto pings = host.sent<PingMsg>();
  ASSERT_FALSE(pings.empty());
  const auto& gossip = pings.back()->gossip;
  ASSERT_LE(gossip.size(), 2u);
  ASSERT_FALSE(gossip.empty());
  // Both the self-alive announcement and the fresher suspicion are pending;
  // the budgeted selection must carry the suspicion.
  const bool carries_suspicion =
      std::any_of(gossip.begin(), gossip.end(), [](const MemberUpdate& u) {
        return u.node == 3 && u.state == MemberState::kSuspect;
      });
  EXPECT_TRUE(carries_suspicion);
}

TEST(Swim, PiggybackBudgetExhausts) {
  TestHost host;
  auto cfg = fast_cfg();
  cfg.retransmit_multiplier = 1;
  SwimDetector det(1, cfg, host.callbacks());
  det.set_members({2});
  det.start(0);
  ASSERT_FALSE(host.timers.empty());
  const std::uint64_t phase = host.timers.front().due;
  // n = 1 member: budget = max(1, 1 * ceil_log2(3)) = 2 piggybacks total per
  // update. Ack every probe (so the peer stays alive and keeps being probed)
  // and watch the self-alive announcement fall off the queue.
  std::size_t acked = 0;
  for (int k = 0; k < 6; ++k) {
    host.advance_to(phase + static_cast<std::uint64_t>(k) * 1000 + 100);
    const auto pings = host.sent<PingMsg>();
    for (; acked < pings.size(); ++acked) {
      PingAckMsg ack;
      ack.seq = pings[acked]->seq;
      ack.target = 2;
      det.on_ping_ack(2, ack);
    }
  }
  const auto pings = host.sent<PingMsg>();
  ASSERT_GE(pings.size(), 5u);
  EXPECT_FALSE(pings.front()->gossip.empty());  // carried while budgeted
  EXPECT_TRUE(pings.back()->gossip.empty());    // budget exhausted
}

// ------------------------------------------------------- wire roundtrips ----

TEST(SwimWire, PingRoundTripAndSize) {
  PingMsg m;
  m.seq = 0x0123456789abcdefULL;
  m.gossip = {{9, MemberState::kSuspect, 3}, {11, MemberState::kAlive, 0}};
  const auto bytes = m.serialize();
  EXPECT_EQ(bytes.size(), m.wire_size());
  const auto back = PingMsg::deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, m.seq);
  EXPECT_EQ(back->gossip, m.gossip);
}

TEST(SwimWire, AckAndPingReqRoundTrip) {
  PingAckMsg a;
  a.seq = 42;
  a.target = 17;
  a.gossip = {{2, MemberState::kConfirmed, 7}};
  const auto ab = a.serialize();
  EXPECT_EQ(ab.size(), a.wire_size());
  const auto a2 = PingAckMsg::deserialize(ab);
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a2->target, 17u);
  EXPECT_EQ(a2->gossip, a.gossip);

  PingReqMsg r;
  r.seq = 43;
  r.target = 23;
  const auto rb = r.serialize();
  EXPECT_EQ(rb.size(), r.wire_size());
  const auto r2 = PingReqMsg::deserialize(rb);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->target, 23u);
}

TEST(SwimWire, RejectsUnknownStateByte) {
  PingMsg m;
  m.seq = 1;
  m.gossip = {{2, MemberState::kAlive, 0}};
  auto bytes = m.serialize();
  // The state byte of the single update lives right after seq (8), count (4)
  // and node id (4).
  bytes[8 + 4 + 4] = 3;
  EXPECT_FALSE(PingMsg::deserialize(bytes).has_value());
  // Truncation must also fail cleanly.
  bytes.pop_back();
  bytes.back() = 0;
  EXPECT_FALSE(PingMsg::deserialize(bytes).has_value());
}

}  // namespace
}  // namespace lo::membership

// ---------------------------------------------------- adaptive reconciler ----

namespace lo::sketch {
namespace {

std::vector<std::uint64_t> make_range(std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t v = lo; v < hi; ++v) out.push_back(v * 0x9e3779b9ULL + 1);
  return out;
}

TEST(AdaptiveCapacity, ClampsToBounds) {
  EXPECT_EQ(adaptive_capacity(0, 128), 8u);       // floor
  EXPECT_EQ(adaptive_capacity(1, 128), 8u);       // 2*1+4 < 8
  EXPECT_EQ(adaptive_capacity(10, 128), 24u);     // 2*10+4
  EXPECT_EQ(adaptive_capacity(1000, 128), 128u);  // ceiling
}

TEST(AdaptiveReconciler, MatchesPartitionedOracleAcrossEstimates) {
  // The recovered symmetric difference must be identical to the fixed-
  // capacity oracle for ANY estimate — correctness never rides on sizing.
  auto shared = make_range(0, 300);
  auto only_a = make_range(1000, 1020);
  auto only_b = make_range(2000, 2015);
  auto a = shared;
  a.insert(a.end(), only_a.begin(), only_a.end());
  auto b = shared;
  b.insert(b.end(), only_b.begin(), only_b.end());

  PartitionedReconciler oracle(32, 256);
  auto want = oracle.reconcile(a, b);
  ASSERT_TRUE(want.has_value());
  std::sort(want->begin(), want->end());
  ASSERT_EQ(want->size(), only_a.size() + only_b.size());

  AdaptiveReconciler adaptive(32, 256);
  for (std::size_t est : {std::size_t{0}, std::size_t{4}, std::size_t{35},
                          std::size_t{500}}) {
    ReconcileStats st;
    auto got = adaptive.reconcile(a, b, est, &st);
    ASSERT_TRUE(got.has_value()) << "estimate " << est;
    std::sort(got->begin(), got->end());
    EXPECT_EQ(*got, *want) << "estimate " << est;
  }
}

TEST(AdaptiveReconciler, GoodEstimateSpendsFewerBytesThanFixed) {
  auto shared = make_range(0, 200);
  auto only_a = make_range(5000, 5003);  // diff of 6 total
  auto only_b = make_range(6000, 6003);
  auto a = shared;
  a.insert(a.end(), only_a.begin(), only_a.end());
  auto b = shared;
  b.insert(b.end(), only_b.begin(), only_b.end());

  ReconcileStats fixed_st;
  PartitionedReconciler fixed(32, 128);
  ASSERT_TRUE(fixed.reconcile(a, b, &fixed_st).has_value());

  ReconcileStats ad_st;
  AdaptiveReconciler adaptive(32, 128);
  ASSERT_TRUE(adaptive.reconcile(a, b, 6, &ad_st).has_value());

  EXPECT_LT(ad_st.bytes, fixed_st.bytes);
  EXPECT_EQ(ad_st.decode_failures, 0u);
  EXPECT_EQ(ad_st.sketches_used, 2u);  // one per side, single round
}

TEST(AdaptiveReconciler, ShardedEstimatesShrinkSketchBytes) {
  // The global-estimate capacity clamp (ISSUE 9 satellite): one estimate for
  // the whole difference saturates at max_capacity, the decode fails and the
  // splitter burns bytes. k shards each carry ~1/k of the difference, so the
  // per-shard estimates size k small sketches that all decode first try —
  // total syndrome bytes must strictly shrink, and nothing may fall back.
  auto only_a = make_range(100, 150);  // 100-element symmetric difference,
  auto only_b = make_range(300, 350);  // far beyond max_capacity = 64
  auto shared = make_range(10000, 10200);
  auto a = shared;
  a.insert(a.end(), only_a.begin(), only_a.end());
  auto b = shared;
  b.insert(b.end(), only_b.begin(), only_b.end());

  AdaptiveReconciler adaptive(32, 64);
  ReconcileStats global_st;
  auto global = adaptive.reconcile(a, b, 100, &global_st);
  ASSERT_TRUE(global.has_value());
  EXPECT_GE(global_st.decode_failures, 1u) << "clamped global sketch decodes?";

  const auto shard_of = [](std::uint64_t raw) {
    return static_cast<std::uint32_t>(raw % 4);
  };
  // Each shard sees ~25 of the 100 differing items; its own estimate sizes a
  // sketch comfortably under the 64-element ceiling.
  const std::size_t estimates[] = {25, 25, 25, 25};
  ReconcileStats sharded_st;
  auto sharded = adaptive.reconcile_shards(a, b, shard_of, estimates,
                                           &sharded_st);
  ASSERT_TRUE(sharded.has_value());
  EXPECT_EQ(sharded_st.decode_failures, 0u);
  EXPECT_LT(sharded_st.bytes, global_st.bytes)
      << "per-shard estimates must beat the clamped global estimate";

  // Same recovered difference either way (the symmetric difference is
  // unique; only the transport cost differs).
  std::sort(global->begin(), global->end());
  std::sort(sharded->begin(), sharded->end());
  EXPECT_EQ(*global, *sharded);
}

TEST(AdaptiveReconciler, SingleShardMatchesUnsharded) {
  // k = 1 degenerates to exactly one adaptive round: same bytes, same result.
  auto a = make_range(0, 120);
  auto b = make_range(40, 160);

  AdaptiveReconciler adaptive(32, 128);
  ReconcileStats flat_st;
  auto flat = adaptive.reconcile(a, b, 80, &flat_st);
  ASSERT_TRUE(flat.has_value());

  const std::size_t estimates[] = {80};
  ReconcileStats sh_st;
  auto sharded = adaptive.reconcile_shards(
      a, b, [](std::uint64_t) { return 0u; }, estimates, &sh_st);
  ASSERT_TRUE(sharded.has_value());
  EXPECT_EQ(sh_st.bytes, flat_st.bytes);
  std::sort(flat->begin(), flat->end());
  std::sort(sharded->begin(), sharded->end());
  EXPECT_EQ(*flat, *sharded);
}

TEST(AdaptiveReconciler, UnderestimateFallsBackToSplitter) {
  auto only_a = make_range(100, 180);  // 160-element difference
  auto only_b = make_range(300, 380);

  AdaptiveReconciler adaptive(32, 64);  // max capacity < true difference
  ReconcileStats st;
  auto got = adaptive.reconcile(only_a, only_b, 2, &st);  // wildly low estimate
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), only_a.size() + only_b.size());
  EXPECT_GE(st.decode_failures, 1u);  // the undersized attempt failed
  EXPECT_GT(st.rounds, 0u);           // and the splitter recursed
}

}  // namespace
}  // namespace lo::sketch

// ----------------------------------------------------- config validation ----

namespace lo::core {
namespace {

LoConfig base_cfg() {
  LoConfig cfg;
  cfg.sig_mode = crypto::SignatureMode::kSimFast;
  cfg.prevalidation.sig_mode = crypto::SignatureMode::kSimFast;
  return cfg;
}

TEST(ConfigValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(base_cfg().validate());
  auto with_membership = base_cfg();
  with_membership.membership.enabled = true;
  EXPECT_NO_THROW(with_membership.validate());
}

TEST(ConfigValidate, RejectsShrinkingBackoff) {
  auto cfg = base_cfg();
  cfg.backoff_factor = 0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidate, RejectsOutOfRangeJitter) {
  auto cfg = base_cfg();
  cfg.backoff_jitter = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.backoff_jitter = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidate, RejectsZeroTimeoutAndBadCap) {
  auto cfg = base_cfg();
  cfg.request_timeout = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_cfg();
  cfg.backoff_cap = cfg.request_timeout - 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidate, RejectsInconsistentMembershipTiming) {
  auto cfg = base_cfg();
  cfg.membership.enabled = true;
  cfg.membership.ping_timeout = cfg.membership.protocol_period;  // must be <
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_cfg();
  cfg.membership.enabled = true;
  cfg.membership.indirect_fanout = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_cfg();
  cfg.membership.enabled = true;
  cfg.membership.suspicion_periods = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // Disabled membership skips the membership checks entirely.
  cfg = base_cfg();
  cfg.membership.suspicion_periods = 0;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, NodeConstructionFailsFast) {
  sim::Simulator sim(1);
  auto cfg = base_cfg();
  cfg.backoff_factor = 0.0;
  auto keys = crypto::derive_keypair(1, cfg.sig_mode);
  EXPECT_THROW(LoNode(sim, 0, cfg, keys), std::invalid_argument);
}

}  // namespace
}  // namespace lo::core
