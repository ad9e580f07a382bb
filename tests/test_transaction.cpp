// Transaction tests: construction, serialization, prevalidation (Stage I).
#include <gtest/gtest.h>

#include "core/transaction.hpp"

namespace lo::core {
namespace {

crypto::Signer test_client(std::uint64_t id = 1,
                           crypto::SignatureMode mode = crypto::SignatureMode::kEd25519) {
  return crypto::Signer(crypto::derive_keypair(id, mode), mode);
}

TEST(Transaction, WireSizeMatchesPaper) {
  const auto client = test_client();
  const auto tx = make_transaction(client, 1, 100, 0);
  EXPECT_EQ(tx.wire_size(), kTxWireSize);
  EXPECT_EQ(tx.serialize().size(), kTxWireSize);
}

TEST(Transaction, IdBindsAllFields) {
  const auto client = test_client();
  auto tx = make_transaction(client, 1, 100, 555);
  EXPECT_EQ(tx.compute_id(), tx.id);
  auto t2 = tx;
  t2.fee = 101;
  EXPECT_NE(t2.compute_id(), tx.id);
  auto t3 = tx;
  t3.nonce = 2;
  EXPECT_NE(t3.compute_id(), tx.id);
  auto t4 = tx;
  t4.body[0] ^= 1;
  EXPECT_NE(t4.compute_id(), tx.id);
}

TEST(Transaction, SerializeRoundTrip) {
  const auto client = test_client(3);
  const auto tx = make_transaction(client, 42, 999, 123456);
  const auto bytes = tx.serialize();
  const auto back = Transaction::deserialize(bytes);
  EXPECT_EQ(back.id, tx.id);
  EXPECT_EQ(back.creator, tx.creator);
  EXPECT_EQ(back.nonce, tx.nonce);
  EXPECT_EQ(back.fee, tx.fee);
  EXPECT_EQ(back.created_at, tx.created_at);
  EXPECT_EQ(back.body, tx.body);
  EXPECT_EQ(back.sig, tx.sig);
}

TEST(Transaction, DistinctNoncesDistinctIds) {
  const auto client = test_client();
  const auto a = make_transaction(client, 1, 100, 0);
  const auto b = make_transaction(client, 2, 100, 0);
  EXPECT_NE(a.id, b.id);
}

TEST(Prevalidation, AcceptsValid) {
  const auto client = test_client();
  const auto tx = make_transaction(client, 1, 100, 0);
  PrevalidationPolicy p;
  EXPECT_TRUE(prevalidate(tx, p));
}

TEST(Prevalidation, RejectsLowFee) {
  const auto client = test_client();
  const auto tx = make_transaction(client, 1, 5, 0);
  PrevalidationPolicy p;
  p.min_fee = 10;
  EXPECT_FALSE(prevalidate(tx, p));
}

TEST(Prevalidation, RejectsTamperedBody) {
  const auto client = test_client();
  auto tx = make_transaction(client, 1, 100, 0);
  tx.body[3] ^= 0xff;
  PrevalidationPolicy p;
  EXPECT_FALSE(prevalidate(tx, p));  // id no longer matches
}

TEST(Prevalidation, RejectsForgedSignature) {
  const auto client = test_client();
  auto tx = make_transaction(client, 1, 100, 0);
  tx.sig[10] ^= 1;
  tx.id = tx.compute_id();  // recompute id so only the signature is bad
  PrevalidationPolicy p;
  EXPECT_FALSE(prevalidate(tx, p));
}

TEST(Prevalidation, RejectsWrongCreatorKey) {
  const auto a = test_client(1);
  const auto b = test_client(2);
  auto tx = make_transaction(a, 1, 100, 0);
  tx.creator = b.public_key();
  tx.id = tx.compute_id();
  PrevalidationPolicy p;
  EXPECT_FALSE(prevalidate(tx, p));
}

TEST(Prevalidation, SimFastModeWorks) {
  const auto client = test_client(9, crypto::SignatureMode::kSimFast);
  const auto tx = make_transaction(client, 1, 100, 0);
  PrevalidationPolicy p;
  p.sig_mode = crypto::SignatureMode::kSimFast;
  EXPECT_TRUE(prevalidate(tx, p));
}

TEST(Transaction, TxidShortIsStable) {
  const auto client = test_client();
  const auto tx = make_transaction(client, 7, 100, 0);
  EXPECT_EQ(txid_short(tx.id), txid_short(tx.id));
  // First byte of the id is the low byte of the short id (little-endian).
  EXPECT_EQ(txid_short(tx.id) & 0xff, tx.id[0]);
}

}  // namespace
}  // namespace lo::core
